"""Human-readable views of a recording (used by the CLI).

A recording is a dense binary artifact; these helpers render what a
debugging engineer actually wants to see before replaying: what was
recorded, how big each log is, how the commit interleaving looks, and
where the interval checkpoints sit.
"""

from __future__ import annotations

from repro.analysis.report import format_table
from repro.chunks.chunk import write_pairs
from repro.core.recorder import Recording, commits_by_processor


def describe_recording(recording: Recording) -> str:
    """One-screen summary of a recording."""
    stats = recording.stats
    ordering = recording.memory_ordering
    lines = [
        f"DeLorean recording -- mode {recording.mode_config.mode.value}",
        f"  machine: {recording.machine_config.num_processors} "
        f"processors, {recording.mode_config.standard_chunk_size}"
        f"-instruction chunks",
        f"  committed: {stats.total_committed_chunks} chunks / "
        f"{stats.total_committed_instructions} instructions in "
        f"{stats.cycles:,.0f} cycles (IPC {stats.ipc:.2f})",
        f"  squashes: {stats.total_squashes} "
        f"({100 * stats.wasted_instruction_fraction:.1f}% of executed "
        f"instructions wasted)",
        f"  truncations: {stats.overflow_truncations} overflow, "
        f"{stats.collision_truncations} collision, "
        f"{stats.io_truncations} I/O or special",
        f"  handlers: {stats.handler_chunks} chunks; DMA commits: "
        f"{stats.dma_commits}",
    ]
    if ordering is not None:
        total = recording.total_committed_instructions
        lines.append(
            f"  memory-ordering log: PI {ordering.pi_size_bits(False)} "
            f"bits ({len(recording.pi_log)} entries), CS "
            f"{ordering.cs_size_bits(False)} bits "
            f"({sum(len(l) for l in recording.cs_logs.values())} "
            f"entries)")
        lines.append(
            f"    = {ordering.bits_per_proc_per_kiloinst(total, False):.2f}"
            f" bits/proc/kilo-instruction "
            f"({ordering.bits_per_proc_per_kiloinst(total, True):.2f} "
            f"compressed)")
        if ordering.stratified_pi_bits is not None:
            lines.append(
                f"    stratified PI log: {ordering.stratified_pi_bits} "
                f"bits ({len(recording.strata)} strata)")
    input_entries = (
        sum(len(l) for l in recording.interrupt_logs.values()),
        sum(len(l) for l in recording.io_logs.values()),
        len(recording.dma_log),
    )
    lines.append(
        f"  input logs: {input_entries[0]} interrupts, "
        f"{input_entries[1]} I/O values, {input_entries[2]} DMA bursts")
    checkpoints = recording.interval_checkpoints
    if checkpoints is not None and len(checkpoints):
        positions = ", ".join(
            str(c.commit_index) for c in checkpoints)
        lines.append(f"  interval checkpoints at commits: {positions}")
    return "\n".join(lines)


def commit_timeline(recording: Recording, limit: int = 40) -> str:
    """The first ``limit`` commits, one row each."""
    rows = []
    for index, fingerprint in enumerate(
            recording.fingerprints[:limit]):
        written = len(write_pairs(fingerprint))
        if fingerprint[0] == "dma":
            rows.append([index, "DMA", fingerprint[1], "-", written,
                         "dma burst"])
            continue
        proc, seq, _piece, is_handler, instructions, _, _end = fingerprint
        kind = "handler" if is_handler else "chunk"
        rows.append([index, f"cpu{proc}", seq, instructions, written,
                     kind])
    table = format_table(
        ["#", "committer", "seq", "instructions", "lines written",
         "kind"],
        rows, title="Commit timeline")
    remaining = len(recording.fingerprints) - limit
    if remaining > 0:
        table += f"\n... {remaining} more commits"
    return table


def interleaving_strip(recording: Recording, width: int = 64) -> str:
    """The commit interleaving as character strips (one symbol per
    commit: the committing processor's hex digit, or ``*`` for DMA)."""
    symbols = []
    for fingerprint in recording.fingerprints:
        if fingerprint[0] == "dma":
            symbols.append("*")
        else:
            symbols.append(format(fingerprint[0], "x"))
    lines = ["Commit interleaving (one symbol per commit; * = DMA):"]
    for start in range(0, len(symbols), width):
        lines.append(f"  {start:>6}  "
                     + "".join(symbols[start:start + width]))
    return "\n".join(lines)


def per_processor_summary(recording: Recording) -> str:
    """Per-processor commit counts and instruction totals."""
    rows = []
    config = recording.machine_config
    for proc, entries in commits_by_processor(
            recording.fingerprints, config).items():
        if not entries:
            continue
        if proc == config.dma_proc_id:
            rows.append(["DMA", len(entries), "-", "-"])
            continue
        instructions = sum(f[4] for f in entries)
        handlers = sum(1 for f in entries if f[3])
        rows.append([f"cpu{proc}", len(entries), instructions,
                     handlers])
    return format_table(
        ["processor", "chunks", "instructions", "handler chunks"],
        rows, title="Per-processor commits")
