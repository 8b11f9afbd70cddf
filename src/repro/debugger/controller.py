"""ReplayController: time-travel debugging over deterministic replay.

The controller owns a replay :class:`~repro.machine.system.ChunkMachine`
and is a client of its one drive loop, :meth:`ChunkMachine.run`.  An
observer on the machine fires at the exact linearization point of
every global commit (processor chunk or DMA burst); there the
controller verifies the commit against the recording, evaluates
breakpoints, takes periodic checkpoints, and -- when it decides to
stop -- freezes the commit pipeline mid-dispatch with
:meth:`ChunkMachine.pause_at_boundary`, which makes ``run()`` return;
the next ``run()`` resumes.  A machine paused this way exposes
*committed* architectural state exactly: memory holds precisely the
first GCC commits' writes, and each processor's committed thread state
is the start state of its oldest speculative chunk.

Backward motion is restore + re-run, the only way time travel can work
on a record/replay substrate: ``goto n`` restores the nearest
checkpoint at or before n (from the :class:`CheckpointIndex`) into a
fresh replay machine and re-executes forward to n with breakpoints
disabled.  With checkpoints every k commits that is at most k - 1
re-executed commits, and ``rstep`` -- land exactly one commit back --
costs the same bounded re-run.
"""

from __future__ import annotations

from dataclasses import dataclass

from repro.chunks.chunk import write_pairs
from repro.core.recorder import Recording
from repro.debugger.breakpoints import BreakpointTable
from repro.debugger.checkpoints import CheckpointIndex
from repro.errors import ConfigurationError, ReplayDivergenceError
from repro.machine.system import MachineObserver, build_replay_machine
from repro.telemetry.tracer import NULL_TRACER, Tracer


@dataclass(frozen=True)
class CommitView:
    """One global commit as the debugger saw it linearize.

    ``gcc`` is the commit's position in the global order (1-based: the
    n-th commit leaves the machine at GCC = n).  ``squashes`` and
    ``interrupts`` are the events that happened *since the previous
    boundary* and are attributed to this commit: squashes its
    propagation caused, handlers injected while it was in flight.
    """

    gcc: int
    proc: int | str
    seq: int
    is_dma: bool
    is_handler: bool
    instructions: int
    writes: dict[int, int]
    read_lines: frozenset[int]
    write_lines: frozenset[int]
    fingerprint: tuple
    cycle: float
    squashes: tuple = ()
    interrupts: tuple = ()

    def describe(self) -> str:
        """One-line rendering for the REPL."""
        if self.is_dma:
            head = f"dma burst {self.seq}"
        else:
            head = f"p{self.proc} c{self.seq}"
            if self.is_handler:
                head += " [handler]"
            head += f" ({self.instructions} instr)"
        if self.writes:
            sample = ", ".join(
                f"0x{a:x}={v}" for a, v
                in sorted(self.writes.items())[:4])
            more = len(self.writes) - min(4, len(self.writes))
            head += f" wrote {sample}" + (f" +{more}" if more else "")
        for proc, victims, cause in self.squashes:
            head += f"; squashed p{proc} c{list(victims)} ({cause})"
        for proc, vector in self.interrupts:
            head += f"; irq v{vector} -> p{proc}"
        return head


@dataclass(frozen=True)
class StopInfo:
    """Why and where the controller stopped."""

    reason: str  # "breakpoint" | "step" | "goto" | "divergence" | "end"
    gcc: int
    commit: CommitView | None = None
    breakpoints: tuple = ()
    message: str = ""

    def describe(self) -> str:
        """One-line rendering for the REPL."""
        text = f"[gcc {self.gcc}] {self.reason}"
        if self.breakpoints:
            text += " " + ", ".join(
                f"#{bp.number}" for bp in self.breakpoints)
        if self.commit is not None:
            text += f": {self.commit.describe()}"
        if self.message:
            text += f" -- {self.message}"
        return text


class _Observer(MachineObserver):
    """The machine-side hook: accumulates between-boundary events and
    forwards each commit boundary to the controller."""

    def __init__(self, controller: "ReplayController") -> None:
        self.controller = controller
        self.squashes: list[tuple] = []
        self.interrupts: list[tuple] = []

    def _drain(self) -> tuple[tuple, tuple]:
        squashes = tuple(self.squashes)
        interrupts = tuple(self.interrupts)
        self.squashes.clear()
        self.interrupts.clear()
        return squashes, interrupts

    def on_commit(self, chunk, fingerprint: tuple, count: int) -> None:
        squashes, interrupts = self._drain()
        controller = self.controller
        controller._boundary(CommitView(
            gcc=controller._base + count,
            proc=chunk.processor,
            seq=chunk.logical_seq,
            is_dma=False,
            is_handler=chunk.is_handler,
            instructions=fingerprint[4],
            writes=dict(write_pairs(fingerprint)),
            read_lines=frozenset(chunk.read_lines),
            write_lines=frozenset(chunk.write_lines),
            fingerprint=fingerprint,
            cycle=controller._machine.engine.now,
            squashes=squashes,
            interrupts=interrupts,
        ))

    def on_dma(self, writes: dict[int, int], fingerprint: tuple,
               count: int) -> None:
        squashes, interrupts = self._drain()
        controller = self.controller
        line_of = controller._machine.config.line_of
        controller._boundary(CommitView(
            gcc=controller._base + count,
            proc="dma",
            seq=fingerprint[1],
            is_dma=True,
            is_handler=False,
            instructions=0,
            writes=dict(writes),
            read_lines=frozenset(),
            write_lines=frozenset(line_of(a) for a in writes),
            fingerprint=fingerprint,
            cycle=controller._machine.engine.now,
            squashes=squashes,
            interrupts=interrupts,
        ))

    def on_squash(self, proc: int, victim_seqs: list[int],
                  cause: str) -> None:
        self.squashes.append((proc, tuple(victim_seqs), cause))

    def on_interrupt(self, proc: int, event) -> None:
        self.interrupts.append((proc, event.vector))


class ReplayController:
    """Scriptable time-travel debugger over one recording.

    ::

        controller = ReplayController(recording, checkpoint_every=32)
        controller.breakpoints.add("write", address=0x40)
        stop = controller.cont()       # runs to the watchpoint
        stop = controller.rstep()      # exactly one commit back
        controller.read_word(0x40)     # committed memory at this GCC

    ``verify=True`` (the default) compares every replayed commit
    against the recording's fingerprint sequence and stops with reason
    ``divergence`` on the first mismatch -- the debugger doubles as a
    divergence bisector.
    """

    def __init__(
        self,
        recording: Recording,
        checkpoint_every: int = 64,
        verify: bool = True,
        tracer: Tracer | None = None,
        stop_after: int = 0,
    ) -> None:
        self.recording = recording
        #: A cut segment's commit count: the program goes on past it,
        #: so every machine halts there.  0 replays to the program end.
        self._stop_after = stop_after
        self.verify = verify
        self.tracer = tracer if tracer is not None else NULL_TRACER
        self.breakpoints = BreakpointTable()
        self.checkpoints = CheckpointIndex(interval=checkpoint_every)
        self.checkpoints.seed_from_recording(recording)
        self.total_commits = len(recording.fingerprints)
        self.last_stop: StopInfo | None = None
        self.current: CommitView | None = None
        #: Commits re-executed by the most recent goto/rstep (the
        #: O(N / checkpoint interval) bound under test).
        self.last_reexecuted = 0
        self.finished = False
        self._target: int | None = None
        self._target_reason = "step"
        self._honor_breakpoints = True
        self._stop: StopInfo | None = None
        self._machine_dead = False
        self._rebuild(None)

    # ------------------------------------------------------------------
    # Machine lifecycle
    # ------------------------------------------------------------------

    @property
    def gcc(self) -> int:
        """Global commit count the machine is paused at."""
        return self._base + self._machine.commit_count

    @property
    def machine(self):
        """The live replay machine (read-only inspection)."""
        return self._machine

    def _rebuild(self, checkpoint) -> None:
        """Fresh replay machine from ``checkpoint`` (None = GCC 0, from
        the recording's start checkpoint if it is a degraded segment).

        ``use_strata=False`` always: a checkpoint may fall inside a
        stratum, and the debugger needs the totally-ordered PI log for
        exact GCC positioning.
        """
        self._base = checkpoint.commit_index if checkpoint else 0
        self._machine = build_replay_machine(
            self.recording,
            use_strata=False,
            start_checkpoint=checkpoint,
            stop_after=(self._stop_after - self._base
                        if self._stop_after else 0),
            tracer=self.tracer,
        )
        self._machine.observers.append(_Observer(self))
        self.finished = False
        self._machine_dead = False
        self.current = None

    def _boundary(self, view: CommitView) -> None:
        """Observer callback at a commit's linearization point."""
        self.current = view
        machine = self._machine
        stops: list = []
        reason = None
        message = ""
        if self.verify and view.gcc - 1 < self.total_commits:
            expected = self.recording.fingerprints[view.gcc - 1]
            if view.fingerprint != expected:
                reason = "divergence"
                message = (f"replayed {view.fingerprint!r} but the "
                           f"recording has {expected!r} at gcc "
                           f"{view.gcc}; see repro.telemetry.forensics"
                           f".diagnose_replay for a full diagnosis")
                stops.extend(self.breakpoints.divergence_breakpoints())
                self._machine_dead = True
        if reason is None and self.checkpoints.due(view.gcc):
            self._maybe_checkpoint(view.gcc)
        if reason is None and self._target is not None \
                and view.gcc >= self._target:
            reason = self._target_reason
        if self._honor_breakpoints and not self._machine_dead:
            hits = self.breakpoints.matches(
                view, self._machine.config.line_of)
            if hits:
                stops.extend(hits)
                if reason is None:
                    reason = "breakpoint"
        if reason is None:
            return
        machine.pause_at_boundary()
        self._stop = StopInfo(
            reason=reason, gcc=view.gcc, commit=view,
            breakpoints=tuple(stops), message=message)
        if self.tracer.enabled:
            self.tracer.instant(
                "debugger", f"stop {reason} @ gcc {view.gcc}",
                view.cycle, category="debug", gcc=view.gcc,
                reason=reason,
                breakpoints=[bp.number for bp in stops])

    def _maybe_checkpoint(self, gcc: int) -> None:
        """Index a restore point at this boundary, unless a split
        logical chunk has committed only some of its pieces."""
        try:
            snapshot = self._machine.checkpoint(label=f"debug-gcc{gcc}")
        except ConfigurationError:
            return
        self.checkpoints.add(snapshot)

    def _run(self) -> StopInfo:
        """Run the machine until the observer pauses it or the replay
        ends."""
        self._stop = None
        try:
            if self._machine.run() is not None:
                self._finish()
        except ReplayDivergenceError as error:
            # The machine detected a structural divergence (log
            # mismatch) before the fingerprint check could: surface it
            # as a stop instead of unwinding the debug session.
            self._machine_dead = True
            self._stop = StopInfo(
                reason="divergence", gcc=self.gcc, commit=self.current,
                message=str(error))
        self._target = None
        self.last_stop = self._stop
        return self._stop

    def _finish(self) -> None:
        """The machine ran to its end."""
        problems = []
        if self._base == 0 and not self._stop_after:
            problems = self._machine.replay_source.verify_fully_consumed()
        self.finished = True
        message = "; ".join(problems) if problems else "replay complete"
        self._stop = StopInfo(reason="end", gcc=self.gcc,
                              commit=self.current, message=message)

    def _require_live_forward(self) -> None:
        if self._machine_dead:
            raise ConfigurationError(
                "the replay diverged; only goto/rstep (which rebuild "
                "from a checkpoint) can move from here")

    # ------------------------------------------------------------------
    # Motion
    # ------------------------------------------------------------------

    def cont(self) -> StopInfo:
        """Run forward until a breakpoint fires or the replay ends."""
        if self.finished:
            return self.last_stop
        self._require_live_forward()
        self._target = None
        self._honor_breakpoints = True
        start_cycle = self._machine.engine.now
        stop = self._run()
        self._trace_motion("continue", start_cycle, 0)
        return stop

    run = cont

    def step(self, count: int = 1) -> StopInfo:
        """Advance exactly ``count`` global commits (breakpoints still
        fire on the way)."""
        if count < 1:
            raise ConfigurationError("step count must be >= 1")
        if self.finished:
            return self.last_stop
        self._require_live_forward()
        self._target = self.gcc + count
        self._target_reason = "step"
        self._honor_breakpoints = True
        start_cycle = self._machine.engine.now
        stop = self._run()
        self._trace_motion("step", start_cycle, 0)
        return stop

    def goto(self, target: int) -> StopInfo:
        """Land exactly on GCC = ``target``, forward or backward.

        Backward (or onto a dead/finished machine) restores the nearest
        checkpoint at or before the target and re-executes with
        breakpoints disabled; ``last_reexecuted`` records the re-run
        length.
        """
        if not 0 <= target <= self.total_commits:
            raise ConfigurationError(
                f"gcc {target} out of range [0, {self.total_commits}]")
        if target == self.gcc and not self._machine_dead:
            self.last_stop = StopInfo(reason="goto", gcc=target,
                                      commit=self.current)
            return self.last_stop
        start_cycle = self._machine.engine.now
        if target > self.gcc and not self._machine_dead \
                and not self.finished:
            self.last_reexecuted = 0
        else:
            # A cut segment's machine needs a commit left to halt
            # after, so it never restores the checkpoint at the cut.
            checkpoint = self.checkpoints.at_or_before(
                min(target, self._stop_after - 1) if self._stop_after
                else target)
            self._rebuild(checkpoint)
            self.last_reexecuted = target - self._base
        if target == self.gcc:
            self.last_stop = StopInfo(reason="goto", gcc=target,
                                      commit=None)
        else:
            self._target = target
            self._target_reason = "goto"
            self._honor_breakpoints = False
            stop = self._run()
            self._honor_breakpoints = True
            if stop is not None and stop.reason == "goto" \
                    and stop.gcc != target:
                raise ConfigurationError(
                    f"goto overshot: asked for gcc {target}, landed "
                    f"on {stop.gcc}")
        self._trace_motion(f"goto {target}", start_cycle,
                           self.last_reexecuted)
        return self.last_stop

    def rstep(self, count: int = 1) -> StopInfo:
        """Step backward: land exactly ``count`` commits before the
        current GCC."""
        if count < 1:
            raise ConfigurationError("rstep count must be >= 1")
        return self.goto(max(0, self.gcc - count))

    def _trace_motion(self, what: str, start_cycle: float,
                      reexecuted: int) -> None:
        if not self.tracer.enabled:
            return
        now = self._machine.engine.now
        self.tracer.span(
            "debugger", what, start_cycle,
            max(0.0, now - start_cycle), category="debug",
            gcc=self.gcc, reexecuted=reexecuted)

    # ------------------------------------------------------------------
    # State inspection (committed view at the paused boundary)
    # ------------------------------------------------------------------

    def read_word(self, address: int) -> int:
        """Committed memory word at the current GCC."""
        return self._machine.memory.read(address)

    def memory_view(self) -> dict[int, int]:
        """All nonzero committed memory words."""
        return self._machine.memory.nonzero_words()

    def thread_state(self, proc: int):
        """Processor ``proc``'s committed architectural state."""
        return self._machine.processors[proc].committed_state

    def thread_summary(self) -> list[dict]:
        """Per-processor committed state, REPL-friendly."""
        rows = []
        for processor in self._machine.processors:
            state = self.thread_state(processor.proc_id)
            rows.append({
                "proc": processor.proc_id,
                "committed_chunks": processor.committed_count,
                "op_index": state.op_index,
                "accumulator": state.accumulator,
                "in_handler": state.in_handler,
                "finished": state.finished,
                "speculative_chunks": len(processor.outstanding),
            })
        return rows

    def log_cursors(self) -> dict:
        """Absolute input-log consumption at the current boundary."""
        return self._machine.replay_source.cursors()

    def state_fingerprint(self) -> tuple:
        """Hashable digest of the committed state (memory + threads),
        used by tests to compare debugger state against a straight-line
        replay paused at the same GCC."""
        memory = tuple(sorted(
            (a, v) for a, v in self.memory_view().items() if v))
        threads = tuple(
            self.thread_state(p.proc_id).architectural_key()
            for p in self._machine.processors)
        return memory, threads
