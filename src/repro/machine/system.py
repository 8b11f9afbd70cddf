"""The simulated CMP: record-mode and replay-mode run loops.

``ChunkMachine`` wires together the chunk-building processors, the
shared memory, the commit arbiter (with the mode- and phase-appropriate
ordering policy), the directory, the DMA engine and the interrupt
delivery path, and drives them with the discrete-event engine.

The same machine runs both phases:

* **Record**: external events (interrupts, DMA, I/O values) come from
  the workload and the modeled device; the arbiter uses the mode's
  recording policy; a :class:`~repro.core.recorder.Recorder` captures
  the PI/CS/Interrupt/IO/DMA logs.
* **Replay**: external events come *only* from the recording; the
  arbiter enforces the recorded interleaving (PI log order, stratum
  quotas, or PicoLog's predefined round-robin); chunk sizes follow the
  CS log; optional timing perturbation exercises the paper's
  replay-speed methodology without being allowed to change the
  replayed architectural state.

Event-ordering rules that matter for correctness are documented inline;
they are the product of the commit protocol of Figure 4 plus the
exceptional-event handling of Section 4.2.
"""

from __future__ import annotations

import random
import weakref
from dataclasses import dataclass, replace

from repro.analysis.stats import RunStats
from repro.chunks.cache import CacheConfig, SharedL2Filter, SpeculativeCache
from repro.chunks.chunk import Chunk, ChunkState, TruncationReason
from repro.chunks.directory import CommitDirectory
from repro.chunks.processor import ChunkProcessor
from repro.core.arbiter import (
    ArrivalOrderPolicy,
    CommitArbiter,
    PIReplayPolicy,
    RoundRobinPolicy,
    SchedulePlan,
    SchedulePolicy,
    StrataReplayPolicy,
)
from repro.core.interval import IntervalCheckpoint, IntervalCheckpointStore
from repro.core.modes import ModeConfig
from repro.core.recorder import Recorder, Recording
from repro.core.replayer import (
    DeterminismReport,
    ReplayPerturbation,
    ReplayResult,
    ReplaySource,
    verify_determinism,
)
from repro.errors import (
    ConfigurationError,
    DeadlockError,
    IntegrityError,
    ReplayDivergenceError,
)
from repro.machine.engine import EventEngine
from repro.machine.events import DmaTransfer, IODevice, InterruptEvent
from repro.machine.memory import MainMemory
from repro.machine.program import LOCK_SPIN_COST, Program, ThreadState
from repro.machine.timing import MachineConfig
from repro.telemetry.forensics import DivergenceContext
from repro.telemetry.tracer import NULL_TRACER, Tracer

# Event priorities: commit finalization must run before same-time
# request arrivals so a doomed chunk is squashed before it is queued.
_PRIO_FINALIZE = 0
_PRIO_DEFAULT = 1

#: Dispatches between the engine queue-depth samples of a traced run.
_ENGINE_SAMPLE_STRIDE = 64

#: States of a processor's oldest chunk that count it as ready in the
#: per-grant sample.  A tuple, not a frozenset: ``Enum.__hash__`` is a
#: Python-level call, while tuple membership compares identities.
_READY_STATES = (ChunkState.COMPLETED, ChunkState.REQUESTED,
                 ChunkState.COMMITTING)


class _RecordIOSource:
    """Record-phase I/O: values come from the modeled device."""

    def __init__(self, device: IODevice) -> None:
        self.device = device

    def io_load(self, proc: int, port: int) -> int:
        return self.device.load(port)

    def io_store(self, proc: int, port: int, value: int) -> None:
        self.device.store(port, value)


@dataclass
class RunResult:
    """Raw outcome of one machine run (shared by record and replay)."""

    stats: RunStats
    fingerprints: list[tuple]
    final_memory: dict[int, int]
    final_thread_keys: dict[int, tuple]


class MachineObserver:
    """A client of :meth:`ChunkMachine.run`, the one drive loop.

    Append instances to :attr:`ChunkMachine.observers`; every hook is a
    no-op here, so subclasses override only what they use.

    * ``on_commit``/``on_dma`` fire at the exact linearization point of
      each global commit: committed memory holds precisely the first
      ``count`` commits' writes, so an observer that calls
      :meth:`ChunkMachine.pause_at_boundary` there sees the
      architectural state at that GCC.
    * ``on_squash`` and ``on_interrupt`` report squashes and delivered
      interrupts as they happen.
    * ``on_poll(events)`` fires after every dispatch whose count is a
      multiple of ``poll_stride`` (0: never).
    * ``on_boundary()`` fires after the first dispatch following a
      commit at which the machine is :attr:`~ChunkMachine.quiescent`:
      the point to charge budgets and snapshot the committed prefix.
    """

    poll_stride = 0

    def on_commit(self, chunk: Chunk, fingerprint: tuple,
                  count: int) -> None:
        pass

    def on_dma(self, writes: dict[int, int], fingerprint: tuple,
               count: int) -> None:
        pass

    def on_squash(self, proc: int, victim_seqs: list[int],
                  cause: str) -> None:
        pass

    def on_interrupt(self, proc: int, event: InterruptEvent) -> None:
        pass

    def on_poll(self, events: int) -> None:
        pass

    def on_boundary(self) -> None:
        pass


class ChunkMachine:
    """An N-processor chunk-based CMP (BulkSC substrate + DeLorean)."""

    def __init__(
        self,
        program: Program,
        machine_config: MachineConfig,
        mode_config: ModeConfig,
        replay_source: ReplaySource | None = None,
        perturbation: ReplayPerturbation | None = None,
        use_strata: bool = False,
        stochastic_overflow_rate: float = 0.0,
        checkpoint_every: int = 0,
        start_checkpoint: IntervalCheckpoint | None = None,
        stop_after_commits: int = 0,
        tracer: Tracer | None = None,
        schedule: SchedulePlan | None = None,
    ) -> None:
        if program.num_threads > machine_config.num_processors:
            raise ConfigurationError(
                f"program has {program.num_threads} threads but the "
                f"machine only {machine_config.num_processors} processors")
        self.program = program
        self.config = machine_config
        self.mode_config = mode_config
        self.replay_source = replay_source
        self.is_replay = replay_source is not None
        self.perturbation = perturbation
        self.use_strata = use_strata
        self.stochastic_overflow_rate = stochastic_overflow_rate
        if schedule is not None and schedule.is_natural:
            schedule = None
        if schedule is not None:
            if self.is_replay:
                raise ConfigurationError(
                    "schedule plans perturb the *record* arbiter; "
                    "replay follows the recorded order")
            if mode_config.mode.predefined_order:
                raise ConfigurationError(
                    f"mode {mode_config.mode.name} commits in a "
                    "predefined order with no PI log, so a forced "
                    "schedule could not be replayed; explore "
                    "predefined-order modes on their natural schedule")
        self.schedule = schedule
        self.tracer = tracer if tracer is not None else NULL_TRACER
        metrics = self.tracer.metrics
        self._m_commits = metrics.counter("chunks_committed")
        self._m_instructions = metrics.counter("instructions_committed")
        self._m_dma = metrics.counter("dma_commits")
        self._m_interrupts = metrics.counter("interrupts_delivered")
        self._m_directory_bytes = metrics.gauge("directory_bytes")
        self._m_cycles = metrics.gauge("cycles")
        self._h_chunk_instructions = metrics.histogram(
            "chunk_instructions")
        self._h_commit_wait = metrics.histogram("commit_wait_cycles")

        self.engine = EventEngine()
        self.memory = MainMemory(program.initial_memory)
        shared_l2 = SharedL2Filter(machine_config.l2_lines)
        cache_config = CacheConfig(machine_config.l1_sets,
                                   machine_config.l1_ways)
        self.processors: list[ChunkProcessor] = []
        for proc_id in range(machine_config.num_processors):
            ops = (program.threads[proc_id]
                   if proc_id < program.num_threads else ())
            cache = SpeculativeCache(cache_config, shared_l2)
            self.processors.append(
                ChunkProcessor(proc_id, ops, machine_config, cache,
                               tracer=self.tracer))
        self._caches = {p.proc_id: p.cache for p in self.processors}
        # Traffic is metered at the hardware wire format of Table 5
        # (2 Kbit signatures), independent of the behavioral filter's
        # modeled hash space (see repro.chunks.signature).
        self.directory = CommitDirectory(
            line_bytes=machine_config.line_words * 8,
            signature_bytes_each=256,
        )
        self.io_device = IODevice(program.io_seed)
        self._rng = random.Random(machine_config.seed)
        self._noise_rng = (random.Random(perturbation.seed)
                           if perturbation else None)

        self.recorder = (None if self.is_replay
                         else Recorder(machine_config, mode_config,
                                       tracer=self.tracer))
        # Replay-phase I/O values come from the I/O log only.
        self.io_source = (replay_source if self.is_replay
                          else _RecordIOSource(self.io_device))

        # Interval-replay state must exist before the arbiter is built
        # (the replay policies slice their logs at the checkpoint).
        self._checkpoint_every = checkpoint_every
        self.interval_checkpoints = IntervalCheckpointStore(
            interval=checkpoint_every)
        self.start_checkpoint = start_checkpoint
        # Bounded interval replay: halt after this many logical
        # commits (0 = run to completion).
        self._stop_after = stop_after_commits
        self._stopped = False
        self.arbiter = self._build_arbiter()
        self.stats = RunStats()
        self._fingerprints: list[tuple] = []
        self._piece_accum: dict[int, dict] = {}
        # Replay: proc_id -> in-flight split-chunk state, so a squashed
        # continuation piece is rebuilt with its *remaining* budget.
        self._pending_continuations: dict[int, dict] = {}
        self._dma_sequence = 0
        self._stall_since: dict[int, float | None] = {
            p.proc_id: None for p in self.processors}
        self._finished = False
        self._started = False
        self._budget: int | None = None
        self._paused = False
        # A commit landed since the last quiescent-boundary callback.
        self._boundary_pending = False
        #: :class:`MachineObserver` clients of :meth:`run`, notified in
        #: list order.
        self.observers: list[MachineObserver] = []
        # Interval replay (Appendix B), or a degraded segment's start:
        # restore the checkpointed committed state once everything
        # else is wired.
        if start_checkpoint is not None:
            self._restore_interval_checkpoint(start_checkpoint)

    # ------------------------------------------------------------------
    # Construction helpers
    # ------------------------------------------------------------------

    def _build_arbiter(self) -> CommitArbiter:
        # The machine owns the arbiter and its policy, so nothing handed
        # to them may hold the machine strongly: a bound method or a
        # closure over ``self`` would close a cycle that keeps every
        # finished machine -- its caches, memory and program -- alive
        # until a full garbage collection.  The callbacks close over
        # the parts they read, or reach the machine through a weak
        # proxy.
        machine = weakref.proxy(self)
        engine = self.engine
        processors = self.processors
        replay_source = self.replay_source
        dma_proc_id = self.config.dma_proc_id
        mode = self.mode_config.mode

        def token_wakeup(time: float) -> None:
            engine.schedule_at(
                time, lambda: machine.arbiter.try_grant(engine.now))

        def proc_active(proc_id: int) -> bool:
            """Architectural 'can ever commit again' predicate.

            In replay a processor with un-injected logged interrupts is
            still active even if its thread has finished.
            """
            if processors[proc_id].has_uncommitted_work():
                return True
            if replay_source is not None:
                return replay_source.has_pending_interrupts(proc_id)
            return False

        def is_commit_head(chunk: Chunk) -> bool:
            """A chunk may only be granted when it is its processor's
            oldest uncommitted chunk (same-processor commits are
            ordered)."""
            if chunk.processor == dma_proc_id:
                return True
            outstanding = processors[chunk.processor].outstanding
            return bool(outstanding) and outstanding[0] is chunk

        if not self.is_replay:
            if mode.predefined_order:
                policy = RoundRobinPolicy(
                    self.config.num_processors,
                    is_active=proc_active,
                    hop_cycles=self.config.token_hop_cycles,
                    wakeup=token_wakeup,
                )
            elif self.schedule is not None:
                policy = SchedulePolicy(
                    self.schedule,
                    self.config.num_processors,
                    is_active=proc_active,
                )
            else:
                policy = ArrivalOrderPolicy()
            max_concurrent = self.config.max_concurrent_commits
        else:
            recording = replay_source.recording
            if mode.predefined_order:
                # The replay hypervisor layer slows arbitration (30 ->
                # 50 cycles, Section 6.2.1); token hops are part of the
                # same arbitration path and scale with it.
                hop_scale = (self.config.replay_arbitration_roundtrip
                             / max(1, self.config.arbitration_roundtrip))
                policy = RoundRobinPolicy(
                    self.config.num_processors,
                    is_active=proc_active,
                    slot_gate=lambda proc: replay_source.gate_for(
                        proc, processors[proc].committed_count),
                    grant_count=lambda: machine.arbiter.grant_count,
                    # Recorded DMA bursts own their commit slot: no
                    # processor grant may overtake a due burst (it is
                    # applied by _drain_replay_dma once the pipeline
                    # quiesces, keeping the recorded global order).
                    dma_hold=lambda: replay_source.dma_due_at_slot(
                        machine.arbiter.grant_count),
                    hop_cycles=self.config.token_hop_cycles * hop_scale,
                    wakeup=token_wakeup,
                )
                if self.start_checkpoint is not None:
                    policy.pointer = self._resume_token_pointer(
                        self.start_checkpoint)
            elif self.use_strata:
                if self.start_checkpoint is not None:
                    raise ConfigurationError(
                        "stratified replay cannot start from an "
                        "interval checkpoint (a checkpoint may fall "
                        "inside a stratum)")
                policy = StrataReplayPolicy(
                    recording.strata,
                    dma_slot=dma_proc_id,
                )
            else:
                entries = recording.pi_log.entries
                if self.start_checkpoint is not None:
                    # One PI entry per logical commit (incl. DMA), so
                    # the slice point is exactly the checkpoint's GCC.
                    entries = entries[self.start_checkpoint.commit_index:]
                policy = PIReplayPolicy(
                    entries,
                    dma_proc_id=dma_proc_id,
                )
            disable_parallel = (self.perturbation is not None
                                and self.perturbation
                                .disable_parallel_commit)
            max_concurrent = (1 if disable_parallel
                              else self.config.max_concurrent_commits)
        return CommitArbiter(
            policy=policy,
            max_concurrent=max_concurrent,
            on_grant=lambda chunk, now: machine._on_grant(chunk, now),
            dma_proc_id=dma_proc_id,
            head_filter=is_commit_head,
            tracer=self.tracer,
        )

    def _sample_engine(self) -> None:
        """Queue-depth sample of a traced run."""
        self.tracer.counter("engine", "queue_depth", self.engine.now,
                            depth=self.engine.pending())

    def _restore_interval_checkpoint(
            self, checkpoint: IntervalCheckpoint) -> None:
        """Load a checkpoint's committed state into this fresh machine.

        The one restore path.  A replay machine resumes at any GCC.  A
        recording machine takes only a commit-index-0 checkpoint (a
        degraded segment's start): its logs number from zero, so no
        recorded prefix could precede the checkpoint.
        """
        if not self.is_replay and checkpoint.commit_index:
            raise ConfigurationError(
                "a recording machine starts only from a "
                "commit-index-0 checkpoint")
        self.memory.restore(checkpoint.memory_image)
        for proc in self.processors:
            state = checkpoint.thread_states.get(proc.proc_id)
            if state is not None:
                proc.spec_state.restore(state)
            committed = checkpoint.committed_counts.get(proc.proc_id, 0)
            proc.committed_count = committed
            proc.next_seq = committed + 1
        # Continue the DMA fingerprint numbering and the PicoLog
        # commit-slot counter from where the recording's prefix left
        # them, so slot gates and fingerprints align.
        self._dma_sequence = checkpoint.dma_consumed
        self.arbiter.grant_count = checkpoint.processor_grants

    def _resume_token_pointer(
            self, checkpoint: IntervalCheckpoint) -> int:
        """PicoLog token position after the checkpointed commit: the
        successor of the last processor granted in the prefix (idle
        skipping is architectural and replays on first arbitration)."""
        recording = self.replay_source.recording
        for fingerprint in reversed(
                recording.fingerprints[:checkpoint.commit_index]):
            if fingerprint[0] != "dma":
                return (fingerprint[0] + 1) % self.config.num_processors
        return 0

    def _maybe_halt(self) -> None:
        """Interval replay of I(n, m): after m commits, stop granting
        and stop building; in-flight speculation is abandoned."""
        if (self._stop_after
                and len(self._fingerprints) >= self._stop_after
                and not self._stopped):
            self._stopped = True
            self.arbiter.halt()

    def _maybe_interval_checkpoint(self) -> None:
        """Record phase: capture committed state every N commits."""
        if (self.recorder is None or not self._checkpoint_every
                or len(self._fingerprints) % self._checkpoint_every):
            return
        self.interval_checkpoints.add(self.checkpoint())

    def checkpoint(self, label: str = "") -> IntervalCheckpoint:
        """The committed architectural state at this global commit
        boundary, as an interval checkpoint (label ``gcc<n>`` unless
        given).

        Speculation may be in flight: each processor contributes its
        :attr:`~ChunkProcessor.committed_state`, and committed memory
        is exact because speculative stores stay in per-chunk write
        buffers until commit.  The log cursors come from the recorder
        or, in replay, from the replay source; the GCC counts from the
        start checkpoint's.  Between the pieces of a split logical
        chunk there is no commit boundary to capture, so that raises
        :class:`ConfigurationError`.
        """
        if self.arbiter.has_reservation or self._piece_accum:
            raise ConfigurationError(
                "cannot checkpoint between the pieces of a split chunk")
        if self.is_replay:
            cursors = self.replay_source.cursors()
            io_consumed = cursors["io"]
            dma_consumed = cursors["dma"]
        else:
            io_consumed = {
                proc: len(log)
                for proc, log in self.recorder.io_logs.items()}
            dma_consumed = len(self.recorder.dma_log.entries)
        commit_index = len(self._fingerprints)
        if self.start_checkpoint is not None:
            commit_index += self.start_checkpoint.commit_index
        return IntervalCheckpoint(
            commit_index=commit_index,
            memory_image=self.memory.snapshot(),
            thread_states={
                proc.proc_id: proc.committed_state.snapshot()
                for proc in self.processors},
            committed_counts={
                proc.proc_id: proc.committed_count
                for proc in self.processors},
            io_consumed=io_consumed,
            dma_consumed=dma_consumed,
            label=label or f"gcc{commit_index}",
        )

    @property
    def _arbitration_roundtrip(self) -> float:
        if self.is_replay:
            return self.config.replay_arbitration_roundtrip
        return self.config.arbitration_roundtrip

    # ------------------------------------------------------------------
    # Run loop
    # ------------------------------------------------------------------

    @property
    def commit_count(self) -> int:
        """Global commits (processor chunks and DMA bursts) so far."""
        return len(self._fingerprints)

    @property
    def quiescent(self) -> bool:
        """No commit is in flight and no split chunk awaits its
        continuation: the logs, the fingerprints and committed memory
        all describe exactly the first :attr:`commit_count` commits."""
        return (not self.arbiter.committing
                and not self.arbiter.has_reservation)

    def _start(self, max_events: int | None) -> None:
        """Arm the machine: schedule the external-event streams (record
        phase), build the first chunks, and apply any replay DMA due at
        GCC 0."""
        self._started = True
        if max_events is None:
            ops = self.program.total_static_ops()
            max_events = 500_000 + 200 * ops
        self._budget = max_events
        if not self.is_replay:
            for event in self.program.interrupts:
                self.engine.schedule_at(
                    event.time,
                    lambda e=event: self._deliver_interrupt(e))
            for transfer in self.program.dma_transfers:
                self.engine.schedule_at(
                    transfer.time,
                    lambda t=transfer: self._dma_arrive(t))
        for proc in self.processors:
            self._kick(proc.proc_id)
        if self.is_replay:
            self._drain_replay_dma()

    def pause_at_boundary(self) -> None:
        """Freeze the commit pipeline at the current global commit
        boundary and make :meth:`run` return None.

        Called from an observer's ``on_commit``/``on_dma`` while the
        finalizing dispatch is still on the stack: granting stops,
        replay DMA draining stops, and chunk building stops, so no
        further commit can finalize, and the engine stops dispatching
        once the current event returns.  Events already scheduled stay
        queued; the next :meth:`run` resumes exactly here.
        """
        self._paused = True
        self._stopped = True
        self.arbiter.halt()

    def _resume(self) -> None:
        """Undo :meth:`pause_at_boundary`: re-open the arbiter, rebuild
        any chunks the pause blocked, and re-arbitrate.  In-flight
        events were never cancelled, only left undispatched.  A bounded
        replay paused on its last commit stays halted."""
        self._paused = False
        self._stopped = False
        self.arbiter.halted = False
        self._maybe_halt()
        for proc in self.processors:
            self._kick(proc.proc_id)
        if self.is_replay:
            self._drain_replay_dma()
        else:
            self.arbiter.try_grant(self.engine.now)

    def run(self, max_events: int | None = None) -> RunResult | None:
        """Drive the machine: the one event loop of record, replay,
        supervision and debugging.

        Returns the run capture once the event queue drains, or None
        when an observer paused the machine at a commit boundary; the
        next call resumes there.  ``max_events`` (read by the first
        call) bounds the dispatches of the whole run.  Without
        observers the engine runs with no per-dispatch hook (a traced
        run samples the queue depth every 64 dispatches).
        """
        if self._finished:
            raise ConfigurationError("a ChunkMachine runs only once")
        try:
            if not self._started:
                self._start(max_events)
            elif self._paused:
                self._resume()
            if self._paused:
                return None  # paused again by a DMA applied on (re)start
            if self.observers:
                hook, stride = self._after_dispatch, 1
            elif self.tracer.enabled:
                hook, stride = self._sample_engine, _ENGINE_SAMPLE_STRIDE
            else:
                hook, stride = None, 1
            if not self.engine.run(self._budget, hook, stride):
                return None
            self._check_drained()
        except (ReplayDivergenceError, DeadlockError,
                IntegrityError) as error:
            # Snapshot the partial run for the forensics layer before
            # the error unwinds past the machine.
            error.context = self._divergence_context()
            raise
        self._finished = True
        return self._collect()

    def _after_dispatch(self) -> bool:
        """Per-dispatch hook of an observed run: engine sampling, the
        observers' polls and quiescent-boundary callbacks; true when
        the machine paused."""
        events = self.engine.events_processed
        if self.tracer.enabled and events % _ENGINE_SAMPLE_STRIDE == 0:
            self._sample_engine()
        for observer in self.observers:
            stride = observer.poll_stride
            if stride and events % stride == 0:
                observer.on_poll(events)
        if self._boundary_pending and self.quiescent:
            self._boundary_pending = False
            for observer in self.observers:
                observer.on_boundary()
        return self._paused

    def _divergence_context(self) -> DivergenceContext:
        """The partial-run snapshot attached to fatal replay errors."""
        return DivergenceContext(cycle=self.engine.now,
                                 fingerprints=list(self._fingerprints))

    def _check_drained(self) -> None:
        if self._stopped:
            return  # bounded replay legally abandons in-flight work
        blocked = [p.proc_id for p in self.processors
                   if p.has_uncommitted_work()]
        if blocked or self.arbiter.has_work():
            raise DeadlockError(
                f"machine stopped with work remaining: processors "
                f"{blocked} blocked, arbiter "
                f"{'busy' if self.arbiter.has_work() else 'idle'} at "
                f"cycle {self.engine.now:.0f}")
        if self.is_replay:
            if hasattr(self.arbiter.policy, "finish"):
                self.arbiter.policy.finish()

    def _collect(self) -> RunResult:
        self.stats.cycles = self.engine.now
        self._m_cycles.set(self.engine.now)
        for proc in self.processors:
            self.stats.merge_processor(proc.proc_id, proc.stats)
        if isinstance(self.arbiter.policy, RoundRobinPolicy):
            summary = self.arbiter.policy.stats.summary()
            # Ready-processor and commit-parallelism averages are
            # sampled machine-side at every grant.
            summary["ready_procs_avg"] = self.stats.avg_ready_procs
            summary["actual_commit_avg"] = (
                self.stats.avg_commit_parallelism)
            self.stats.token_summary = summary
        total_refills = sum(
            c.l2_hits + c.memory_accesses for c in self._caches.values())
        self.directory.on_data_refill(total_refills)
        self.stats.traffic = self.directory.traffic.as_dict()
        self._m_directory_bytes.set(self.directory.traffic.total_bytes)
        return RunResult(
            stats=self.stats,
            fingerprints=self._fingerprints,
            final_memory=self.memory.nonzero_words(),
            final_thread_keys={
                p.proc_id: p.committed_fingerprint_state()
                for p in self.processors},
        )

    # ------------------------------------------------------------------
    # Chunk construction
    # ------------------------------------------------------------------

    def _kick(self, proc_id: int) -> None:
        """Build as many chunks as the processor's window allows."""
        proc = self.processors[proc_id]
        if self._stopped:
            return
        now = self.engine.now
        self._relaunch_continuation(proc, now)
        while True:
            if self.is_replay:
                event = self.replay_source.maybe_interrupt(
                    proc_id, proc.next_seq)
                if event is not None:
                    proc.pending_handlers.append(event)
                    for observer in self.observers:
                        observer.on_interrupt(proc_id, event)
            if not proc.can_build():
                break
            self._clear_stall(proc_id, now)
            target, reason, forced = self._chunk_plan(proc)
            chunk = proc.build_chunk(
                now, target, reason, forced, self.memory)
            if (self.is_replay
                    and chunk.truncation is TruncationReason.CACHE_OVERFLOW
                    and chunk.instructions < target
                    and chunk.pending_boundary_op is None
                    and not chunk.end_state.exhausted):
                # Unexpected replay overflow: the remainder must commit
                # back-to-back as a second piece (Section 4.2.3); block
                # successors until the logical chunk completes.
                chunk.blocks_successors = True
            self._apply_replay_timing_noise(chunk)
            start = max(now, proc.exec_free_time)
            done = start + chunk.exec_cycles
            proc.exec_free_time = done
            if self.tracer.enabled:
                self._trace_execute(chunk, start)
            self.engine.schedule(done - now,
                                 lambda c=chunk: self._complete(c))
        self._note_stall(proc_id, now)

    def _trace_execute(self, chunk: Chunk, start: float) -> None:
        """Emit one execute span for a just-built chunk (or piece)."""
        name = f"exec c{chunk.logical_seq}"
        if chunk.piece_index:
            name += f".{chunk.piece_index}"
        self.tracer.span(
            f"p{chunk.processor}", name, start, chunk.exec_cycles,
            category="execute", seq=chunk.logical_seq,
            piece=chunk.piece_index, instructions=chunk.instructions,
            target=chunk.target_size, handler=chunk.is_handler,
            truncation=chunk.truncation.name if chunk.truncation else "")

    def _chunk_plan(self, proc: ChunkProcessor) -> \
            tuple[int, TruncationReason, int | None]:
        """Instruction budget, at-budget truncation reason, and
        stochastic early-overflow point for the next chunk."""
        seq = proc.next_seq
        if self.is_replay:
            target, reason = self.replay_source.chunk_target(
                proc.proc_id, seq)
            forced = self._stochastic_overflow(target, self._noise_rng)
            return target, reason, forced
        mode = self.mode_config.mode
        target = self.mode_config.standard_chunk_size
        reason = TruncationReason.SIZE_LIMIT
        if (mode.logs_every_chunk_size
                and self._rng.random()
                < self.mode_config.variable_truncation_rate):
            target = self._rng.randint(
                self.mode_config.min_artificial_chunk, target)
        squashes = proc.squash_count_for(seq)
        limit = self.config.squash_retry_limit
        if squashes >= limit and not mode.predefined_order:
            # Repeated chunk collision: progressively shrink the chunk
            # until it can commit (Section 4.2.3).
            reductions = squashes - limit + 1
            target = max(64, target >> reductions)
            reason = TruncationReason.COLLISION_REDUCED
        forced = self._stochastic_overflow(target, self._rng)
        return target, reason, forced

    def _stochastic_overflow(self, target: int,
                             rng: random.Random | None) -> int | None:
        """Early-truncation point modeling wrong-path/multi-chunk cache
        interference (see :mod:`repro.chunks.cache`).

        The point is never below the largest op unit (a lock-spin
        iteration): a truncated chunk must contain at least one
        instruction, because the CS log's zero size is reserved as the
        distance-extension sentinel.
        """
        if rng is None or self.stochastic_overflow_rate <= 0:
            return None
        if rng.random() >= self.stochastic_overflow_rate:
            return None
        if target <= 8:
            return None
        floor = max(LOCK_SPIN_COST, target // 4)
        if floor >= target:
            return None
        return rng.randint(floor, target - 1)

    def _apply_replay_timing_noise(self, chunk: Chunk) -> None:
        """Replay-only timing effects: the hypervisor's per-chunk
        boundary validation plus the 1.5% hit<->miss flips of
        Section 6.2.1."""
        if not self.is_replay or self.perturbation is None:
            return
        chunk.exec_cycles += self.perturbation.chunk_validation_cycles
        rate = self.perturbation.cache_flip_rate
        if rate <= 0:
            return
        accesses = len(chunk.read_lines) + len(chunk.write_lines)
        timing = self.config.timing
        swing = timing.memory_cycles * timing.chunk_load_exposure
        delta = 0.0
        for _ in range(accesses):
            if self._noise_rng.random() < rate:
                delta += swing if self._noise_rng.random() < 0.5 else -swing
        floor = timing.instruction_cycles(chunk.instructions) * 0.5
        chunk.exec_cycles = max(floor, chunk.exec_cycles + delta)

    def _clear_stall(self, proc_id: int, now: float) -> None:
        since = self._stall_since[proc_id]
        if since is not None:
            self.processors[proc_id].stats.stall_cycles += max(
                0.0, now - since)
            self._stall_since[proc_id] = None

    def _note_stall(self, proc_id: int, now: float) -> None:
        """Mark a processor that filled its chunk window and idles."""
        proc = self.processors[proc_id]
        if self._stall_since[proc_id] is not None:
            return
        window_full = (len(proc.outstanding)
                       >= self.config.simultaneous_chunks)
        blocked_io = (proc.outstanding
                      and proc.outstanding[-1].pending_boundary_op
                      is not None)
        if (window_full or blocked_io) and proc.has_uncommitted_work():
            self._stall_since[proc_id] = max(now, proc.exec_free_time)

    # ------------------------------------------------------------------
    # Commit pipeline
    # ------------------------------------------------------------------

    def _complete(self, chunk: Chunk) -> None:
        """A chunk finished executing: request commit permission."""
        if chunk.state is ChunkState.SQUASHED:
            return
        chunk.state = ChunkState.COMPLETED
        chunk.complete_time = self.engine.now
        self.directory.on_commit_request()
        delay = self._arbitration_roundtrip / 2
        if (self.is_replay and self.perturbation is not None
                and self._noise_rng.random()
                < self.perturbation.commit_stall_probability):
            delay += self._noise_rng.randint(
                self.perturbation.commit_stall_min_cycles,
                self.perturbation.commit_stall_max_cycles)
        self.engine.schedule(
            delay, lambda: self._arbiter_request(chunk))
        self._kick(chunk.processor)

    def _arbiter_request(self, chunk: Chunk) -> None:
        self.arbiter.receive_request(chunk, self.engine.now)
        if self.is_replay:
            self._drain_replay_dma()

    def _on_grant(self, chunk: Chunk, now: float) -> None:
        """Arbiter callback: a commit was granted (Figure 4 msg 3/6)."""
        self.directory.on_grant()
        wait = max(0.0, now - chunk.complete_time)
        self._h_commit_wait.observe(wait)
        if self.tracer.enabled and wait > 0:
            track = ("dma" if chunk.processor == self.config.dma_proc_id
                     else f"p{chunk.processor}")
            self.tracer.span(
                track, f"wait c{chunk.logical_seq}",
                chunk.complete_time, wait, category="wait",
                seq=chunk.logical_seq, piece=chunk.piece_index)
        ready = sum(
            1 for p in self.processors
            if p.outstanding and p.outstanding[0].state in _READY_STATES)
        self.stats.ready_procs_samples.append(ready)
        self.stats.commit_parallelism_samples.append(
            len(self.arbiter.committing))
        if self.recorder is not None:
            if chunk.processor == self.config.dma_proc_id:
                self.recorder.on_dma_grant(chunk.write_signature)
            else:
                self.recorder.on_grant(chunk)
        grant_latency = self._arbitration_roundtrip / 2
        self.engine.schedule(
            grant_latency + self.config.commit_propagation_cycles,
            lambda: self._finalize_commit(chunk),
            priority=_PRIO_FINALIZE)

    def _finalize_commit(self, chunk: Chunk) -> None:
        """A commit propagated: apply writes, squash, log, free slot."""
        if self._stopped and not self._paused:
            # A bounded replay has its m commits: one granted before
            # the halt is abandoned with the rest of the speculation.
            return
        now = self.engine.now
        is_dma = chunk.processor == self.config.dma_proc_id
        if is_dma:
            self.memory.apply(chunk.write_buffer)
        else:
            self.memory.commit(chunk.write_buffer)
        self.directory.propagate_commit(chunk, self._caches)
        self._squash_remote_conflicts(chunk, now)
        chunk.state = ChunkState.COMMITTED
        chunk.commit_time = now
        if is_dma:
            self._finalize_dma_commit(chunk, now)
            return
        proc = self.processors[chunk.processor]
        had_boundary = chunk.pending_boundary_op is not None
        proc.on_commit(chunk, self.io_source)
        if had_boundary:
            # The uncached instruction executes non-speculatively
            # between chunks and exposes its full device round trip
            # (Section 4.2.2); the next chunk cannot start before it.
            proc.exec_free_time = (
                max(now, proc.exec_free_time)
                + self.config.timing.memory_cycles)
        if self.recorder is not None:
            self.recorder.on_commit(chunk)
        self._m_commits.inc()
        self._m_instructions.inc(chunk.instructions)
        self._h_chunk_instructions.observe(chunk.instructions)
        if self.tracer.enabled:
            self._trace_commit(chunk, now)
        needs_continuation = chunk.blocks_successors
        self._capture_fingerprint(chunk, needs_continuation)
        if chunk.piece_index > 0 and not needs_continuation:
            self._pending_continuations.pop(chunk.processor, None)
        if needs_continuation:
            # Reserve the arbiter and build the continuation *before*
            # freeing the commit slot, so no foreign commit can slip
            # between the two pieces of the logical chunk.
            self._start_continuation(chunk, now)
        if self.is_replay:
            # Any DMA the ordering log places here must be applied
            # before the next grant, against a quiescent commit
            # pipeline -- otherwise its writes could race an in-flight
            # commit they were ordered against.
            self.arbiter.release(chunk)
            self._drain_replay_dma()
            for other in self.processors:
                self._kick(other.proc_id)
        else:
            self.arbiter.commit_finished(chunk, now)
            self._kick(chunk.processor)

    def _trace_commit(self, chunk: Chunk, now: float) -> None:
        """One commit span per committed piece, plus the progress and
        traffic counters.  Span counts per processor track equal the
        run's per-processor ``chunks_committed`` exactly (the Perfetto
        acceptance check)."""
        name = f"commit c{chunk.logical_seq}"
        if chunk.piece_index:
            name += f".{chunk.piece_index}"
        self.tracer.span(
            f"p{chunk.processor}", name, chunk.grant_time,
            max(0.0, now - chunk.grant_time), category="commit",
            seq=chunk.logical_seq, piece=chunk.piece_index,
            instructions=chunk.instructions, slot=chunk.grant_slot)
        self.tracer.counter(
            "directory", "traffic_bytes", now,
            total=self.directory.traffic.total_bytes)
        if self.is_replay:
            # Global commits fully captured so far (split-chunk pieces
            # land when their last piece commits).
            self.tracer.counter(
                "replay", "commits", now,
                total=len(self._fingerprints))

    def _squash_remote_conflicts(self, committing: Chunk,
                                 now: float) -> None:
        """Squash every other processor's chunks from the oldest one
        the commit conflicts with.  A commit that wrote nothing, or a
        processor with nothing outstanding, needs no test.  Each squash
        purges the arbiter's pending queue before the next arbitration,
        which ``CommitArbiter.try_grant`` relies on."""
        if not committing.write_signature.keys:
            return
        flush = self.config.timing.squash_flush_cycles
        cause = ("collision:dma"
                 if committing.processor == self.config.dma_proc_id
                 else f"collision:p{committing.processor}")
        for other in self.processors:
            if (other.proc_id == committing.processor
                    or not other.outstanding):
                continue
            victims = other.squash_if_conflicts(committing, now,
                                                cause=cause)
            if victims:
                for victim in victims:
                    self.directory.on_squash(victim)
                for observer in self.observers:
                    observer.on_squash(
                        other.proc_id,
                        [v.logical_seq for v in victims], cause)
                other.exec_free_time = now + flush
                self.arbiter.drop_stale()
                self._kick(other.proc_id)

    def _start_continuation(self, parent: Chunk, now: float) -> None:
        """Commit the rest of a split logical chunk immediately after
        its short piece (Section 4.2.3)."""
        proc = self.processors[parent.processor]
        remaining = max(1, parent.target_size - parent.instructions)
        _, reason = self.replay_source.chunk_target(
            parent.processor, parent.logical_seq)
        self._pending_continuations[parent.processor] = {
            "seq": parent.logical_seq,
            "piece": parent.piece_index + 1,
            "remaining": remaining,
            "reason": reason,
        }
        self.arbiter.reserve_continuation(parent.processor)
        self._launch_continuation(proc, now)

    def _relaunch_continuation(self, proc: ChunkProcessor,
                               now: float) -> None:
        """Rebuild a squashed continuation piece with its remaining
        budget (a remote commit may legally squash an ungranted
        piece; its re-execution reads the post-commit state)."""
        pending = self._pending_continuations.get(proc.proc_id)
        if pending is None:
            return
        alive = any(
            c.logical_seq == pending["seq"] and c.piece_index > 0
            for c in proc.outstanding)
        if not alive:
            self._launch_continuation(proc, now)

    def _launch_continuation(self, proc: ChunkProcessor,
                             now: float) -> None:
        pending = self._pending_continuations[proc.proc_id]
        chunk = proc.build_continuation(
            pending["seq"], pending["piece"], now,
            pending["remaining"], pending["reason"], self.memory)
        if (chunk.truncation is TruncationReason.CACHE_OVERFLOW
                and chunk.instructions < pending["remaining"]
                and chunk.pending_boundary_op is None
                and not chunk.end_state.exhausted):
            chunk.blocks_successors = True
        self._apply_replay_timing_noise(chunk)
        start = max(now, proc.exec_free_time)
        done = start + chunk.exec_cycles
        proc.exec_free_time = done
        if self.tracer.enabled:
            self._trace_execute(chunk, start)
        self.engine.schedule(done - now,
                             lambda c=chunk: self._complete(c))

    def _capture_fingerprint(self, chunk: Chunk,
                             needs_continuation: bool) -> None:
        """Emit (or accumulate, for split chunks) the commit digest."""
        proc_id = chunk.processor
        accum = self._piece_accum.get(proc_id)
        if chunk.piece_index == 0 and not needs_continuation:
            fingerprint = chunk.commit_fingerprint()
            count = self._emit(fingerprint)
            for observer in self.observers:
                observer.on_commit(chunk, fingerprint, count)
            self._maybe_interval_checkpoint()
            self._maybe_halt()
            return
        if chunk.piece_index == 0:
            self._piece_accum[proc_id] = {
                "seq": chunk.logical_seq,
                "is_handler": chunk.is_handler,
                "instructions": chunk.instructions,
                "writes": dict(chunk.write_buffer),
            }
            return
        if accum is None or accum["seq"] != chunk.logical_seq:
            raise DeadlockError(
                f"continuation piece without parent on processor "
                f"{proc_id}")
        accum["instructions"] += chunk.instructions
        accum["writes"].update(chunk.write_buffer)
        if needs_continuation:
            return
        end_key = (chunk.end_state.architectural_key()
                   if chunk.end_state is not None else None)
        fingerprint = (
            proc_id,
            accum["seq"],
            0,
            accum["is_handler"],
            accum["instructions"],
            tuple(sorted(accum["writes"].items())),
            end_key,
        )
        del self._piece_accum[proc_id]
        count = self._emit(fingerprint)
        for observer in self.observers:
            observer.on_commit(chunk, fingerprint, count)
        self._maybe_halt()

    def _emit(self, fingerprint: tuple) -> int:
        """Append one global commit's fingerprint; returns the new
        global commit count."""
        self._fingerprints.append(fingerprint)
        self._boundary_pending = True
        return len(self._fingerprints)

    # ------------------------------------------------------------------
    # Interrupts
    # ------------------------------------------------------------------

    def _deliver_interrupt(self, event: InterruptEvent) -> None:
        """Record phase: an external interrupt arrives."""
        now = self.engine.now
        proc = self.processors[event.processor]
        self._m_interrupts.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                f"p{event.processor}", f"irq v{event.vector}", now,
                category="interrupt", vector=event.vector,
                high_priority=event.high_priority)
        for observer in self.observers:
            observer.on_interrupt(event.processor, event)
        victims = proc.receive_interrupt(event, now)
        if victims:
            for victim in victims:
                self.directory.on_squash(victim)
            for observer in self.observers:
                observer.on_squash(
                    event.processor,
                    [v.logical_seq for v in victims], "interrupt")
            proc.exec_free_time = (
                now + self.config.timing.squash_flush_cycles)
            self.arbiter.drop_stale()
        self._kick(event.processor)

    # ------------------------------------------------------------------
    # DMA
    # ------------------------------------------------------------------

    def _make_dma_chunk(self, writes: dict[int, int]) -> Chunk:
        chunk = Chunk(
            processor=self.config.dma_proc_id,
            logical_seq=self._dma_sequence + 1,
            start_state=ThreadState(thread_id=self.config.dma_proc_id),
            signature_config=self.config.signature,
        )
        chunk.write_buffer = dict(writes)
        for address in writes:
            chunk.record_write(self.config.line_of(address))
        chunk.state = ChunkState.COMPLETED
        return chunk

    def _dma_arrive(self, transfer: DmaTransfer) -> None:
        """Record phase: the DMA engine requests commit permission."""
        chunk = self._make_dma_chunk(transfer.writes)
        chunk.complete_time = self.engine.now
        self.directory.on_commit_request()
        self.engine.schedule(
            self._arbitration_roundtrip / 2,
            lambda: self.arbiter.receive_request(chunk, self.engine.now))

    def _finalize_dma_commit(self, chunk: Chunk, now: float) -> None:
        self._dma_sequence += 1
        self.stats.dma_commits += 1
        self._m_dma.inc()
        if self.tracer.enabled:
            self.tracer.span(
                "dma", f"dma burst {self._dma_sequence}",
                chunk.grant_time, max(0.0, now - chunk.grant_time),
                category="dma", burst=self._dma_sequence,
                writes=len(chunk.write_buffer))
        if self.recorder is not None:
            self.recorder.on_dma_commit(
                dict(chunk.write_buffer), grant_slot=chunk.grant_slot)
        fingerprint = ("dma", self._dma_sequence,
                       tuple(sorted(chunk.write_buffer.items())))
        count = self._emit(fingerprint)
        for observer in self.observers:
            observer.on_dma(dict(chunk.write_buffer), fingerprint, count)
        self._maybe_interval_checkpoint()
        self._maybe_halt()
        self.arbiter.commit_finished(chunk, now)

    def _apply_dma_replay(self, writes: dict[int, int]) -> None:
        """Replay phase: apply a logged DMA burst directly."""
        now = self.engine.now
        chunk = self._make_dma_chunk(writes)
        self.memory.apply(writes)
        self.directory.propagate_commit(chunk, self._caches)
        self._squash_remote_conflicts(chunk, now)
        self._dma_sequence += 1
        self.stats.dma_commits += 1
        self._m_dma.inc()
        if self.tracer.enabled:
            self.tracer.instant(
                "dma", f"dma burst {self._dma_sequence}", now,
                category="dma", burst=self._dma_sequence,
                writes=len(writes))
        fingerprint = ("dma", self._dma_sequence,
                       tuple(sorted(writes.items())))
        count = self._emit(fingerprint)
        for observer in self.observers:
            observer.on_dma(dict(writes), fingerprint, count)
        self._maybe_halt()

    def _drain_replay_dma(self) -> None:
        """Apply every DMA burst the ordering log says is due now.

        DMA data is applied only against a quiescent commit pipeline:
        an in-flight commit was granted *before* this DMA in the
        recorded order and must make its writes visible first.
        """
        policy = self.arbiter.policy
        while not self._stopped and self.quiescent:
            if (hasattr(policy, "next_is_dma") and policy.next_is_dma()):
                self._apply_dma_replay(
                    self.replay_source.next_dma_writes())
                policy.consume_dma()
                continue
            if (isinstance(policy, RoundRobinPolicy)
                    and self.replay_source.dma_due_at_slot(
                        self.arbiter.grant_count)):
                self._apply_dma_replay(
                    self.replay_source.next_dma_writes())
                self.replay_source.consume_dma_slot()
                continue
            break
        self.arbiter.try_grant(self.engine.now)


# ----------------------------------------------------------------------
# High-level record / replay drivers (used by DeLoreanSystem)
# ----------------------------------------------------------------------


def _assemble_recording(machine: ChunkMachine, result: RunResult,
                        strata: list, stratified: bool) -> Recording:
    """A record-mode machine's logs plus a run capture as a Recording,
    which starts from the machine's start checkpoint, if any."""
    recorder = machine.recorder
    return Recording(
        mode_config=machine.mode_config,
        machine_config=machine.config,
        program=machine.program,
        pi_log=recorder.pi_log,
        cs_logs=recorder.cs_logs,
        interrupt_logs=recorder.interrupt_logs,
        io_logs=recorder.io_logs,
        dma_log=recorder.dma_log,
        strata=strata,
        stratified=stratified,
        fingerprints=result.fingerprints,
        final_memory=result.final_memory,
        final_thread_keys=result.final_thread_keys,
        stats=result.stats,
        memory_ordering=recorder.memory_ordering_log(),
        interval_checkpoints=machine.interval_checkpoints,
        start_checkpoint=machine.start_checkpoint,
    )


def finish_recording(machine: ChunkMachine, result: RunResult) -> Recording:
    """Seal a finished record-mode machine's logs into a Recording.

    Shared by :func:`record_execution` and the guard supervisor, whose
    observers ride the same :meth:`ChunkMachine.run` loop.
    """
    recorder = machine.recorder
    recorder.finish()
    strata = []
    if recorder.stratifier is not None:
        strata = [s.counts for s in recorder.stratifier.strata]
    return _assemble_recording(machine, result, strata,
                               machine.mode_config.stratify)


def partial_recording(machine: ChunkMachine) -> Recording:
    """Snapshot a *recording* machine's logs as a prefix Recording.

    Must be called at a :attr:`~ChunkMachine.quiescent` commit
    boundary: there, the PI entries, CS/IO/Interrupt/DMA logs and the
    fingerprint list all describe exactly the same committed prefix,
    and committed memory equals the architectural state.  Stratified
    state is deliberately dropped (``finish()`` may only ever run once,
    at end-of-run), so prefix snapshots replay via the ordered PI path.
    """
    if machine.recorder is None:
        raise ConfigurationError(
            "partial_recording needs a recording-phase machine")
    if not machine.quiescent:
        raise ConfigurationError(
            "partial_recording requires a quiescent commit boundary")
    stats = RunStats()
    stats.cycles = machine.engine.now
    for proc in machine.processors:
        stats.merge_processor(proc.proc_id, proc.stats)
    stats.dma_commits = machine.stats.dma_commits
    prefix = RunResult(
        stats=stats,
        fingerprints=list(machine._fingerprints),
        final_memory=machine.memory.nonzero_words(),
        final_thread_keys={
            p.proc_id: p.committed_fingerprint_state()
            for p in machine.processors},
    )
    return _assemble_recording(machine, prefix, strata=[],
                               stratified=False)


def record_execution(
    program: Program,
    machine_config: MachineConfig,
    mode_config: ModeConfig,
    stochastic_overflow_rate: float = 0.0,
    max_events: int | None = None,
    checkpoint_every: int = 0,
    tracer: Tracer | None = None,
    schedule: SchedulePlan | None = None,
) -> Recording:
    """Run the initial execution and produce its Recording."""
    machine = ChunkMachine(
        program, machine_config, mode_config,
        stochastic_overflow_rate=stochastic_overflow_rate,
        checkpoint_every=checkpoint_every,
        tracer=tracer,
        schedule=schedule)
    result = machine.run(max_events)
    return finish_recording(machine, result)


def build_replay_machine(
    recording: Recording,
    perturbation: ReplayPerturbation | None = None,
    use_strata: bool | None = None,
    stochastic_overflow_rate: float = 0.0,
    start_checkpoint: IntervalCheckpoint | None = None,
    stop_after: int = 0,
    tracer: Tracer | None = None,
) -> ChunkMachine:
    """A replay-configured :class:`ChunkMachine`, not yet run.

    It starts from ``start_checkpoint`` (interval replay) or, when
    none is passed, from the recording's own start checkpoint (a
    degraded segment's), else from the program's initial state.
    Shared by :func:`replay_execution` and the forensics layer
    (:func:`repro.telemetry.forensics.diagnose_replay`), which needs
    direct access to the machine's replay source and partial state.
    """
    start_checkpoint = start_checkpoint or recording.start_checkpoint
    if use_strata is None:
        use_strata = recording.stratified and start_checkpoint is None
    source = ReplaySource(recording, start_checkpoint)
    machine_config = recording.machine_config
    if perturbation is not None and perturbation.single_chunk_window:
        machine_config = replace(machine_config, simultaneous_chunks=1)
    return ChunkMachine(
        recording.program,
        machine_config,
        recording.mode_config,
        replay_source=source,
        perturbation=perturbation,
        use_strata=use_strata,
        stochastic_overflow_rate=stochastic_overflow_rate,
        start_checkpoint=start_checkpoint,
        stop_after_commits=stop_after,
        tracer=tracer,
    )


def verify_replay(machine: ChunkMachine, result: RunResult) -> \
        tuple[DeterminismReport, list[str]]:
    """The verdict on a finished replay: the log audit (skipped when
    bounded: the replay stops mid-log) plus :func:`verify_determinism`
    under the machine's discipline, start checkpoint and bound.  Returns
    the report, failed by any audit problem too, and the problems."""
    source = machine.replay_source
    stop_after = machine._stop_after
    audit = [] if stop_after else source.verify_fully_consumed()
    report = verify_determinism(
        source.recording,
        result.fingerprints,
        result.final_memory,
        result.final_thread_keys,
        ordered=not machine.use_strata,
        start_checkpoint=machine.start_checkpoint,
        stop_after=stop_after,
    )
    if audit:
        report = replace(report, matches=False,
                         mismatches=report.mismatches + audit)
    return report, audit


def replay_execution(
    recording: Recording,
    perturbation: ReplayPerturbation | None = None,
    use_strata: bool | None = None,
    stochastic_overflow_rate: float = 0.0,
    max_events: int | None = None,
    start_checkpoint: IntervalCheckpoint | None = None,
    stop_after: int = 0,
    tracer: Tracer | None = None,
) -> ReplayResult:
    """Deterministically replay a Recording (optionally an interval
    I(n, m) from a commit-boundary checkpoint, optionally halting after
    ``stop_after`` commits) and verify it.  A degraded segment replays
    from its own start checkpoint unless another is passed."""
    machine = build_replay_machine(
        recording,
        perturbation=perturbation,
        use_strata=use_strata,
        stochastic_overflow_rate=stochastic_overflow_rate,
        start_checkpoint=start_checkpoint,
        stop_after=stop_after,
        tracer=tracer,
    )
    result = machine.run(max_events)
    report, _ = verify_replay(machine, result)
    return ReplayResult(
        stats=result.stats,
        determinism=report,
        final_memory=result.final_memory,
        perturbation=perturbation or ReplayPerturbation.none(),
    )
