"""Exception hierarchy for the repro package.

Every error raised by the library derives from :class:`ReproError` so
callers can catch library failures without catching unrelated bugs.
"""


class ReproError(Exception):
    """Base class for all errors raised by the repro package."""


class ConfigurationError(ReproError):
    """A machine, mode, or workload configuration is invalid."""


class IntegrityError(ReproError):
    """A recording failed an integrity check before replay.

    This is the detection layer of the fault model (see
    :mod:`repro.faults`): structural damage -- truncation, bad framing,
    checksum mismatches -- must surface here, as a typed error at load
    time, rather than later as a confusing mid-replay divergence or (the
    existential risk) a silently wrong replay.
    """


class LogFormatError(IntegrityError):
    """A log could not be encoded or decoded with the configured format."""


class ChecksumError(IntegrityError):
    """A framed DLRN section's CRC32 did not match its payload.

    Carries enough structure for the salvage scanner to report *which*
    section is damaged: ``section_tag`` and ``proc`` are None when the
    failure is not attributable to a single section (e.g. a damaged
    file header).
    """

    def __init__(self, message: str, *, section_tag: int | None = None,
                 proc: int | None = None) -> None:
        super().__init__(message)
        self.section_tag = section_tag
        self.proc = proc


class SalvageError(IntegrityError):
    """Best-effort salvage could not recover anything from a damaged
    recording (e.g. the section holding the program is itself gone)."""


class ReplayDivergenceError(ReproError):
    """Replay diverged from the recorded execution.

    This is the fatal condition a deterministic replayer must never hit;
    it is raised (rather than silently tolerated) so tests can assert
    determinism and users can detect corrupted or mismatched logs.

    Beyond the message, the error carries structured fields for the
    forensics layer (:mod:`repro.telemetry.forensics`): the diverging
    processor, the chunk (or log cursor) index, and the expected vs.
    actual commit record where known.  ``str(e)`` is exactly the
    message, unchanged from the message-only days.  ``context`` is
    attached by the replay machine when the error crosses its run loop
    (a :class:`~repro.telemetry.forensics.DivergenceContext` snapshot
    of the partial replay).
    """

    def __init__(self, message: str, *, proc_id: int | None = None,
                 chunk_index: int | None = None, expected=None,
                 actual=None) -> None:
        super().__init__(message)
        self.proc_id = proc_id
        self.chunk_index = chunk_index
        self.expected = expected
        self.actual = actual
        self.context = None


class ServeError(ReproError):
    """A serve-layer client request failed.

    Raised by :class:`~repro.serve.client.ServeClient` when the server
    answers with an error status (or cannot be reached).  ``status`` is
    the HTTP status code (0 when no response arrived);
    ``retry_after`` carries the server's backoff hint on a 429 shed.
    """

    def __init__(self, message: str, *, status: int = 0,
                 retry_after: float = 0.0) -> None:
        super().__init__(message)
        self.status = status
        self.retry_after = retry_after


class ExecutionError(ReproError):
    """A simulated program performed an illegal operation."""


class DeadlockError(ExecutionError):
    """The simulated machine can make no further progress."""


class StallError(ExecutionError):
    """A supervised session stopped making forward progress.

    Raised by the :mod:`repro.guard` watchdog instead of letting a
    livelocked or starved session hang forever.  ``classification`` is
    the watchdog's verdict (``gcc-stagnation``, ``token-starvation``,
    ``squash-livelock``, ``livelock``, ``replay-stall``); ``details``
    is a JSON-friendly telemetry snapshot taken at detection time
    (cycle, events, committed counts, arbiter state, squash history).
    """

    def __init__(self, message: str, *, classification: str,
                 details: dict | None = None) -> None:
        super().__init__(message)
        self.classification = classification
        self.details = dict(details or {})


class BudgetExceeded(ReproError):
    """A supervised session ran past an enforceable resource budget.

    Raised only at chunk boundaries (never mid-commit) so the machine
    is always left in a quiescent, checkpointable state.  ``budget``
    names the exhausted budget (``deadline``, ``log-bytes``,
    ``event-queue``, ``squash-rate``); ``limit`` is the configured
    ceiling and ``observed`` the measured value that crossed it.
    """

    def __init__(self, message: str, *, budget: str,
                 limit: float, observed: float,
                 proc: int | None = None) -> None:
        super().__init__(message)
        self.budget = budget
        self.limit = limit
        self.observed = observed
        self.proc = proc
