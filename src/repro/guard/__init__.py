"""repro.guard -- supervised execution for record/replay sessions.

DeLorean's value proposition is that a recording is always there when
you need it, yet an unsupervised session offers no such guarantee: an
arbitration livelock spins forever, a pathological workload blows the
logs past memory, and a crash mid-record loses everything.  This
package supervises live sessions so that every one of them either
*completes*, *degrades gracefully to a safer mode*, or *fails fast
with a classified diagnosis and a salvageable on-disk prefix*:

* :mod:`repro.guard.watchdog` -- forward-progress monitors that
  classify stalls (GCC stagnation, commit-token starvation, squash
  livelock, replayer stalls) instead of hanging.
* :mod:`repro.guard.limits` -- enforceable resource budgets
  (wall-clock deadline, log bytes per processor, event-queue depth,
  squash rate) raised as typed errors at chunk boundaries only.
* :mod:`repro.guard.journal` -- a write-ahead recording journal with
  atomic flush points; a SIGKILL mid-record leaves a loadable,
  salvage-replayable prefix.
* :mod:`repro.guard.degrade` -- graceful degradation: checkpoint and
  restart the remaining segment in a safer mode (PicoLog -> OrderOnly
  -> Order&Size); each segment is a recording that carries its start
  checkpoint, and the segments' containers, back to back, make one
  replayable artifact.
* :mod:`repro.guard.supervisor` -- runs a session under all of the
  above and reports a structured :class:`SupervisionReport`.
"""

from repro.guard.degrade import (
    SegmentedRecording,
    load_segmented,
    replay_stitched,
    safer_mode,
    save_segmented,
)
from repro.guard.journal import JournalInfo, RecordingJournal, load_journal
from repro.guard.limits import BudgetMeter, Budgets
from repro.guard.supervisor import (
    SupervisionReport,
    supervise_record,
    supervise_replay,
)
from repro.guard.watchdog import Watchdog, WatchdogConfig, WatchdogTimer
from repro.machine.system import partial_recording

__all__ = [
    "BudgetMeter",
    "Budgets",
    "JournalInfo",
    "RecordingJournal",
    "SegmentedRecording",
    "SupervisionReport",
    "Watchdog",
    "WatchdogConfig",
    "WatchdogTimer",
    "load_journal",
    "load_segmented",
    "partial_recording",
    "replay_stitched",
    "safer_mode",
    "save_segmented",
    "supervise_record",
    "supervise_replay",
]
