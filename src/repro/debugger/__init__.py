"""repro.debugger: time-travel debugging on top of deterministic replay.

The paper's closing argument for DeLorean is that a deterministic
replay substrate turns concurrency-bug hunting from statistics into
navigation: the offending execution is recorded once and can then be
examined *at any point, as many times as needed*.  This package is
that navigator.  A :class:`ReplayController` steps a replay machine by
global commits, pauses it at exact commit boundaries with committed
architectural state exposed, evaluates chunk-granular breakpoints and
watchpoints, and travels backward by restoring the nearest checkpoint
and re-executing a bounded suffix.  :class:`DebuggerShell` is the
interactive ``repro debug`` front end over the same API.
"""

from repro.debugger.breakpoints import Breakpoint, BreakpointTable
from repro.debugger.checkpoints import CheckpointIndex
from repro.debugger.controller import (
    CommitView,
    ReplayController,
    StopInfo,
)
from repro.debugger.loading import load_debug_target
from repro.debugger.repl import DebuggerShell

__all__ = [
    "Breakpoint",
    "BreakpointTable",
    "CheckpointIndex",
    "CommitView",
    "DebuggerShell",
    "ReplayController",
    "StopInfo",
    "load_debug_target",
]
