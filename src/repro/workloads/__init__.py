"""Synthetic concurrent workloads standing in for the paper's suites.

The paper evaluates SPLASH-2 (all applications but Volrend),
SPECjbb2000 and SPECweb2005.  We cannot run those binaries inside a
behavioral Python simulator, so this subpackage generates synthetic
concurrent programs whose *sharing structure* -- the property DeLorean's
logs and performance actually depend on -- is parameterized per
application: working-set size, fraction of shared accesses, lock
contention, barrier cadence, load imbalance, and (for the commercial
workloads) interrupt/DMA/I-O system activity.  See DESIGN.md for the
substitution argument.
"""

import functools

from repro.workloads.program_builder import ProgramBuilder
from repro.workloads.synthetic import (
    SyntheticSpec,
    build_program,
)
from repro.workloads.splash2 import (
    SPLASH2_APPS,
    splash2_program,
    splash2_spec,
)
from repro.workloads.commercial import (
    COMMERCIAL_APPS,
    commercial_program,
    commercial_spec,
)
from repro.workloads.bugzoo import (
    BUG_ZOO,
    InvariantVerdict,
    ZooSpecimen,
    zoo_specimen,
)


#: Programs :func:`app_program` keeps; beyond this many, the least
#: recently used is dropped.  A figure sweep asks for a few programs
#: again and again (fig10+fig11 over two apps: 10 requests, 2
#: programs), so a few entries catch its repeats while bounding what a
#: long-lived process holds: at most this many programs, at about 100
#: bytes per op.
PROGRAM_MEMO_SIZE = 4


def app_program(app: str, scale: float = 1.0, seed: int = 1,
                num_threads: int = 8):
    """The SPLASH-2 or commercial stand-in program by app name; any
    other name raises :class:`~repro.errors.ConfigurationError`.

    Programs are immutable, so one is built per ``(app, scale, seed,
    num_threads)`` and shared by every caller in the process, through
    a memo of :data:`PROGRAM_MEMO_SIZE` entries.
    """
    return _memo_program(app, float(scale), int(seed), int(num_threads))


# lru_cache keeps its table coherent under concurrent calls (serve runs
# jobs on threads); two threads that miss on one key may both build it,
# and either equal program is a correct answer.
@functools.lru_cache(maxsize=PROGRAM_MEMO_SIZE)
def _memo_program(app: str, scale: float, seed: int, num_threads: int):
    if app in COMMERCIAL_APPS:
        return commercial_program(app, scale, seed, num_threads)
    return splash2_program(app, scale, seed, num_threads)


__all__ = [
    "app_program",
    "BUG_ZOO",
    "InvariantVerdict",
    "ZooSpecimen",
    "zoo_specimen",
    "ProgramBuilder",
    "SyntheticSpec",
    "build_program",
    "SPLASH2_APPS",
    "splash2_program",
    "splash2_spec",
    "COMMERCIAL_APPS",
    "commercial_program",
    "commercial_spec",
]
