"""A chaos campaign against sjbb2000, end to end.

DeLorean's pitch is that a tiny log deterministically reconstructs an
entire multiprocessor execution -- which makes the log the single
point of failure.  This example stress-tests that failure mode on the
sjbb2000 commercial workload (SPECjbb2000 stand-in, ``sjbb2k``):

1. record sjbb2000 in OrderOnly mode, taking interval checkpoints so
   salvage has resync points, and serialize it into the
   integrity-checked DLRN v3 container;
2. expand a *seeded* fault plan -- same seed, same faults, forever --
   into bit flips, truncations, dropped sections, and perturbed log
   entries;
3. for each fault: inject, then strict-load / replay / salvage, and
   classify the outcome;
4. demonstrate one salvage in detail: corrupt the PI log's checksum,
   tolerant-load past the damage, and print the coverage report --
   which commits were reproduced bit-exactly and which were lost.

The invariant the campaign asserts is the whole point: every fault is
*detected* (a typed error) or *recovered* (a salvage report with
honest coverage) -- never a silently wrong replay.

Run:  python examples/chaos_campaign.py
"""

from repro.core.modes import ExecutionMode
from repro.core.serialization import container_frames, save_recording
from repro.faults import (
    FaultPlan,
    run_campaign,
    salvage_from_blob,
)
from repro.workloads import commercial_program
from repro import DeLoreanSystem

APP = "sjbb2k"
SCALE = 0.2
PLAN_SEED = 2008  # the year DeLorean appeared at ISCA

print(f"=== chaos campaign: {APP} (OrderOnly, seed {PLAN_SEED}) ===\n")

# -- 1+2+3: the full record → inject → classify campaign --------------
report = run_campaign(APP, ExecutionMode.ORDER_ONLY, scale=SCALE,
                      plan_seed=PLAN_SEED, fault_count=10,
                      checkpoint_every=16)
for result in report.results:
    salvage = result.get("salvage")
    coverage = (f"  [coverage {salvage['coverage']:.0%}]"
                if salvage else "")
    print(f"  {result['fault_label']:<28} -> "
          f"{result['outcome']}{coverage}")
print(f"\n{report.summary()}\n")
assert report.invariant_ok, "a fault produced a silent wrong result!"

# The same seed always draws the same plan -- a failing fault can be
# replayed in isolation, which is what makes chaos testing debuggable.
again = FaultPlan.generate(PLAN_SEED, 10)
assert again == FaultPlan.generate(PLAN_SEED, 10)

# -- 4: one salvage, in detail ----------------------------------------
print("=== salvage detail: corrupted DMA-log section ===\n")
system = DeLoreanSystem(mode=ExecutionMode.ORDER_ONLY)
recording = system.record(
    commercial_program(APP, scale=SCALE), checkpoint_every=16)
blob = save_recording(recording)
frames, _ = container_frames(blob)
dma = next(frame for frame in frames if frame.name == "dma")
damaged = bytearray(blob)
damaged[dma.end - 1] ^= 0xFF  # one flipped byte in the DMA payload

loaded, salvage = salvage_from_blob(bytes(damaged))
print(f"recording: {len(recording.fingerprints)} commits, "
      f"{len(blob):,} bytes on the wire")
print(f"damage: {[d.describe() for d in salvage.damage]}")
print(f"verdict: {salvage.summary()}")
for proc, gcc in sorted(salvage.first_bad_gcc.items()):
    status = "fully reproduced" if gcc is None else \
        f"first unverified commit at GCC {gcc}"
    print(f"  proc {proc}: {status}")
