"""The repository benchmark: record-replay, fig-sweep and serve-mix.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``run.py`` for the output
contract and ``predictions.json`` for the layer-to-metric predictions.
"""
