"""The repository benchmark: Table I, a reticle-sized die and mixed serve traffic.

``python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1``
runs one workload; ``python3 perfbench/aa.py`` repeats runs of one
commit and reports how steady each metric is.  See ``README.md``.
"""
