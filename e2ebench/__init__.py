"""End-to-end benchmark of the reproduction, split by layer.

``python3 e2ebench/run.py --workload {paper,grid,service} --seed N
--seconds S --trace {0,1}`` runs one workload for ``S`` seconds.  Every
pass runs in a fresh interpreter.  The last line of standard output is a
JSON object with the end-to-end metrics (``--trace 0``) or the per-layer
metrics of a traced run (``--trace 1``).  See ``e2ebench/README.md``.
"""
