"""Repository benchmark: trained-Sinan control, a fault regime and a
multi-tenant sweep, measured end to end with per-layer spans.

Run ``python3 perfbench/run.py --workload NAME --seed N --seconds S
--trace 0|1`` from the repository root; see ``perfbench/NOTES.md``.
"""
