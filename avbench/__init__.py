"""Seeded, closed-loop benchmark of the avgroups package.

Run ``python3 avbench/run.py --workload <name> --seed <n> --seconds <s>
--trace <0|1>`` from the repository root; see ``avbench/README.md``.
"""
