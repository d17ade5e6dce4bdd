"""Repeatable end-to-end and per-layer benchmark for RodentStore.

Run from the root of a checkout: ``python3 perfbench/run.py --workload
olap_warm --seed 1 --seconds 20 --trace 0``. See ``perfbench/README.md``.
"""
