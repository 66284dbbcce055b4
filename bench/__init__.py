"""Benchmark of bandit-switch: ``python3 bench/run.py --workload NAME``."""
