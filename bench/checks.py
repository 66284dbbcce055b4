"""Correctness checks run outside the timed phase, and the error ledger.

An operation is one policy's regret curve (simulation workloads) or one
verify report (``verify-solver``), in one repetition.  It fails when its
command exits non-zero, when its output is missing or malformed, when it
differs from the first repetition's output, when a replay disagrees with
it, or when a verify report has a violation.  ``error_rate`` is failed
operations over attempted operations.
"""

from __future__ import annotations

import csv
import math
import os
import random

import numpy as np

# Replays cover the recorded steps up to this one; the anytime families
# do not depend on the horizon, so a shorter run must reproduce them.
PREFIX_CAP = 50
SAMPLED_RUNS = 2
_TOL = 1e-9


class Ledger:
    """Failed (repetition, operation) pairs, each with the check that failed."""

    def __init__(self, reps: int):
        self.reps = reps
        self.ops: list = []
        self.failures: dict = {}

    def add_op(self, op: str) -> None:
        if op not in self.ops:
            self.ops.append(op)

    def fail(self, check: str, op: str, detail: str, rep: int | None = None) -> None:
        """Mark ``op`` failed in repetition ``rep`` (every repetition when None)."""
        self.add_op(op)
        for r in range(self.reps) if rep is None else (rep,):
            self.failures.setdefault((r, op), f"{check}: {op}: {detail}")

    @property
    def attempted(self) -> int:
        return self.reps * len(self.ops)

    @property
    def failed(self) -> int:
        return len(self.failures)

    @property
    def error_rate(self) -> float:
        return self.failed / self.attempted if self.attempted else 1.0

    def messages(self) -> list:
        return sorted(set(self.failures.values()))


def _close(a: float, b: float) -> bool:
    return abs(a - b) <= _TOL * max(1.0, abs(a), abs(b))


def read_regret_csv(path: str) -> dict:
    """policy -> list of (t, mean, stderr, runs) rows, in file order."""
    rows: dict = {}
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        if next(reader, None) != ["policy", "t", "mean_regret", "stderr", "runs"]:
            raise ValueError("unexpected regret.csv header")
        for rec in reader:
            if len(rec) != 5:
                raise ValueError(f"malformed regret.csv row {rec!r}")
            rows.setdefault(rec[0], []).append((int(rec[1]), float(rec[2]), float(rec[3]), int(rec[4])))
    return rows


def check_regret_output(ledger: Ledger, rep: int, path: str, scenario) -> dict | None:
    """Structure of one repetition's regret.csv; returns its rows."""
    try:
        rows = read_regret_csv(path)
    except (OSError, ValueError) as exc:
        for name in scenario.policy_names:
            ledger.fail("regret-csv", name, str(exc), rep)
        return None
    grid = list(scenario.record_grid)
    for name in scenario.policy_names:
        got = rows.get(name)
        if got is None:
            ledger.fail("regret-csv", name, "policy missing", rep)
            continue
        means = [m for _, m, _, _ in got]
        if [t for t, _, _, _ in got] != grid:
            ledger.fail("regret-csv", name, "recorded steps differ from the scenario grid", rep)
        elif any(r != scenario.runs for _, _, _, r in got):
            ledger.fail("regret-csv", name, "runs column differs from the configured runs", rep)
        elif not all(math.isfinite(m) and math.isfinite(s) and s >= 0.0 for _, m, s, _ in got):
            ledger.fail("regret-csv", name, "non-finite mean or negative stderr", rep)
        elif any(b < a for a, b in zip(means, means[1:])):
            ledger.fail("regret-csv", name, "mean pseudo-regret decreases", rep)
    return rows


def check_same_output(ledger: Ledger, rep: int, rows: dict, first: dict, names) -> None:
    """Same seed, same config: every repetition must write the same curves."""
    for name in names:
        if rows.get(name) != first.get(name):
            ledger.fail("determinism", name, "differs from the first repetition", rep)


def check_replay(ledger: Ledger, bs, scenario, rows: dict, seed: int) -> None:
    """Replay a prefix of the horizon and compare with regret.csv.

    Every run is re-simulated over the prefix with ``monte_carlo`` at
    parallelism 1 (for scalar-engine policies that is ``run_episode`` on
    every run), and its mean must match the file at every recorded step
    of the prefix.  For vector-engine policies a few sampled runs are also
    replayed with the scalar reference ``run_episode`` and must match the
    engine's own per-run result.
    """
    prefix_grid = tuple(t for t in scenario.record_grid if t <= PREFIX_CAP)
    prefix = bs.Scenario(
        bandit=scenario.bandit,
        horizon=prefix_grid[-1],
        policies=scenario.policies,
        runs=scenario.runs,
        base_seed=scenario.base_seed,
        record_grid=prefix_grid,
        bins=scenario.bins,
    )
    curve = bs.monte_carlo(prefix, parallelism=1)
    sim = bs.simulator
    engine_of = getattr(sim, "_policy_engine", None)
    chunk = getattr(sim, "_chunk_worker", None)
    pick = random.Random(seed)
    idx = np.asarray(prefix_grid, dtype=np.int64) - 1
    for p_idx, (name, spec) in enumerate(zip(scenario.policy_names, scenario.policies)):
        got = {t: m for t, m, _, _ in rows.get(name, ())}
        for t, want in zip(prefix_grid, curve.mean[p_idx]):
            if t not in got or not _close(got[t], float(want)):
                ledger.fail("replay-prefix", name, f"t={t}: file {got.get(t)!r}, replay {float(want)!r}")
                break
        if engine_of is None or chunk is None or engine_of(prefix, spec, "auto") == "scalar":
            continue
        for r in pick.sample(range(scenario.runs), min(SAMPLED_RUNS, scenario.runs)):
            run_seed = bs.run_seed(scenario.base_seed, p_idx, r)
            ref = bs.run_episode(scenario.bandit, spec, prefix.horizon, run_seed, bins=scenario.bins).trajectory[idx]
            eng = chunk((scenario.bandit, spec, prefix.horizon, prefix_grid, [run_seed], "vector", scenario.bins))[0]
            bad = [t for t, a, b in zip(prefix_grid, ref, eng) if not _close(float(a), float(b))]
            if bad:
                ledger.fail("replay-run", name, f"run {r}: run_episode and the vector engine differ from t={bad[0]}")


def read_verify_csv(path: str) -> dict:
    """bound_name -> number of violating points, in file order."""
    reports: dict = {}
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        for rec in reader:
            name = rec["bound_name"]
            reports[name] = reports.get(name, 0) + int(rec["violation"])
    return reports


def check_verify_output(ledger: Ledger, rep: int, out_dir: str, suites, codes) -> None:
    """Every verify report of the repetition exists and has no violation."""
    for (suite, _), code in zip(suites, codes):
        path = os.path.join(out_dir, f"verify_{suite}.csv")
        try:
            reports = read_verify_csv(path)
        except (OSError, KeyError, ValueError) as exc:
            ledger.fail("verify-csv", suite, str(exc), rep)
            continue
        if not reports:
            ledger.fail("verify-csv", suite, "no report written", rep)
        for name, violations in reports.items():
            ledger.add_op(name)
            if violations:
                ledger.fail("verify-violations", name, f"{violations} violating points", rep)
            elif code != 0:
                ledger.fail("cli-exit", name, f"verify {suite} exited {code}", rep)
