"""Acceptance gate: every criterion run at its stated scale and tolerance,
one pass/fail line printed per criterion.
"""

import json
import pathlib
import time

from bandit_switch import Bernoulli
from bandit_switch.verification import (
    bernoulli_identity_check,
    distribution_dependent_check,
    distribution_free_check,
    gamma_floor_check,
    index_ordering_check,
    kinf_concentration_check,
    kinf_deviation_check,
    kinf_grid_oracle_check,
    lambert_residual_check,
    minimax_profile_check,
    regularity_check,
)

GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden.json").read_text())

PARALLELISM = 2


def report_line(criterion: str, ok: bool, detail: str) -> None:
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def violations(report) -> list:
    return [p.label for p in report.points if p.violation]


def test_c01_kinf_grid_oracle():
    t0 = time.time()
    report = kinf_grid_oracle_check(n_dists=500, grid_points=1_000_000)
    elapsed = time.time() - t0
    ok = report.ok and elapsed < 60.0
    report_line(
        "C1 kinf grid oracle",
        ok,
        f"worst |newton - grid| = {report.values['worst_gap']:.2e} (tol 1e-6), {elapsed:.0f}s (< 60s)",
    )
    assert report.ok, violations(report)
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds the 60s budget"
    assert report.values["worst_gap"] == GOLDEN["c1_worst_gap"]
    assert report.points[0].label == f"max |newton - grid| ({GOLDEN['c1_worst_label']})"


def test_c01_golden_gap_holds_with_two_blas_threads(fresh_python):
    # C1 above runs with this process's BLAS threads, one when the package
    # loaded numpy; the grid oracle's view @ w is the package's one matrix
    # product, so rerun it in a process that keeps two
    code = "from bandit_switch.verification import kinf_grid_oracle_check as c; print(repr(c().values['worst_gap']))"
    assert float(fresh_python("-c", code, OPENBLAS_NUM_THREADS="2")) == GOLDEN["c1_worst_gap"]


def test_c02_bernoulli_identity():
    report = bernoulli_identity_check(mus_per_p=50, tol=1e-8)
    worst = max(p.empirical for p in report.points)
    report_line("C2 Bernoulli identity", report.ok, f"worst |kinf - kl| = {worst:.2e} (tol 1e-8)")
    assert report.ok, violations(report)


def test_c03_regularity_sandwich():
    report = regularity_check(samples=10_000, tol=1e-7)
    worst = max(p.empirical for p in report.points)
    report_line("C3 regularity sandwich", report.ok, f"worst excess = {worst:.2e} (tol 1e-7)")
    assert report.ok, violations(report)


def test_c04_deviation_bound():
    t0 = time.time()
    u_grid = tuple(round(0.05 * i, 2) for i in range(1, 21))
    reports = [
        kinf_deviation_check(Bernoulli(p), n, u_grid, runs=100_000, seed=91_000 + n + int(p * 10))
        for p in (0.3, 0.5)
        for n in (10, 50)
    ]
    elapsed = time.time() - t0
    ok = all(r.ok for r in reports) and elapsed < 300.0
    total = sum(len(r.points) for r in reports)
    report_line(
        "C4 deviation bound",
        ok,
        f"{total} (arm, n, u) points, 1e5 resamples each, zero violations, {elapsed:.0f}s (< 5min)",
    )
    for r in reports:
        assert r.ok, violations(r)
    assert elapsed < 300.0


def test_c05_concentration_bound():
    report = kinf_concentration_check(Bernoulli(0.2), 0.5, (20, 100), runs=100_000, seed=93_000)
    floor = gamma_floor_check()
    ok = report.ok and floor.ok
    report_line(
        "C5 concentration bound",
        ok,
        f"{len(report.points)} (n, x) points at k_true={report.values['k_true']:.5f}, "
        f"gamma={report.values['gamma']:.4f} >= 2 on grid",
    )
    assert report.ok, violations(report)
    assert floor.ok, violations(floor)


def test_c06_index_ordering():
    report = index_ordering_check(runs=100, checkpoints_per_run=10, tol=1e-9)
    worst = max(p.empirical for p in report.points)
    report_line(
        "C6 index ordering",
        report.ok,
        f"{report.values['checkpoints']} checkpoints x all arms, worst excess {worst:.2e} (tol 1e-9)",
    )
    assert report.values["checkpoints"] >= 1000
    assert report.ok, violations(report)


def test_c07_distribution_free_bounds():
    report = distribution_free_check(runs=1000, parallelism=PARALLELISM)
    norm = report.values["normalized-switch-known-T"]
    golden = GOLDEN["c7_normalized_switch_known_T"]
    drift_ok = abs(norm - golden) <= 0.25 * golden
    ok = report.ok and drift_ok
    report_line(
        "C7 distribution-free bounds",
        ok,
        f"R_T(switch)={report.values['switch-known-T']:.1f} <= 3253.7, "
        f"R_T(moss)={report.values['moss']:.1f} <= 2405.2, "
        f"R_T(anytime)={report.values['switch-anytime']:.1f} <= 6223.5; "
        f"normalized={norm:.4f} (< 5, golden {golden})",
    )
    assert report.ok, violations(report)
    assert drift_ok, f"normalized regret {norm} drifted from golden {golden}"


def test_c08_distribution_dependent_growth():
    report = distribution_dependent_check(runs=2000, parallelism=PARALLELISM)
    ok = report.ok
    report_line(
        "C8 distribution-dependent growth",
        ok,
        f"rate={report.values['rate']:.2f}; R_T: klucb={report.values['klucb']:.2f}, "
        f"switch={report.values['switch']:.2f}, moss={report.values['moss']:.2f} "
        f"(band [{0.5 * report.values['rate']:.1f}, {3 * report.values['rate']:.1f}] on switch/moss, ordering on all)",
    )
    assert ok, violations(report)
    assert report.values == GOLDEN["c8_values"]


def test_c09_minimax_profile():
    report = minimax_profile_check(runs=5000, parallelism=PARALLELISM)
    v = report.values
    ucb_points = [p for p in report.points if p.label.startswith("ucb")]
    ucb_ok = not any(p.violation for p in ucb_points)
    factor_point, contrast_point = report.points[:2]

    def profile(label: str, kind: str) -> str:
        return "/".join(f"{v[f'{label}-{kind}K{k}']:.3f}" for k in (2, 10, 50))

    detail = (
        f"R_T/sqrt(KT): switch {profile('switch', '')} (ratio {v['switch-ratio']:.3f}), "
        f"ucb {profile('ucb', '')} (ratio {v['ucb-ratio']:.3f}); "
        f"R_T/no-information regret: switch {profile('switch', 'noinfo-')} "
        f"(ratio {v['switch-noinfo-ratio']:.3f}, criterion < 2), "
        f"ucb {profile('ucb', 'noinfo-')} (ratio {v['ucb-noinfo-ratio']:.3f}); "
        f"contrast margin {v['contrast-margin-se']:.1f} se (> 3); ucb growing={ucb_ok}"
    )
    report_line("C9 minimax profile", report.ok, detail)
    assert ucb_ok, "ucb normalized regret failed to grow with K"
    assert not factor_point.violation, (
        f"switch regret over the no-information regret varies by {v['switch-noinfo-ratio']:.3f} "
        f"(+/- {factor_point.stderr:.3f}) across K, beyond the factor-2 criterion"
    )
    assert not contrast_point.violation, (
        f"switch ratio {v['switch-noinfo-ratio']:.3f} is not below the ucb ratio "
        f"{v['ucb-noinfo-ratio']:.3f} by more than 3 se ({v['contrast-margin-se']:.1f} se)"
    )
    assert {key: v[key] for key in GOLDEN["c9_values"]} == GOLDEN["c9_values"]


def test_c10_lambert_w():
    report = lambert_residual_check(rel_tol=1e-10)
    ok = report.ok
    worst = max(p.empirical for p in report.points if "residual" in p.label)
    report_line("C10 Lambert W", ok, f"worst relative residual {worst:.2e} (tol 1e-10), sandwich holds on (e, 1e9]")
    assert ok, violations(report)
