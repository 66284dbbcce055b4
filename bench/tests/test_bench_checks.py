import json
import os
import shutil
import subprocess
import sys

import pytest

from bench import checks
from bench.workloads import WORKLOADS

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
sys.path.insert(0, os.path.join(ROOT, "src"))

import bandit_switch as bs  # noqa: E402
from bandit_switch import cli  # noqa: E402


def test_ledger_counts_each_failed_operation_once():
    ledger = checks.Ledger(reps=3)
    for op in ("a", "b"):
        ledger.add_op(op)
    assert (ledger.attempted, ledger.failed, ledger.error_rate) == (6, 0, 0.0)
    ledger.fail("regret-csv", "a", "bad", rep=1)
    ledger.fail("determinism", "a", "differs", rep=1)  # same operation again
    assert ledger.failed == 1
    ledger.fail("replay-prefix", "b", "mismatch")  # every repetition
    assert ledger.failed == 4
    assert ledger.error_rate == pytest.approx(4 / 6)
    assert ledger.messages() == ["regret-csv: a: bad", "replay-prefix: b: mismatch"]


def test_ledger_with_nothing_attempted_reports_failure():
    assert checks.Ledger(reps=0).error_rate == 1.0


@pytest.fixture(scope="module")
def small_run(tmp_path_factory):
    """A shrunk fig1-left run (vector engine) through the command line."""
    out = tmp_path_factory.mktemp("run")
    cfg = {"preset": "fig1-left", "runs": 6, "horizon": 300, "seed": 11}
    path = out / "config.json"
    path.write_text(json.dumps(cfg))
    assert cli.main(["run", str(path), "--out-dir", str(out), "--parallelism", "1"]) == 0
    scenario = cli._scenario_from_config(cli._expand_run_config(cfg))
    return scenario, out / "regret.csv"


def test_replay_accepts_the_true_output(small_run):
    scenario, csv_path = small_run
    ledger = checks.Ledger(reps=1)
    rows = checks.check_regret_output(ledger, 0, str(csv_path), scenario)
    checks.check_replay(ledger, bs, scenario, rows, seed=11)
    assert ledger.failed == 0, ledger.messages()


def test_replay_catches_a_corrupted_regret_csv(small_run, tmp_path):
    scenario, csv_path = small_run
    lines = csv_path.read_text().splitlines()
    # corrupt KL-UCB at its third recorded step, inside the replayed prefix
    target = [i for i, line in enumerate(lines) if line.startswith("KL-UCB,")][2]
    fields = lines[target].split(",")
    fields[2] = repr(float(fields[2]) + 1e-6)
    lines[target] = ",".join(fields)
    bad = tmp_path / "regret.csv"
    bad.write_text("\n".join(lines) + "\n")
    ledger = checks.Ledger(reps=1)
    rows = checks.check_regret_output(ledger, 0, str(bad), scenario)
    assert ledger.failed == 0  # still well-formed
    checks.check_replay(ledger, bs, scenario, rows, seed=11)
    assert ledger.failed == 1
    assert ledger.messages()[0].startswith("replay-prefix: KL-UCB:")


def test_structure_check_catches_missing_and_decreasing_curves(small_run, tmp_path):
    scenario, csv_path = small_run
    lines = csv_path.read_text().splitlines()
    kept = [line for line in lines if not line.startswith("UCB,")]
    moss = [i for i, line in enumerate(kept) if line.startswith("MOSS,")]
    fields = kept[moss[-1]].split(",")
    fields[2] = "0.0"
    kept[moss[-1]] = ",".join(fields)
    bad = tmp_path / "regret.csv"
    bad.write_text("\n".join(kept) + "\n")
    ledger = checks.Ledger(reps=1)
    checks.check_regret_output(ledger, 0, str(bad), scenario)
    assert ledger.messages() == ["regret-csv: MOSS: mean pseudo-regret decreases", "regret-csv: UCB: policy missing"]


def test_verify_check_fails_a_report_with_violations(tmp_path):
    (tmp_path / "verify_ordering.csv").write_text(
        "bound_name,point,empirical,bound,stderr,violation,runs\n"
        "index-pinsker-ordering,a,0.0,1e-09,0.0,0,10\n"
        "index-pinsker-ordering,b,0.5,1e-09,0.0,1,10\n"
    )
    ledger = checks.Ledger(reps=1)
    checks.check_verify_output(ledger, 0, str(tmp_path), (("ordering", 10),), [1])
    assert ledger.attempted == 1 and ledger.failed == 1
    assert ledger.messages() == ["verify-violations: index-pinsker-ordering: 1 violating points"]


def test_benchmark_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(os.path.join(ROOT, "bench"), tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "verify-solver", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=60,
    )
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_matches_the_workloads_and_metric_map():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    with open(os.path.join(ROOT, "bench", "map.json")) as fh:
        mapping = json.load(fh)
    assert set(spec) == {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    assert [w["name"] for w in spec["workloads"]] == list(WORKLOADS) == list(mapping["workloads"])
    for metric in spec["end_to_end"] + spec["per_layer"]:
        entry = mapping["metrics"][metric["name"]]
        assert (entry["unit"], entry["better"]) == (metric["unit"], metric["better"])
    mapped = {m for row in mapping["layer_map"] for m in row["metrics"]}
    assert mapped == {m["name"] for m in spec["per_layer"]} - {"bench.trace_overhead_s"}
    for name, w in WORKLOADS.items():
        shape = mapping["workloads"][name]["shape"]
        if w.simulates:
            assert f"runs {w.runs}, horizon {w.horizon}" in shape
        for suite, runs in w.suites:
            assert f"verify {suite} --runs {runs}" in shape
