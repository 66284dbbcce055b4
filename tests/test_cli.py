"""Command-line surface: config ingestion, CSV/meta emission,
reproducibility, and exit codes."""

import csv
import hashlib
import json
import pathlib

import pytest

from bandit_switch.cli import PRESETS, _expand_run_config, _scenario_from_config, main


SMALL_CONFIG = {
    "bandit": {"arms": [{"kind": "bernoulli", "p": 0.9}, {"kind": "bernoulli", "p": 0.8}]},
    "horizon": 300,
    "runs": 20,
    "seed": 42,
    "policies": [
        {"family": "ucb", "label": "UCB"},
        {"family": "klucb-switch-anytime", "switch_exponent": 0.8888888888888888, "label": "KL-UCB-switch"},
    ],
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload))
    return str(path)


def read_rows(path):
    with open(path) as fh:
        return list(csv.reader(fh))


GOLDEN = json.loads((pathlib.Path(__file__).parent / "data" / "golden.json").read_text())


def sha256(path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def test_preset_and_sweep_csv_bits_match_the_golden_digests(tmp_path):
    # Any change to an index, a hash, a tie-break or the write-out moves these.
    run_cfg = write_config(tmp_path, {"preset": "fig1-left", "runs": 64, "horizon": 500}, "run.json")
    assert main(["run", run_cfg, "--out-dir", str(tmp_path / "run"), "--parallelism", "1"]) == 0
    assert sha256(tmp_path / "run" / "regret.csv") == GOLDEN["fig1_left_regret_csv_sha256"]
    sweep_cfg = write_config(tmp_path, {"preset": "fig2-left", "values": [1.0, 3.0], "horizon": 500}, "sweep.json")
    argv = ["sweep", sweep_cfg, "--out-dir", str(tmp_path / "sweep"), "--parallelism", "1", "--runs", "4"]
    assert main(argv) == 0
    assert sha256(tmp_path / "sweep" / "sweep.csv") == GOLDEN["fig2_left_sweep_csv_sha256"]
    # the continuous-arm presets run their empirical-likelihood policies on the scalar engine
    for key, payload in (
        ("fig1_middle_regret_csv_sha256", {"preset": "fig1-middle", "runs": 4, "horizon": 400}),
        ("fig1_right_bins_regret_csv_sha256", {"preset": "fig1-right", "runs": 4, "horizon": 400, "bins": 50}),
    ):
        cfg = write_config(tmp_path, payload, f"{key}.json")
        assert main(["run", cfg, "--out-dir", str(tmp_path / key), "--parallelism", "1"]) == 0
        assert sha256(tmp_path / key / "regret.csv") == GOLDEN[key]


def test_run_writes_expected_csv(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--parallelism", "1"]) == 0
    rows = read_rows(out / "regret.csv")
    assert rows[0] == ["policy", "t", "mean_regret", "stderr", "runs"]
    policies = {r[0] for r in rows[1:]}
    assert policies == {"UCB", "KL-UCB-switch"}
    assert all(r[4] == "20" for r in rows[1:])
    meta = json.loads((out / "meta.json").read_text())
    assert meta["config"]["horizon"] == 300
    assert meta["stamp"]["package"] == "bandit-switch"


def test_run_is_reproducible_and_meta_round_trips(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out1, out2, out3 = (tmp_path / n for n in ("o1", "o2", "o3"))
    assert main(["run", cfg, "--out-dir", str(out1), "--parallelism", "1"]) == 0
    assert main(["run", cfg, "--out-dir", str(out2), "--parallelism", "2"]) == 0
    assert (out1 / "regret.csv").read_bytes() == (out2 / "regret.csv").read_bytes()
    # feeding the echoed expanded scenario back reproduces the output
    assert main(["run", str(out1 / "meta.json"), "--out-dir", str(out3), "--parallelism", "1"]) == 0
    assert (out1 / "regret.csv").read_bytes() == (out3 / "regret.csv").read_bytes()


def test_meta_records_engine_and_chunks_per_policy(tmp_path):
    # a binned continuous arm sends klucb-anytime to the scalar engine
    mixed = {
        "bandit": {"arms": [{"kind": "truncgauss", "mean": 0.7, "sigma": 0.2}, {"kind": "bernoulli", "p": 0.4}]},
        "horizon": 40,
        "runs": 7,
        "seed": 5,
        "bins": 20,
        "policies": [{"family": "ucb", "label": "UCB"}, {"family": "klucb-anytime", "label": "KL-UCB"}],
    }
    cfg = write_config(tmp_path, mixed)
    outs = {p: tmp_path / f"p{p}" for p in (1, 2)}
    for p, out in outs.items():
        assert main(["run", cfg, "--out-dir", str(out), "--parallelism", str(p)]) == 0
    assert (outs[1] / "regret.csv").read_bytes() == (outs[2] / "regret.csv").read_bytes()
    fanout = {p: json.loads((out / "meta.json").read_text())["fanout"] for p, out in outs.items()}
    assert fanout[1] == {"UCB": {"engine": "vector", "chunks": 1}, "KL-UCB": {"engine": "scalar", "chunks": 1}}
    # 7 runs x 2 arms is far below a vector chunk's floor, so UCB runs whole;
    # KL-UCB's atoms, at most 7 runs x T = 40 x 16 bytes = 4,480, are far
    # below the byte budget, so its batch is cut into one chunk per worker
    assert fanout[2] == {"UCB": {"engine": "vector", "chunks": 1}, "KL-UCB": {"engine": "scalar", "chunks": 2}}


def test_sweep_meta_records_fanout_per_point(tmp_path):
    cfg = write_config(tmp_path, {"preset": "fig2-left", "values": [0.5, 1.0], "runs": 3, "horizon": 200})
    outs = {p: tmp_path / f"p{p}" for p in (1, 2)}
    for p, out in outs.items():
        assert main(["sweep", cfg, "--out-dir", str(out), "--parallelism", str(p)]) == 0
    assert (outs[1] / "sweep.csv").read_bytes() == (outs[2] / "sweep.csv").read_bytes()
    points = json.loads((outs[2] / "meta.json").read_text())["config"]["points"]
    assert [pt["sweep_value"] for pt in points] == [0.5, 1.0]
    for pt in points:
        assert len(pt["fanout"]) == 5
        # 3 runs x 2 arms per policy: each batch runs whole
        assert all(f == {"engine": "vector", "chunks": 1} for f in pt["fanout"].values())


def test_runs_override_flag(tmp_path):
    cfg = write_config(tmp_path, SMALL_CONFIG)
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--runs", "5", "--parallelism", "1"]) == 0
    rows = read_rows(out / "regret.csv")
    assert all(r[4] == "5" for r in rows[1:])


def test_malformed_json_exits_2(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"bandit": [,]}')
    assert main(["run", str(path)]) == 2


def test_unknown_keys_and_presets_exit_2(tmp_path, capsys):
    assert main(["run", write_config(tmp_path, dict(SMALL_CONFIG, bogus=1), "a.json")]) == 2
    assert main(["run", write_config(tmp_path, {"preset": "fig9-up"}, "b.json")]) == 2
    for command in ("run", "sweep"):
        capsys.readouterr()
        assert main([command, write_config(tmp_path, {"preset": ["fig1-left"]}, "e.json")]) == 2
        assert "preset" in capsys.readouterr().err
    missing = {k: v for k, v in SMALL_CONFIG.items() if k != "horizon"}
    assert main(["run", write_config(tmp_path, missing, "c.json")]) == 2
    bad_policy = dict(SMALL_CONFIG, policies=[{"family": "thompson"}])
    assert main(["run", write_config(tmp_path, bad_policy, "d.json")]) == 2


def test_missing_config_file_exits_2(tmp_path):
    assert main(["run", str(tmp_path / "nope.json")]) == 2


def test_preset_expansion_with_overrides(tmp_path):
    cfg = write_config(tmp_path, {"preset": "fig1-left", "horizon": 200, "runs": 4, "seed": 7})
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out), "--parallelism", "1"]) == 0
    rows = read_rows(out / "regret.csv")
    assert {r[0] for r in rows[1:]} == {"UCB", "MOSS", "KL-UCB", "KL-UCB-switch", "IMED"}


def test_all_presets_expand_to_valid_scenarios():
    for name in PRESETS:
        cfg = _expand_run_config({"preset": name, "runs": 2})
        scenario = _scenario_from_config(cfg)
        assert scenario.horizon == 10_000
        assert scenario.runs == 2
    left = _expand_run_config({"preset": "fig1-left"})
    assert [a["p"] for a in left["bandit"]["arms"]] == [0.9, 0.8]
    middle = _expand_run_config({"preset": "fig1-middle"})
    assert [a["mean"] for a in middle["bandit"]["arms"]] == [0.15, 0.12, 0.10, 0.05]
    right = _expand_run_config({"preset": "fig1-right"})
    assert all(a["sigma"] == 0.1 for a in right["bandit"]["arms"])
    assert any(p["family"] == "klucb-gauss" for p in right["policies"])


def test_sweep_k_axis(tmp_path):
    cfg = write_config(tmp_path, {"preset": "fig2-right", "axis": "K", "values": [2, 3], "runs": 10})
    out = tmp_path / "sw"
    assert main(["sweep", cfg, "--out-dir", str(out), "--parallelism", "1"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert rows[0] == ["sweep_param", "sweep_value", "policy", "normalized_regret"]
    assert sum(1 for r in rows[1:] if r[0] == "K" and r[1] == "2") == 5
    assert sum(1 for r in rows[1:] if r[1] == "3") == 5
    for r in rows[1:]:
        float(r[3])


def test_sweep_x_axis_defaults(tmp_path):
    cfg = write_config(tmp_path, {"preset": "fig2-left", "values": [0.5, 1.0], "runs": 8, "horizon": 400})
    out = tmp_path / "sw"
    assert main(["sweep", cfg, "--out-dir", str(out), "--parallelism", "1"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert {r[1] for r in rows[1:]} == {"0.5", "1.0"}


def test_sweep_horizon_axis(tmp_path):
    cfg = write_config(tmp_path, {"preset": "fig2-left", "axis": "T", "values": [100, 400], "runs": 8})
    out = tmp_path / "sw"
    assert main(["sweep", cfg, "--out-dir", str(out), "--parallelism", "1"]) == 0
    rows = read_rows(out / "sweep.csv")
    assert {r[1] for r in rows[1:]} == {"100", "400"}
    assert all(r[0] == "T" for r in rows[1:])


def test_sweep_rejects_bad_axis(tmp_path, capsys):
    cfg = write_config(tmp_path, {"preset": "fig2-left", "axis": "sigma"})
    assert main(["sweep", cfg]) == 2
    capsys.readouterr()
    assert main(["sweep", write_config(tmp_path, {"preset": "fig2-left", "axis": ["x"]}, "list.json")]) == 2
    assert "axis" in capsys.readouterr().err


def test_env_var_parallelism(tmp_path, monkeypatch):
    monkeypatch.setenv("BANDIT_SWITCH_THREADS", "2")
    cfg = write_config(tmp_path, dict(SMALL_CONFIG, runs=8, horizon=120))
    out = tmp_path / "out"
    assert main(["run", cfg, "--out-dir", str(out)]) == 0
    # and the result matches an explicit serial run (parallelism-invariance)
    out2 = tmp_path / "out2"
    assert main(["run", cfg, "--out-dir", str(out2), "--parallelism", "1"]) == 0
    assert (out / "regret.csv").read_bytes() == (out2 / "regret.csv").read_bytes()


def test_verify_unknown_suite_exits_2(tmp_path):
    assert main(["verify", "nope", "--out-dir", str(tmp_path)]) == 2


def test_verify_rejects_a_seed_flag(tmp_path):
    # every verification check carries its own fixed seed
    with pytest.raises(SystemExit) as exc:
        main(["verify", "lambert", "--seed", "3", "--out-dir", str(tmp_path)])
    assert exc.value.code == 2
    assert not (tmp_path / "verify_lambert.csv").exists()


@pytest.mark.parametrize("runs", ["0", "-3"])
def test_verify_rejects_a_non_positive_run_count(tmp_path, capsys, runs):
    # 0 would read as "the default", and a negative count as an empty check
    assert main(["verify", "kinf-oracle", "--runs", runs, "--out-dir", str(tmp_path)]) == 2
    assert "--runs must be an integer >= 1" in capsys.readouterr().err
    assert not (tmp_path / "verify_kinf-oracle.csv").exists()


def test_verify_lambert_suite(tmp_path):
    assert main(["verify", "lambert", "--out-dir", str(tmp_path)]) == 0
    rows = read_rows(tmp_path / "verify_lambert.csv")
    assert rows[0] == ["bound_name", "point", "empirical", "bound", "stderr", "violation", "runs"]
    assert all(r[5] == "0" for r in rows[1:])


def test_verify_ordering_suite_reduced(tmp_path):
    assert main(["verify", "ordering", "--runs", "5", "--out-dir", str(tmp_path)]) == 0


def test_non_integer_bins_exits_2(tmp_path):
    assert main(["run", write_config(tmp_path, dict(SMALL_CONFIG, bins="abc")), "--out-dir", str(tmp_path)]) == 2


@pytest.mark.parametrize(
    "field,cfg",
    [
        pytest.param("horizon", {"horizon": "1e400"}, id="horizon-1e400"),
        pytest.param("horizon", {"horizon": "100.5"}, id="horizon-100.5"),
        pytest.param("runs", {"runs": "2.5"}, id="runs-2.5"),
        pytest.param("seed", {"seed": "1.7"}, id="seed-1.7"),
        pytest.param("record_grid", {"record_grid": "[10.5, 300]"}, id="record_grid-10.5"),
        pytest.param("policy horizon", {"policies": [{"family": "moss", "horizon": "40.5"}]}, id="policy-horizon-40.5"),
        pytest.param("sigma", {"policies": [{"family": "klucb-gauss", "sigma": "NaN"}]}, id="klucb-gauss-sigma-nan"),
        pytest.param(
            "sigma", {"bandit": {"arms": [{"kind": "truncgauss", "mean": 0.5, "sigma": "NaN"}]}}, id="truncgauss-sigma-nan"
        ),
        pytest.param(
            "mean", {"bandit": {"arms": [{"kind": "truncgauss", "mean": "Infinity", "sigma": 0.1}]}}, id="truncgauss-mean-inf"
        ),
        pytest.param("mean", {"bandit": {"arms": [{"kind": "truncexp", "mean": "NaN"}]}}, id="truncexp-mean-nan"),
        pytest.param(
            "probabilities",
            {"bandit": {"arms": [{"kind": "discrete", "values": [0.0, 1.0], "probs": ["NaN", 1.0]}]}},
            id="discrete-prob-nan",
        ),
    ],
)
def test_non_integer_or_non_finite_fields_exit_2(tmp_path, capsys, field, cfg):
    # the quoted numbers are written to the file as bare JSON literals
    text = json.dumps(dict(SMALL_CONFIG, **cfg))
    for literal in ("1e400", "100.5", "2.5", "1.7", "[10.5, 300]", "40.5", "NaN", "Infinity"):
        text = text.replace(json.dumps(literal), literal)
    path = tmp_path / "config.json"
    path.write_text(text)
    assert main(["run", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "regret.csv").exists()


@pytest.mark.parametrize(
    "field,cfg",
    [
        pytest.param("runs", {"runs": 2.5}, id="runs-2.5"),
        pytest.param("seed", {"seed": 1.7}, id="seed-1.7"),
        pytest.param("horizon", {"horizon": 100.5}, id="horizon-100.5"),
        pytest.param("k", {"k": 2.5}, id="k-2.5"),
        pytest.param("axis T", {"axis": "T", "values": [100.5]}, id="axis-T-100.5"),
        pytest.param("values", {"axis": "T", "values": 5}, id="values-5"),
        pytest.param("values", {"values": "abc"}, id="values-abc"),
        pytest.param("values", {"values": []}, id="values-empty"),
    ],
)
def test_sweep_non_integer_fields_exit_2(tmp_path, capsys, field, cfg):
    path = write_config(tmp_path, dict({"preset": "fig2-left", "values": [1.0]}, **cfg))
    assert main(["sweep", path, "--out-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


@pytest.mark.parametrize(
    "field,cfg",
    [
        pytest.param("family", {"policies": [{"family": "nope"}]}, id="family-nope"),
        pytest.param("sigma", {"policies": [{"family": "klucb-gauss", "sigma": "NaN"}]}, id="klucb-gauss-sigma-nan"),
        pytest.param("x must be", {"x": "abc"}, id="x-abc"),
    ],
)
def test_sweep_bad_policy_or_x_exits_2(tmp_path, capsys, field, cfg):
    # NaN is written to the file as a bare JSON literal; "x" goes to every point
    text = json.dumps(dict({"preset": "fig2-left", "axis": "K", "values": [2, 3], "runs": 2}, **cfg))
    path = tmp_path / "config.json"
    path.write_text(text.replace('"NaN"', "NaN"))
    assert main(["sweep", str(path), "--out-dir", str(tmp_path / "out")]) == 2
    assert field in capsys.readouterr().err
    assert not (tmp_path / "out" / "sweep.csv").exists()


def test_zero_bins_exits_2_before_any_run(tmp_path):
    # rejected even though no policy of the roster reads the distributions
    cfg = dict(SMALL_CONFIG, bins=0, policies=[{"family": "ucb"}])
    assert main(["run", write_config(tmp_path, cfg), "--out-dir", str(tmp_path / "out")]) == 2
    assert not (tmp_path / "out" / "regret.csv").exists()


def test_non_integer_threads_env_exits_2_under_run_and_verify(tmp_path, monkeypatch):
    monkeypatch.setenv("BANDIT_SWITCH_THREADS", "abc")
    assert main(["run", write_config(tmp_path, SMALL_CONFIG), "--out-dir", str(tmp_path)]) == 2
    assert main(["verify", "lambert", "--out-dir", str(tmp_path)]) == 2
