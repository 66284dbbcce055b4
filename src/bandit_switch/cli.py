"""Command-line experiment runner: scenario ingestion, Monte-Carlo
orchestration, and CSV/JSON emission for external plotting.

Sub-commands
------------
- ``run <config>``: execute one scenario (explicit or preset), writing
  ``regret.csv`` (columns policy,t,mean_regret,stderr,runs) and
  ``meta.json`` (the fully expanded configuration, each policy's engine
  and run-chunk count, and a version stamp).
- ``sweep <config>``: execute a one-axis sweep (x, K or T) of a
  gap-profile preset, writing ``sweep.csv``
  (sweep_param,sweep_value,policy,normalized_regret) and ``meta.json``
  (with each sweep point's engines and run-chunk counts).
- ``verify <suite>``: run a verification suite and write
  ``verify_<suite>.csv``; exits 0 only with zero violations.

Exit codes: 0 success, 1 runtime failure, 2 malformed configuration or
unknown suite.  Output is data only; plotting is left to external tools.
"""

from __future__ import annotations

import argparse
import csv
import json
import math
import os
import subprocess
import sys

from . import __version__
from .distributions import BanditInstance
from .policies import _NEEDS_HORIZON, PolicySpec
from .simulator import (
    ConfigurationError,
    Scenario,
    gap_profile,
    monte_carlo,
    normalized_regret,
    positive_int,
)
from .verification import SUITES, run_suite

_ANYTIME_ROSTER = (
    {"family": "ucb", "label": "UCB"},
    {"family": "moss-anytime", "label": "MOSS"},
    {"family": "klucb-anytime", "label": "KL-UCB"},
    {"family": "klucb-switch-anytime", "switch_exponent": 8.0 / 9.0, "label": "KL-UCB-switch"},
    {"family": "imed", "label": "IMED"},
)

# Figure-style presets: anytime policies with plain log_plus exploration
# and the delayed switch floor(t/K)^(8/9).
PRESETS = {
    "fig1-left": {
        "bandit": {"arms": [{"kind": "bernoulli", "p": 0.9}, {"kind": "bernoulli", "p": 0.8}]},
        "horizon": 10_000,
        "runs": 10_000,
        "seed": 20_240_301,
        "policies": list(_ANYTIME_ROSTER),
    },
    "fig1-middle": {
        "bandit": {
            "arms": [{"kind": "truncexp", "mean": m} for m in (0.15, 0.12, 0.10, 0.05)]
        },
        "horizon": 10_000,
        "runs": 10_000,
        "seed": 20_240_302,
        "policies": list(_ANYTIME_ROSTER) + [{"family": "klucb-exp", "label": "kl-UCB-exp"}],
    },
    "fig1-right": {
        "bandit": {
            "arms": [{"kind": "truncgauss", "mean": m, "sigma": 0.1} for m in (0.7, 0.5, 0.3, 0.2)]
        },
        "horizon": 10_000,
        "runs": 10_000,
        "seed": 20_240_303,
        "policies": list(_ANYTIME_ROSTER) + [{"family": "klucb-gauss", "sigma": 0.1, "label": "kl-UCB-Gauss"}],
    },
}

# Gap-profile presets for sweeps: Bernoulli(0.8, 0.8 - x sqrt(K/T), ...).
SWEEP_PRESETS = {
    "fig2-left": {"k": 2, "horizon": 10_000, "runs": 5000, "seed": 20_240_304},
    "fig2-right": {"k": 2, "horizon": 10_000, "runs": 5000, "seed": 20_240_305},
}

_DEFAULT_X_GRID = [round(0.1 * i, 1) for i in range(1, 31)]
# Each sweep axis and the config key its values replace.
_SWEEP_AXES = {"x": "x", "T": "horizon", "K": "k"}

_RUN_KEYS = {"bandit", "horizon", "policies", "runs", "seed", "record_grid", "bins", "parallelism", "out_dir"}
_SWEEP_KEYS = {"preset", "axis", "values", "x", "k", "horizon", "runs", "seed", "policies", "parallelism", "out_dir"}


def _load_json(path: str) -> dict:
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:  # missing, or a directory
        raise ConfigurationError(f"cannot read config file {path}: {exc.strerror}")
    except json.JSONDecodeError as exc:
        raise ConfigurationError(f"malformed JSON in {path}: line {exc.lineno}, column {exc.colno}: {exc.msg}")
    except UnicodeDecodeError as exc:
        raise ConfigurationError(f"config file {path} is not UTF-8: byte {exc.start}: {exc.reason}")


def _expand_run_config(cfg: dict) -> dict:
    """Resolve presets and defaults into a fully explicit run config."""
    if not isinstance(cfg, dict):
        raise ConfigurationError("run config must be a JSON object")
    if "config" in cfg:  # meta.json round-trip wrapper
        beside = set(cfg) - {"config", "fanout", "stamp"}
        if beside:
            raise ConfigurationError(f"keys beside 'config' are not read: {sorted(beside)}")
        cfg = cfg["config"]
        if not isinstance(cfg, dict):
            raise ConfigurationError(f"the 'config' key must hold a JSON object, got {cfg!r}")
    if "preset" in cfg:
        name = cfg["preset"]
        if not isinstance(name, str) or name not in PRESETS:
            raise ConfigurationError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
        merged = dict(PRESETS[name])
        merged.update((k, v) for k, v in cfg.items() if k != "preset")
        cfg = merged
    bad = set(cfg) - _RUN_KEYS
    if bad:
        raise ConfigurationError(f"unknown config keys: {sorted(bad)}")
    for key in ("bandit", "horizon", "policies", "runs", "seed"):
        if key not in cfg:
            raise ConfigurationError(f"missing config key: {key!r}")
    return cfg


def _scenario_from_config(cfg: dict) -> Scenario:
    try:
        bandit = BanditInstance.from_config(cfg["bandit"])
        policies = tuple(PolicySpec.from_config(p) for p in cfg["policies"])
        horizon = positive_int(cfg["horizon"], "horizon")
        grid = cfg.get("record_grid", "geometric")
        if grid == "geometric":
            grid = ()  # Scenario's default
        elif grid == "full":
            grid = tuple(range(1, horizon + 1))
        elif not (isinstance(grid, list) and grid):  # Scenario checks each entry
            raise ConfigurationError(f'record_grid must be "geometric", "full" or a non-empty list, got {grid!r}')
        return Scenario(
            bandit=bandit,
            horizon=horizon,
            policies=policies,
            runs=cfg["runs"],
            base_seed=cfg["seed"],
            record_grid=grid,
            bins=cfg.get("bins"),
        )
    except (ValueError, TypeError, KeyError) as exc:
        raise ConfigurationError(f"invalid scenario configuration: {exc}")


def _expanded_echo(scenario: Scenario) -> dict:
    return {
        "bandit": scenario.bandit.to_config(),
        "horizon": scenario.horizon,
        "policies": [p.to_config() for p in scenario.policies],
        "runs": scenario.runs,
        "seed": scenario.base_seed,
        "record_grid": list(scenario.record_grid),
        "bins": scenario.bins,
    }


def _stamp() -> dict:
    stamp = {"package": "bandit-switch", "version": __version__}
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "HEAD"],
            capture_output=True,
            text=True,
            cwd=os.path.dirname(__file__),
            timeout=5,
        )
        stamp["git"] = rev.stdout.strip() if rev.returncode == 0 else "unknown"
    except (OSError, subprocess.SubprocessError):
        stamp["git"] = "unknown"
    return stamp


def _write_meta(out_dir: str, config: dict, **extra) -> None:
    with open(os.path.join(out_dir, "meta.json"), "w") as fh:
        json.dump({"config": config, **extra, "stamp": _stamp()}, fh, indent=2)
        fh.write("\n")


def _fanout(curve) -> dict:
    """Each policy's engine and number of run chunks."""
    return {name: {"engine": e, "chunks": n} for name, e, n in zip(curve.policies, curve.engines, curve.chunks)}


def _parallelism(args, cfg: dict) -> int:
    """Worker processes: ``--parallelism``, else $BANDIT_SWITCH_THREADS,
    else the config's ``parallelism``, else the CPUs this process may use."""
    sources = (
        ("--parallelism", args.parallelism),
        ("BANDIT_SWITCH_THREADS", os.environ.get("BANDIT_SWITCH_THREADS") or None),
        ("parallelism", cfg.get("parallelism")),
    )
    for name, value in sources:
        if value is not None:
            return positive_int(value, name)
    return len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count() or 1


def cmd_run(args) -> int:
    cfg = _expand_run_config(_load_json(args.config))
    if args.seed is not None:
        cfg["seed"] = args.seed
    if args.runs is not None:
        cfg["runs"] = args.runs
    scenario = _scenario_from_config(cfg)
    out_dir = args.out_dir or cfg.get("out_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    curve = monte_carlo(scenario, parallelism=_parallelism(args, cfg))
    with open(os.path.join(out_dir, "regret.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["policy", "t", "mean_regret", "stderr", "runs"])
        for p_idx, name in enumerate(curve.policies):
            for g_idx, t in enumerate(curve.grid):
                writer.writerow(
                    [name, int(t), float(curve.mean[p_idx, g_idx]), float(curve.stderr[p_idx, g_idx]), curve.runs]
                )
    _write_meta(out_dir, _expanded_echo(scenario), fanout=_fanout(curve))
    print(f"wrote {os.path.join(out_dir, 'regret.csv')}")
    return 0


def _finite(value, name: str) -> float:
    try:
        x = float(value)
    except (TypeError, ValueError):
        x = math.nan
    if not math.isfinite(x):
        raise ConfigurationError(f"{name} must be a finite number, got {value!r}")
    return x


def cmd_sweep(args) -> int:
    cfg = _load_json(args.config)
    if not isinstance(cfg, dict):
        raise ConfigurationError("sweep config must be a JSON object")
    bad = set(cfg) - _SWEEP_KEYS
    if bad:
        raise ConfigurationError(f"unknown sweep config keys: {sorted(bad)}")
    preset_name = cfg.get("preset")
    if not isinstance(preset_name, str) or preset_name not in SWEEP_PRESETS:
        raise ConfigurationError(f"sweep preset must be one of {sorted(SWEEP_PRESETS)}, got {preset_name!r}")
    preset = dict(SWEEP_PRESETS[preset_name])
    axis = cfg.get("axis", "x")
    if not isinstance(axis, str) or axis not in _SWEEP_AXES:
        raise ConfigurationError(f"sweep axis must be one of {sorted(_SWEEP_AXES)}, got {axis!r}")
    if _SWEEP_AXES[axis] in cfg:
        raise ConfigurationError(f"sweep axis {axis} replaces the key {_SWEEP_AXES[axis]!r}; remove it")
    values = cfg.get("values", {"x": _DEFAULT_X_GRID, "T": [100, 1000, 10_000], "K": [2, 10, 50]}[axis])
    if not isinstance(values, list) or not values:
        raise ConfigurationError(f"sweep values must be a non-empty JSON list, got {values!r}")
    if axis != "x":
        values = [positive_int(v, f"sweep value on axis {axis}") for v in values]
    fixed_k = positive_int(cfg.get("k", preset["k"]), "k")
    horizon = positive_int(cfg.get("horizon", preset["horizon"]), "horizon")
    runs = args.runs if args.runs is not None else cfg.get("runs", preset["runs"])
    seed = args.seed if args.seed is not None else cfg.get("seed", preset["seed"])
    policy_cfgs = cfg.get("policies", list(_ANYTIME_ROSTER))
    # Every point's scenario is built, and so checked, before any is run.
    points = []
    try:
        fixed_x = _finite(cfg.get("x", 1.0), "x")
        for p in policy_cfgs:
            if isinstance(p, dict) and p.get("family") in _NEEDS_HORIZON and "horizon" in p:
                raise ConfigurationError(f"sweep sets the 'horizon' of policy {p['family']!r} to each point's T; remove it")
        for value in values:
            x = _finite(value, "sweep value on axis x") if axis == "x" else fixed_x
            k = value if axis == "K" else fixed_k
            t = value if axis == "T" else horizon
            policies = tuple(
                PolicySpec.from_config(dict(p, horizon=t) if isinstance(p, dict) and p.get("family") in _NEEDS_HORIZON else p)
                for p in policy_cfgs
            )
            points.append((value, k, t, Scenario(gap_profile(k, t, x), t, policies, runs, seed, record_grid=(t,))))
    except ConfigurationError:
        raise
    except (ValueError, TypeError) as exc:
        raise ConfigurationError(f"invalid sweep configuration: {exc}")
    out_dir = args.out_dir or cfg.get("out_dir") or "."
    os.makedirs(out_dir, exist_ok=True)
    parallelism = _parallelism(args, cfg)

    rows = []
    expanded_points = []
    for value, k, t, scenario in points:
        curve = monte_carlo(scenario, parallelism=parallelism)
        for name in curve.policies:
            rows.append([axis, value, name, normalized_regret(curve, k, t, name)])
        expanded_points.append({"sweep_value": value, "scenario": _expanded_echo(scenario), "fanout": _fanout(curve)})
    with open(os.path.join(out_dir, "sweep.csv"), "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["sweep_param", "sweep_value", "policy", "normalized_regret"])
        writer.writerows(rows)
    _write_meta(out_dir, {"preset": preset_name, "axis": axis, "values": list(values), "points": expanded_points})
    print(f"wrote {os.path.join(out_dir, 'sweep.csv')}")
    return 0


def cmd_verify(args) -> int:
    suite = args.suite
    if suite not in SUITES:
        print(f"unknown suite {suite!r}; known: {', '.join(SUITES)}", file=sys.stderr)
        return 2
    runs = None if args.runs is None else positive_int(args.runs, "--runs")
    out_dir = args.out_dir or "."
    os.makedirs(out_dir, exist_ok=True)
    reports = run_suite(suite, runs=runs, parallelism=_parallelism(args, {}))
    path = os.path.join(out_dir, f"verify_{suite}.csv")
    violations = 0
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["bound_name", "point", "empirical", "bound", "stderr", "violation", "runs"])
        for rep in reports:
            violations += rep.violations
            for p in rep.points:
                writer.writerow(
                    [rep.bound_name, p.label, p.empirical, p.bound, p.stderr, int(p.violation), rep.runs]
                )
    for rep in reports:
        status = "ok" if rep.ok else f"{rep.violations} VIOLATIONS"
        print(f"{rep.bound_name}: {len(rep.points)} points, {status}")
    print(f"wrote {path}")
    return 0 if violations == 0 else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="bandit-switch",
        description="Bandit simulation and bound-verification runner (CSV/JSON output).",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--parallelism", type=int, default=None, help="worker processes (default: the CPUs this process may use; env BANDIT_SWITCH_THREADS)")
        p.add_argument("--out-dir", default=None, help="output directory (default: current)")
        p.add_argument("--runs", type=int, default=None, help="override the configured run count")

    p_run = sub.add_parser("run", help="run one scenario from a JSON config or preset")
    p_run.add_argument("config", help="path to the scenario JSON (or a meta.json echo)")
    p_sweep = sub.add_parser("sweep", help="run a one-axis sweep (x, K or T) of a gap-profile preset")
    p_sweep.add_argument("config", help="path to the sweep JSON")
    for p, func in ((p_run, cmd_run), (p_sweep, cmd_sweep)):  # verify's checks carry fixed seeds
        common(p)
        p.add_argument("--seed", type=int, default=None, help="override the configured base seed")
        p.set_defaults(func=func)

    p_verify = sub.add_parser("verify", help="run a verification suite")
    p_verify.add_argument("suite", help=f"one of: {', '.join(SUITES)}")
    common(p_verify)
    p_verify.set_defaults(func=cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigurationError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # runtime failure
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
