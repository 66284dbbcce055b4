"""Benchmark entry point: one workload, one seed, a fixed measuring time.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Repeats the workload, each repetition in a fresh interpreter
(``bench/child.py``), until ``--seconds`` have passed, then checks the
outputs (``bench/checks.py``) and prints, as the last line of standard
output, one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``.  With ``--trace 0`` the metrics are the
end-to-end ones, each the median over the repetitions; with ``--trace 1``
repetitions alternate untraced and traced, and the metrics are the
per-layer ones (medians over the traced repetitions) plus the tracing
overhead.  Machine information, every repetition's figures and the error
accounting go to ``.bench_out/<workload>/seed<N>-trace<T>/result.json``.
Exits 1 when a check fails, naming it, and 2 when the sources to measure
are not there.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)

from bench import checks  # noqa: E402
from bench.workloads import WORKLOADS  # noqa: E402

MIN_UNTRACED = 3
MIN_TRACED = 2
MAX_REPS = 60
# Stop starting repetitions once one more could overrun this (the run,
# its checks included, has to end within three minutes).
HARD_LIMIT_S = 140.0
REP_TIMEOUT_S = 100.0
WARMUP_TIMEOUT_S = 30.0


def _load_map() -> dict:
    with open(os.path.join(BENCH, "map.json")) as fh:
        return json.load(fh)


def _run_child(argv: list, timeout: float) -> tuple:
    """Run one child interpreter in its own process group; kill the whole
    group (pool workers included) if it overruns or this process is
    stopped.  Bytecode caching is always on, so that set-up time does not
    depend on the caller's PYTHONDONTWRITEBYTECODE."""
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    proc = subprocess.Popen(
        [sys.executable, os.path.join(BENCH, "child.py"), *argv],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        text=True,
        start_new_session=True,
        cwd=ROOT,
        env=env,
    )
    try:
        out, err = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        return None, f"timed out after {timeout:.0f} s"
    except BaseException:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise
    if proc.returncode != 0:
        last = err.strip().splitlines()[-1:] or ["no message"]
        return None, f"exit {proc.returncode}: {last[0]}"
    try:
        return json.loads(out.strip().splitlines()[-1]), None
    except (IndexError, json.JSONDecodeError):
        return None, f"no result line in output: {out[-500:]!r}"


def _src_digest() -> str:
    h = hashlib.sha256()
    pkg = os.path.join(SRC, "bandit_switch")
    for name in sorted(os.listdir(pkg)):
        if name.endswith(".py"):
            with open(os.path.join(pkg, name), "rb") as fh:
                h.update(name.encode() + b"\0" + fh.read())
    return h.hexdigest()


def _git_revision() -> str:
    if not os.path.isdir(os.path.join(ROOT, ".git")):
        return "unknown"
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True, cwd=ROOT, timeout=5)
    except (OSError, subprocess.SubprocessError):
        return "unknown"
    return rev.stdout.strip() if rev.returncode == 0 else "unknown"


def machine_info(seed: int) -> dict:
    import numpy
    import scipy

    try:
        with open("/sys/fs/cgroup/cpu.max") as fh:
            cpu_max = fh.read().strip()
    except OSError:
        cpu_max = "absent"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "cgroup_cpu_max": cpu_max,
        "loadavg_at_start": os.getloadavg(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "platform": platform.platform(),
        "git_revision": _git_revision(),
        "src_sha256": _src_digest(),
        "seed": seed,
    }


def _median(values) -> float:
    return float(statistics.median(values))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # A terminated run unwinds through _run_child, which stops its children.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not os.path.isfile(os.path.join(SRC, "bandit_switch", "__init__.py")):
        print(f"bench: no bandit_switch sources under {SRC}; nothing to measure", file=sys.stderr)
        return 2

    started = time.monotonic()
    workload = WORKLOADS[args.workload]
    metric_map = _load_map()["metrics"]
    out = os.path.join(ROOT, ".bench_out", workload.name, f"seed{args.seed}-trace{args.trace}")
    shutil.rmtree(out, ignore_errors=True)
    os.makedirs(out)
    config = workload.write_config(out, args.seed) if workload.simulates else ""

    # Compile the package's bytecode before timing: users pay that once.
    _, err = _run_child(["--warmup"], WARMUP_TIMEOUT_S)
    if err:
        print(f"bench: warm-up import failed: {err}", file=sys.stderr)
        return 1

    reps: list = []
    deadline = time.monotonic() + args.seconds
    longest = 0.0
    while len(reps) < MAX_REPS:
        i = len(reps)
        traced = bool(args.trace) and i % 2 == 1
        rep_dir = os.path.join(out, f"rep{i}")
        child_argv = ["--workload", workload.name, "--out-dir", rep_dir]
        if config:
            child_argv += ["--config", config]
        if traced:
            child_argv += ["--trace-dir", os.path.join(rep_dir, "trace")]
        t = time.monotonic()
        result, err = _run_child(child_argv, REP_TIMEOUT_S)
        longest = max(longest, time.monotonic() - t)
        reps.append({"traced": traced, "dir": rep_dir, "result": result, "error": err})
        n_untraced = sum(not r["traced"] for r in reps)
        n_traced = len(reps) - n_untraced
        enough = n_untraced >= MIN_UNTRACED and (not args.trace or n_traced >= MIN_TRACED)
        if enough and time.monotonic() >= deadline:
            break
        if time.monotonic() - started + longest > HARD_LIMIT_S:
            break

    # ---- correctness, outside the timed phase
    sys.path.insert(0, SRC)
    import bandit_switch as bs
    from bandit_switch import cli

    ledger = checks.Ledger(len(reps))
    scenario = None
    first_rows = None
    if workload.simulates:
        scenario = cli._scenario_from_config(cli._expand_run_config(cli._load_json(config)))
        for name in scenario.policy_names:
            ledger.add_op(name)
    for i, rep in enumerate(reps):
        res = rep["result"]
        if res is None:
            for op in ledger.ops or [s for s, _ in workload.suites]:
                ledger.fail("repetition", op, rep["error"], i)
            continue
        if workload.simulates:
            if any(res["exit_codes"]):
                for name in scenario.policy_names:
                    ledger.fail("cli-exit", name, f"run exited {res['exit_codes']}", i)
                continue
            rows = checks.check_regret_output(ledger, i, os.path.join(rep["dir"], "regret.csv"), scenario)
            if rows is not None and first_rows is None:
                first_rows = rows
            elif rows is not None:
                checks.check_same_output(ledger, i, rows, first_rows, scenario.policy_names)
        else:
            checks.check_verify_output(ledger, i, rep["dir"], workload.suites, res["exit_codes"])
    if workload.simulates and first_rows is not None:
        try:
            checks.check_replay(ledger, bs, scenario, first_rows, args.seed)
        except Exception as exc:  # a crashing replay fails every curve, and is named
            for name in scenario.policy_names:
                ledger.fail("replay", name, f"{type(exc).__name__}: {exc}")

    # ---- figures
    ok = [r for r in reps if r["result"] is not None]
    untraced = [r["result"] for r in ok if not r["traced"]]
    traced = [r["result"] for r in ok if r["traced"]]
    metrics: dict = {}
    if untraced and not args.trace:
        metrics = {
            "setup_s": _median(r["setup_s"] for r in untraced),
            "wall_s": _median(r["wall_s"] for r in untraced),
            "run_steps_per_s": _median(r["run_steps"] / r["wall_s"] for r in untraced),
            "cpu_s": _median(r["cpu_s"] for r in untraced),
            "peak_rss_mb": _median(r["peak_rss_mb"] for r in untraced),
        }
    elif untraced and traced:
        names = traced[0]["layers"]
        metrics = {name: _median(r["layers"][name] for r in traced) for name in names}
        metrics["bench.trace_overhead_s"] = _median(r["wall_s"] for r in traced) - _median(
            r["wall_s"] for r in untraced
        )
    correct = ledger.failed == 0 and bool(metrics)

    summary = {
        "workload": workload.name,
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine_info(args.seed),
        "config": workload.config(args.seed) if workload.simulates else {"suites": workload.suites},
        "repetitions": [{k: v for k, v in r.items() if k != "dir"} for r in reps],
        "error_rate": ledger.error_rate,
        "failures": ledger.messages(),
        "metrics": metrics,
        "elapsed_s": time.monotonic() - started,
    }
    with open(os.path.join(out, "result.json"), "w") as fh:
        json.dump(summary, fh, indent=2)
    # Keep the first repetition's outputs and the first traced one's spans.
    keep = {reps[0]["dir"], next((r["dir"] for r in reps if r["traced"]), "")}
    for rep in reps:
        if rep["dir"] not in keep:
            shutil.rmtree(rep["dir"], ignore_errors=True)

    print(f"workload {workload.name}  seed {args.seed}  repetitions {len(reps)} ({len(traced)} traced)")
    print("machine " + json.dumps(summary["machine"]))
    for name, value in metrics.items():
        print(f"  {name:40s} {value:14.6g} {metric_map[name]['unit']}")
    print(f"  {'error_rate':40s} {ledger.error_rate:14.6g} ratio  ({ledger.failed}/{ledger.attempted} operations failed)")
    for msg in ledger.messages():
        print(f"FAILED {msg}", file=sys.stderr)
    if not metrics:
        print("FAILED repetition: no repetition produced figures", file=sys.stderr)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": ledger.attempted,
                "failed": ledger.failed,
                "metrics": {k: {"value": v, "unit": metric_map[k]["unit"]} for k, v in metrics.items()},
            }
        )
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
