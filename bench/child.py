"""One repetition of a workload in a fresh interpreter.

Set-up (import of ``bandit_switch``, config expansion and ``Scenario``
construction) and the main phase (the ``cli.main`` calls, CSV/JSON
output included) are timed separately.  CPU time is the user + system
time of this process and of the pool workers it reaped during the main
phase.  With ``--trace-dir`` the layer wrappers are installed after
set-up, and the per-layer metrics and the merged spans are written out
when the main phase is over.  The last line of standard output is one
JSON object.

    python3 bench/child.py --workload NAME --out-dir DIR [--config FILE] [--trace-dir DIR]
    python3 bench/child.py --warmup
"""

from __future__ import annotations

import argparse
import inspect
import json
import os
import resource
import shutil
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, ROOT)
sys.path.insert(0, SRC)

from bench.workloads import WORKLOADS  # noqa: E402


def _import_package():
    import bandit_switch

    if not os.path.abspath(bandit_switch.__file__).startswith(os.path.join(SRC, "")):
        raise SystemExit(f"bandit_switch imported from {bandit_switch.__file__}, not from {SRC}")
    return bandit_switch


def _run_steps(workload, scenario) -> int:
    """Simulated run-steps of one repetition: runs x horizon per policy;
    for the verify workload, the ordering suite's replayed runs."""
    if scenario is not None:
        return len(scenario.policies) * scenario.runs * scenario.horizon
    from bandit_switch import verification

    horizon = inspect.signature(verification.index_ordering_check).parameters["horizon"].default
    return sum(runs * horizon for suite, runs in workload.suites if suite == "ordering")


def _cpu(ru) -> float:
    return ru.ru_utime + ru.ru_stime


def main() -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--config")
    parser.add_argument("--out-dir")
    parser.add_argument("--trace-dir")
    parser.add_argument("--warmup", action="store_true")
    args = parser.parse_args()
    if args.warmup:
        _import_package()
        print("{}")
        return 0
    workload = WORKLOADS[args.workload]

    t0 = time.perf_counter()
    bs = _import_package()
    from bandit_switch import cli

    scenario = None
    if workload.simulates:
        scenario = cli._scenario_from_config(cli._expand_run_config(cli._load_json(args.config)))
    setup_s = time.perf_counter() - t0

    tracer = None
    if args.trace_dir:
        from bench import tracing

        tracer = tracing.Tracer(os.path.join(args.trace_dir, "workers"))
        tracing.install(tracer, bs)

    self0 = resource.getrusage(resource.RUSAGE_SELF)
    kids0 = resource.getrusage(resource.RUSAGE_CHILDREN)
    t1 = time.perf_counter()
    codes = [cli.main(argv) for argv in workload.argvs(args.config, args.out_dir)]
    wall_s = time.perf_counter() - t1
    self1 = resource.getrusage(resource.RUSAGE_SELF)
    kids1 = resource.getrusage(resource.RUSAGE_CHILDREN)

    result = {
        "setup_s": setup_s,
        "wall_s": wall_s,
        "cpu_s": _cpu(self1) - _cpu(self0) + _cpu(kids1) - _cpu(kids0),
        # ru_maxrss is in KiB on Linux; the children figure is the largest reaped worker.
        "peak_rss_mb": max(self1.ru_maxrss, kids1.ru_maxrss) / 1024.0,
        "run_steps": _run_steps(workload, scenario),
        "exit_codes": codes,
    }
    if tracer is not None:
        trace = tracer.merged()
        result["layers"] = tracing.layer_metrics(trace)
        os.makedirs(args.trace_dir, exist_ok=True)
        trace.save(os.path.join(args.trace_dir, "trace.npz"))
        shutil.rmtree(tracer.worker_dir, ignore_errors=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
