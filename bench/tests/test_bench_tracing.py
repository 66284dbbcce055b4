import collections
import json
import os
import subprocess
import sys
import textwrap

import numpy as np
import pytest

from bench import tracing

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))


def test_self_time_subtracts_sequential_children():
    # parent [0, 10] with children [1, 3] and [4, 5]; grandchild [1, 2]
    starts = [0.0, 1.0, 4.0, 1.0]
    ends = [10.0, 3.0, 5.0, 2.0]
    parents = [-1, 0, 0, 1]
    assert np.allclose(tracing.self_times(starts, ends, parents), [7.0, 1.0, 1.0, 1.0])


def test_self_time_counts_overlapping_children_once():
    # a pool span [0, 10] with two workers' chunks [1, 6] and [2, 8]
    out = tracing.self_times([0.0, 1.0, 2.0], [10.0, 6.0, 8.0], [-1, 0, 0])
    assert out[0] == pytest.approx(10.0 - 7.0)
    assert out[1:] == pytest.approx([5.0, 6.0])


def test_self_time_clips_children_to_the_parent_and_keeps_groups_apart():
    # parent A [0, 4] with a child reaching past its end; parent B [5, 9]
    # whose only child starts before A's child ends (in group order).
    starts = [0.0, 5.0, 3.0, 6.0]
    ends = [4.0, 9.0, 7.0, 6.5]
    parents = [-1, -1, 0, 1]
    out = tracing.self_times(starts, ends, parents)
    assert out[0] == pytest.approx(3.0)
    assert out[1] == pytest.approx(3.5)
    assert out[2:] == pytest.approx([4.0, 0.5])


def test_self_time_without_children_is_the_duration():
    assert tracing.self_times([1.0, 2.0], [1.5, 4.0], [-1, -1]) == pytest.approx([0.5, 2.0])
    assert tracing.self_times([], [], []).size == 0


def test_tracer_records_nesting():
    tr = tracing.Tracer(worker_dir="unused")
    outer = tr.open("a")
    inner = tr.open("b")
    tr.close(inner)
    tr.close(outer)
    trace = tr.merged()
    assert list(trace.parents) == [-1, 0]
    assert trace.n("a") == 1 and trace.n("b") == 1
    assert trace.self_total("a") + trace.self_total("b") == pytest.approx(trace.durations("a")[0])


def _empty_trace():
    empty = np.zeros(0)
    return tracing.Trace([], empty.astype(np.int64), empty, empty, empty.astype(np.int64), collections.Counter(), collections.Counter())


def test_layer_metrics_match_benchmark_json():
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        declared = {m["name"] for m in json.load(fh)["per_layer"]}
    produced = set(tracing.layer_metrics(_empty_trace())) | {"bench.trace_overhead_s"}
    assert produced == declared


def test_fan_out_workers_report_their_chunks(tmp_path):
    """A traced monte_carlo at parallelism 2 sees every chunk, pooled, and
    its vector-engine work done in the workers."""
    script = textwrap.dedent(
        f"""
        import json, sys
        sys.path[:0] = [{os.path.join(ROOT, "src")!r}, {ROOT!r}]
        import bandit_switch as bs
        from bench import tracing
        tr = tracing.Tracer({str(tmp_path / "workers")!r})
        tracing.install(tr, bs)
        sc = bs.Scenario(
            bandit=bs.BanditInstance((bs.Bernoulli(0.9), bs.Bernoulli(0.8))),
            horizon=100,
            policies=(bs.PolicySpec("ucb"), bs.PolicySpec("klucb-anytime")),
            runs=16,
            base_seed=7,
        )
        curve = bs.simulator.monte_carlo(sc, parallelism=2)
        print(json.dumps(tracing.layer_metrics(tr.merged())))
        """
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    m = json.loads(proc.stdout.strip().splitlines()[-1])
    assert m["simulator.pool_starts"] == 2
    assert m["simulator.chunks"] == 16  # 4 x parallelism per policy
    assert m["simulator.runs_per_chunk"] == 2
    assert m["simulator.policies_vector"] == 2
    assert 0.0 < m["simulator.parallel_efficiency"] <= 1.0
    assert m["vector.steps"] == 16 * (100 - 2)
    assert m["vector.bern_klucb_elems"] > 0
    assert m["rng.uniform_array_calls"] > 0
