"""In-memory span tracer and the wrappers that attach it to each layer.

Spans (name, start, end, parent) are appended to flat arrays while the
workload runs and written out once at the end.  Wrappers are installed
from here onto the module attributes the library's layers call, so no
file of the library changes.  A worker forked by a process pool resets
its copy of the tracer at fork time, keeps the span that was open in the
parent as the parent of its own top-level spans, and flushes its spans
and counters to a file after each chunk it computes; the parent merges
those files when the main phase is over.

Per-layer times are *self* times: a span's duration minus the part of
its interval that its child spans cover.
"""

from __future__ import annotations

import collections
import functools
import glob
import json
import os
import time
from array import array

import numpy as np

_SWITCH_FAMILIES = ("klucb-switch", "klucb-switch-anytime")
# Bytes the grid oracle touches per (lambda point, atom): the outer product
# written, read and written back by log1p, then read by the matrix product.
_ORACLE_BYTES_PER_CELL = 4 * 8


class Tracer:
    """Span and counter store for one process."""

    def __init__(self, worker_dir: str):
        self.worker_dir = worker_dir
        self.names: list = []
        self._name_ids: dict = {}
        self.flushes = 0
        self.is_worker = False
        self.in_switch = False
        # Cleared in place on reset: the layer hooks hold references to them.
        self.counts: collections.Counter = collections.Counter()
        self.atoms: collections.Counter = collections.Counter()
        self._reset(-1)
        os.register_at_fork(after_in_child=self._after_fork)

    def _reset(self, root_parent: int) -> None:
        self.name_ids = array("H")
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.stack: list = []
        self.counts.clear()
        self.atoms.clear()
        self.root_parent = root_parent

    def _after_fork(self) -> None:
        parent = self.stack[-1] if self.stack else -1
        self.is_worker = True
        self._reset(parent)

    def _name_id(self, name: str) -> int:
        nid = self._name_ids.get(name)
        if nid is None:
            nid = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return nid

    def open(self, name: str) -> int:
        idx = len(self.starts)
        self.name_ids.append(self._name_id(name))
        self.parents.append(self.stack[-1] if self.stack else -1)
        self.ends.append(0.0)
        self.starts.append(time.perf_counter())
        self.stack.append(idx)
        return idx

    def close(self, idx: int) -> None:
        self.ends[idx] = time.perf_counter()
        self.stack.pop()

    def flush_worker(self) -> None:
        """Write this worker's spans and counters to a file and start over."""
        os.makedirs(self.worker_dir, exist_ok=True)
        path = os.path.join(self.worker_dir, f"{os.getpid()}-{time.time_ns()}-{self.flushes}.npz")
        self.flushes += 1
        np.savez(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=np.frombuffer(self.name_ids, dtype=np.uint16),
            starts=np.frombuffer(self.starts, dtype=np.float64),
            ends=np.frombuffer(self.ends, dtype=np.float64),
            parents=np.frombuffer(self.parents, dtype=np.int64),
            root_parent=np.int64(self.root_parent),
            counts=np.array(json.dumps(self.counts)),
            atoms=np.array(json.dumps({str(k): v for k, v in self.atoms.items()})),
        )
        self._reset(self.root_parent)

    def merged(self) -> "Trace":
        """This process's spans plus every flushed worker file."""
        names = list(self.names)
        parts = [
            (
                np.frombuffer(self.name_ids, dtype=np.uint16).astype(np.int64),
                np.frombuffer(self.starts, dtype=np.float64).copy(),
                np.frombuffer(self.ends, dtype=np.float64).copy(),
                np.frombuffer(self.parents, dtype=np.int64).copy(),
            )
        ]
        counts = collections.Counter(self.counts)
        atoms = collections.Counter(self.atoms)
        offset = parts[0][1].size
        for path in sorted(glob.glob(os.path.join(self.worker_dir, "*.npz"))):
            with np.load(path, allow_pickle=False) as f:
                remap = np.array([_intern(names, str(n)) for n in f["names"]], dtype=np.int64)
                ids = remap[f["name_ids"].astype(np.int64)]
                parents = f["parents"].copy()
                local = parents >= 0
                parents[local] += offset
                parents[~local] = int(f["root_parent"])
                parts.append((ids, f["starts"], f["ends"], parents))
                offset += f["starts"].size
                counts.update(json.loads(str(f["counts"])))
                atoms.update({int(k): v for k, v in json.loads(str(f["atoms"])).items()})
        cat = [np.concatenate([p[i] for p in parts]) for i in range(4)]
        return Trace(names, cat[0], cat[1], cat[2], cat[3], counts, atoms)


def _intern(names: list, name: str) -> int:
    if name not in names:
        names.append(name)
    return names.index(name)


def self_times(starts: np.ndarray, ends: np.ndarray, parents: np.ndarray) -> np.ndarray:
    """Each span's duration minus the union of its children's intervals,
    clipped to the span itself.  Children may overlap one another (chunks
    of parallel workers under one pool span); overlap is counted once."""
    starts = np.asarray(starts, dtype=float)
    ends = np.asarray(ends, dtype=float)
    parents = np.asarray(parents, dtype=np.int64)
    out = ends - starts
    child = np.flatnonzero(parents >= 0)
    if child.size == 0:
        return out
    par = parents[child]
    lo = np.maximum(starts[child], starts[par])
    hi = np.minimum(ends[child], ends[par])
    keep = hi > lo
    child, par, lo, hi = child[keep], par[keep], lo[keep], hi[keep]
    if child.size == 0:
        return out
    order = np.lexsort((lo, par))
    par, lo, hi = par[order], lo[order], hi[order]
    # Times relative to the parent's start, then each parent's group
    # shifted above the previous one, so that a single running maximum
    # never carries an interval end across groups.
    lo = lo - starts[par]
    hi = hi - starts[par]
    width = float(hi.max()) + 1.0
    _, group = np.unique(par, return_inverse=True)
    shift = group.astype(float) * width
    lo_s, hi_s = lo + shift, hi + shift
    reach = np.maximum.accumulate(hi_s)
    prev = np.concatenate(([-np.inf], reach[:-1]))
    covered = np.maximum(hi_s - np.maximum(lo_s, prev), 0.0)
    np.subtract.at(out, par, covered)
    return out


class Trace:
    """Merged spans and counters of one traced run."""

    def __init__(self, names, name_ids, starts, ends, parents, counts, atoms):
        self.names = names
        self.name_ids = name_ids
        self.starts = starts
        self.ends = ends
        self.parents = parents
        self.counts = counts
        self.atoms = atoms
        self.self_s = self_times(starts, ends, parents)

    def mask(self, name: str) -> np.ndarray:
        if name not in self.names:
            return np.zeros(self.name_ids.size, dtype=bool)
        return self.name_ids == self.names.index(name)

    def n(self, name: str) -> int:
        return int(self.mask(name).sum())

    def self_total(self, name: str) -> float:
        return float(self.self_s[self.mask(name)].sum())

    def durations(self, name: str) -> np.ndarray:
        m = self.mask(name)
        return self.ends[m] - self.starts[m]

    def save(self, path: str) -> None:
        np.savez_compressed(
            path,
            names=np.array(self.names, dtype=str),
            name_ids=self.name_ids,
            starts=self.starts,
            ends=self.ends,
            parents=self.parents,
            self_s=self.self_s,
            counts=np.array(json.dumps(self.counts)),
        )


def _ratio(num: float, den: float) -> float:
    return float(num) / float(den) if den else 0.0


def _hist_quantile(hist: collections.Counter, q: float) -> float:
    if not hist:
        return 0.0
    keys = sorted(hist)
    cum = np.cumsum([hist[k] for k in keys])
    return float(keys[int(np.searchsorted(cum, q * cum[-1]))])


def layer_metrics(tr: Trace) -> dict:
    """Every per-layer metric, by name, from one merged trace."""
    c = tr.counts
    pools = np.flatnonzero(tr.mask("simulator.pool"))
    chunk_mask = tr.mask("simulator.chunk")
    chunk_s = tr.durations("simulator.chunk")
    pooled = chunk_mask & np.isin(tr.parents, pools)
    pooled_busy = float((tr.ends[pooled] - tr.starts[pooled]).sum())
    solves = c["kinf.solve_calls"]
    run_steps = c["vector.run_steps"]
    return {
        "rng.uniform_calls": c["rng.uniform_calls"],
        "rng.uniform_array_calls": tr.n("rng.uniform_array"),
        "rng.uniform_array_s": tr.self_total("rng.uniform_array"),
        "distributions.push_calls": tr.n("distributions.push"),
        "distributions.push_s": tr.self_total("distributions.push"),
        "distributions.new_atom_share": _ratio(c["distributions.new_atoms"], tr.n("distributions.push")),
        "distributions.quantile_s": tr.self_total("distributions.quantile"),
        "kinf.solve_calls": solves,
        "kinf.solve_s": tr.self_total("kinf.solve"),
        "kinf.atoms_per_solve_p50": _hist_quantile(tr.atoms, 0.5),
        "kinf.atoms_per_solve_max": float(max(tr.atoms)) if tr.atoms else 0.0,
        "kinf.small_path_share": _ratio(c["kinf.small_path"], solves),
        "kinf.newton_iters_per_solve": _ratio(c["kinf.iterations"], solves),
        "kinf.nonconverged": c["kinf.nonconverged"],
        "kinf.index_calls": tr.n("kinf.index"),
        "kinf.index_s": tr.self_total("kinf.index"),
        "kinf.solves_per_index": _ratio(c["kinf.solves_in_index"], tr.n("kinf.index")),
        "policies.index_calls": tr.n("policies.index"),
        "policies.index_s": tr.self_total("policies.index"),
        "policies.switch_kl_share": _ratio(c["policies.switch_kl"], c["policies.switch_evals"]),
        "vector.steps": tr.n("vector.indices"),
        "vector.batch_runs_mean": _ratio(c["vector.batch_runs"], tr.n("vector.simulate")),
        "vector.indices_s": tr.self_total("vector.indices"),
        "vector.bern_klucb_s": tr.self_total("vector.bern_klucb"),
        "vector.bern_klucb_elems": c["vector.bern_klucb_elems"],
        "vector.tie_break_s": tr.self_total("vector.tie_break"),
        "vector.draw_s": tr.self_total("vector.draw"),
        "vector.ns_per_run_step": _ratio(tr.durations("vector.simulate").sum() * 1e9, run_steps),
        "simulator.policies_vector": c["simulator.policies_vector"],
        "simulator.pool_starts": int(pools.size),
        "simulator.chunks": int(chunk_mask.sum()),
        "simulator.runs_per_chunk": _ratio(c["simulator.chunk_runs"], chunk_mask.sum()),
        "simulator.chunk_s_p50": float(np.median(chunk_s)) if chunk_s.size else 0.0,
        "simulator.chunk_s_max": float(chunk_s.max()) if chunk_s.size else 0.0,
        "simulator.wait_s": float(tr.durations("simulator.pool").sum()),
        "simulator.parallel_efficiency": _ratio(pooled_busy, c["simulator.pool_worker_s"]),
        "verification.oracle_s": tr.self_total("verification.oracle") + tr.self_total("verification.oracle_chunk"),
        "verification.oracle_points": c["verification.oracle_points"],
        "verification.oracle_bytes_computed": c["verification.oracle_bytes"],
        "verification.ordering_s": tr.self_total("verification.ordering"),
        "verification.ordering_checkpoints": c["verification.ordering_checkpoints"],
        "cli.config_s": tr.self_total("cli.config"),
        "cli.write_s": tr.self_total("cli.command") + float(tr.durations("cli.meta").sum()),
    }


# ---------------------------------------------------------------------------
# installation


def _replace_everywhere(modules, original, replacement) -> None:
    """Rebind ``original`` to ``replacement`` in every module that holds it
    (``from .x import f`` copies the reference into the importing module)."""
    for mod in modules:
        for name, value in list(vars(mod).items()):
            if value is original:
                setattr(mod, name, replacement)


def _spanned(tracer: Tracer, name: str, fn, before=None, after=None, worker_entry: bool = False):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        token = before(args, kwargs) if before is not None else None
        idx = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.close(idx)
        if after is not None:
            after(args, kwargs, result, token)
        if worker_entry and tracer.is_worker:
            tracer.flush_worker()
        return result

    return wrapper


def install(tracer: Tracer, package) -> None:
    """Wrap each layer's entry points.  A layer function that no longer
    exists is skipped, and its metrics read 0."""
    import importlib

    mods = {
        name: importlib.import_module(f"{package.__name__}.{name}")
        for name in ("_rng", "_vector", "distributions", "kinf", "policies", "simulator", "verification", "cli")
    }
    modules = [package, *mods.values()]
    c = tracer.counts

    def patch(mod_name, attr, name, **hooks):
        fn = getattr(mods[mod_name], attr, None)
        if fn is not None:
            _replace_everywhere(modules, fn, _spanned(tracer, name, fn, **hooks))

    # _rng: the scalar uniform is too cheap to span; count it only.
    uniform = getattr(mods["_rng"], "unit_uniform", None)
    if uniform is not None:

        @functools.wraps(uniform)
        def counted_uniform(*args, **kwargs):
            c["rng.uniform_calls"] += 1
            return uniform(*args, **kwargs)

        _replace_everywhere(modules, uniform, counted_uniform)
    patch("_rng", "unit_uniform_array", "rng.uniform_array")

    # distributions
    dist_mod = mods["distributions"]
    emp = dist_mod.EmpiricalDistribution

    def push_after(args, kwargs, result, atoms_before):
        if len(args[0]) != atoms_before:
            c["distributions.new_atoms"] += 1

    emp._push = _spanned(tracer, "distributions.push", emp._push, before=lambda a, k: len(a[0]), after=push_after)
    for cls_name in ("Bernoulli", "TruncatedExponential", "TruncatedGaussian", "Dirac", "Discrete"):
        cls = getattr(dist_mod, cls_name, None)
        if cls is not None and "quantile" in vars(cls):
            cls.quantile = _spanned(tracer, "distributions.quantile", vars(cls)["quantile"])

    # kinf: every solve goes through kinf_weighted, the index through klucb_index.
    small = getattr(mods["kinf"], "_SMALL_ATOMS", 8)

    def solve_after(args, kwargs, result, token):
        atoms = len(args[0] if args else kwargs["values"])
        c["kinf.solve_calls"] += 1
        tracer.atoms[atoms] += 1
        if atoms <= small:
            c["kinf.small_path"] += 1
        c["kinf.iterations"] += result.iterations
        if not result.converged:
            c["kinf.nonconverged"] += 1

    patch("kinf", "kinf_weighted", "kinf.solve", after=solve_after)

    def kinf_index_before(args, kwargs):
        c["kinf.index_calls"] += 1
        return c["kinf.solve_calls"]

    def kinf_index_after(args, kwargs, result, solves_before):
        c["kinf.solves_in_index"] += c["kinf.solve_calls"] - solves_before

    patch("kinf", "klucb_index", "kinf.index", before=kinf_index_before, after=kinf_index_after)

    # policies: a switch-family evaluation took the KL branch when it
    # called klucb_index.
    def index_before(args, kwargs):
        return c["kinf.index_calls"]

    def index_after(args, kwargs, result, index_calls_before):
        spec = args[0] if args else kwargs["spec"]
        if spec.family in _SWITCH_FAMILIES:
            c["policies.switch_evals"] += 1
            if c["kinf.index_calls"] != index_calls_before:
                c["policies.switch_kl"] += 1

    patch("policies", "compute_index", "policies.index", before=index_before, after=index_after)

    # _vector
    def simulate_after(args, kwargs, result, token):
        seeds = args[3] if len(args) > 3 else kwargs["seeds"]
        horizon = args[2] if len(args) > 2 else kwargs["horizon"]
        c["vector.batch_runs"] += len(seeds)
        c["vector.run_steps"] += len(seeds) * horizon

    def indices_before(args, kwargs):
        ctx, n = args[0], args[1]
        switch = ctx.spec.family in _SWITCH_FAMILIES
        if switch:
            c["policies.switch_evals"] += n.size
        tracer.in_switch = switch

    def indices_after(args, kwargs, result, token):
        tracer.in_switch = False

    def bern_after(args, kwargs, result, token):
        c["vector.bern_klucb_elems"] += args[0].size
        if tracer.in_switch:
            c["policies.switch_kl"] += args[0].size

    patch("_vector", "simulate", "vector.simulate", after=simulate_after)
    patch("_vector", "_indices", "vector.indices", before=indices_before, after=indices_after)
    patch("_vector", "bern_klucb", "vector.bern_klucb", after=bern_after)
    patch("_vector", "_tie_break", "vector.tie_break")
    patch("_vector", "_draw", "vector.draw")

    # simulator
    def engine_after(args, kwargs, result, token):
        c[f"simulator.policies_{result}"] += 1

    def chunk_after(args, kwargs, result, token):
        c["simulator.chunk_runs"] += len(args[0][4])

    patch("simulator", "_policy_engine", "simulator.engine", after=engine_after)
    patch("simulator", "_chunk_worker", "simulator.chunk", after=chunk_after, worker_entry=True)
    patch("simulator", "monte_carlo", "simulator.monte_carlo")
    pool_cls = getattr(mods["simulator"], "ProcessPoolExecutor", None)
    if pool_cls is not None:

        class TracedPool(pool_cls):
            def __init__(self, *args, **kwargs):
                self._bench_span = tracer.open("simulator.pool")
                super().__init__(*args, **kwargs)

            def __exit__(self, *exc):
                try:
                    return super().__exit__(*exc)
                finally:
                    tracer.close(self._bench_span)
                    dur = tracer.ends[self._bench_span] - tracer.starts[self._bench_span]
                    c["simulator.pool_worker_s"] += dur * self._max_workers

        mods["simulator"].ProcessPoolExecutor = TracedPool

    # verification
    def oracle_chunk_after(args, kwargs, result, token):
        jobs, grid_points = args[0]
        c["verification.oracle_points"] += len(jobs) * grid_points
        c["verification.oracle_bytes"] += sum(len(job[1]) for job in jobs) * grid_points * _ORACLE_BYTES_PER_CELL

    def ordering_after(args, kwargs, result, token):
        c["verification.ordering_checkpoints"] += int(result.values.get("checkpoints", 0))

    patch("verification", "kinf_grid_oracle_check", "verification.oracle")
    patch("verification", "_grid_oracle_chunk", "verification.oracle_chunk", after=oracle_chunk_after, worker_entry=True)
    patch("verification", "index_ordering_check", "verification.ordering", after=ordering_after)

    # cli
    for attr in ("_load_json", "_expand_run_config", "_scenario_from_config"):
        patch("cli", attr, "cli.config")
    patch("cli", "cmd_run", "cli.command")
    patch("cli", "cmd_verify", "cli.command")
    patch("cli", "_write_meta", "cli.meta")
