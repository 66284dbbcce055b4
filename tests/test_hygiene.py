"""Source hygiene of the package: no module imports a name it never uses,
every private module-level name is referenced somewhere in it, neither
importing it nor its Bernoulli and small verify paths load scipy,
numpy.ma or the worker-pool modules, importing it starts no BLAS worker
thread, and the test oracles hash on their own."""

import ast
import os
import pathlib
import sys

import pytest

SRC = pathlib.Path(__file__).resolve().parents[1] / "src" / "bandit_switch"
TREES = {path.name: ast.parse(path.read_text(), filename=str(path)) for path in sorted(SRC.glob("*.py"))}


def read_names(tree) -> set:
    """Names the module reads: bare names that are not assigned to."""
    return {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and not isinstance(node.ctx, ast.Store)}


def exported(tree) -> set:
    """The strings listed in a module-level ``__all__``."""
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
            return set(ast.literal_eval(node.value))
    return set()


@pytest.mark.parametrize("module", [name for name in TREES if name != "__init__.py"])
def test_no_module_imports_a_name_it_never_uses(module):
    tree = TREES[module]
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported.update(a.asname or a.name for a in node.names)
    unused = imported - read_names(tree) - exported(tree)
    assert not unused, f"{module} imports {sorted(unused)} and never uses them"


def private_definitions(tree) -> set:
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names.update(t.id for t in targets if isinstance(t, ast.Name))
    return {n for n in names if n.startswith("_") and not n.startswith("__")}


def test_every_private_module_level_name_is_referenced():
    referenced = set()
    for tree in TREES.values():
        referenced |= read_names(tree)
        for node in ast.walk(tree):
            if isinstance(node, ast.Attribute):
                referenced.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                referenced.update(a.name for a in node.names)
    unreferenced = {
        f"{module}:{name}" for module, tree in TREES.items() for name in private_definitions(tree) - referenced
    }
    assert not unreferenced, f"private names that nothing references: {sorted(unreferenced)}"


def test_the_oracles_import_no_hash_from_the_library():
    # the scalar hash in tests/oracles.py is the reference the library's
    # array hash is tested against, so it must not call it; reading the
    # channel constants is allowed
    tree = ast.parse((SRC.parents[1] / "tests" / "oracles.py").read_text())
    hashes = {"_mix64_inplace", "mix64_array", "unit_uniform_array", "derive_key", "run_seed", "_u64"}
    from_library = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").startswith("bandit_switch"):
            from_library.update(a.name for a in node.names)
            assert node.module != "bandit_switch._rng" or {a.name for a in node.names} <= {"CH_REWARD", "CH_TIE"}
        elif isinstance(node, ast.Import):
            assert not any(a.name.startswith("bandit_switch._rng") for a in node.names)
    attributes = {node.attr for node in ast.walk(tree) if isinstance(node, ast.Attribute)}
    assert not (from_library | attributes) & hashes


# Imports the package, builds the fig1-left scenario and runs ``verify
# ordering --runs 2`` and ``verify kinf-oracle --runs 64 --parallelism 2``,
# printing after each step which of the slow imports are loaded.
_SLOW_IMPORTS_CODE = """
import sys, tempfile
def loaded():
    print(sorted(m for m in ("scipy", "numpy.ma", "concurrent.futures", "multiprocessing") if m in sys.modules))
import bandit_switch, bandit_switch.cli as cli
loaded()
cli._scenario_from_config(cli._expand_run_config({"preset": "fig1-left"}))
loaded()
with tempfile.TemporaryDirectory() as out_dir:
    assert cli.main(["verify", "ordering", "--runs", "2", "--out-dir", out_dir]) == 0
    loaded()
    assert cli.main(["verify", "kinf-oracle", "--runs", "64", "--parallelism", "2", "--out-dir", out_dir]) == 0
    loaded()
"""


def test_import_fig1_left_build_and_verify_leave_the_slow_imports_unloaded(fresh_python):
    # only a truncated-Gaussian draw needs scipy, which takes about 0.3 s to
    # import; np.unique imports numpy.ma, about 20 ms; and only a started
    # worker pool needs concurrent.futures and multiprocessing, about 21 ms,
    # and only monte_carlo starts one, not the grid oracle at any law count
    loaded = [line for line in fresh_python("-c", _SLOW_IMPORTS_CODE).splitlines() if line.startswith("[")]
    assert loaded == ["[]"] * 4


def test_the_names_the_replay_check_resolves_still_answer():
    """``bench/checks.py::check_replay`` resolves ``simulator._policy_engine``
    and ``simulator._chunk_worker`` with ``getattr(..., None)`` and skips its
    ``replay-run`` check, silently, when either is missing or changes its
    call.  This guard goes when ROADMAP item 7 frees these names."""
    import numpy as np

    from bandit_switch import BanditInstance, Bernoulli, Discrete, PolicySpec, Scenario, run_episode, simulator

    spec = PolicySpec("klucb-switch-anytime")
    binary = BanditInstance((Bernoulli(0.7), Bernoulli(0.4)))
    wider = BanditInstance((Discrete((0.1, 0.9), (0.5, 0.5)), Bernoulli(0.4)))
    for bandit, engine in ((binary, "vector"), (wider, "scalar")):
        scenario = Scenario(bandit, 50, (spec,), runs=1, base_seed=3)
        assert simulator._policy_engine(scenario, spec, "auto") == engine
    grid, seed = (3, 10, 50), 11
    replay = simulator._chunk_worker((binary, spec, 50, grid, [seed], "vector", None))[0]
    assert replay.tobytes() == run_episode(binary, spec, 50, seed).trajectory[np.asarray(grid) - 1].tobytes()


def test_every_setting_and_config_key_is_documented():
    # each policy setting and each run and sweep key appears, in backticks,
    # in the README
    from dataclasses import fields

    from bandit_switch import PolicySpec, cli

    readme = (SRC.parents[1] / "README.md").read_text()
    keys = {f.name for f in fields(PolicySpec)} | cli._RUN_KEYS | cli._SWEEP_KEYS
    missing = sorted(key for key in keys if f"`{key}`" not in readme)
    assert not missing, f"README never names {missing}"


_BLAS_CODE = """
import os
{imports}
print(os.environ.get("OPENBLAS_NUM_THREADS"), os.environ.get("OMP_NUM_THREADS"))
print(len(os.listdir("/proc/self/task")) if os.path.isdir("/proc/self/task") else 0)
"""


def _blas_state(fresh_python, imports: str, **env) -> tuple:
    openblas, omp, threads = fresh_python("-c", _BLAS_CODE.format(imports=imports), **env).split()
    return openblas, omp, int(threads)


ONE_CPU = not sys.platform.startswith("linux") or len(os.sched_getaffinity(0)) == 1


def test_import_pins_openblas_to_one_thread(fresh_python):
    openblas, omp, _ = _blas_state(fresh_python, "import bandit_switch")
    assert (openblas, omp) == ("1", "None")


@pytest.mark.skipif(ONE_CPU, reason="OpenBLAS starts no worker thread off Linux's task list or on one CPU")
def test_import_starts_no_blas_worker_thread(fresh_python):
    # numpy loads with the package, so a fresh interpreter holds its main
    # thread only; a program that imports numpy first keeps numpy's threads
    assert _blas_state(fresh_python, "import bandit_switch")[2] == 1
    assert _blas_state(fresh_python, "import numpy, bandit_switch")[2] > 1


@pytest.mark.parametrize(
    "variable, expected", [("OPENBLAS_NUM_THREADS", ("2", "None")), ("OMP_NUM_THREADS", ("None", "2"))]
)
def test_a_blas_thread_count_the_user_set_is_kept(fresh_python, variable, expected):
    assert _blas_state(fresh_python, "import bandit_switch", **{variable: "2"})[:2] == expected
