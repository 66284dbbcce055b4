"""Source hygiene of the package: no module imports a name it never uses,
every private module-level name is referenced somewhere in it, and
neither importing it nor its Bernoulli and small verify paths load scipy,
numpy.ma or the worker-pool modules."""

import ast
import os
import pathlib
import subprocess
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


# Imports the package, builds the fig1-left scenario and runs ``verify
# ordering --runs 2`` and ``verify kinf-oracle --runs 2 --parallelism 2``,
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
    assert cli.main(["verify", "kinf-oracle", "--runs", "2", "--parallelism", "2", "--out-dir", out_dir]) == 0
    loaded()
"""


def test_import_fig1_left_build_and_verify_leave_the_slow_imports_unloaded():
    # only a truncated-Gaussian draw needs scipy, which takes about 0.3 s to
    # import; np.unique imports numpy.ma, about 20 ms; and only a started
    # worker pool needs concurrent.futures and multiprocessing, about 21 ms
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (str(SRC.parent), os.environ.get("PYTHONPATH")))))
    out = subprocess.run([sys.executable, "-c", _SLOW_IMPORTS_CODE], env=env, capture_output=True, text=True, check=True)
    loaded = [line for line in out.stdout.splitlines() if line.startswith("[")]
    assert loaded == ["[]"] * 4
