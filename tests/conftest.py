"""Shared test settings: property tests replay the same derandomized cases
on every run, with no deadline and no example database.  The
``opened_pools`` fixture counts the worker pools a test starts, and
``fresh_python`` runs a fresh interpreter on this checkout."""

import os
import pathlib
import subprocess
import sys

import pytest
from hypothesis import settings

settings.register_profile("replay", derandomize=True, deadline=None, database=None, max_examples=200)
settings.load_profile("replay")


@pytest.fixture
def opened_pools(monkeypatch):
    """The ``max_workers`` of each process pool started while the test runs:
    the package imports ``ProcessPoolExecutor`` from ``concurrent.futures``
    when it starts one."""
    import concurrent.futures

    opened = []

    class CountingPool(concurrent.futures.ProcessPoolExecutor):
        def __init__(self, *args, **kwargs):
            opened.append(kwargs.get("max_workers"))
            super().__init__(*args, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", CountingPool)
    return opened


@pytest.fixture
def fresh_python():
    """``run(*args, **env)``: the standard output of ``python *args`` on
    this checkout's ``src``, with neither BLAS thread variable inherited,
    plus ``env``.  pytest's own process loads numpy with the package or
    before it, so only a fresh one shows what ``import bandit_switch``
    does to BLAS threads."""
    src = str(pathlib.Path(__file__).resolve().parents[1] / "src")
    base = {k: v for k, v in os.environ.items() if k not in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS")}
    base["PYTHONPATH"] = os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH"))))

    def run(*args, **env):
        out = subprocess.run([sys.executable, *args], env={**base, **env}, capture_output=True, text=True, check=True)
        return out.stdout

    return run
