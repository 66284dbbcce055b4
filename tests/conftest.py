"""Shared test settings: property tests replay the same derandomized cases
on every run, with no deadline and no example database.  The
``opened_pools`` fixture counts the worker pools a test starts."""

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
