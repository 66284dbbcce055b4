"""Shared test settings: property tests replay the same derandomized cases
on every run, with no deadline and no example database."""

from hypothesis import settings

settings.register_profile("replay", derandomize=True, deadline=None, database=None, max_examples=200)
settings.load_profile("replay")
