"""Hypothesis runs the same examples on every run: derandomized, with no
example database, so a pass never depends on what a local `.hypothesis/`
directory replays."""

from hypothesis import settings

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")
