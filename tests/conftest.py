"""Hypothesis runs the same examples on every run: derandomized, with no
example database, so a pass never depends on what a local `.hypothesis/`
directory replays.

The jump_set_calls fixture counts the jump sets the package computes; the
with_jump_set fixture gives a copy of a mesh that carries a chosen jump set
in place of its own."""

import dataclasses
import sys

import pytest
from hypothesis import settings

from helimag import continuum

settings.register_profile("deterministic", derandomize=True, database=None)
settings.load_profile("deterministic")


@pytest.fixture
def jump_set_calls(monkeypatch):
    """The list of meshes continuum.jump_set is called with, counted in
    every helimag module that holds the function, so that a module which
    imported it by name is counted too."""
    calls = []
    original = continuum.jump_set

    def counted(m):
        calls.append(m)
        return original(m)

    for name, mod in list(sys.modules.items()):
        if name.partition(".")[0] == "helimag" and getattr(mod, "jump_set", None) is original:
            monkeypatch.setattr(mod, "jump_set", counted)
    return calls


@pytest.fixture
def with_jump_set():
    """make(m, segs): a copy of m whose jump set is segs."""

    def make(m, segs):
        copy = dataclasses.replace(m)
        vars(copy)["jumps"] = segs  # where functools.cached_property keeps it
        return copy

    return make
