"""The names perfbench's tracer wraps still exist in crosscut.

perfbench/tracing.py patches crosscut's functions by name from outside
the package.  A rename would crash the traced benchmark run, or, for the
private swap search, silently read 0 searches; this catches both here.
"""

from __future__ import annotations

import importlib
import pathlib

import pytest

from crosscut import gridset

PERFBENCH = pathlib.Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def tracing(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import tracing

    return tracing


def _resolve(mod_name: str, attr: str):
    owner = importlib.import_module(f"crosscut.{mod_name}")
    for part in attr.split("."):
        owner = getattr(owner, part)
    return owner


def test_tracer_hooks_resolve_and_install(tracing):
    names = {(mod, attr) for mod, attr, _, _ in tracing.SPANS}
    assert ("gridset", "ReplayState.verify_and_apply") in names
    originals = {name: _resolve(*name) for name in names}
    search = gridset._Work.find_first
    tracer = tracing.Tracer()
    tracer.install()
    try:
        assert gridset._Work.find_first is not search
        for name, original in originals.items():
            assert _resolve(*name).__wrapped__ is original, name
    finally:
        tracer.uninstall()
    assert gridset._Work.find_first is search
    assert {name: _resolve(*name) for name in names} == originals
