"""The benchmark's tracer patches flowmaplab's public names from outside;
every name it patches must exist, and uninstalling must restore each one."""

import importlib
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _current(owner, attr):
    return owner.__dict__[attr] if isinstance(owner, type) else getattr(owner, attr)


def test_tracer_patches_existing_names_and_restores_them(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    tracer = importlib.import_module("tracer").Tracer()
    try:
        tracer.install()  # a missing name fails here
        patched = list(tracer._undo)
        assert patched
        for owner, attr, original in patched:
            wrapper = _current(owner, attr)
            assert wrapper is not original, attr
            assert wrapper.__wrapped__ is original, attr
    finally:
        tracer.uninstall()
    for owner, attr, original in patched:
        assert _current(owner, attr) is original, attr
