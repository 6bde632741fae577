"""The benchmark's tracer wraps thermoledger attributes by name.

``perfbench/spans.py`` looks each wrapped name up at install time, so a
name that leaves ``src/`` breaks every traced benchmark run. This test
installs both tracers on a fresh ``Tracer`` and takes them off again,
reading ``spans.py`` without changing it.
"""

import importlib.util
import inspect
from pathlib import Path

import pytest

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _load_spans():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("install", ["install_client", "install_server"])
def test_every_traced_name_resolves(install):
    spans = _load_spans()
    tracer = spans.Tracer()
    stored = []  # each attribute as its owner stores it, so a classmethod is put back as one
    wrap = tracer.wrap

    def recording_wrap(owner, attr, *args, **kwargs):
        getattr(owner, attr)  # the AttributeError names the owner and the attribute
        stored.append((owner, attr, inspect.getattr_static(owner, attr)))
        wrap(owner, attr, *args, **kwargs)

    tracer.wrap = recording_wrap
    try:
        getattr(spans, install)(tracer)
    except AttributeError as exc:
        pytest.fail(f"perfbench/spans.py {install} wraps a name that src/ no longer defines: {exc}")
    finally:
        tracer.unwrap_all()
        for owner, attr, value in reversed(stored):
            setattr(owner, attr, value)
    assert stored
