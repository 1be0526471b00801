"""Every benchmark span target exists in the package.

The benchmark tracer (``perfbench/tracer.py``) wraps relaxdamp functions by
name; renaming or dropping one would otherwise only show as a benchmark
crash.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

import relaxdamp.dynamics as dyn

TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_uninstalls_every_span():
    tracer = _load_tracer()
    original = dyn._cubic_interp
    t = tracer.Tracer()
    t.install()
    try:
        assert dyn._cubic_interp is not original
    finally:
        t.uninstall()
    assert dyn._cubic_interp is original
