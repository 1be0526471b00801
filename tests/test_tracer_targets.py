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


def test_every_span_target_resolves_to_a_callable():
    # resolved as ``Tracer.install`` does: the module under the package, then
    # the attribute path, the last name in the owner's own namespace
    import importlib

    tracer = _load_tracer()
    missing = []
    for name in tracer.SPANS:
        module_name, _, qualname = name.partition(".")
        owner = importlib.import_module(f"{tracer.PACKAGE}.{module_name}")
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part, None)
        if owner is None or not callable(vars(owner).get(attr)):
            missing.append(name)
    assert missing == []
    assert {"damping_verifier.norm_series", "dynamics.Trajectory.source_field",
            "dynamics.fd4_derivative"} <= set(tracer.SPANS)
