"""Every benchmark span target exists in the package, and fires.

The benchmark tracer (``perfbench/tracer.py``) wraps relaxdamp functions by
name; renaming or dropping one, or changing how a span is called, would
otherwise only show as a benchmark crash.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

import pytest

import relaxdamp.dynamics as dyn
from relaxdamp import cli
from relaxdamp.config import config_from_dict

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def _load(name):
    """``perfbench/<name>.py`` as module ``perfbench_<name>``, registered in
    ``sys.modules`` (its dataclasses look their module up there)."""
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}", PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module
    spec.loader.exec_module(module)
    return module


def _load_tracer():
    return _load("tracer")


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


@pytest.mark.parametrize("workload", ["tiny", "varA-moc"])
def test_traced_run_fires_every_span_its_workload_needs(workload, tmp_path):
    tracer, workloads = _load("tracer"), _load("workloads")
    spec = workloads.WORKLOADS[workload]
    t = tracer.Tracer()
    t.install()
    try:
        code = cli.run("all", config_from_dict(workloads.make_config(workload, 0)),
                       out_dir=str(tmp_path))
    finally:
        t.uninstall()
    assert code in (cli.EXIT_OK, cli.EXIT_CERTIFICATION)
    t.check_coverage(spec.must_fire, spec.per_step)
    layers = t.layer_metrics()
    assert layers["dynamics.node_steps_per_s"] > 0
    for span in ("dynamics.Stepper.source", "dynamics.Stepper._ode_node_update",
                 "dynamics.Stepper._advance_boundary"):
        assert layers[f"{span}.calls"] > 0, span
