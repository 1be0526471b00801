"""The package's public names.

Every name in ``relaxdamp.__all__`` must resolve, a star import must work,
and the single-state twins of the stacked eigen, characteristics, norm and
diagonal-variable layers must stay gone from the package namespace and from
their modules, with ``Snapshot`` left as the stepper's state, as must
the frame transport's derivative object and its parameters, the artifact
writers' second formatting paths, the tracer's second time lookup, and the
constant frame's diag(L0 Q R0) from ``kron`` with the moc step's
per-field stencils (the step's row product forms E), and every second way
into the source: each step opens with one ``Stepper.source`` pass whose
rows the caller names.  Outcomes travel as data: only the CLI catches a
toolkit error.
"""

from __future__ import annotations

import ast
import dataclasses
import inspect
from pathlib import Path

from conftest import constant_profile, scalar_model

import relaxdamp
from relaxdamp import characteristics, cli, damping_verifier, dynamics, eigenframe, errors

REMOVED = {
    eigenframe: ("EigenFrame", "SourceSplit", "decompose", "source_split", "theta_matrix",
                 "frame_along_profile", "profile_source_field", "_theta_field",
                 "GridGradient"),
    characteristics: ("trace", "duhamel_residual"),
    cli: ("_fmt", "_jsonable"),
    damping_verifier: ("ckb_norm", "l2_h2_norms", "_offset_corrected"),
    dynamics: ("diagonal_vars", "DiagVars"),
    dynamics.Stepper: ("_stencil_feet", "forcing"),
    eigenframe.FrameField: ("conjugate_diag", "_kron_diag_rows"),
    errors: ("Unsupported",),
}


def test_every_exported_name_resolves():
    assert len(set(relaxdamp.__all__)) == len(relaxdamp.__all__)
    for name in relaxdamp.__all__:
        assert getattr(relaxdamp, name) is not None, name
    # the stacked entry points stand in for the removed twins
    assert {"frames_at_states", "theta_field", "transformed_source",
            "trace_many"} <= set(relaxdamp.__all__)


def test_star_import_binds_all():
    namespace: dict = {}
    exec("from relaxdamp import *", namespace)
    assert set(relaxdamp.__all__) <= set(namespace)


def test_removed_twins_stay_gone():
    for module, names in REMOVED.items():
        for name in names:
            assert name not in relaxdamp.__all__, name
            assert not hasattr(relaxdamp, name), name
            assert not hasattr(module, name), f"{module.__name__}.{name}"
    assert not hasattr(eigenframe.FrameField, "lipschitz")
    assert not hasattr(characteristics._FieldInterp, "cell")


def test_snapshot_is_the_steppers_state():
    # the analysis passes read the trajectory's stacks, not per-time snapshots
    assert [f.name for f in dataclasses.fields(dynamics.Snapshot)] == [
        "t", "grid", "U", "b_left", "b_right"]
    assert not hasattr(dynamics.Snapshot, "Y")
    assert not hasattr(dynamics.Trajectory, "snapshot")


def test_frame_transport_takes_its_spacing_from_the_frames():
    assert not hasattr(dynamics.Stepper, "grid_gradient")
    assert "grid" not in {f.name for f in dataclasses.fields(eigenframe.SourceField)}
    for fn in (eigenframe.transformed_source, eigenframe.source_diagonal_and_transport):
        params = inspect.signature(fn).parameters
        assert not {"grid", "gradient"} & set(params), fn.__name__


def test_the_source_is_entered_one_way():
    model = scalar_model()
    prof = constant_profile(model, [0.0], X=1.0, n=11)
    stepper = dynamics.Stepper(model, prof, prof.grid, dynamics.ShiftSpec())
    assert not hasattr(stepper, "about_profile")
    empty = inspect.Parameter.empty
    assert inspect.signature(stepper.source).parameters["about"].default is empty
    update = inspect.signature(stepper._ode_node_update).parameters
    assert "A" not in update and update["k1"].default is empty
    assert "X" not in inspect.signature(dynamics.evolve).parameters


def _caught_names(handler: ast.ExceptHandler) -> set[str]:
    """The class names an ``except`` clause catches, plain or dotted."""
    if handler.type is None:
        return set()
    types = handler.type.elts if isinstance(handler.type, ast.Tuple) else [handler.type]
    return {t.id if isinstance(t, ast.Name) else t.attr
            for t in types if isinstance(t, (ast.Name, ast.Attribute))}


def test_only_the_cli_catches_toolkit_errors():
    toolkit = {name for name, obj in vars(errors).items()
               if inspect.isclass(obj) and issubclass(obj, errors.RelaxDampError)}
    package = Path(relaxdamp.__file__).parent
    caught = {}
    for path in sorted(package.glob("*.py")):
        if path.name == "cli.py":
            continue
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in ast.walk(tree):
            if isinstance(node, ast.ExceptHandler) and _caught_names(node) & toolkit:
                caught.setdefault(path.name, []).append(node.lineno)
    assert caught == {}
