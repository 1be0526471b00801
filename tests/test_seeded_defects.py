"""Seeded defects of the moc step that the run's own verdict must catch.

Each defect is one monkeypatch of a ``dynamics`` function that the moc step
calls, with no source edit, seeded into the default Jin-Xin run (constant
frames) and into a short run of the state-dependent varA model on the
varA-moc grid (per-node frames).  The Duhamel defects wrap
``dynamics._duhamel_update``, which both moc kernels end in.  The linear
foot interpolation wraps the cubic foot weights of each kernel:
``_foot_stencil`` for constant frames, ``_cubic_interp`` for per-node frames
(the tracer's ``_cubic_lagrange`` stays clean).  A wrapper of
``Stepper.step_moc`` records each step's dt and kernel, since the wrapped
functions take no dt.  A defect counts as caught only when ``run("all")``
exits 3 or stops on a typed error (``error.json`` kind ``error``); a failing
unit test does not count.  A defect that nothing catches yet is
``xfail(strict=True)``, so the change that catches it must move it out of
that list.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from relaxdamp import dynamics
from relaxdamp.cli import EXIT_CERTIFICATION, EXIT_ERROR, EXIT_OK, run
from relaxdamp.config import config_from_dict

CONFIG = {"dynamics": {"T": 8.0}}
# Jin-Xin with A_21 = 4 + 0.2 u: per-node frames, on the varA-moc grid
VARA_CONFIG = {
    "model": {"kind": "custom", "name": "jinxin-varA", "N": 2,
              "A": [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
              "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
              "U_minus": [1.0, 0.5], "U_plus": [-1.0, 0.5]},
    "profile": {"X": 20.0, "n": 2001},
    "dynamics": {"T": 2.0, "dx": 0.04},
}
# the moc kernel each run must take: constant frames or per-node frames
CASES = {"jinxin": (CONFIG, "constant"), "varA": (VARA_CONFIG, "per-node")}

# only a failed assert is the expected failure: a harness error still fails
NOT_CAUGHT = pytest.mark.xfail(
    strict=True, raises=AssertionError, reason="no check of the run catches it yet: "
    "ROADMAP item 1 lists the checks expected to")


def _anti_damping(update, dt, Phif, dtGm, q):
    return update(Phif, dtGm, q + 0.1 * dt)


def _fake_damping(update, dt, Phif, dtGm, q):
    return update(Phif, dtGm, q - 0.1 * dt)


def _dropped_forcing(update, dt, Phif, dtGm, q):
    return update(Phif, np.zeros_like(dtGm), q)


def _flipped_exponent(update, dt, Phif, dtGm, q):
    return update(Phif, dtGm, -q)


def _linear_foot_stencil(foot_stencil, dt, s, stencil_dt):
    # the cubic weights of nodes -1, 0, 1, 2 about each foot's cell made linear
    offsets, _, linear = foot_stencil(s, stencil_dt)
    t = (s - np.floor(s))[:, None]
    zero = np.zeros_like(t)
    return offsets, (zero, 1.0 - t, t, zero), linear


def _linear_cubic_interp(cubic_interp, dt, pad, t, at):
    # nodes -1 .. 2 of each cell are pad rows 0 .. 3 on from ``at``
    width = pad.shape[1]
    return (1.0 - t) * pad.ravel()[at + width] + t * pad.ravel()[at + 2 * width]


def _in_duhamel_update(defect) -> dict:
    return {kernel: ("_duhamel_update", defect) for kernel in ("constant", "per-node")}


# per defect, per moc kernel: the dynamics function it wraps and the wrapper
DEFECTS = {
    "anti_damping": _in_duhamel_update(_anti_damping),
    "fake_damping": _in_duhamel_update(_fake_damping),
    "dropped_forcing": _in_duhamel_update(_dropped_forcing),
    "flipped_exponent": _in_duhamel_update(_flipped_exponent),
    "linear_foot": {"constant": ("_foot_stencil", _linear_foot_stencil),
                    "per-node": ("_cubic_interp", _linear_cubic_interp)},
}


def _seed(monkeypatch, target: str, defect) -> list:
    """Route every call of ``dynamics.<target>`` through ``defect``, which
    gets the original function and the step's dt first; returns the (dt,
    kernel) of each call it seeded, kernel "constant" or "per-node"."""
    steps, seeded = [], []
    step_moc, original = dynamics.Stepper.step_moc, getattr(dynamics, target)

    def recording_step(self, snap, dt, *args, **kwargs):
        steps.append((dt, "per-node" if self.frames0 is None else "constant"))
        return step_moc(self, snap, dt, *args, **kwargs)

    def seeded_call(*args):
        seeded.append(steps[-1])
        return defect(original, seeded[-1][0], *args)

    monkeypatch.setattr(dynamics.Stepper, "step_moc", recording_step)
    monkeypatch.setattr(dynamics, target, seeded_call)
    return seeded


def _caught(code: int, out: Path) -> bool:
    """The run's own verdict caught the defect: exit 3, or a typed error."""
    if code == EXIT_ERROR:
        return json.loads((out / "error.json").read_text())["kind"] == "error"
    return code == EXIT_CERTIFICATION


def test_clean_run_is_certified(tmp_path):
    assert run("all", config_from_dict(CONFIG), out_dir=str(tmp_path)) == EXIT_OK


def test_clean_state_dependent_run_is_certified(tmp_path):
    # the control of the varA cases: without a defect their run passes
    assert run("all", config_from_dict(VARA_CONFIG), out_dir=str(tmp_path)) == EXIT_OK


# the (case, defect) pairs that the run's verdict catches: the flipped
# exponent grows Phi by about e^{2 |E| t}, and on the default run the
# evolution stops with a BlowUp error when |U| leaves the small-data budget
CAUGHT = {("jinxin", "flipped_exponent")}


@pytest.mark.parametrize("case, defect", [
    pytest.param(case, defect, id=f"{case}-{defect}",
                 marks=() if (case, defect) in CAUGHT else NOT_CAUGHT)
    for case in sorted(CASES) for defect in DEFECTS])
def test_seeded_defect_fails_certification(tmp_path, monkeypatch, case, defect):
    config, kernel = CASES[case]
    seeded = _seed(monkeypatch, *DEFECTS[defect][kernel])
    code = run("all", config_from_dict(config), out_dir=str(tmp_path))
    # a harness error, not the expected failure: the defect must reach the
    # case's moc kernel
    if not seeded:
        raise RuntimeError("the defect reached no moc step")
    if {k for _, k in seeded} != {kernel}:
        raise RuntimeError(f"the defect reached no {kernel} moc kernel")
    assert _caught(code, tmp_path), f"exit {code}"
