"""Seeded damping defects that the run's own verdict must catch.

Each defect is one monkeypatch of ``dynamics._duhamel_update``, the Duhamel
update that both moc kernels end in, so it reaches constant and per-node
frames alike: every defect is seeded into the default Jin-Xin run (constant
frames) and into a short run of the state-dependent varA model on the
varA-moc grid (per-node frames).  The update takes no dt: a wrapper of
``Stepper.step_moc`` records each step's dt and kernel for it.  A defect
counts as caught only when ``run("all")`` exits 3; a failing unit test does
not count.  A defect that nothing catches yet is ``xfail(strict=True)``, so
the change that catches it must move it out of that list.
"""

from __future__ import annotations

import numpy as np
import pytest

from relaxdamp import dynamics
from relaxdamp.cli import EXIT_CERTIFICATION, EXIT_OK, run
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
    "the Duhamel residual (ROADMAP item 20) and the packet check (ROADMAP item 3) are to")


def _anti_damping(Phif, dtGm, q, dt):
    q += 0.1 * dt
    return Phif, dtGm, q


def _fake_damping(Phif, dtGm, q, dt):
    q -= 0.1 * dt
    return Phif, dtGm, q


def _dropped_forcing(Phif, dtGm, q, dt):
    return Phif, np.zeros_like(dtGm), q


def _seed(monkeypatch, defect) -> list:
    """Route every moc step's Duhamel update through ``defect``; returns the
    (dt, kernel) of each update it seeded, kernel "constant" or "per-node"."""
    steps, seeded = [], []
    step_moc, update = dynamics.Stepper.step_moc, dynamics._duhamel_update

    def recording_step(self, snap, dt, *args, **kwargs):
        steps.append((dt, "per-node" if self.frames0 is None else "constant"))
        return step_moc(self, snap, dt, *args, **kwargs)

    def seeded_update(Phif, dtGm, q):
        seeded.append(steps[-1])
        return update(*defect(Phif, dtGm, q, seeded[-1][0]))

    monkeypatch.setattr(dynamics.Stepper, "step_moc", recording_step)
    monkeypatch.setattr(dynamics, "_duhamel_update", seeded_update)
    return seeded


def test_clean_run_is_certified(tmp_path):
    assert run("all", config_from_dict(CONFIG), out_dir=str(tmp_path)) == EXIT_OK


def test_clean_state_dependent_run_is_certified(tmp_path):
    # the control of the varA cases: without a defect their run passes
    assert run("all", config_from_dict(VARA_CONFIG), out_dir=str(tmp_path)) == EXIT_OK


@pytest.mark.parametrize("defect", [
    pytest.param(_anti_damping, marks=NOT_CAUGHT, id="anti_damping"),
    pytest.param(_fake_damping, marks=NOT_CAUGHT, id="fake_damping"),
    pytest.param(_dropped_forcing, marks=NOT_CAUGHT, id="dropped_forcing"),
])
@pytest.mark.parametrize("case", sorted(CASES))
def test_seeded_defect_fails_certification(tmp_path, monkeypatch, case, defect):
    config, kernel = CASES[case]
    seeded = _seed(monkeypatch, defect)
    code = run("all", config_from_dict(config), out_dir=str(tmp_path))
    # a harness error, not the expected failure: the defect must reach the
    # case's moc kernel at every step
    if not seeded:
        raise RuntimeError("the defect reached no moc step")
    if {k for _, k in seeded} != {kernel}:
        raise RuntimeError(f"the defect reached no {kernel} moc kernel")
    assert code == EXIT_CERTIFICATION
