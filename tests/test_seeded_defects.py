"""Seeded damping defects that the run's own verdict must catch.

Each defect is one monkeypatch of ``dynamics._duhamel_update``, the Duhamel
update that both moc kernels end in, so it reaches constant and per-node
frames alike.  The update takes no dt: a wrapper of ``Stepper.step_moc``
records each step's dt for it.  A defect counts as caught only when
``run("all")`` exits 3; a failing unit test does not count.  A defect that
nothing catches yet is ``xfail(strict=True)``, so the change that catches it
must move it out of that list.
"""

from __future__ import annotations

import numpy as np
import pytest

from relaxdamp import dynamics
from relaxdamp.cli import EXIT_CERTIFICATION, EXIT_OK, run
from relaxdamp.config import config_from_dict

CONFIG = {"dynamics": {"T": 8.0}}

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
    dt of each update it seeded."""
    step_dt, seeded = [], []
    step_moc, update = dynamics.Stepper.step_moc, dynamics._duhamel_update

    def recording_step(self, snap, dt, *args, **kwargs):
        step_dt.append(dt)
        return step_moc(self, snap, dt, *args, **kwargs)

    def seeded_update(Phif, dtGm, q):
        seeded.append(step_dt[-1])
        return update(*defect(Phif, dtGm, q, seeded[-1]))

    monkeypatch.setattr(dynamics.Stepper, "step_moc", recording_step)
    monkeypatch.setattr(dynamics, "_duhamel_update", seeded_update)
    return seeded


def test_clean_run_is_certified(tmp_path):
    assert run("all", config_from_dict(CONFIG), out_dir=str(tmp_path)) == EXIT_OK


@pytest.mark.parametrize("defect", [
    pytest.param(_anti_damping, marks=NOT_CAUGHT, id="anti_damping"),
    pytest.param(_fake_damping, marks=NOT_CAUGHT, id="fake_damping"),
    pytest.param(_dropped_forcing, marks=NOT_CAUGHT, id="dropped_forcing"),
])
def test_seeded_defect_fails_certification(tmp_path, monkeypatch, defect):
    seeded = _seed(monkeypatch, defect)
    code = run("all", config_from_dict(CONFIG), out_dir=str(tmp_path))
    if not seeded:
        raise RuntimeError("the defect reached no moc step")
    assert code == EXIT_CERTIFICATION
