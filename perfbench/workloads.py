"""Benchmark workloads: seeded generators of relaxdamp pipeline configs.

Each workload is one pipeline config.  The seed varies only the data (the
Gaussian perturbation's centre and amplitude, and the config's own ``seed``,
which drives the model-validation sampling); the amount of work stays fixed.
Why each workload exists is written in ``README.md`` next to this file.
"""

from __future__ import annotations

import copy
import math
import random
from dataclasses import dataclass

# Shift amplitude 5e-3 / (2 pi f) keeps sup |ddelta| at 5e-3 for f = 0.05.
SHIFT_FREQUENCY = 0.05
SHIFT_AMPLITUDE = 5e-3 / (2.0 * math.pi * SHIFT_FREQUENCY)

# Jin-Xin with state-dependent A: A_21 = 4 + 0.2 u, q = (0, u^2/2 - v),
# endstates (+-1, 0.5).  Entries use the polynomial term-list format.
VARA_MODEL = {
    "kind": "custom",
    "name": "jinxin-varA",
    "N": 2,
    "A": [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
    "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
    "U_minus": [1.0, 0.5],
    "U_plus": [-1.0, 0.5],
}


@dataclass(frozen=True)
class Workload:
    """A fixed pipeline config plus the spans its traced run must fire.

    ``must_fire`` spans need at least one call per chain; ``per_step`` spans
    need at least one call per time step of the evolution.
    """

    name: str
    base: dict
    must_fire: tuple[str, ...] = ()
    per_step: tuple[str, ...] = ()


WORKLOADS = {w.name: w for w in (
    Workload(
        name="jinxin-moc",
        base={
            "profile": {"X": 40.0, "n": 4001, "method": "shooting"},
            "dynamics": {"backend": "moc", "T": 3.2, "n_out": 8, "dx": 0.02,
                         "shift": {"kind": "zero"}},
        },
        must_fire=("dynamics.Stepper.step_moc",),
    ),
    Workload(
        name="jinxin-dense-ref",
        base={
            "profile": {"X": 40.0, "n": 4001, "method": "shooting"},
            "spectral": {"n_xi": 2000},
            "dynamics": {"backend": "reference", "T": 4.0, "n_out": 50,
                         "dx": 0.02,
                         "shift": {"kind": "sinusoid",
                                   "amplitude": SHIFT_AMPLITUDE,
                                   "frequency": SHIFT_FREQUENCY}},
            "verify": {"n_paths": 20,
                       "theta_grid": {"start": 0.01, "stop": 0.3, "num": 120}},
        },
        must_fire=("dynamics.Stepper.step_reference",),
    ),
    Workload(
        name="varA-moc",
        base={
            "model": VARA_MODEL,
            "profile": {"X": 20.0, "n": 2001, "method": "shooting"},
            "dynamics": {"backend": "moc", "T": 0.6, "n_out": 3, "dx": 0.04,
                         "shift": {"kind": "zero"}},
        },
        must_fire=("dynamics.Stepper.step_moc",),
        per_step=("eigenframe.frames_at_states",),
    ),
    # Smoke-test size only; BENCHMARK.json does not list it.
    Workload(
        name="tiny",
        base={
            "profile": {"X": 10.0, "n": 501, "method": "shooting"},
            "dynamics": {"backend": "moc", "T": 0.8, "n_out": 2, "dx": 0.04,
                         "shift": {"kind": "zero"}},
            "verify": {"n_paths": 4,
                       "theta_grid": {"start": 0.01, "stop": 0.3, "num": 8}},
        },
        must_fire=("dynamics.Stepper.step_moc",),
    ),
)}


def make_config(workload: str, seed: int) -> dict:
    """The config the program receives for ``workload`` under ``seed``."""
    rng = random.Random(f"{workload}:{seed}")
    config = copy.deepcopy(WORKLOADS[workload].base)
    config["dynamics"]["perturbation"] = {
        "kind": "gaussian",
        "width": 2.0,
        "center": rng.uniform(-1.0, 1.0),
        "amplitude": rng.uniform(0.008, 0.012),
    }
    config["seed"] = rng.randrange(2**31)
    return config

