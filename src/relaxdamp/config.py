"""JSON configuration: the single source of truth for a pipeline run.

Parsing is strict: unknown keys are rejected with their full path, and every
numeric field is range-checked.  Defaults reproduce the canonical Jin-Xin
verification run.
"""

from __future__ import annotations

import json
import sys
from dataclasses import dataclass, field
from functools import cached_property
from pathlib import Path

import numpy as np

from .errors import ParseError, ValidationError
from .eigenframe import (DampingRate, FrameField, SourceField, damping_rate,
                         frames_at_states, transformed_source)
from .model import ModelSpec, build_custom, build_jinxin, state_box_problem
from .dynamics import CFL_LIMIT, EDGE_TRIM, PerturbationSpec, ShiftSpec, Trajectory, evolve
from .profile import ProfileRep, exact_jinxin_profile, solve_profile


def _default_config() -> dict:
    return {
        "model": {
            "kind": "jinxin",
            "a": 2.0,
            "eps": 1.0,
            "flux": [0.0, 0.0, 0.5],
            "u_minus": 1.0,
            "u_plus": -1.0,
        },
        "profile": {
            "X": 40.0,
            "n": 4001,
            "tol": 1e-8,
            "method": "shooting",
        },
        "spectral": {
            "xi_min": 0.01,
            "xi_max": 100.0,
            "n_xi": 400,
            "margin": 0.1,
            "c_min": 0.01,
        },
        "dynamics": {
            "perturbation": {
                "kind": "gaussian",
                "amplitude": 0.01,
                "width": 2.0,
                "center": 0.0,
                "direction": None,
                "d_minus": None,
                "d_plus": None,
                "blend_width": 2.0,
                "h": 0.0,
            },
            "shift": {
                "kind": "zero",
                "rate": 0.0,
                "amplitude": 0.0,
                "frequency": 0.0,
            },
            "T": 80.0,
            "backend": "moc",
            "dx": 0.02,
            "cfl": 0.45,
            "n_out": 200,
            "budget": 0.02,
            "trajectory_stride_x": 40,
            "trajectory_stride_t": 20,
        },
        "verify": {
            "theta_grid": {"start": 0.01, "stop": 0.3, "num": 30},
            "C_cap": 1000.0,
            "n_paths": 20,
            "n_sub": 4,
            "growth_tol": 0.25,
        },
        "output_dir": "out",
        "seed": 1234,
    }


CUSTOM_MODEL_KEYS = {"kind", "name", "N", "A", "q", "U_minus", "U_plus",
                     "state_box", "shock_speed"}


def _merge(defaults: dict, given: dict, path: str) -> dict:
    # the model section's schema depends on its kind
    if path == "" and isinstance(given.get("model"), dict) \
            and given["model"].get("kind") == "custom":
        given = dict(given)
        model = given.pop("model")
        unknown = set(model) - CUSTOM_MODEL_KEYS
        if unknown:
            key = sorted(unknown)[0]
            raise ValidationError(f"unknown key model.{key}",
                                  key_path=f"model.{key}")
        out = _merge({k: v for k, v in _default_config().items() if k != "model"},
                     given, path)
        out["model"] = dict(model)
        return out
    out = {}
    for key, dval in defaults.items():
        if key in given:
            gval = given[key]
            if isinstance(dval, dict) and gval is not None:
                if not isinstance(gval, dict):
                    raise ValidationError(f"expected object at {path}{key}",
                                          key_path=path + key)
                out[key] = _merge(dval, gval, f"{path}{key}.")
            else:
                out[key] = gval
        else:
            out[key] = dval
    unknown = set(given) - set(defaults)
    if unknown:
        key = sorted(unknown)[0]
        raise ValidationError(f"unknown key {path}{key}", key_path=path + key)
    return out


def _require(cond: bool, message: str, key_path: str) -> None:
    if not cond:
        raise ValidationError(f"{message} at {key_path}", key_path=key_path)


def _is_number(value) -> bool:
    """A JSON number that is a finite float: no bool, NaN, +-Infinity, or
    integer beyond the float range."""
    return (isinstance(value, (int, float)) and not isinstance(value, bool)
            and abs(value) <= sys.float_info.max)


def _is_numbers(value, length: int | None = None) -> bool:
    """Whether value is a list of numbers, of ``length`` entries if given."""
    return (isinstance(value, list) and all(_is_number(v) for v in value)
            and (length is None or len(value) == length))


def _check_entry(entry, n: int, key_path: str) -> None:
    """A custom polynomial entry: a number or a list of [coefficient, [n exponents]] terms."""
    ok = _is_number(entry) or (isinstance(entry, list) and all(
        isinstance(term, list) and len(term) == 2 and _is_number(term[0])
        and _is_numbers(term[1], n)
        and all(p >= 0 and float(p).is_integer() for p in term[1])
        for term in entry))
    _require(ok, f"expected a number or a list of [coefficient, [{n} exponents]] "
             f"terms, got {entry!r}", key_path)


def _check_entries(entries, n: int, key_path: str, square: bool = False) -> None:
    """A list of n custom entries, or of n such lists when ``square``."""
    _require(isinstance(entries, list) and len(entries) == n,
             f"expected a list of {n} {'rows' if square else 'entries'}", key_path)
    for i, entry in enumerate(entries):
        if square:
            _check_entries(entry, n, f"{key_path}[{i}]")
        else:
            _check_entry(entry, n, f"{key_path}[{i}]")


def _check_number(value, key_path, positive=False, nonnegative=False,
                  integer=False, minimum=None, maximum=None):
    _require(_is_number(value), f"expected a number, got {value!r}", key_path)
    if integer:
        _require(float(value).is_integer(), f"expected an integer, got {value!r}",
                 key_path)
    if positive:
        _require(value > 0, f"must be positive, got {value!r}", key_path)
    if nonnegative:
        _require(value >= 0, f"must be >= 0, got {value!r}", key_path)
    if minimum is not None:
        _require(value >= minimum, f"must be >= {minimum}, got {value!r}", key_path)
    if maximum is not None:
        _require(value <= maximum, f"must be <= {maximum}, got {value!r}", key_path)


@dataclass
class Config:
    """Validated configuration with builders for the run's domain objects.

    ``model``, ``profile``, ``profile_frames``, ``profile_source``, ``damping``
    and ``trajectory`` are computed on first use and cached on this instance, so
    every stage handed the same Config shares them.  ``cli.run`` gives each
    call its own copy.
    """

    raw: dict = field(default_factory=_default_config)

    @property
    def model_cfg(self) -> dict:
        return self.raw["model"]

    @property
    def profile_cfg(self) -> dict:
        return self.raw["profile"]

    @property
    def spectral_cfg(self) -> dict:
        return self.raw["spectral"]

    @property
    def dynamics_cfg(self) -> dict:
        return self.raw["dynamics"]

    @property
    def verify_cfg(self) -> dict:
        return self.raw["verify"]

    @property
    def output_dir(self) -> str:
        return self.raw["output_dir"]

    @property
    def seed(self) -> int:
        return int(self.raw["seed"])

    def build_model(self) -> ModelSpec:
        mc = self.model_cfg
        if mc["kind"] == "jinxin":
            return build_jinxin(a=mc["a"], eps=mc["eps"], flux=mc["flux"],
                                u_minus=mc["u_minus"], u_plus=mc["u_plus"])
        return build_custom(
            name=mc.get("name", "custom"), N=int(mc["N"]),
            A_entries=mc["A"], q_entries=mc["q"],
            U_minus=mc.get("U_minus"), U_plus=mc.get("U_plus"),
            state_box=mc.get("state_box"),
            shock_speed=mc.get("shock_speed", 0.0),
        )

    @cached_property
    def model(self) -> ModelSpec:
        return self.build_model()

    @cached_property
    def profile(self) -> ProfileRep:
        pc = self.profile_cfg
        if pc["method"] == "exact":
            grid = np.linspace(-pc["X"], pc["X"], int(pc["n"]))
            return exact_jinxin_profile(self.model, grid)
        return solve_profile(self.model, X=pc["X"], n=int(pc["n"]), tol=pc["tol"])

    @cached_property
    def profile_frames(self) -> FrameField:
        """Eigenframes of A at every profile node."""
        return frames_at_states(self.model, self.profile.grid, self.profile.values)

    @cached_property
    def profile_source(self) -> SourceField:
        """Transformed source along the profile."""
        return transformed_source(self.model, self.profile.values, self.profile_frames)

    @cached_property
    def damping(self) -> DampingRate:
        """Endstate damping rate theta_E.  NotDissipative propagates and, being
        an exception, is not cached: every stage that asks raises it again."""
        return damping_rate(self.model)

    @cached_property
    def trajectory(self) -> Trajectory:
        dc = self.dynamics_cfg
        return evolve(self.model, self.profile, self.build_perturbation(),
                      self.build_shift(), T=dc["T"], backend=dc["backend"],
                      dx=dc["dx"], cfl=dc["cfl"], n_out=int(dc["n_out"]),
                      budget=dc["budget"])

    def build_perturbation(self) -> PerturbationSpec:
        """The perturbation section as its record, lists as tuples: the
        section's keys are the record's fields, and ``PerturbationSpec.sample``
        reads those of its kind."""
        return PerturbationSpec(**{key: tuple(v) if isinstance(v, list) else v
                                   for key, v in self.dynamics_cfg["perturbation"].items()})

    def build_shift(self) -> ShiftSpec:
        return ShiftSpec(**self.dynamics_cfg["shift"])

    def theta_grid(self) -> np.ndarray:
        tg = self.verify_cfg["theta_grid"]
        return np.linspace(tg["start"], tg["stop"], int(tg["num"]))


def _validate(raw: dict) -> None:
    mc = raw["model"]
    _require(mc["kind"] in ("jinxin", "custom"),
             f"kind must be jinxin or custom, got {mc['kind']!r}", "model.kind")
    if mc["kind"] == "jinxin":
        n = 2  # the model's N, which state vectors below must match
        _check_number(mc["a"], "model.a", positive=True)
        _check_number(mc["eps"], "model.eps", positive=True)
        _require(_is_numbers(mc["flux"]) and len(mc["flux"]) >= 1,
                 "flux must be a list of coefficients", "model.flux")
        _check_number(mc["u_minus"], "model.u_minus")
        _check_number(mc["u_plus"], "model.u_plus")
        _require(mc["u_minus"] != mc["u_plus"], "endstates must differ",
                 "model.u_plus")
    else:
        _check_number(mc.get("N", 0), "model.N", integer=True, minimum=1)
        n = int(mc["N"])
        _check_entries(mc.get("A"), n, "model.A", square=True)
        _check_entries(mc.get("q"), n, "model.q")
        for key in ("U_minus", "U_plus"):
            if mc.get(key) is not None:
                _require(_is_numbers(mc[key], n), f"{key} must list {n} numbers",
                         f"model.{key}")
        box = mc.get("state_box")
        if box is not None:
            _require(isinstance(box, list) and len(box) == 2
                     and all(_is_numbers(side, n) for side in box),
                     f"state_box must be two lists of {n} numbers", "model.state_box")
            problem = state_box_problem(*box, mc.get("U_minus"), mc.get("U_plus"))
            _require(problem is None, problem, "model.state_box")
        _check_number(mc.get("shock_speed", 0.0), "model.shock_speed")

    pc = raw["profile"]
    _check_number(pc["X"], "profile.X", positive=True)
    _check_number(pc["n"], "profile.n", integer=True, minimum=11)
    _check_number(pc["tol"], "profile.tol", positive=True)
    _require(pc["method"] in ("shooting", "exact"),
             "method must be shooting or exact", "profile.method")

    sc = raw["spectral"]
    _check_number(sc["xi_min"], "spectral.xi_min", positive=True)
    _check_number(sc["xi_max"], "spectral.xi_max", positive=True)
    _require(sc["xi_max"] > sc["xi_min"], "xi_max must exceed xi_min",
             "spectral.xi_max")
    _check_number(sc["n_xi"], "spectral.n_xi", integer=True, minimum=100)
    _check_number(sc["margin"], "spectral.margin", positive=True)
    _check_number(sc["c_min"], "spectral.c_min", positive=True)

    dc = raw["dynamics"]
    _require(dc["perturbation"]["kind"] in
             ("gaussian", "offset", "shift_difference", "zero"),
             "unknown perturbation kind", "dynamics.perturbation.kind")
    pk = dc["perturbation"]
    if pk["kind"] == "gaussian":
        _check_number(pk["amplitude"], "dynamics.perturbation.amplitude",
                      nonnegative=True)
        _check_number(pk["width"], "dynamics.perturbation.width", positive=True)
        _check_number(pk["center"], "dynamics.perturbation.center")
        _require(pk["direction"] is None or _is_numbers(pk["direction"], n),
                 f"direction must be a list of {n} numbers",
                 "dynamics.perturbation.direction")
    if pk["kind"] == "offset":
        for key in ("d_minus", "d_plus"):
            _require(_is_numbers(pk[key], n), f"offset needs {key} as a list of {n} numbers",
                     f"dynamics.perturbation.{key}")
    # every kind's record carries it to the trajectory's far-field ramp
    _check_number(pk["blend_width"], "dynamics.perturbation.blend_width", positive=True)
    if pk["kind"] == "shift_difference":
        _check_number(pk["h"], "dynamics.perturbation.h")
    _require(dc["shift"]["kind"] in ("zero", "linear", "sinusoid"),
             "unknown shift kind", "dynamics.shift.kind")
    for key in ("rate", "amplitude", "frequency"):
        _check_number(dc["shift"][key], f"dynamics.shift.{key}")
    _check_number(dc["T"], "dynamics.T", positive=True)
    _require(dc["backend"] in ("moc", "reference"),
             "backend must be moc or reference", "dynamics.backend")
    _check_number(dc["dx"], "dynamics.dx", positive=True)
    nodes = int(round(2.0 * pc["X"] / dc["dx"])) + 1  # as evolve lays out its grid
    _require(nodes >= 2 * EDGE_TRIM + 1,
             f"dx leaves {nodes} evolution nodes on [-X, X], fewer than the "
             f"{2 * EDGE_TRIM + 1} the edge-trimmed norms need", "dynamics.dx")
    _check_number(dc["cfl"], "dynamics.cfl", positive=True, maximum=CFL_LIMIT)
    _check_number(dc["n_out"], "dynamics.n_out", integer=True, minimum=1)
    _check_number(dc["budget"], "dynamics.budget", positive=True)
    _check_number(dc["trajectory_stride_x"], "dynamics.trajectory_stride_x",
                  integer=True, minimum=1)
    _check_number(dc["trajectory_stride_t"], "dynamics.trajectory_stride_t",
                  integer=True, minimum=1)

    vc = raw["verify"]
    tg = vc["theta_grid"]
    _check_number(tg["start"], "verify.theta_grid.start", positive=True)
    _check_number(tg["stop"], "verify.theta_grid.stop", positive=True)
    _require(tg["stop"] >= tg["start"], "stop must be >= start",
             "verify.theta_grid.stop")
    _check_number(tg["num"], "verify.theta_grid.num", integer=True, minimum=2)
    _check_number(vc["C_cap"], "verify.C_cap", positive=True)
    _check_number(vc["n_paths"], "verify.n_paths", integer=True, minimum=1)
    _check_number(vc["n_sub"], "verify.n_sub", integer=True, minimum=1)
    _check_number(vc["growth_tol"], "verify.growth_tol", positive=True)

    _require(isinstance(raw["output_dir"], str) and raw["output_dir"],
             "output_dir must be a non-empty string", "output_dir")
    _check_number(raw["seed"], "seed", integer=True, nonnegative=True)


def parse_config(path) -> Config:
    """Load, merge with defaults, and validate a JSON config file."""
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise ParseError(f"cannot read config file {path}: {exc}") from exc
    try:
        given = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"malformed JSON in {path}: {exc}") from exc
    if not isinstance(given, dict):
        raise ValidationError("top-level config must be a JSON object")
    return config_from_dict(given)


def config_from_dict(given: dict) -> Config:
    """Validate an in-memory config dict (tests and embedding)."""
    raw = _merge(_default_config(), given, "")
    _validate(raw)
    return Config(raw=raw)
