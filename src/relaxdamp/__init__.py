"""Numerical verification of damping estimates for relaxation shock profiles."""

from .model import ModelSpec, build_custom, build_jinxin, eval_A, eval_q, eval_Q, validate_model
from .profile import ProfileRep, constant_profile, exact_jinxin_profile, fit_decay, residual, solve_profile
from .eigenframe import (
    FrameField,
    SourceField,
    damping_rate,
    frames_at_states,
    theta_field,
    transformed_source,
)

from .dynamics import PerturbationSpec, ShiftSpec, Snapshot, Trajectory, evolve, make_initial
from .damping_verifier import fit_damping, slaving_check, weight_fn
from .characteristics import accumulate_H, no_damping_radius, trace_many, verify_H_bound
from .config import Config, parse_config

__all__ = [
    "ModelSpec", "build_custom", "build_jinxin", "eval_A", "eval_q", "eval_Q",
    "validate_model",
    "ProfileRep", "constant_profile", "exact_jinxin_profile", "fit_decay",
    "residual", "solve_profile",
    "FrameField", "SourceField", "damping_rate", "frames_at_states",
    "theta_field", "transformed_source",
    "PerturbationSpec", "ShiftSpec", "Snapshot", "Trajectory", "evolve",
    "make_initial",
    "fit_damping", "slaving_check", "weight_fn",
    "accumulate_H", "no_damping_radius", "trace_many", "verify_H_bound",
    "Config", "parse_config",
]

__version__ = "0.1.0"
