"""Shared fixtures and trajectory fabrication helpers."""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest

from relaxdamp import (build_custom, build_jinxin, exact_jinxin_profile, frames_at_states,
                       transformed_source)
from relaxdamp.characteristics import CharPaths, _FieldInterp, accumulate_H
from relaxdamp.dynamics import ShiftSpec, Trajectory, fd4_derivative
from relaxdamp.poly import Poly, node_matmul
from relaxdamp.profile import constant_profile


@pytest.fixture(scope="session")
def jinxin():
    return build_jinxin(a=2.0, eps=1.0, flux=[0.0, 0.0, 0.5], u_minus=1.0, u_plus=-1.0)


@pytest.fixture(scope="session")
def jinxin_profile(jinxin):
    return exact_jinxin_profile(jinxin, np.linspace(-40.0, 40.0, 4001))


def scalar_model(speed: float = 2.0, decay: float = 0.25):
    """1x1 advection-relaxation model u_t + speed u_x = -decay u."""
    return build_custom(
        "scalar", 1, [[speed]], [Poly.variable(1, 0).scaled(-decay)],
        U_minus=[0.0], U_plus=[0.0], state_box=([-1.0], [1.0]),
    )


def vara_model():
    """Jin-Xin with state-dependent A: A_21 = 4 + 0.2 u, q = (0, u^2/2 - v)."""
    return build_custom(
        "jinxin-varA", 2, [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
        [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
        U_minus=[1.0, 0.5], U_plus=[-1.0, 0.5])


def anti_damped_core_model():
    """Jin-Xin (a = 2, eps = 1) with q2 = u^2/2 - v + g (1 - u^2)(v - 1/2) at
    g = 1.5 and endstates (+-1, 1/2).  The profile keeps v = 1/2, where
    E_jj = -(2 +- u)/4 + g (1 - u^2)/2: damped endstates, an anti-damped core."""
    q2 = [[1.25, [2, 0]], [0.5, [0, 1]], [-0.75, [0, 0]], [-1.5, [2, 1]]]
    return build_custom("anti-damped-core", 2, [[0.0, 1.0], [4.0, 0.0]], [0.0, q2],
                        U_minus=[1.0, 0.5], U_plus=[-1.0, 0.5])


def vara3_model():
    """3x3 model with A depending on u in three entries and a linear, decoupled
    source; U = 0 is an equilibrium."""
    u = Poly.variable(3, 0)
    A = [[u, 1.0, 0.0], [0.5, 2.0, u.scaled(0.5)], [0.0, 0.3, u.scaled(-1.0)]]
    q = [u.scaled(-1.0), Poly.variable(3, 1).scaled(-2.0), Poly.variable(3, 2).scaled(-0.5)]
    return build_custom("varA3", 3, A, q, U_minus=[0.0] * 3, U_plus=[0.0] * 3,
                        state_box=([-1.0] * 3, [1.0] * 3))


def profile_source(model, profile):
    """Transformed source along the profile nodes, on their ``frames_at_states``."""
    frames = frames_at_states(model, profile.grid, profile.values)
    return transformed_source(model, profile.values, frames)


def synthetic_trajectory(model, profile, field, T: float, n_out: int,
                         shift: ShiftSpec | None = None) -> Trajectory:
    """Fabricate a Trajectory from a manufactured field U(t, x)."""
    times = np.linspace(0.0, T, n_out + 1)
    grid = profile.grid
    states = np.stack([field(t, grid) for t in times])
    zeros = np.zeros((n_out + 1, model.N))
    return Trajectory(
        model=model, profile=profile,
        shift=shift if shift is not None else ShiftSpec(kind="zero"),
        backend="synthetic", grid=grid, times=times, states=states,
        b_left=zeros, b_right=zeros.copy(), dt=times[1] - times[0],
        cfl_observed=0.0, budget=1.0,
    )


def diagonal_vars(traj: Trajectory, i: int, sf) -> SimpleNamespace:
    """Diagonal variables at output time i, in the frames and Theta of the
    transformed source ``sf``: Phi = L U, Psi = L W, PsiTilde = Psi + Theta Phi,
    Upsilon = L Y and UpsilonTilde = Upsilon + Theta Psi, with Y the
    fourth-order differences of W extended by zero beyond the grid.  The
    per-output-time oracle of ``Trajectory.source_series``."""
    zero = np.zeros(traj.model.N)
    Y = fd4_derivative(traj.W[i], traj.dx, zero, zero)
    Phi, Psi, Ups = (sf.frames.to_diag(F) for F in (traj.states[i], traj.W[i], Y))
    return SimpleNamespace(Phi=Phi, Psi=Psi, PsiTilde=Psi + node_matmul(sf.Theta, Phi),
                           Upsilon=Ups, UpsilonTilde=Ups + node_matmul(sf.Theta, Psi))


def duhamel_forcing(traj: Trajectory, i: int):
    """Phi = L U and its Duhamel forcing G = L S - E Phi + T Phi at output time
    i, family-major (N, n): S from the trajectory's one Stepper, about the
    profile at every node, and E and the frame transport T (zero for constant
    frames) from its transformed source."""
    sf, stepper = traj.source_field(i), traj.stepper
    S = stepper.source(traj.perturbed_states(i), float(traj.times[i]),
                       stepper.about.rows(slice(1, -1)))
    Phi = sf.frames.diag_rows(traj.states[i])
    G = sf.frames.diag_rows(S)
    G -= sf.E_diag.T * Phi
    if not sf.frames.constant:
        G += node_matmul(sf.transport, Phi.T).T
    return Phi, G


def duhamel_residual(traj: Trajectory, paths: CharPaths) -> np.ndarray:
    """Consistency of the stored field with its Duhamel representation.

    Along a family-j characteristic d/ds Phi_j = E_jj Phi_j + G_j, with Phi
    and G from ``duhamel_forcing`` at every output time.  Reconstructs
    Phi_j(t, X(t)) from Phi_j(0, x0) e^{H(t)} plus the accumulated forcing
    integral and returns, per path, the worst mismatch at output times while
    the path stays inside the grid; NaN for a path whose mismatch is NaN
    there, as a NaN start gives.
    """
    if paths.H is None:
        accumulate_H(paths, traj)
    phi_fields, g_fields = [], []  # (n, N) at every output time
    for i in range(traj.n_times):
        F, G = duhamel_forcing(traj, i)
        phi_fields.append(F.T)
        g_fields.append(G.T)
    Phi = _FieldInterp(traj, np.stack(phi_fields))
    times, X, H, fams = paths.times, paths.positions, paths.H, paths.family
    G_path = _FieldInterp(traj, np.stack(g_fields)).eval(times[:, None], X, fams)
    n_sub = (len(times) - 1) // (traj.n_times - 1)
    phi0 = Phi.eval(0.0, paths.x0, fams)
    ks = np.arange(traj.n_times) * n_sub
    stored = Phi.eval(times[ks][:, None], X[ks], fams)
    exit_t = paths.exit_times()
    worst = np.zeros(len(fams))
    for m, k in enumerate(ks):
        integrand = np.exp(H[k] - H[:k + 1]) * G_path[:k + 1]
        integral = np.trapezoid(integrand, times[:k + 1], axis=0)  # 0 at k = 0
        mismatch = np.abs(phi0 * np.exp(H[k]) + integral - stored[m])
        worst = np.where(times[k] >= exit_t, worst, np.maximum(worst, mismatch))
    return worst


__all__ = ["scalar_model", "synthetic_trajectory", "constant_profile", "vara_model",
           "vara3_model", "anti_damped_core_model", "profile_source", "duhamel_forcing",
           "duhamel_residual"]
