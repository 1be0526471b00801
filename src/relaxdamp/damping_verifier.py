"""Norms, weights, and certification of the damping inequalities.

Reads the C^K_b and L^2/H^2 norms of a trajectory (``Trajectory.norms``),
builds the spatial L^2 weights alpha_j, evaluates weighted modal energies,
and turns the damping estimates into decidable feasibility scans: a rate
theta is feasible when the smallest constant C matching

    N(t) <= C [ e^{-theta t} N(0) + int_0^t e^{-theta (t-s)} forcing(s) ds ]

over all output times stays below a cap (squared norms and squared forcing in
the L^2/H^2 variants).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import NORM_KINDS, Trajectory, trapezoid4
from .eigenframe import profile_lambdas
from .errors import InvalidParam
from .model import ModelSpec
from .profile import ProfileRep

C_CAP_DEFAULT = 1e3

_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


# --- L^2 weight functions --------------------------------------------------

@dataclass
class Weights:
    """Spatial weights solving alpha_j' = -(C e^{-c|x|} / lambda_j(Ubar)) alpha_j,
    one row of ``values`` and one ``ode_residual`` per family."""

    grid: np.ndarray          # (n,)
    values: np.ndarray        # (N, n)
    ode_residual: np.ndarray  # (N,)


def weight_fn(model: ModelSpec, profile: ProfileRep, C_alpha: float,
              c_alpha: float, c_min: float = 1e-8,
              grid: np.ndarray | None = None) -> Weights:
    """Integrate the weight ODE in closed form for every family, max alpha = 1.

    The log-increment over each grid cell is computed by 7-point Gauss
    quadrature of C e^{-c|y|} / lambda_j(Ubar(y)); the recorded residual of
    each family re-evaluates the increments with 15 points and is its worst
    mismatch |alpha_{i+1} - alpha_i e^{-I_i}|.  The eigenvalues at the nodes of each
    rule come from one ``profile_lambdas`` query.  ``grid`` defaults to the
    profile's own grid; pass the trajectory grid when they differ.
    """
    if C_alpha <= 0 or c_alpha <= 0:
        raise InvalidParam("weight constants must be positive")
    x = profile.grid if grid is None else np.asarray(grid, dtype=float)
    mid = 0.5 * (x[1:] + x[:-1])
    half = 0.5 * np.diff(x)

    def increments(nodes, wts):  # (N, cells) log-increments of every family
        p = mid[:, None] + half[:, None] * nodes[None, :]
        lam = profile_lambdas(model, profile, p.ravel(), c_min)
        f = C_alpha * np.exp(-c_alpha * np.abs(p)) / lam.T.reshape((-1,) + p.shape)
        f *= wts
        return np.sum(f, axis=-1) * half

    inc7 = increments(*_GL7)
    log_alpha = np.concatenate([np.zeros((model.N, 1)), np.cumsum(-inc7, axis=1)], axis=1)
    alpha = np.exp(log_alpha - np.max(log_alpha, axis=1, keepdims=True))
    inc15 = increments(*_GL15)
    resid = np.max(np.abs(alpha[:, 1:] - alpha[:, :-1] * np.exp(-inc15)), axis=1)
    return Weights(grid=x, values=alpha, ode_residual=resid)


def default_weight_constants(profile: ProfileRep) -> tuple[float, float]:
    """C_alpha = 4 C_tail and c_alpha = ``profile.tail_rate(1)`` / 2 from the order-1 fits.

    A fit that only bounds its rate from below (a tail under the noise
    floor) sets no weight: InvalidParam names its side.
    """
    fits = [profile.decay_fit(side, 1) for side in ("minus", "plus")]
    for fit in fits:
        if fit.is_lower_bound:
            raise InvalidParam(f"decay fit of the {fit.side} tail at order 1 is only a "
                               f"lower bound (rate >= {fit.rate:.4g}) from a tail under "
                               "the noise floor, which sets no weight constants")
    c_tail = max(fit.amplitude for fit in fits)
    return 4.0 * c_tail, 0.5 * profile.tail_rate(1)


# --- series extraction -----------------------------------------------------

def norm_series(traj: Trajectory, kind: str) -> np.ndarray:
    """Per-output-time norms of one kind in ``NORM_KINDS``: its column of the
    trajectory's read-only ``Trajectory.norms`` table, which one pass forms
    for every kind on first read.  Any other kind raises InvalidParam before
    that pass runs."""
    if kind not in NORM_KINDS:
        raise InvalidParam(f"unknown norm kind {kind!r}")
    return traj.norms[:, NORM_KINDS.index(kind)]


# --- weighted energies -----------------------------------------------------

@dataclass
class EnergySeries:
    """Per-family weighted energies e_j(t) = <Phi_j, alpha_j Phi_j> and rates."""

    times: np.ndarray
    energies: np.ndarray     # (n_times, N)
    rates: np.ndarray        # centered d/dt of energies
    slack_constant: float    # smallest K with de/dt <= -2 theta_E e + K (forcing)

    @property
    def ratio(self) -> list[float | None]:
        """e_j(T) / e_j(0) per family: NaN when either energy is not finite,
        None for a family with e_j(0) = 0."""
        return [float("nan") if not (math.isfinite(initial) and math.isfinite(final))
                else float(final / initial) if initial > 0.0 else None
                for initial, final in zip(self.energies[0], self.energies[-1])]


def weighted_energy_series(traj: Trajectory, weights: Weights,
                           theta_E: float) -> EnergySeries:
    """Energies, their discrete time derivatives, and the decay-slack fit.

    The differential inequality de_j/dt <= -2 theta_E e_j + K (|ddelta| +
    ||Phi||_L2^2) is checked with the smallest constant K that makes it hold
    at every interior output time; a NaN excess over that bound makes K NaN.
    """
    if weights.grid.shape != traj.grid.shape or not np.allclose(weights.grid, traj.grid):
        raise InvalidParam("weights and trajectory live on different grids")
    dx = traj.dx
    times = traj.times
    N = traj.model.N
    e = np.empty((traj.n_times, N))
    phi_l2sq = np.empty(traj.n_times)
    for i in range(traj.n_times):
        Phi = traj.frames(i).to_diag(traj.states[i])
        for j in range(N):
            e[i, j] = trapezoid4(weights.values[j] * Phi[:, j] ** 2, dx)
        phi_l2sq[i] = float(np.sum(trapezoid4(Phi**2, dx)))
    rates = np.gradient(e, times, axis=0)
    dd = np.abs(traj.shift.delta_dot(times))
    forcing = dd + phi_l2sq
    excess = rates + 2.0 * theta_E * e
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(excess <= 0.0, 0.0, excess / forcing[:, None])
    interior = slice(1, -1)  # one-sided end differences are not second order
    K = float(np.max(need[interior])) if traj.n_times > 2 else 0.0
    return EnergySeries(times=times, energies=e, rates=rates, slack_constant=K)


# --- damping feasibility ---------------------------------------------------

@dataclass
class FeasibilityTable:
    """C_min(theta) over a rate grid with the feasible set under the cap."""

    times: np.ndarray
    series: np.ndarray
    forcing: np.ndarray
    theta_grid: np.ndarray
    C_min: np.ndarray
    C_cap: float
    degenerate: bool

    @property
    def feasible(self) -> np.ndarray:
        return self.C_min <= self.C_cap

    @property
    def saturated(self) -> bool:
        """Whether the top rate of the grid is feasible: theta_max is then a
        bound set by the grid, not by the series."""
        return bool(self.feasible[-1])

    @property
    def theta_max(self) -> float | None:
        """The largest feasible rate of the grid; None when no rate is feasible."""
        if self.degenerate:
            return float(self.theta_grid[-1])
        ok = np.flatnonzero(self.feasible)
        return float(self.theta_grid[ok[-1]]) if ok.size else None


def feasibility_table(times: np.ndarray, series: np.ndarray, forcing: np.ndarray,
                      theta_grid: np.ndarray,
                      C_cap: float = C_CAP_DEFAULT) -> FeasibilityTable:
    """Minimal constant per rate: C_min(theta) = max_t N(t) / D_theta(t).

    D_theta is the decayed initial value plus the trapezoid Duhamel integral
    of the forcing on output times.  One recursion over the output times
    serves the whole rate grid: D is a (rate, time) table and the integral
    and decay factors are vectors over the rates, each entry formed by the
    same operations in the same order as a scalar recursion per rate.  A zero
    initial value with zero forcing short-circuits as degenerate (every rate
    trivially feasible).
    """
    times = np.asarray(times, dtype=float)
    series = np.asarray(series, dtype=float)
    forcing = np.asarray(forcing, dtype=float)
    theta_grid = np.asarray(theta_grid, dtype=float)
    if series[0] == 0.0 and np.max(forcing) == 0.0:
        return FeasibilityTable(times=times, series=series, forcing=forcing,
                                theta_grid=theta_grid, C_min=np.zeros_like(theta_grid),
                                C_cap=C_cap, degenerate=True)
    D = np.empty((len(theta_grid), len(times)))
    D[:, 0] = series[0]
    I = np.zeros_like(theta_grid)
    for m in range(1, len(times)):
        dt = times[m] - times[m - 1]
        decay = np.exp(-theta_grid * dt)
        I = decay * I + 0.5 * dt * (decay * forcing[m - 1] + forcing[m])
        D[:, m] = np.exp(-theta_grid * times[m]) * series[0] + I
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(D > 0.0, series / D, np.where(series > 0.0, np.inf, 0.0))
    C_min = np.max(ratio, axis=1)
    return FeasibilityTable(times=times, series=series, forcing=forcing,
                            theta_grid=theta_grid, C_min=C_min, C_cap=C_cap,
                            degenerate=False)


def fit_damping(traj: Trajectory, norm_kind: str, theta_grid,
                C_cap: float = C_CAP_DEFAULT) -> FeasibilityTable:
    """Damping feasibility for one norm kind.

    C^K_b kinds use the plain norms with forcing ||U||_C0 + |ddelta|; the
    L^2/H^2 kinds use squared norms with forcing ||U||_L2^2 + |ddelta|^2.
    The table's ``theta_max`` is None when no rate is feasible under the cap.
    """
    dd = np.abs(traj.shift.delta_dot(traj.times))
    if norm_kind.startswith("c"):
        series = norm_series(traj, norm_kind)
        forcing = norm_series(traj, "c0") + dd
    else:
        series = norm_series(traj, norm_kind) ** 2
        forcing = norm_series(traj, "l2") ** 2 + dd**2
    return feasibility_table(traj.times, series, forcing,
                             np.asarray(theta_grid, dtype=float), C_cap)


def slaving_check(traj: Trajectory, theta_grid,
                  C_cap: float = C_CAP_DEFAULT) -> dict[str, FeasibilityTable]:
    """Feasibility of the slaved estimates for PsiTilde and UpsilonTilde.

    Both derivative conjugates must admit a rate with the forcing
    ||Phi||_C0 + |ddelta| alone (all from ``traj.source_series``), confirming
    that no self-forcing is needed: a table whose ``theta_max`` is None
    found no slaved rate.
    """
    sups = traj.source_series
    forcing = sups.phi + np.abs(traj.shift.delta_dot(traj.times))
    theta_grid = np.asarray(theta_grid, dtype=float)
    return {label: feasibility_table(traj.times, series, forcing, theta_grid, C_cap)
            for label, series in (("psi_tilde", sups.psi_tilde),
                                  ("upsilon_tilde", sups.upsilon_tilde))}
