"""Norms, weights, and certification of the damping inequalities.

Measures C^K_b and L^2/H^2 norms along trajectories, builds the spatial L^2
weights alpha_j, evaluates weighted modal energies, and turns the damping
estimates into decidable feasibility scans: a rate theta is feasible when the
smallest constant C matching

    N(t) <= C [ e^{-theta t} N(0) + int_0^t e^{-theta (t-s)} forcing(s) ds ]

over all output times stays below a cap (squared norms and squared forcing in
the L^2/H^2 variants).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Snapshot, Trajectory, diagonal_vars
from .eigenframe import profile_lambdas
from .errors import EmptyFeasible, InvalidParam, Unsupported
from .model import ModelSpec
from .profile import ProfileRep

C_CAP_DEFAULT = 1e3
EDGE_TRIM = 2  # nodes dropped at each end of discrete sup norms (stencil width)

_GL7 = np.polynomial.legendre.leggauss(7)
_GL15 = np.polynomial.legendre.leggauss(15)


# --- discrete norms --------------------------------------------------------

def trapezoid4(y: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """Composite trapezoid with Gregory end corrections (fourth order)."""
    n = y.shape[axis]
    if n < 7:
        return np.trapezoid(y, dx=dx, axis=axis)
    w = np.ones(n)
    w[[0, -1]] = 3.0 / 8.0
    w[[1, -2]] = 7.0 / 6.0
    w[[2, -3]] = 23.0 / 24.0
    shape = [1] * y.ndim
    shape[axis] = n
    return np.sum(y * w.reshape(shape), axis=axis) * dx


def _interior_max(F: np.ndarray) -> float:
    return float(np.max(np.abs(F[EDGE_TRIM:-EDGE_TRIM])))


def ckb_norm(snap: Snapshot, K: int) -> float:
    """max over derivative orders <= K of the discrete sup norm."""
    if K > 2:
        raise Unsupported(f"derivative order {K} not implemented (K <= 2)")
    if K < 0:
        raise InvalidParam("K must be >= 0")
    out = _interior_max(snap.U)
    if K >= 1:
        out = max(out, _interior_max(snap.W))
    if K >= 2:
        out = max(out, _interior_max(snap.Y))
    return out


def _offset_corrected(snap: Snapshot, blend_width: float) -> np.ndarray:
    """Subtract the far-field ramp for nonlocalised data."""
    bl, br = snap.b_left, snap.b_right
    if np.max(np.abs(bl)) == 0.0 and np.max(np.abs(br)) == 0.0:
        return snap.U
    sig = 0.5 * (1.0 + np.tanh(snap.grid / blend_width))
    return snap.U - (bl[None, :] + sig[:, None] * (br - bl)[None, :])


def l2_h2_norms(snap: Snapshot, blend_width: float = 2.0) -> tuple[float, float, float]:
    """(||U||_L2, ||U||_H1, ||U||_H2) by end-corrected trapezoid quadrature.

    Offset data is measured against its far-field ramp; derivative fields are
    square-integrable as they stand.
    """
    dx = float(snap.grid[1] - snap.grid[0])
    U = _offset_corrected(snap, blend_width)
    l2sq = float(np.sum(trapezoid4(U**2, dx)))
    w2sq = float(np.sum(trapezoid4(snap.W**2, dx)))
    y2sq = float(np.sum(trapezoid4(snap.Y**2, dx)))
    return (np.sqrt(l2sq), np.sqrt(l2sq + w2sq), np.sqrt(l2sq + w2sq + y2sq))


# --- L^2 weight functions --------------------------------------------------

@dataclass
class WeightFn:
    """Spatial weight solving alpha' = -(C e^{-c|x|} / lambda_j(Ubar)) alpha."""

    family: int
    grid: np.ndarray
    values: np.ndarray
    C_alpha: float
    c_alpha: float
    ode_residual: float


def weight_fn(model: ModelSpec, profile: ProfileRep, C_alpha: float,
              c_alpha: float, c_min: float = 1e-8,
              grid: np.ndarray | None = None) -> list[WeightFn]:
    """Integrate the weight ODE in closed form for every family, max alpha = 1.

    The log-increment over each grid cell is computed by 7-point Gauss
    quadrature of C e^{-c|y|} / lambda_j(Ubar(y)); the recorded residual
    re-evaluates the increments with 15 points and reports the worst mismatch
    |alpha_{i+1} - alpha_i e^{-I_i}|.  The eigenvalues at the nodes of each
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
    return [WeightFn(family=j, grid=x, values=alpha[j], C_alpha=C_alpha,
                     c_alpha=c_alpha, ode_residual=float(resid[j]))
            for j in range(model.N)]


def default_weight_constants(profile: ProfileRep) -> tuple[float, float]:
    """C_alpha = 4 C_tail and c_alpha = theta_tilde / 2 from the profile fits."""
    c_tail = max(profile.decay_fits[(side, 1)].amplitude for side in ("minus", "plus"))
    theta = min(profile.decay_fits[(side, 1)].rate for side in ("minus", "plus"))
    return 4.0 * c_tail, 0.5 * theta


# --- series extraction -----------------------------------------------------

def norm_series(traj: Trajectory, kind: str) -> np.ndarray:
    """Per-output-time norms: kind in c0|c1|c2|l2|h1|h2.

    All six kinds come from one pass over the output times, in which each
    snapshot forms W and Y once; they are cached on the trajectory read-only.
    """
    cache = traj._norm_cache
    if not cache:
        rows = []
        for i in range(traj.n_times):
            snap = traj.snapshot(i)
            rows.append([ckb_norm(snap, K) for K in range(3)] + list(l2_h2_norms(snap)))
        table = np.array(rows)
        table.flags.writeable = False
        cache.update(zip(("c0", "c1", "c2", "l2", "h1", "h2"), table.T))
    return cache[kind]


# --- weighted energies -----------------------------------------------------

@dataclass
class EnergySeries:
    """Per-family weighted energies e_j(t) = <Phi_j, alpha_j Phi_j> and rates."""

    times: np.ndarray
    energies: np.ndarray     # (n_times, N)
    rates: np.ndarray        # centered d/dt of energies
    theta_E: float
    slack_constant: float    # smallest K with de/dt <= -2 theta_E e + K (forcing)
    flagged: np.ndarray      # times where the inequality needed the forcing term

    @property
    def ratio(self) -> list[float | None]:
        """e_j(T) / e_j(0) per family; None for a family with e_j(0) = 0."""
        return [float(final / initial) if initial > 0.0 else None
                for initial, final in zip(self.energies[0], self.energies[-1])]


def weighted_energy_series(traj: Trajectory, weights: list[WeightFn],
                           theta_E: float) -> EnergySeries:
    """Energies, their discrete time derivatives, and the decay-slack fit.

    The differential inequality de_j/dt <= -2 theta_E e_j + K (|ddelta| +
    ||Phi||_L2^2) is checked with the smallest constant K that makes it hold
    at every interior output time; flagged entries mark where K > 0 was
    needed.
    """
    if weights[0].grid.shape != traj.grid.shape \
            or not np.allclose(weights[0].grid, traj.grid):
        raise InvalidParam("weights and trajectory live on different grids")
    dx = traj.dx
    times = traj.times
    N = traj.model.N
    e = np.empty((traj.n_times, N))
    phi_l2sq = np.empty(traj.n_times)
    for i in range(traj.n_times):
        Phi = traj.frames(i).to_diag(traj.states[i])
        for j in range(N):
            e[i, j] = trapezoid4(weights[j].values * Phi[:, j] ** 2, dx)
        phi_l2sq[i] = float(np.sum(trapezoid4(Phi**2, dx)))
    rates = np.gradient(e, times, axis=0)
    dd = np.abs(traj.shift.delta_dot(times))
    forcing = dd + phi_l2sq
    excess = rates + 2.0 * theta_E * e
    with np.errstate(divide="ignore", invalid="ignore"):
        need = np.where(excess > 0.0, excess / forcing[:, None], 0.0)
    interior = slice(1, -1)  # one-sided end differences are not second order
    K = float(np.max(need[interior])) if traj.n_times > 2 else 0.0
    flagged = times[np.any(excess > 0.0, axis=1)]
    return EnergySeries(times=times, energies=e, rates=rates, theta_E=theta_E,
                        slack_constant=K, flagged=flagged)


# --- damping feasibility ---------------------------------------------------

@dataclass
class FeasibilityTable:
    """C_min(theta) over a rate grid with the feasible set under the cap."""

    label: str
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
    def theta_max(self) -> float:
        if self.degenerate:
            return float(self.theta_grid[-1])
        ok = np.where(self.feasible)[0]
        if ok.size == 0:
            raise EmptyFeasible(f"{self.label}: no feasible rate under C_cap")
        return float(self.theta_grid[ok[-1]])


def feasibility_table(label: str, times: np.ndarray, series: np.ndarray,
                      forcing: np.ndarray, theta_grid: np.ndarray,
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
        return FeasibilityTable(label=label, times=times, series=series,
                                forcing=forcing, theta_grid=theta_grid,
                                C_min=np.zeros_like(theta_grid), C_cap=C_cap,
                                degenerate=True)
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
    return FeasibilityTable(label=label, times=times, series=series,
                            forcing=forcing, theta_grid=theta_grid,
                            C_min=C_min, C_cap=C_cap, degenerate=False)


def fit_damping(traj: Trajectory, norm_kind: str, theta_grid,
                C_cap: float = C_CAP_DEFAULT) -> FeasibilityTable:
    """Damping feasibility for one norm kind.

    C^K_b kinds use the plain norms with forcing ||U||_C0 + |ddelta|; the
    L^2/H^2 kinds use squared norms with forcing ||U||_L2^2 + |ddelta|^2.
    """
    if norm_kind not in ("c0", "c1", "c2", "l2", "h2"):
        raise InvalidParam(f"unknown norm kind {norm_kind!r}")
    dd = np.abs(traj.shift.delta_dot(traj.times))
    if norm_kind in ("c0", "c1", "c2"):
        series = norm_series(traj, norm_kind)
        forcing = norm_series(traj, "c0") + dd
    else:
        base = norm_series(traj, norm_kind) ** 2
        series = base
        forcing = norm_series(traj, "l2") ** 2 + dd**2
    table = feasibility_table(norm_kind, traj.times, series, forcing,
                              np.asarray(theta_grid, dtype=float), C_cap)
    if not table.degenerate and not np.any(table.feasible):
        raise EmptyFeasible(f"{norm_kind}: no feasible rate under C_cap",
                            table=table)
    return table


def slaving_check(traj: Trajectory, theta_grid,
                  C_cap: float = C_CAP_DEFAULT) -> dict[str, FeasibilityTable]:
    """Feasibility of the slaved estimates for PsiTilde and UpsilonTilde.

    Both derivative conjugates must admit a rate with the forcing
    ||Phi||_C0 + |ddelta| alone, confirming that no self-forcing is needed.
    """
    n_t = traj.n_times
    psi_t = np.empty(n_t)
    ups_t = np.empty(n_t)
    phi_c0 = np.empty(n_t)
    for i in range(n_t):
        sf = traj.source_field(i)
        dv = diagonal_vars(traj.snapshot(i), sf.frames, sf.Theta)
        psi_t[i] = _interior_max(dv.PsiTilde)
        ups_t[i] = _interior_max(dv.UpsilonTilde)
        phi_c0[i] = _interior_max(dv.Phi)
    dd = np.abs(traj.shift.delta_dot(traj.times))
    forcing = phi_c0 + dd
    theta_grid = np.asarray(theta_grid, dtype=float)
    out = {}
    empty = []
    for label, series in (("psi_tilde", psi_t), ("upsilon_tilde", ups_t)):
        table = feasibility_table(label, traj.times, series, forcing,
                                  theta_grid, C_cap)
        out[label] = table
        if not table.degenerate and not np.any(table.feasible):
            empty.append(label)
    if empty:
        raise EmptyFeasible(f"no feasible slaved rate for {', '.join(empty)}",
                            tables=out)
    return out
