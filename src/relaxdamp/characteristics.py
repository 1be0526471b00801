"""Characteristic curves, the Duhamel exponent H, and the no-damping radius.

Paths solve dX/ds = lambda_j(Ubar(X) + U(s, X)) - ddelta(s) through a stored
trajectory; the exponent H_j(t) accumulates the diagonal transformed source
along the path.  The empirical constant of the bound
H_j(t) - H_j(s) <= -theta_E (t - s) + C is the sup of the left side plus the
rate term over all sampled pairs, and the no-damping radius is the distance
beyond which the frozen-profile damping coefficient clears -theta_E with
margin for perturbations of the allowed size.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _cubic_at, grid_step, phi_and_forcing
from .eigenframe import SourceField, damping_rate, profile_source_field, source_diagonals
from .errors import EpsilonTooLarge, InvalidParam, NotBounded
from .model import ModelSpec
from .profile import ProfileRep


@dataclass
class CharPath:
    """One characteristic curve with its Duhamel exponent samples."""

    family: int
    x0: float
    times: np.ndarray
    positions: np.ndarray
    velocities: np.ndarray
    H: np.ndarray | None = None
    grid_half_width: float = 0.0

    @property
    def exit_time(self) -> float | None:
        """First sample time at which the path leaves the grid."""
        return self.exit_time_from(self.grid_half_width)

    def exit_time_from(self, radius: float) -> float | None:
        """First sample time with |X| > radius."""
        out = np.abs(self.positions) > radius
        if not np.any(out):
            return None
        return float(self.times[np.argmax(out)])


class _FieldInterp:
    """Linear-in-time, cubic-in-space interpolation of per-output-time fields.

    ``columns`` holds one grid field per output time of ``traj``; each is
    extended flat by its own end values beyond the grid.
    """

    def __init__(self, traj: Trajectory, columns):
        self.times = traj.times
        self.x0 = float(traj.grid[0])
        self.dx = grid_step(traj.grid)
        self.pad = np.pad(np.stack(columns), ((0, 0), (2, 2)), mode="edge")

    def eval(self, s, xq) -> np.ndarray:
        """Field values at the samples (s, xq), broadcast against each other."""
        times = self.times
        m = np.clip(np.searchsorted(times, s, side="right") - 1, 0, len(times) - 2)
        w = np.clip((s - times[m]) / (times[m + 1] - times[m]), 0.0, 1.0)
        cells = (xq - self.x0) / self.dx
        a0 = _cubic_at(self.pad, cells, (m,))
        a1 = _cubic_at(self.pad, cells, (m + 1,))
        return (1.0 - w) * a0 + w * a1


def trace_many(traj: Trajectory, j: int, x0s, n_sub: int = 4) -> list[CharPath]:
    """RK2 integration of a batch of family-j characteristics.

    Sub-steps subdivide each output interval so the time interpolation of the
    velocity field stays piecewise smooth along the integration.  With
    constant frames lambda_j is one number, so the velocity is lambda_j -
    ddelta(s) at every position and no field is interpolated.
    """
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    frames0 = traj.frames(0)
    if frames0.constant:
        lam_j = float(frames0.lambdas[0, j])

        def velocity(s, x):
            return np.full_like(x, lam_j - traj.shift.delta_dot(s))
    else:
        lam = _FieldInterp(traj, [traj.frames(i).lambdas[:, j]
                                  for i in range(traj.n_times)])

        def velocity(s, x):
            return lam.eval(s, x) - traj.shift.delta_dot(s)

    times = traj.times
    n_samples = (len(times) - 1) * n_sub + 1
    ts = np.empty(n_samples)
    Xs = np.empty((n_samples, len(x0s)))
    Vs = np.empty_like(Xs)
    ts[0] = times[0]
    Xs[0] = x0s
    Vs[0] = velocity(ts[0], Xs[0])
    k = 0
    for m in range(len(times) - 1):
        h = (times[m + 1] - times[m]) / n_sub
        for _ in range(n_sub):
            s, x = ts[k], Xs[k]
            v1 = Vs[k]  # velocity(s, x), stored with sample k
            v2 = velocity(s + 0.5 * h, x + 0.5 * h * v1)
            k += 1
            ts[k] = s + h
            Xs[k] = x + h * v2
            Vs[k] = velocity(ts[k], Xs[k])
    X_half = float(traj.grid[-1])
    return [CharPath(family=j, x0=float(x0s[p]), times=ts.copy(),
                     positions=Xs[:, p].copy(), velocities=Vs[:, p].copy(),
                     grid_half_width=X_half)
            for p in range(len(x0s))]


def trace(traj: Trajectory, j: int, x0: float, n_sub: int = 4) -> CharPath:
    """Single-path convenience wrapper around trace_many."""
    return trace_many(traj, j, [x0], n_sub)[0]


def accumulate_H(paths: list[CharPath], traj: Trajectory) -> np.ndarray:
    """Trapezoidal accumulation of the diagonal source along same-family paths.

    ``paths`` share one family and one sample-time vector, as one trace_many
    call returns them; a single path is the list of one.  The family's source
    field is stacked into one interpolant and read at every sample of every
    path in one batch, then integrated by one cumulative sum along the
    samples.  Beyond the grid the integrand freezes at the endstate value of
    the exit side, matching the far-field boundary treatment of the dynamics.
    Sets each path's ``H`` and returns them as a (path, sample) array.
    """
    j, times = paths[0].family, paths[0].times
    if any(p.family != j or not np.array_equal(p.times, times) for p in paths):
        raise InvalidParam("accumulate_H needs paths of one family on shared sample times")
    E = _FieldInterp(traj, [traj.source_field(i).E_diag[:, j]
                            for i in range(traj.n_times)])
    E_minus, E_plus = traj.endstate_E_diag
    X = paths[0].grid_half_width
    x = np.stack([p.positions for p in paths], axis=1)
    vals = np.where(x < -X, E_minus[j], np.where(
        x > X, E_plus[j], E.eval(times[:, None], x)))
    steps = 0.5 * (vals[1:] + vals[:-1]) * np.diff(times)[:, None]
    H = np.zeros((len(paths), len(times)))
    H[:, 1:] = np.cumsum(steps, axis=0).T
    for p, h in zip(paths, H):
        p.H = h
    return H


def _c_emp(path: CharPath, theta_E: float, t_max: float | None = None) -> float:
    """max over sampled pairs s <= t of H(t) - H(s) + theta_E (t - s)."""
    if path.H is None:
        raise InvalidParam("accumulate_H must run before the H-bound")
    mask = slice(None) if t_max is None else path.times <= t_max + 1e-12
    g = path.H[mask] + theta_E * path.times[mask]
    running_min = np.minimum.accumulate(g)
    return float(np.max(g - running_min))


@dataclass
class HBoundReport:
    theta_E: float
    C_emp: dict                 # family -> empirical constant
    C_emp_overall: float
    C_theory: dict              # family -> assembled integral bound
    half_horizon: float | None = None
    C_emp_half: float | None = None


def verify_H_bound(paths: list[CharPath], theta_E: float,
                   model: ModelSpec | None = None,
                   profile: ProfileRep | None = None,
                   c_nonchar: float | None = None,
                   eps_delta: float = 0.0,
                   compare_horizon: float | None = None,
                   growth_tol: float = 0.25,
                   source: SourceField | None = None) -> HBoundReport:
    """Empirical constant of the H-estimate over all paths and sampled pairs.

    When ``compare_horizon`` is given, the constant is also computed from the
    samples up to that time; growth beyond ``growth_tol`` (relative, with an
    absolute floor) raises NotBounded, the signature of a rate theta_E larger
    than the field actually provides.  With model and profile supplied the
    report carries the analytic-style comparison bound: the integral of the
    positive part of (steady damping coefficient + theta_E) divided by the
    slowest characteristic speed.  ``source`` is the profile's transformed
    source when the caller has it already.
    """
    fams = sorted({p.family for p in paths})
    C_emp = {j: max(_c_emp(p, theta_E) for p in paths if p.family == j)
             for j in fams}
    overall = max(C_emp.values())
    report = HBoundReport(theta_E=theta_E, C_emp=C_emp, C_emp_overall=overall,
                          C_theory={})
    if model is not None and profile is not None:
        sf = source if source is not None else profile_source_field(model, profile)
        speed = c_nonchar if c_nonchar is not None \
            else float(np.min(np.abs(sf.frames.lambdas)))
        speed = max(speed - eps_delta, 1e-12)
        for j in fams:
            excess = np.maximum(sf.E_diag[:, j] + theta_E, 0.0)
            report.C_theory[j] = float(np.trapezoid(excess, profile.grid) / speed)
    if compare_horizon is not None:
        C_half = max(_c_emp(p, theta_E, t_max=compare_horizon) for p in paths)
        report.half_horizon = compare_horizon
        report.C_emp_half = C_half
        scale = max(abs(C_half), 0.1 * theta_E * compare_horizon)
        if overall - C_half > growth_tol * scale:
            raise NotBounded(
                f"C_emp grows from {C_half:.4g} to {overall:.4g} across horizons; "
                f"theta_E = {theta_E} exceeds the damping the field provides")
    return report


@dataclass
class NoDampingRadius:
    R: float
    theta_E: float
    C_tail: float
    theta_tilde: float
    C_lip: float
    eps_budget: float


def no_damping_radius(model: ModelSpec, profile: ProfileRep, eps_budget: float,
                      theta_E: float | None = None,
                      source: SourceField | None = None) -> NoDampingRadius:
    """Smallest grid radius beyond which damping clears -theta_E with margin.

    Requires E_jj(Ubar(x)) + C_tail exp(-theta_tilde |x|) + C_lip eps <= -theta_E
    for all |x| >= R, with E_jj = diag(L Q R): the profile source's damping
    coefficient minus its frame transport, which the tail term covers (zero
    for state-independent A).  C_lip covers state perturbations up to the
    budget: the largest slope of E_jj on a 9^N state-box lattice from one
    ``source_diagonals`` query, where points that are not strictly hyperbolic
    are NaN and drop out.  ``source`` is the profile's transformed source when
    the caller has it already.
    """
    if theta_E is None:
        theta_E = damping_rate(model).theta_E
    sf = source if source is not None else profile_source_field(model, profile)
    N = model.N
    T_diag = sf.transport[:, np.eye(N, dtype=bool)]
    E_pure = sf.E_diag - T_diag
    transport = np.max(np.abs(T_diag), axis=1)
    rates = [profile.decay_fits[(side, 1)].rate for side in ("minus", "plus")
             if (side, 1) in profile.decay_fits]
    theta_tilde = min(rates) if rates else 1.0
    C_tail = 0.0 if np.max(transport) < 1e-13 else float(np.max(
        transport / np.exp(-theta_tilde * np.abs(profile.grid))))

    axes = np.linspace(*model.state_box, 9)  # (9, N): the lattice axes by column
    mesh = np.stack(np.meshgrid(*axes.T, indexing="ij"), axis=-1)
    E = source_diagonals(model, mesh.reshape(-1, N))[1].reshape(mesh.shape)
    with np.errstate(invalid="ignore"):  # 0 / 0 on a flat side of the box
        slopes = [np.abs(np.diff(E, axis=k)) / (axes[1, k] - axes[0, k]) for k in range(N)]
    C_lip = max(float(np.nanmax(s, initial=0.0)) for s in slopes)

    margin = np.max(E_pure, axis=1) + C_tail * np.exp(
        -theta_tilde * np.abs(profile.grid)) + C_lip * eps_budget + theta_E
    bad = margin > 0.0
    if bad[0] or bad[-1]:
        raise EpsilonTooLarge(
            f"no radius exists: margin {margin[-1 if bad[-1] else 0]:.3e} > 0 "
            f"at the grid edge (eps_budget {eps_budget})")
    R = float(np.max(np.abs(profile.grid[bad]))) if np.any(bad) else 0.0
    return NoDampingRadius(R=R, theta_E=theta_E, C_tail=C_tail,
                           theta_tilde=theta_tilde, C_lip=C_lip,
                           eps_budget=eps_budget)


def scan_trajectory_damping(traj: Trajectory, R: float) -> float:
    """Post-hoc sup of the diagonal source over |x| >= R along a trajectory."""
    mask = np.abs(traj.grid) >= R
    worst = -np.inf
    for i in range(traj.n_times):
        worst = max(worst, float(np.max(traj.source_field(i).E_diag[mask])))
    return worst


def duhamel_residual(traj: Trajectory, path: CharPath) -> float:
    """Consistency of the stored field with its Duhamel representation.

    Reconstructs Phi_j(t, X(t)) from Phi_j(0, x0) e^{H(t)} plus the
    accumulated forcing integral and returns the worst mismatch at output
    times while the path stays inside the grid.
    """
    j = path.family
    if path.H is None:
        accumulate_H([path], traj)
    fields = [phi_and_forcing(traj, i) for i in range(traj.n_times)]
    Phi = _FieldInterp(traj, [F[j] for F, _ in fields])
    G_path = _FieldInterp(traj, [G[j] for _, G in fields]).eval(
        path.times, path.positions)
    n_sub = (len(path.times) - 1) // (traj.n_times - 1)
    phi0 = Phi.eval(0.0, path.x0)
    ks = np.arange(traj.n_times) * n_sub
    stored = Phi.eval(path.times[ks], path.positions[ks])
    worst = 0.0
    exit_t = path.exit_time
    for m, k in enumerate(ks):
        t = path.times[k]
        if exit_t is not None and t >= exit_t:
            break
        H_t = path.H[k]
        ts = path.times[:k + 1]
        integrand = np.exp(H_t - path.H[:k + 1]) * G_path[:k + 1]
        integral = np.trapezoid(integrand, ts) if k > 0 else 0.0
        recon = phi0 * np.exp(H_t) + integral
        worst = max(worst, abs(recon - stored[m]))
    return worst
