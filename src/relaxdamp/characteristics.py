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

from bisect import bisect_right
from dataclasses import dataclass

import numpy as np

from .dynamics import Trajectory, _cubic_lagrange, grid_step, phi_and_forcing
from .eigenframe import SourceField, source_diagonals
from .errors import EpsilonTooLarge, InvalidParam
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

    ``fields`` holds one grid field per output time of ``traj``, (n_times, n),
    or k of them, (n_times, n, k).  They are read where they are, without a
    padded copy: each field extends flat by its own end values beyond the
    grid through stencil node indices clamped to the grid.
    """

    def __init__(self, traj: Trajectory, fields):
        fields = np.asarray(fields)
        self.times = traj.times
        self.time_list = traj.times.tolist()
        self.x0 = float(traj.grid[0])
        self.dx = grid_step(traj.grid)
        self.n = fields.shape[1]
        self.n_fields = fields.shape[2] if fields.ndim == 3 else 1
        self.flat = fields.ravel()

    def cell(self, s: float) -> tuple[int, float]:
        """Output interval m of one time s and the weight w of its end, as
        ``eval`` forms them, in Python numbers."""
        times = self.time_list
        m = min(max(bisect_right(times, s) - 1, 0), len(times) - 2)
        w = (s - times[m]) / (times[m + 1] - times[m])
        return m, min(max(w, 0.0), 1.0)

    def eval(self, s, xq, rows=0) -> np.ndarray:
        """Values of field ``rows`` at the samples (s, xq), all broadcast
        against each other."""
        times = self.times
        m = np.clip(np.searchsorted(times, s, side="right") - 1, 0, len(times) - 2)
        w = np.clip((s - times[m]) / (times[m + 1] - times[m]), 0.0, 1.0)
        return self.at(m, w, xq, rows)

    def at(self, m, w, xq, rows=0) -> np.ndarray:
        """Values of field ``rows`` at positions xq in output interval m, a
        fraction w of the way to its end.

        The four stencil nodes of every position at both ends of the interval
        are one gather, (node, end, ...), and one ``_cubic_lagrange`` call
        forms both ends.  The cell floor(x) is clamped to [-2, n] as a float
        before the nodes i - 1 .. i + 2 are clamped to the grid: the same
        nodes are read, and only those small integers are cast.  A position
        that is not finite reads NaN.
        """
        cells = (xq - self.x0) / self.dx
        floor = np.floor(cells)
        n, k = self.n, self.n_fields
        i = np.fmin(np.fmax(floor, -2.0), n).astype(np.intp)  # NaN goes to -2
        lead = (1,) * np.ndim(i)
        nodes = np.minimum(np.maximum(i + np.arange(-1, 3).reshape((4, 1) + lead), 0), n - 1)
        ends = np.array([0, n * k]).reshape((1, 2) + lead)
        at = nodes * k + ends + (m * (n * k) + rows)
        a0, a1 = _cubic_lagrange(cells - floor, *self.flat[at])
        return np.where(np.isfinite(cells), (1.0 - w) * a0 + w * a1, np.nan)


def trace_many(traj: Trajectory, j, x0s, n_sub: int = 4) -> list[CharPath]:
    """RK2 integration of characteristics from the starts ``x0s``, of one
    family j or of each family of a sequence j.

    All families advance together, as one (family, start) array of
    positions, so each velocity evaluation locates its time once, in Python
    numbers, for every path.  Sub-steps subdivide each output interval so
    the time interpolation of the velocity field stays piecewise smooth
    along the integration.  With constant frames lambda_j is one number per
    family, so the velocity is lambda_j - ddelta(s) at every position and no
    field is interpolated; otherwise lambda_j of every output time is one
    ``_FieldInterp``.  The paths come back family-major, each family's in
    the order of the starts.
    """
    fams = [int(j)] if np.ndim(j) == 0 else [int(f) for f in j]
    x0s = np.atleast_1d(np.asarray(x0s, dtype=float))
    frames0 = traj.frames(0)
    if frames0.constant:
        lam = frames0.lambdas[0, fams][:, None]

        def velocity(s, x):
            return lam - traj.shift.delta_dot(s)
    else:
        field = _FieldInterp(traj, np.stack([traj.frames(i).lambdas[:, fams]
                                             for i in range(traj.n_times)]))
        rows = np.arange(len(fams))[:, None]

        def velocity(s, x):
            return field.at(*field.cell(s), x, rows) - traj.shift.delta_dot(s)

    times = traj.times.tolist()
    n_samples = (len(times) - 1) * n_sub + 1
    ts = np.empty(n_samples)
    Xs = np.empty((n_samples, len(fams), len(x0s)))
    Vs = np.empty_like(Xs)
    s = ts[0] = times[0]
    Xs[0] = x0s
    Vs[0] = velocity(s, Xs[0])
    k = 0
    for m in range(len(times) - 1):
        h = (times[m + 1] - times[m]) / n_sub
        for _ in range(n_sub):
            x = Xs[k]
            v1 = Vs[k]  # velocity(s, x), stored with sample k
            v2 = velocity(s + 0.5 * h, x + 0.5 * h * v1)
            k += 1
            s = ts[k] = s + h
            Xs[k] = x + h * v2
            Vs[k] = velocity(s, Xs[k])
    X_half = float(traj.grid[-1])
    return [CharPath(family=f, x0=float(x0), times=ts.copy(),
                     positions=Xs[:, a, p].copy(), velocities=Vs[:, a, p].copy(),
                     grid_half_width=X_half)
            for a, f in enumerate(fams) for p, x0 in enumerate(x0s)]


def accumulate_H(paths: list[CharPath], traj: Trajectory) -> np.ndarray:
    """Trapezoidal accumulation of the diagonal source along paths of any families.

    ``paths`` share one sample-time vector, as one trace_many call returns
    them; a single path is the list of one.  E_jj of every family
    (``traj.source_series``) is one ``_FieldInterp``, read at every sample
    of every path, each in its own family, in one batch, then integrated by
    one cumulative sum along the samples.  Beyond the grid the integrand
    freezes at the endstate value of the exit side, matching the far-field
    boundary treatment of the dynamics.  Sets each path's ``H`` and returns
    them as a (path, sample) array.
    """
    times = paths[0].times
    if any(not np.array_equal(p.times, times) for p in paths):
        raise InvalidParam("accumulate_H needs paths on shared sample times")
    E = _FieldInterp(traj, traj.source_series.E_diag)
    E_minus, E_plus = traj.endstate_E_diag
    X = paths[0].grid_half_width
    fams = np.array([p.family for p in paths])
    x = np.stack([p.positions for p in paths], axis=1)
    vals = np.where(x < -X, E_minus[fams], np.where(
        x > X, E_plus[fams], E.eval(times[:, None], x, fams)))
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
    C_emp_half: float | None = None
    unbounded: str | None = None    # why C_emp grows with the horizon, if it does


def verify_H_bound(paths: list[CharPath], theta_E: float,
                   source: SourceField | None = None,
                   eps_delta: float = 0.0,
                   compare_horizon: float | None = None,
                   growth_tol: float = 0.25) -> HBoundReport:
    """Empirical constant of the H-estimate over all paths and sampled pairs.

    When ``compare_horizon`` is given, the constant is also computed from the
    samples up to that time; growth beyond ``growth_tol`` (relative, with an
    absolute floor) is reported in ``unbounded``, the signature of a rate
    theta_E larger than the field actually provides.  With the profile's
    transformed ``source`` supplied the report carries the analytic-style
    comparison bound: the integral over its grid of the positive part of
    (steady damping coefficient + theta_E) divided by the slowest
    characteristic speed less ``eps_delta``.  A path whose constant is not
    finite at either horizon (a NaN or infinite H, as a NaN position gives)
    makes its family's constant and the overall one NaN, in any order of
    the paths, and sets ``unbounded`` naming the families.
    """
    family = np.array([p.family for p in paths])
    full = np.array([_c_emp(p, theta_E) for p in paths])
    fams = sorted(set(family.tolist()))
    # np.max keeps a NaN wherever it is; Python's max keeps or drops it by order
    C_emp = {j: float(np.max(full[family == j])) for j in fams}
    overall = float(np.max(full))
    report = HBoundReport(theta_E=theta_E, C_emp=C_emp, C_emp_overall=overall,
                          C_theory={})
    not_finite = ~np.isfinite(full)
    if source is not None:
        speed = max(source.frames.min_abs_lambda - eps_delta, 1e-12)
        for j in fams:
            excess = np.maximum(source.E_diag[:, j] + theta_E, 0.0)
            report.C_theory[j] = float(np.trapezoid(excess, source.grid) / speed)
    if compare_horizon is not None:
        half = np.array([_c_emp(p, theta_E, t_max=compare_horizon) for p in paths])
        C_half = float(np.max(half))
        report.C_emp_half = C_half
        not_finite |= ~np.isfinite(half)
        scale = max(abs(C_half), 0.1 * theta_E * compare_horizon)
        if overall - C_half > growth_tol * scale:
            report.unbounded = (
                f"C_emp grows from {C_half:.4g} to {overall:.4g} across horizons; "
                f"theta_E = {theta_E} exceeds the damping the field provides")
    if not_finite.any():
        bad = sorted(set(family[not_finite].tolist()))
        report.unbounded = (
            f"C_emp is not finite on {int(not_finite.sum())} of the {len(paths)} paths "
            f"(family {', '.join(str(j + 1) for j in bad)})")
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
                      theta_E: float, source: SourceField) -> NoDampingRadius:
    """Smallest grid radius beyond which damping clears -theta_E with margin.

    Requires E_jj(Ubar(x)) + C_tail exp(-theta_tilde |x|) + C_lip eps <= -theta_E
    for all |x| >= R, with E_jj = diag(L Q R): the profile source's damping
    coefficient minus its frame transport, which the tail term covers (zero
    for state-independent A).  C_lip covers state perturbations up to the
    budget: the largest slope of E_jj on a 9^N state-box lattice from one
    ``source_diagonals`` query, where points that are not strictly hyperbolic
    are NaN and drop out.  ``source`` is the profile's transformed source;
    theta_tilde is ``profile.tail_rate(1)``, or 1 for a profile without fits.
    """
    N = model.N
    T_diag = source.transport[:, np.eye(N, dtype=bool)]
    E_pure = source.E_diag - T_diag
    transport = np.max(np.abs(T_diag), axis=1)
    theta_tilde = profile.tail_rate(1) if profile.decay_fits else 1.0
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
    """Post-hoc sup of E_jj (``traj.source_series``) over |x| >= R along a trajectory.

    On the ascending grid the nodes with |x| >= R are two slices, x <= -R and
    x >= R, found by ``searchsorted``; the two slice maxima over every output
    time and family are joined by ``np.maximum`` (one slice serves when the
    two meet, at R <= 0).  A NaN of E_jj there makes the sup NaN.  Either
    sign of a zero sup may come out when both +0 and -0 attain it, as from
    ``np.max`` over any other order of the same values.
    """
    E, grid = traj.source_series.E_diag, traj.grid
    lo = np.searchsorted(grid, -R, side="right")
    hi = np.searchsorted(grid, R, side="left")
    if hi <= lo:
        return float(np.max(E))
    left, right = E[:, :lo], E[:, hi:]
    if left.size and right.size:
        return float(np.maximum(np.max(left), np.max(right)))
    return float(np.max(right if right.size else left))  # no node at all: ValueError


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
