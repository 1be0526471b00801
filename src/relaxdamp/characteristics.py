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

from .dynamics import Trajectory, _cubic_lagrange, grid_step
from .eigenframe import SourceField, source_diagonals
from .errors import EpsilonTooLarge, InvalidParam
from .model import ModelSpec
from .profile import ProfileRep


@dataclass
class CharPaths:
    """Characteristic curves of one ``trace_many`` call, stacked by path.

    Path p is of family ``family[p]`` from ``x0[p]``; the paths are
    family-major, each family's in the order of the starts.  All share the
    sample ``times``; ``positions`` and ``velocities`` are (sample, path)
    views of the tracer's arrays, and ``H`` (sample, path) is the Duhamel
    exponent that ``accumulate_H`` sets.
    """

    family: np.ndarray      # (P,)
    x0: np.ndarray          # (P,)
    times: np.ndarray       # (S,)
    positions: np.ndarray   # (S, P)
    velocities: np.ndarray  # (S, P)
    grid_half_width: float
    H: np.ndarray | None = None  # (S, P)

    def exit_times(self, radius: float | None = None) -> np.ndarray:
        """First sample time of each path with |X| > radius (the grid
        half-width by default); NaN for a path that never leaves."""
        out = np.abs(self.positions) > (self.grid_half_width if radius is None else radius)
        return np.where(out.any(axis=0), self.times[np.argmax(out, axis=0)], np.nan)


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
        self.x0 = float(traj.grid[0])
        self.dx = grid_step(traj.grid)
        self.n = fields.shape[1]
        self.n_fields = fields.shape[2] if fields.ndim == 3 else 1
        self.flat = fields.ravel()

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


def trace_many(traj: Trajectory, j, x0s, n_sub: int = 4) -> CharPaths:
    """RK2 integration of characteristics from the starts ``x0s``, of one
    family j or of each family of a sequence j.

    All families advance together, as one (family, start) array of
    positions, so each velocity evaluation locates its time once for every
    path.  Sub-steps subdivide each output interval so the time
    interpolation of the velocity field stays piecewise smooth along the
    integration.  With constant frames lambda_j is one number per
    family, so the velocity is lambda_j - ddelta(s) at every position and no
    field is interpolated; otherwise lambda_j of every output time is one
    ``_FieldInterp``.  The paths come back as one ``CharPaths``,
    family-major, each family's in the order of the starts.
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
            return field.eval(s, x, rows) - traj.shift.delta_dot(s)

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
    return CharPaths(family=np.repeat(fams, len(x0s)), x0=np.tile(x0s, len(fams)),
                     times=ts, positions=Xs.reshape(n_samples, -1),
                     velocities=Vs.reshape(n_samples, -1),
                     grid_half_width=float(traj.grid[-1]))


def accumulate_H(paths: CharPaths, traj: Trajectory) -> np.ndarray:
    """Trapezoidal accumulation of the diagonal source along paths of any families.

    E_jj of every family (``traj.source_series``) is one ``_FieldInterp``,
    read at every sample of every path, each in its own family, in one
    batch, then integrated by one cumulative sum along the samples.  Beyond
    the grid the integrand freezes at the endstate value of the exit side,
    matching the far-field boundary treatment of the dynamics.  Sets
    ``paths.H`` and returns it, (sample, path).
    """
    E = _FieldInterp(traj, traj.source_series.E_diag)
    E_minus, E_plus = traj.endstate_E_diag
    X, x, fams, times = paths.grid_half_width, paths.positions, paths.family, paths.times
    vals = np.where(x < -X, E_minus[fams], np.where(
        x > X, E_plus[fams], E.eval(times[:, None], x, fams)))
    H = np.zeros(x.shape)
    np.cumsum(0.5 * (vals[1:] + vals[:-1]) * np.diff(times)[:, None], axis=0, out=H[1:])
    paths.H = H
    return H


def _c_emp(paths: CharPaths, theta_E: float, t_max: float | None = None) -> np.ndarray:
    """Per path, max over sampled pairs s <= t of H(t) - H(s) + theta_E (t - s)."""
    if paths.H is None:
        raise InvalidParam("accumulate_H must run before the H-bound")
    mask = slice(None) if t_max is None else paths.times <= t_max + 1e-12
    g = paths.H[mask] + theta_E * paths.times[mask][:, None]
    return np.max(g - np.minimum.accumulate(g, axis=0), axis=0)


@dataclass
class HBoundReport:
    theta_E: float
    C_emp: dict                 # family -> empirical constant
    C_emp_overall: float
    C_theory: dict              # family -> assembled integral bound
    C_emp_half: float | None = None
    unbounded: str | None = None    # why C_emp grows with the horizon, if it does


def verify_H_bound(paths: CharPaths, theta_E: float,
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
    family = paths.family
    full = _c_emp(paths, theta_E)
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
            report.C_theory[j] = float(np.trapezoid(excess, source.frames.grid) / speed)
    if compare_horizon is not None:
        half = _c_emp(paths, theta_E, t_max=compare_horizon)
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
            f"C_emp is not finite on {int(not_finite.sum())} of the {len(family)} paths "
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
