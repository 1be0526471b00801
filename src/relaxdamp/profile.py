"""Stationary shock profiles.

Solves A(U)U_x = q(U) connecting the endstates, either in closed form
(Jin-Xin with quadratic flux reduces to a scalar logistic ODE with a tanh
heteroclinic) or by shooting from the one-dimensional unstable manifold of
the left endstate.  The first and second derivative samples come from the
ODE right-hand side and its exact chain-rule derivative, never from
differencing the grid, so the profile residual stays at rounding level and
the tails stay noise-free.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import InvalidParam, NoConnection, NotApplicable, NoUnstableDirection
from .model import ModelSpec
from .ode import shoot
from .poly import node_matmul, poly_matrix_eval

NOISE_FLOOR = 1e-13
TAIL_FRACTION = 0.5  # decay fits use |x| in [TAIL_FRACTION*X, X]


@dataclass(frozen=True)
class DecayFit:
    """Exponential envelope c * exp(-rate * |x|) fitted to one tail.

    When the tail sits under the noise floor, ``rate`` is only the lower
    bound implied by reaching the floor inside the window and
    ``is_lower_bound`` is set.
    """

    side: str
    order: int
    amplitude: float
    rate: float
    envelope_factor: float  # max(data / fit); ~1 for a clean exponential
    is_lower_bound: bool = False


class _CubicHermite:
    """Piecewise cubic interpolant of samples y (n, ...) with slopes dydx on an
    increasing grid x; the end intervals extrapolate.

    The coefficients and the order of every sum are those of scipy's
    ``CubicHermiteSpline`` and ``PPoly``, so both give the same bits.
    """

    CHUNK = 8192  # points per pass: keeps the temporaries in cache

    def __init__(self, x: np.ndarray, y: np.ndarray, dydx: np.ndarray):
        dx = np.diff(x).reshape((-1,) + (1,) * (y.ndim - 1))
        slope = np.diff(y, axis=0) / dx
        t = (dydx[:-1] + dydx[1:] - 2 * slope) / dx
        self.x = x
        self.positions = np.arange(len(x), dtype=float)
        # c[k, i] multiplies (x - x_i)^(3 - k) on interval i
        self.c = np.stack((t / dx, (slope - dydx[:-1]) / dx - t, dydx[:-1], y[:-1]))
        self.value_shape = y.shape[1:]

    def interval(self, x: np.ndarray) -> np.ndarray:
        """searchsorted(self.x, x, side="right") - 1 clipped to [0, n - 2].

        np.interp finds each point's interval with a search that starts from
        the previous point's, and rounding can only carry its position to the
        next node up, which the comparison takes back.
        """
        i = np.interp(x, self.x, self.positions).astype(np.intp)
        i -= x < self.x[i]
        return np.clip(i, 0, len(self.x) - 2, out=i)

    def __call__(self, x) -> np.ndarray:
        x = np.asarray(x, dtype=float)
        flat = x.ravel()
        width = self.c[0, 0].size
        values = np.empty(len(flat) * width)
        for start in range(0, len(flat), self.CHUNK):
            xs = flat[start:start + self.CHUNK]
            i = self.interval(xs)
            # a fresh row per power, so every product runs along all the values
            c = np.take(self.c, i, axis=1).reshape(4, -1)
            s = np.repeat(xs - self.x[i], width)
            out, c1, c0 = c[2], c[1], c[0]
            out *= s
            out += c[3]
            s2 = s * s
            c1 *= s2
            out += c1
            s2 *= s
            c0 *= s2
            out += c0
            # PPoly sums from +0.0, so it returns +0.0 where this sum is -0.0
            np.add(out, 0.0, out=values[start * width:start * width + out.size])
        return values.reshape(x.shape + self.value_shape)


@dataclass
class ProfileRep:
    """Sampled stationary profile with exact d1, d2 samples and Hermite interpolation."""

    grid: np.ndarray
    values: np.ndarray
    d1: np.ndarray
    d2: np.ndarray
    U_minus: np.ndarray
    U_plus: np.ndarray
    decay_fits: dict = field(default_factory=dict)

    def __post_init__(self):
        self._interp = _CubicHermite(self.grid, self.values, self.d1)
        self._interp_d1 = _CubicHermite(self.grid, self.d1, self.d2)

    @property
    def half_width(self) -> float:
        return float(self.grid[-1])

    def eval(self, x) -> np.ndarray:
        return self._interp(x)

    def eval_d1(self, x) -> np.ndarray:
        return self._interp_d1(x)

    @property
    def endstate_gap(self) -> float:
        return float(max(np.max(np.abs(self.values[0] - self.U_minus)),
                         np.max(np.abs(self.values[-1] - self.U_plus))))

    def decay_fit(self, side: str, order: int) -> DecayFit:
        return self.decay_fits[(side, order)]

    def tail_rate(self, order: int = 1) -> float:
        """The smaller fitted decay rate of the two tails at derivative order
        ``order``; InvalidParam naming the side of a fit that does not decay."""
        rates = [self.decay_fits[(side, order)].rate for side in ("minus", "plus")]
        for side, rate in zip(("minus", "plus"), rates):
            if not rate > 0.0:
                raise InvalidParam(f"decay fit of the {side} tail at order {order} "
                                   f"has rate {rate:.4g} <= 0, which is no decay rate")
        return min(rates)


def ode_rhs(model: ModelSpec, U: np.ndarray) -> np.ndarray:
    """Profile ODE right-hand side g(U) = A(U)^{-1} q(U) at one state U (N,).

    For N = 2 the entries are evaluated on the floats of U, the loop
    ``A_at`` and ``q_at`` run for one state, and ``_solve_2x2`` solves.
    """
    if model.N != 2:
        return np.linalg.solve(model.A_at(U), model.q_at(U))
    u = U.tolist()
    (a11, a12), (a21, a22) = [[p.at(u) for p in row] for row in model.A_entries]
    b1, b2 = [p.at(u) for p in model.q_entries]
    return _solve_2x2(a11, a12, a21, a22, b1, b2)


def _solve_2x2(a11: float, a12: float, a21: float, a22: float,
               b1: float, b2: float) -> np.ndarray:
    """x solving [[a11, a12], [a21, a22]] x = (b1, b2) in LAPACK's order.

    Partial pivoting swaps the rows only if |a21| > |a11|; then l =
    a21 (1/a11), u22 = a22 - l a12, x2 = (b2 - l b1)/u22 and x1 = (b1 -
    a12 x2)/a11.  LAPACK fuses the products l b1 and a12 x2 of the two
    substitutions into multiply-adds, which this rounds apart, so its bits
    are those of ``np.linalg.solve`` whenever both products are exact, as
    when they vanish for a diagonal or an anti-diagonal A, such as the
    [[0, 1], [c^2, 0]] of a Jin-Xin shock at s = 0.  Otherwise they may
    differ in the last bits.
    An exact zero pivot raises LinAlgError, as ``np.linalg.solve`` does.
    """
    if abs(a21) > abs(a11):
        a11, a12, a21, a22, b1, b2 = a21, a22, a11, a12, b2, b1
    if a11 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    l21 = a21 * (1.0 / a11)
    u22 = a22 - l21 * a12
    if u22 == 0.0:
        raise np.linalg.LinAlgError("Singular matrix")
    x2 = (b2 - l21 * b1) / u22
    return np.array([(b1 - a12 * x2) / a11, x2])


def _rhs_and_jacobian(model: ModelSpec, U: np.ndarray):
    """g = A^{-1} q and its exact Jacobian dg at states U of shape (..., N).

    Differentiating A g = q gives dg = A^{-1} (Q - B) with
    B[:, k] = (dA/dU_k) g.  One stacked solve gives g and one gives dg.
    """
    A = model.A_at(U)
    g = np.linalg.solve(A, model.q_at(U)[..., None])[..., 0]
    B = np.stack([(poly_matrix_eval(dAk, U) @ g[..., None])[..., 0]
                  for dAk in model.dA_entries], axis=-1)
    return g, np.linalg.solve(A, model.Q_at(U) - B)


def ode_rhs_jacobian(model: ModelSpec, U: np.ndarray) -> np.ndarray:
    """Exact Jacobian dg of the profile ODE right-hand side."""
    return _rhs_and_jacobian(model, U)[1]


def _derivative_samples(model: ModelSpec, values: np.ndarray):
    """Exact d/dx and d2/dx2 of the profile from the chain rule on g = A^{-1} q."""
    g, dg = _rhs_and_jacobian(model, values)
    d2 = (dg @ g[..., None])[..., 0]
    return np.ascontiguousarray(g), np.ascontiguousarray(d2)


def _flux_degree(flux) -> int:
    deg = -1
    for k, c in enumerate(flux):
        if c != 0.0:
            deg = k
    return deg


def exact_jinxin_profile(model: ModelSpec, grid: np.ndarray) -> ProfileRep:
    """Closed-form tanh profile for Jin-Xin with quadratic flux.

    The reduced scalar ODE eps (a^2 - s^2) u_x = f(u) - s u - vbar factors as
    c2 (u - u_minus)(u - u_plus), whose heteroclinic pinned at the midpoint is
    u(x) = m - D tanh(k x) with m, D the endstate midpoint/half-gap and
    k = c2 D / (eps (a^2 - s^2)).  The second component is v = s u + vbar.
    """
    if model.name != "jinxin" or model.flux_coeffs is None:
        raise NotApplicable("closed form requires the built-in Jin-Xin model")
    flux = model.flux_coeffs
    if _flux_degree(flux) != 2:
        raise NotApplicable("closed form requires a quadratic flux")
    a = model.params["a"]
    eps = model.params["eps"]
    s = model.shock_speed
    u_m, u_p = model.params["u_minus"], model.params["u_plus"]
    c2 = flux[2]

    def fprime(u):
        return sum(k * c * u ** (k - 1) for k, c in enumerate(flux) if k >= 1)

    if abs(fprime(u_m)) >= a or abs(fprime(u_p)) >= a:
        raise NotApplicable("endstates violate the subcharacteristic condition")
    if c2 * (u_m - u_p) <= 0:
        raise NotApplicable("endstates violate the entropy ordering")

    m = 0.5 * (u_m + u_p)
    D = 0.5 * (u_m - u_p)
    k = c2 * D / (eps * (a * a - s * s))
    vbar = model.U_minus[1] - s * u_m

    x = np.asarray(grid, dtype=float)
    th = np.tanh(k * x)
    sech2 = 1.0 / np.cosh(k * x) ** 2
    u = m - D * th
    u1 = -D * k * sech2
    u2 = 2.0 * D * k**2 * sech2 * th

    values = np.stack([u, s * u + vbar], axis=1)
    d1 = np.stack([u1, s * u1], axis=1)
    d2 = np.stack([u2, s * u2], axis=1)
    prof = ProfileRep(grid=x, values=values, d1=d1, d2=d2,
                      U_minus=model.U_minus.copy(), U_plus=model.U_plus.copy())
    _fit_all_orders(prof)
    return prof


def _sample_orbit(xi: np.ndarray, tail, sol) -> np.ndarray:
    """Orbit states at the orbit parameters ``xi``: the linearized ``tail(xi)``
    before the launch (xi < 0), then the dense output of the shot ``sol``."""
    values = np.empty((len(xi), sol.y.shape[0]))
    before = xi < 0.0
    values[before] = tail(xi[before])
    if not np.all(before):  # the dense solution cannot evaluate an empty array
        values[~before] = sol.sol(xi[~before]).T
    return values


def solve_profile(model: ModelSpec, X: float, n: int, tol: float = 1e-8) -> ProfileRep:
    """Shoot along the unstable manifold of U_minus and pin the crossing at x = 0.

    The launch offset is calibrated so the midpoint crossing happens at least
    X units into the orbit; grid points left of the launch fall back to the
    linearized tail U_minus + eta w exp(mu xi).
    """
    if model.U_minus is None or model.U_plus is None:
        raise InvalidParam("model has no endstates to connect")
    if n < 2:
        raise InvalidParam(f"grid size must be >= 2, got {n}")
    U_m, U_p = model.U_minus, model.U_plus
    scale = float(max(1.0, np.max(np.abs(U_p - U_m))))

    J = ode_rhs_jacobian(model, U_m)
    eigvals, eigvecs = np.linalg.eig(J)
    unstable = [i for i in range(model.N)
                if eigvals[i].real > 1e-9 * max(1.0, np.max(np.abs(J)))]
    if len(unstable) != 1 or abs(eigvals[unstable[0]].imag) > 1e-12:
        raise NoUnstableDirection(
            f"linearization at U- has eigenvalues {eigvals}; need exactly one "
            "real unstable direction")
    mu = float(eigvals[unstable[0]].real)
    w = np.real(eigvecs[:, unstable[0]])
    w = w / np.max(np.abs(w))
    if w @ (U_p - U_m) < 0:
        w = -w

    half_gap = 0.5 * abs(U_p[0] - U_m[0])
    eta = half_gap * np.exp(-mu * (X + 10.0))
    eta = float(np.clip(eta, 1e-12 * scale, 1e-6 * scale))
    mid = 0.5 * (U_m[0] + U_p[0])
    direction = np.sign(U_p[0] - U_m[0])

    lo, hi = model.state_box
    center = 0.5 * (lo + hi)
    radius = 0.5 * np.max(hi - lo)

    # Approach rate at U+ sets how far past the grid the connection check runs.
    J_p = ode_rhs_jacobian(model, U_p)
    stable = np.array([ev.real for ev in np.linalg.eig(J_p)[0] if ev.real < -1e-12])
    rate_p = float(-stable.max()) if stable.size else mu

    def connection_check(xi_star):
        return xi_star + X + np.log(scale / tol) / rate_p + 10.0

    def rhs(_xi, y):
        return ode_rhs(model, y)

    def crossing(_xi, y):
        return y[0] - mid
    crossing.direction = direction

    def diverged(_xi, y):
        return np.max(np.abs(y - center)) - 3.0 * radius
    diverged.terminal = True

    def until(t_events):
        return connection_check(t_events[0][0]) if t_events[0] else np.inf

    # The shot ends after the step that reaches the connection check; every
    # step up to there is the step of a shot to xi_max.
    xi_max = 4.0 * (X + np.log(scale / eta) / mu + 50.0)
    sol = shoot(rhs, (0.0, xi_max), U_m + eta * w, rtol=tol / 10.0,
                atol=tol * 1e-4 * scale, events=[crossing, diverged], until=until)
    if sol.t_events[1].size > 0:
        raise NoConnection("orbit left the admissible region before the midpoint crossing")
    if sol.t_events[0].size == 0:
        raise NoConnection("orbit never crossed the endstate midpoint")
    xi_star = float(sol.t_events[0][0])
    xi_end = connection_check(xi_star)

    if sol.t[-1] < xi_end:
        raise NoConnection(f"shot ended at xi = {sol.t[-1]:.6g} before the connection "
                           f"check at {xi_end:.6g}: {sol.message}")
    miss = np.max(np.abs(sol.sol(xi_end) - U_p))
    if miss > tol:
        raise NoConnection(f"orbit misses U+ by {miss:.3e} (tol {tol:.1e})")

    grid = np.linspace(-X, X, n)
    values = _sample_orbit(xi_star + grid,
                           lambda xi: U_m + eta * w * np.exp(mu * xi)[:, None], sol)
    d1, d2 = _derivative_samples(model, values)
    prof = ProfileRep(grid=grid, values=values, d1=d1, d2=d2,
                      U_minus=U_m.copy(), U_plus=U_p.copy())
    _fit_all_orders(prof)
    return prof


def constant_profile(model: ModelSpec, U0, X: float, n: int) -> ProfileRep:
    """Synthetic constant profile at an equilibrium state (for decoupled tests)."""
    U0 = np.asarray(U0, dtype=float)
    grid = np.linspace(-X, X, n)
    values = np.tile(U0, (n, 1))
    zeros = np.zeros_like(values)
    return ProfileRep(grid=grid, values=values, d1=zeros, d2=zeros.copy(),
                      U_minus=U0.copy(), U_plus=U0.copy())


def fit_decay(profile: ProfileRep, k: int) -> dict:
    """Least-squares exponential fit of tail decay for derivative order k.

    Fits log|d^k(U - U_end)| against |x| on each tail and returns one
    DecayFit per side.  A tail already under the noise floor gets a fit of
    amplitude NOISE_FLOOR flagged ``is_lower_bound``, whose rate is the
    lower bound implied by hitting the floor inside the window; the other
    side keeps its own fit.
    """
    if k > 2 or k < 0:
        raise InvalidParam(f"derivative order must be 0, 1, or 2, got {k}")
    x = profile.grid
    X = profile.half_width
    fits = {}
    for side, mask, U_end in (
        ("minus", x <= -TAIL_FRACTION * X, profile.U_minus),
        ("plus", x >= TAIL_FRACTION * X, profile.U_plus),
    ):
        if k == 0:
            dev_full = profile.values - U_end
        elif k == 1:
            dev_full = profile.d1
        else:
            dev_full = profile.d2
        data_full = np.max(np.abs(dev_full), axis=1)
        data = data_full[mask]
        ax = np.abs(x[mask])
        if data.max() < NOISE_FLOOR:
            scale = float(data_full.max())
            bound = 0.0 if scale <= NOISE_FLOOR else \
                float(np.log(scale / NOISE_FLOOR) / (TAIL_FRACTION * X))
            fits[side] = DecayFit(side=side, order=k, amplitude=NOISE_FLOOR, rate=bound,
                                  envelope_factor=1.0, is_lower_bound=True)
            continue
        keep = data > NOISE_FLOOR
        coeffs = np.polyfit(ax[keep], np.log(data[keep]), 1)
        rate = -float(coeffs[0])
        amp = float(np.exp(coeffs[1]))
        envelope = float(np.max(data[keep] / (amp * np.exp(-rate * ax[keep]))))
        fits[side] = DecayFit(side=side, order=k, amplitude=amp, rate=rate,
                              envelope_factor=envelope)
    return fits


def _fit_all_orders(profile: ProfileRep) -> None:
    for k in range(3):
        for side, fit in fit_decay(profile, k).items():
            profile.decay_fits[(side, k)] = fit


def residual(profile: ProfileRep, model: ModelSpec) -> float:
    """Discrete sup over grid nodes of |A(U) U_x - q(U)|."""
    A = model.A_at(profile.values)
    q = model.q_at(profile.values)
    r = node_matmul(A, profile.d1) - q
    return float(np.max(np.abs(r)))
