"""Evolution of the shifted perturbation about the profile.

The state evolved is the perturbation U(t, x) = Utilde(t, x + delta(t)) -
Ubar(x), which satisfies

    U_t + (A(Ubar + U) - ddelta) U_x
        = [q(Ubar + U) - q(Ubar)] - [A(Ubar + U) - A(Ubar)] Ubar_x + ddelta Ubar_x.

The right-hand side is evaluated in this subtracted form so U = 0 is an exact
discrete equilibrium.  Two independent backends advance it: a first-order
characteristic-upwind scheme ("reference") and a semi-Lagrangian scheme that
integrates the diagonalized system along characteristics with a one-step
Duhamel update ("moc").  Both evaluate it through ``Stepper.source`` and
extend fields beyond the grid by the evolving boundary states.  The two
outermost nodes and the two boundary states are advanced together, as one
four-row explicit midpoint by the source alone: the boundary states are
perturbations of the far-field states, where Ubar_x = 0.

When A is constant every node of family j moves at the same speed
c_j = lambda_j - ddelta(t), so the moc foot sits at one offset s_j = -c_j dt /
dx (in cells) from every node: the standard fixed-stencil semi-Lagrangian
step (Staniforth & Cote, Mon. Wea. Rev. 119, 1991).  The step forms Phi, E and
G family-major, as (N, n) arrays with one row per family, and writes each
once into an edge-padded buffer whose row j starts at column 1 - floor(s_j).
The 4-point cubic Lagrange stencil for Phi and the 2-point stencils for E (at
s) and G (at s / 2) are then 4 + 2 + 2 slices over all families at once.
The offsets, the stencil weights, the speeds and their CFL check depend only
on (dt, ddelta), and are formed once per pair.  A state-dependent A keeps
per-node interpolation at each foot.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .eigenframe import (
    FrameField,
    SourceField,
    endstate_diagonals,
    frames_at_states,
    transformed_source,
)
from .errors import BlowUp, BudgetExceeded, CFLViolation, InvalidParam
from .model import ModelSpec
from .profile import ProfileRep

BUDGET_DEFAULT = 0.02
BLOWUP_FACTOR = 10.0
CFL_LIMIT = 0.9


# --- prescribed phase shift ------------------------------------------------

@dataclass(frozen=True)
class ShiftSpec:
    """Prescribed shock-location shift delta(t) with delta(0) = 0."""

    kind: str = "zero"          # zero | linear | sinusoid
    rate: float = 0.0           # linear: delta = rate * t
    amplitude: float = 0.0      # sinusoid: delta = amplitude * sin(2 pi f t)
    frequency: float = 0.0

    def __post_init__(self):
        if self.kind not in ("zero", "linear", "sinusoid"):
            raise InvalidParam(f"unknown shift kind {self.kind!r}")

    @property
    def eps_delta(self) -> float:
        """Derivative bound sup_t |ddelta(t)|."""
        if self.kind == "zero":
            return 0.0
        if self.kind == "linear":
            return abs(self.rate)
        return abs(2.0 * math.pi * self.frequency * self.amplitude)

    def delta(self, t):
        if self.kind == "zero":
            return np.zeros_like(np.asarray(t, dtype=float))
        if self.kind == "linear":
            return self.rate * np.asarray(t, dtype=float)
        return self.amplitude * np.sin(2.0 * math.pi * self.frequency * np.asarray(t, dtype=float))

    def delta_dot(self, t):
        """ddelta at times t: a float for a float t, else an array shaped like t."""
        scalar = isinstance(t, float)
        if not scalar:
            t = np.asarray(t, dtype=float)
        if self.kind == "zero":
            return 0.0 if scalar else np.zeros_like(t)
        if self.kind == "linear":
            return float(self.rate) if scalar else np.full_like(t, self.rate)
        w = 2.0 * math.pi * self.frequency
        dd = self.amplitude * w * np.cos(w * t)
        return float(dd) if scalar else dd


# --- initial perturbations -------------------------------------------------

@dataclass(frozen=True)
class PerturbationSpec:
    """Initial perturbation shapes with analytic derivatives.

    gaussian:          amplitude * exp(-(x - center)^2 / (2 width^2)) * direction
    offset:            d_minus + (d_plus - d_minus) * (1 + tanh(x / blend_width)) / 2
                       (nonlocalised; boundary states start at d_minus / d_plus)
    shift_difference:  Ubar(x + h) - Ubar(x)

    A gaussian with no explicit direction drives the last state component,
    the relaxing family in Jin-Xin-like systems: that keeps the conserved
    first-component mass at zero, so none of the perturbation feeds the
    translation mode that the prescribed (untracked) shift cannot absorb.
    """

    kind: str
    amplitude: float = 0.0
    width: float = 1.0
    center: float = 0.0
    direction: tuple | None = None
    d_minus: tuple = ()
    d_plus: tuple = ()
    blend_width: float = 2.0
    h: float = 0.0

    def __post_init__(self):
        if self.kind not in ("gaussian", "offset", "shift_difference", "zero"):
            raise InvalidParam(f"unknown perturbation kind {self.kind!r}")
        if self.kind == "gaussian" and self.width <= 0:
            raise InvalidParam("gaussian width must be positive")
        if self.kind == "offset" and self.blend_width <= 0:
            raise InvalidParam("offset blend width must be positive")

    def sample(self, profile: ProfileRep, grid: np.ndarray):
        """Return (U0, W0, b_left, b_right) on the grid, W0 analytic."""
        x = np.asarray(grid, dtype=float)
        N = profile.values.shape[1]
        if self.kind == "zero":
            U0 = np.zeros((len(x), N))
            return U0, np.zeros_like(U0), np.zeros(N), np.zeros(N)
        if self.kind == "gaussian":
            direction = np.zeros(N)
            if self.direction is None:
                direction[-1] = 1.0
            else:
                direction[:] = np.asarray(self.direction, dtype=float)
            z = (x - self.center) / self.width
            g = self.amplitude * np.exp(-0.5 * z * z)
            gx = -g * z / self.width
            return (g[:, None] * direction, gx[:, None] * direction,
                    np.zeros(N), np.zeros(N))
        if self.kind == "offset":
            dm = np.asarray(self.d_minus, dtype=float)
            dp = np.asarray(self.d_plus, dtype=float)
            if dm.shape != (N,) or dp.shape != (N,):
                raise InvalidParam("offset endsets must have one entry per component")
            sig = 0.5 * (1.0 + np.tanh(x / self.blend_width))
            sigx = 0.5 / (self.blend_width * np.cosh(x / self.blend_width) ** 2)
            U0 = dm[None, :] + sig[:, None] * (dp - dm)[None, :]
            W0 = sigx[:, None] * (dp - dm)[None, :]
            return U0, W0, dm.copy(), dp.copy()
        # shift_difference
        U0 = profile.eval(x + self.h) - profile.eval(x)
        W0 = profile.eval_d1(x + self.h) - profile.eval_d1(x)
        return U0, W0, np.zeros(N), np.zeros(N)


# --- snapshots and trajectories --------------------------------------------

class Snapshot:
    """Fields at one time.

    ``W``, the spatial derivative of U, is either given (the analytic
    derivative of the initial data) or formed by fourth-order differencing
    with the boundary states on first read, so the steps between output
    times never compute it.  ``Y``, the second derivative, is likewise
    formed once, on first read.
    """

    def __init__(self, t: float, grid: np.ndarray, U: np.ndarray,
                 b_left: np.ndarray, b_right: np.ndarray,
                 W: np.ndarray | None = None):
        self.t = t
        self.grid = grid
        self.U = U
        self.b_left = b_left
        self.b_right = b_right
        if W is not None:
            self.W = W

    @cached_property
    def W(self) -> np.ndarray:
        dx = float(self.grid[1] - self.grid[0])
        return fd4_derivative(self.U, dx, self.b_left, self.b_right)

    @cached_property
    def Y(self) -> np.ndarray:
        """Second derivative: fourth-order differencing of W, extended by zero beyond the grid."""
        dx = float(self.grid[1] - self.grid[0])
        zero = np.zeros_like(self.b_left)
        return fd4_derivative(self.W, dx, zero, zero)


def fd4_derivative(F: np.ndarray, dx: float, left: np.ndarray,
                   right: np.ndarray) -> np.ndarray:
    """Fourth-order centered derivative with flat boundary-state extension."""
    pad = _edge_pad(np.asarray(F, dtype=float), 2, left, right)
    return (-pad[4:] + 8.0 * pad[3:-1] - 8.0 * pad[1:-3] + pad[:-4]) / (12.0 * dx)


@dataclass
class Trajectory:
    """Stored output of one evolution run."""

    model: ModelSpec
    profile: ProfileRep
    shift: ShiftSpec
    backend: str
    grid: np.ndarray
    times: np.ndarray
    states: np.ndarray          # (n_out+1, n, N)
    b_left: np.ndarray          # (n_out+1, N)
    b_right: np.ndarray         # (n_out+1, N)
    dt: float
    cfl_observed: float
    budget: float
    budget_violation_time: float | None = None
    _source_cache: dict = field(default_factory=dict, repr=False)
    _frame_cache: dict = field(default_factory=dict, repr=False)
    _norm_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def n_times(self) -> int:
        return len(self.times)

    def snapshot(self, i: int) -> Snapshot:
        return Snapshot(t=float(self.times[i]), grid=self.grid, U=self.states[i],
                        b_left=self.b_left[i], b_right=self.b_right[i])

    def perturbed_states(self, i: int) -> np.ndarray:
        return self.stepper.Ubar + self.states[i]

    def frames(self, i: int) -> FrameField:
        if self.model.A_is_constant:
            i = 0
        if i not in self._frame_cache:
            self._frame_cache[i] = frames_at_states(
                self.model, self.grid, self.perturbed_states(i))
        return self._frame_cache[i]

    @cached_property
    def stepper(self) -> "Stepper":
        """The stepper of this trajectory's grid, for the profile there and its
        forcing fields: the one ``evolve`` ran, or built once on first use."""
        return Stepper(self.model, self.profile, self.grid, self.shift, self.budget)

    @cached_property
    def endstate_E_diag(self) -> tuple[np.ndarray, np.ndarray]:
        """Diagonal transformed source at U- and U+ (computed once)."""
        return tuple(endstate_diagonals(self.model)[1])

    def source_field(self, i: int) -> SourceField:
        """Transformed source at output time i (cached)."""
        if i not in self._source_cache:
            self._source_cache[i] = transformed_source(
                self.model, self.grid, self.perturbed_states(i),
                frames=self.frames(i))
        return self._source_cache[i]


def make_initial(profile: ProfileRep, pert: PerturbationSpec,
                 grid: np.ndarray | None = None,
                 budget: float = BUDGET_DEFAULT) -> Snapshot:
    """Sample the perturbation and enforce the C^1 smallness budget."""
    x = profile.grid if grid is None else np.asarray(grid, dtype=float)
    U0, W0, bl, br = pert.sample(profile, x)
    c1 = float(np.maximum(np.max(np.abs(U0)), np.max(np.abs(W0))))
    if not c1 <= budget:  # non-finite data exceed it too
        raise BudgetExceeded(
            f"initial C^1 norm {c1:.3e} exceeds budget {budget:.3e}",
            measured=c1, budget=budget)
    return Snapshot(t=0.0, grid=x, U=U0, b_left=bl, b_right=br, W=W0)


# --- interpolation on a uniform grid ---------------------------------------

def _edge_pad(f: np.ndarray, width: int, fill_left, fill_right) -> np.ndarray:
    """f (n,) or (n, N) with ``width`` copies of the fill values added at each end."""
    pad = np.empty((len(f) + 2 * width,) + f.shape[1:])
    pad[width:-width] = f
    pad[:width] = fill_left
    pad[-width:] = fill_right
    return pad


def _cubic_weights(t):
    """Weights of the cubic Lagrange interpolant through nodes -1, 0, 1, 2 at t."""
    return (-t * (t - 1.0) * (t - 2.0) / 6.0,
            (t * t - 1.0) * (t - 2.0) / 2.0,
            -t * (t + 1.0) * (t - 2.0) / 2.0,
            t * (t * t - 1.0) / 6.0)


def _cubic_lagrange(t, fm1, f0, f1, f2):
    """Cubic Lagrange interpolant through nodes -1, 0, 1, 2, evaluated at t."""
    wm1, w0, w1, w2 = _cubic_weights(t)
    return wm1 * fm1 + w0 * f0 + w1 * f1 + w2 * f2


def _cubic_at(pad: np.ndarray, s: np.ndarray, rows: tuple = ()) -> np.ndarray:
    """Cubic Lagrange interpolation at cell positions s of width-2 edge-padded data.

    ``pad`` is one padded field (n + 4,) or a stack of them (k, n + 4); for a
    stack, ``rows`` holds the row index of each position, broadcast against s.
    Positions beyond the grid read the padding, a flat extension.
    """
    n = pad.shape[-1] - 4
    i = np.floor(s).astype(int)
    t = s - i
    idx = np.clip(i, -2, n + 1) + 2  # into pad, stencil at idx-1 .. idx+2
    return _cubic_lagrange(t, *(pad[rows + (np.clip(idx + k, 0, n + 3),)]
                                for k in (-1, 0, 1, 2)))


def grid_step(grid: np.ndarray) -> float:
    """Step of a uniform grid as ``np.linspace`` forms it, (x_last - x_0) / (n - 1).

    A point located as (x - x_0) / step lands in its cell up to the rounding
    of x alone; grid[1] - grid[0] carries the rounding of x_1, which grows
    with the node index (6.3e-10 cells at the end of 4001 nodes on [-40, 40]).
    """
    return float(grid[-1] - grid[0]) / (len(grid) - 1)


def _cubic_interp(f: np.ndarray, cells: np.ndarray, fill_left: float,
                  fill_right: float) -> np.ndarray:
    """Cubic Lagrange interpolation at cell positions (node k at k), flat beyond the grid."""
    return _cubic_at(_edge_pad(f, 2, fill_left, fill_right), cells)


def _linear_interp(f: np.ndarray, cells: np.ndarray, fill_left: float,
                   fill_right: float) -> np.ndarray:
    """Linear interpolation at cell positions (node k at k), flat beyond the grid."""
    n = len(f)
    i = np.floor(cells).astype(int)
    t = cells - i
    pad = _edge_pad(f, 1, fill_left, fill_right)
    idx = np.clip(i + 1, 0, n)
    nxt = np.clip(i + 2, 1, n + 1)
    out = (1.0 - t) * pad[idx] + t * pad[nxt]
    out[cells < -1.0] = fill_left
    out[cells > n] = fill_right
    return out


def _foot_stencil(s: np.ndarray):
    """``_cubic_interp`` and ``_linear_interp`` at x_k + s_j dx as fixed stencils,
    for offsets -1 < s_j < 1 cells: (offsets, cubic, foot, mid).

    Row j of a pad holds node 0 of family j at column ``offsets[j]`` =
    1 - floor(s_j), so every family's stencil points are the same columns:
    columns k .. k + n - 1 for cubic weight k (nodes -1 .. 2 about the foot's
    cell), 1 + k .. n + k for linear weight k at s (``foot``) and at s / 2
    (``mid``, in the same cell as s).  Weights are (N, 1) columns.
    """
    m = np.floor(s)
    t = (s - m)[:, None]
    half = (0.5 * s)[:, None]
    t_mid = half - np.floor(half)
    return (tuple(int(o) for o in 1 - m), _cubic_weights(t), (1.0 - t, t),
            (1.0 - t_mid, t_mid))


class _Speeds:
    """Shifted speeds c = lambda - ddelta of a constant frame at one (dt, ddelta),
    CFL-checked when made; the moc step's foot stencils are formed on first read."""

    def __init__(self, dt: float, dd: float, c: np.ndarray, dx: float):
        self.key = (dt, dd)
        self.c = c
        self._s = -c * dt / dx

    @cached_property
    def stencil(self) -> tuple:
        return _foot_stencil(self._s)


# --- stepping --------------------------------------------------------------

@dataclass(frozen=True)
class _Base:
    """Rows a perturbation is taken about: the states U, their x-derivative
    U_x, and q and A there (A is None when it is constant, where the source
    has no dA term)."""

    U: np.ndarray
    U_x: np.ndarray
    q: np.ndarray
    A: np.ndarray | None

    @classmethod
    def at(cls, model: ModelSpec, U: np.ndarray, U_x: np.ndarray) -> "_Base":
        A = None if model.A_is_constant else model.A_at(U)
        return cls(U=U, U_x=U_x, q=model.q_at(U), A=A)


class Stepper:
    """Shared machinery for both backends on a fixed grid."""

    def __init__(self, model: ModelSpec, profile: ProfileRep, grid: np.ndarray,
                 shift: ShiftSpec, budget: float = BUDGET_DEFAULT):
        self.model = model
        self.profile = profile
        self.shift = shift
        self.budget = budget
        self.grid = np.asarray(grid, dtype=float)
        self.dx = float(self.grid[1] - self.grid[0])
        self.Ubar = profile.eval(self.grid)
        Ubar_x = profile.eval_d1(self.grid)
        self.about_profile = _Base.at(model, self.Ubar, Ubar_x)
        # The edge nodes and the boundary states, which perturb the far-field
        # states; Ubar_x = 0 at the far field.
        far = np.stack([
            model.U_minus if model.U_minus is not None else self.Ubar[0],
            model.U_plus if model.U_plus is not None else self.Ubar[-1]])
        self.about_boundary = _Base.at(
            model, np.concatenate([self.Ubar[[0, -1]], far]),
            np.concatenate([Ubar_x[[0, -1]], np.zeros_like(far)]))
        self.frames0 = None
        if model.A_is_constant:
            self.frames0 = frames_at_states(model, self.grid, self.Ubar)
            # edge-padded Phi, E and G rows of the fixed-stencil moc step
            self._pads = np.empty((3, model.N, len(self.grid) + 3))
        self._speeds = None
        self.last_cfl = 0.0

    def source(self, Ut: np.ndarray, t: float, about: _Base | None = None) -> np.ndarray:
        """Perturbation-form source at the full states Ut, taken about the rows
        ``about`` (the profile at every node by default); zero at Ut = about.U
        by construction."""
        about = self.about_profile if about is None else about
        S = self.model.q_at(Ut) - about.q
        if about.A is not None:
            S -= np.einsum("nij,nj->ni", self.model.A_at(Ut) - about.A, about.U_x)
        dd = float(self.shift.delta_dot(t))
        if dd != 0.0:
            S = S + dd * about.U_x
        return S

    def forcing(self, U: np.ndarray, Ut: np.ndarray, t: float, frames: FrameField,
                E: np.ndarray, transport: np.ndarray | None = None):
        """Diagonal field Phi = L U and its Duhamel forcing G = L S - E Phi + T Phi.

        Along a family-j characteristic d/ds Phi_j = E_jj Phi_j + G_j.  Phi, G
        and the damping exponent ``E`` are family-major, (N, n) with one row
        per family; S is the source at the full states ``Ut`` = Ubar + U and T
        the frame transport (None for constant frames, where it is zero).
        """
        Phi = frames.diag_rows(U)
        G = frames.diag_rows(self.source(Ut, t))
        G -= E * Phi
        if transport is not None:
            G += np.einsum("njk,nk->nj", transport, Phi.T).T
        return Phi, G

    def _ode_node_update(self, V: np.ndarray, t: float, dt: float,
                         about: _Base) -> np.ndarray:
        """Explicit-midpoint update of perturbations V of the rows ``about`` by
        the source alone (no advection).

        about.U + (V + (dt / 2) k1) and V + dt k2 are formed in place, in that
        order of operations.
        """
        k1 = self.source(about.U + V, t, about)
        k1 *= 0.5 * dt
        k1 += V
        k1 += about.U
        k2 = self.source(k1, t + 0.5 * dt, about)
        k2 *= dt
        k2 += V
        return k2

    def _advance_boundary(self, snap: Snapshot, dt: float) -> np.ndarray:
        """U[0], U[-1], b_left and b_right one step on, as four rows.

        One ``_ode_node_update`` advances the two edge nodes and the two
        boundary states together.  At the far field Ubar_x = 0, so there the
        dA and ddelta terms are exact zeros and b' = q(base + b) - q(base).
        """
        V = np.array((snap.U[0], snap.U[-1], snap.b_left, snap.b_right))
        return self._ode_node_update(V, snap.t, dt, self.about_boundary)

    def _frames(self, Ut: np.ndarray) -> FrameField:
        if self.frames0 is not None:
            return self.frames0
        return frames_at_states(self.model, self.grid, Ut)

    def _check_cfl(self, c: np.ndarray, dt: float, t: float) -> None:
        """CFLViolation naming t, family and node x when max |c| dt / dx exceeds
        the limit; c is per node (n, N) or one speed per family (N,)."""
        cfl = float(np.max(np.abs(c))) * dt / self.dx
        self.last_cfl = max(self.last_cfl, cfl)
        if cfl > CFL_LIMIT:
            worst = np.unravel_index(np.argmax(np.abs(c)), c.shape)
            where = f"x = {self.grid[worst[0]]:.6g}, " if c.ndim == 2 else ""
            raise CFLViolation(f"CFL number {cfl:.3f} exceeds {CFL_LIMIT} at "
                               f"t = {t:.6g} ({where}family {worst[-1] + 1})")

    def _begin(self, snap: Snapshot, dt: float):
        """Frames at the perturbed state and CFL-checked shifted speeds (Ut, frames, c).

        c is lambda - ddelta per node (n, N), or one speed per family (N,)
        when the frames are constant; those speeds and their check are formed
        once per (dt, ddelta) and kept as ``self._speeds``.
        """
        Ut = self.Ubar + snap.U
        frames = self._frames(Ut)
        dd = self.shift.delta_dot(snap.t)
        if not frames.constant:
            c = frames.lambdas - dd
            self._check_cfl(c, dt, snap.t)
            return Ut, frames, c
        if self._speeds is None or self._speeds.key != (dt, dd):
            c = frames.lambdas[0] - dd
            self._check_cfl(c, dt, snap.t)
            self._speeds = _Speeds(dt, dd, c, self.dx)
        return Ut, frames, self._speeds.c

    def _finish(self, snap: Snapshot, dt: float, U_new: np.ndarray) -> Snapshot:
        """Boundary rows and blow-up guard.

        The edge rows of U_new and the new boundary states come from one
        four-row explicit midpoint by the source alone (``_advance_boundary``).
        A non-finite U_new fails the guard as well.
        """
        rows = self._advance_boundary(snap, dt)
        U_new[0], U_new[-1] = rows[0], rows[1]
        amp = float(np.max(np.abs(U_new)))
        if not amp <= BLOWUP_FACTOR * self.budget:
            raise BlowUp(f"|U| = {amp:.3e} left the small-data regime "
                         f"(budget {self.budget:.3e})")
        return Snapshot(t=snap.t + dt, grid=snap.grid, U=U_new,
                        b_left=rows[2], b_right=rows[3])

    def step_reference(self, snap: Snapshot, dt: float) -> Snapshot:
        """First-order characteristic-upwind step with midpoint source.

        Both one-sided differences of every node come from the n + 1
        differences of U padded by the boundary states, diagonalized by the
        frame of that node.
        """
        Ut, frames, c = self._begin(snap, dt)
        U, t = snap.U, snap.t
        pad = _edge_pad(U, 1, snap.b_left, snap.b_right)
        D = (pad[1:] - pad[:-1]) / self.dx
        phi_m, phi_p = frames.to_diag(D[:-1]), frames.to_diag(D[1:])
        adv = frames.from_diag(c * np.where(c > 0.0, phi_m, phi_p))
        adv[0] = 0.0
        adv[-1] = 0.0

        U_half = U + 0.5 * dt * (-adv + self.source(Ut, t))
        U_new = U - dt * adv + dt * self.source(self.Ubar + U_half, t + 0.5 * dt)
        return self._finish(snap, dt, U_new)

    def _foot_values(self, c: np.ndarray, dt: float, phi: np.ndarray, e: np.ndarray,
                     g: np.ndarray, phi_left: float, phi_right: float):
        """One family's Phi and E at the characteristic foot and G at the segment
        midpoint, for per-node speeds c (n,).

        The foot is traced per node with a midpoint correction and
        interpolated there, located in cells as the node index k plus its
        offset -c dt / dx.
        """
        k = np.arange(len(self.grid), dtype=float)
        c_mid = _linear_interp(c, k - 0.5 * (c * dt / self.dx), c[0], c[-1])
        foot = k - c_mid * dt / self.dx
        Ef = _linear_interp(e, foot, e[0], e[-1])
        Gm = _linear_interp(g, 0.5 * (k + foot), g[0], g[-1])
        Phif = _cubic_interp(phi, foot, float(phi_left), float(phi_right))
        return Phif, Ef, Gm

    def _stencil_feet(self, stencil: tuple, Phi: np.ndarray, E: np.ndarray,
                      G: np.ndarray, phi_left: np.ndarray, phi_right: np.ndarray):
        """Phi and E at the feet and G at the segment midpoints of every family,
        from family-major (N, n) fields, through the ``_foot_stencil`` given.

        Each field is written once into its pad, flat beyond the grid: Phi
        with the diagonal boundary states, E and G with their edge values.
        """
        offsets, (wm1, w0, w1, w2), foot, mid = stencil
        n = Phi.shape[1]
        for pad, F, left, right in zip(self._pads, (Phi, E, G),
                                       (phi_left, E[:, 0], G[:, 0]),
                                       (phi_right, E[:, -1], G[:, -1])):
            pad[:, :2] = left[:, None]
            pad[:, n + 1:] = right[:, None]
            for row, F_row, o in zip(pad, F, offsets):
                row[o:o + n] = F_row
        P, Ep, Gp = self._pads
        Phif = wm1 * P[:, :n]
        Phif += w0 * P[:, 1:n + 1]
        Phif += w1 * P[:, 2:n + 2]
        Phif += w2 * P[:, 3:]
        Ef = foot[0] * Ep[:, 1:n + 1]
        Ef += foot[1] * Ep[:, 2:n + 2]
        Gm = mid[0] * Gp[:, 1:n + 1]
        Gm += mid[1] * Gp[:, 2:n + 2]
        return Phif, Ef, Gm

    def step_moc(self, snap: Snapshot, dt: float) -> Snapshot:
        """Semi-Lagrangian step: cubic foot interpolation and one-step Duhamel.

        The diagonal variable Phi = L U, its damping exponent E and its
        forcing G are family-major, (N, n) arrays with one row per family.
        Phi is interpolated at the foot of each node's characteristic, and
        the damping exponent uses the trapezoid of E along the segment with G
        applied at the midpoint, for all families at once.  For constant A
        the step forms only E = diag(L0 Q R0) of the transformed source
        (``FrameField.conjugate_diag``); the foot is one offset per family and
        the interpolations are the fixed stencils of ``_stencil_feet``, formed
        once per (dt, ddelta).  For state-dependent A the transformed source
        supplies E and the frame transport, and each family's foot is traced
        per node with a midpoint correction (``_foot_values``).
        """
        Ut, frames, c = self._begin(snap, dt)
        if frames.constant:
            E, transport = frames.conjugate_diag(self.model.Q_at(Ut)), None
        else:
            sf = transformed_source(self.model, self.grid, Ut, frames=frames,
                                    with_theta=False)
            E, transport = sf.E_diag.T, sf.transport
        Phi, G = self.forcing(snap.U, Ut, snap.t, frames, E, transport)

        phi_bl = frames.L[0] @ snap.b_left
        phi_br = frames.L[-1] @ snap.b_right
        if frames.constant:
            Phif, Ef, Gm = self._stencil_feet(self._speeds.stencil, Phi, E, G,
                                              phi_bl, phi_br)
        else:
            Phif, Ef, Gm = (np.empty(Phi.shape) for _ in range(3))
            for j in range(len(Phi)):
                Phif[j], Ef[j], Gm[j] = self._foot_values(
                    c[:, j], dt, Phi[j], E[j], G[j], phi_bl[j], phi_br[j])
        # Phi_new = exp(h) Phif + (dt exp(h / 2)) Gm with h = dt (Ef + E) / 2, in place
        h = Ef
        h += E
        h *= 0.5 * dt
        Phi_new = np.exp(h)
        Phi_new *= Phif
        h *= 0.5
        np.exp(h, out=h)
        h *= dt
        h *= Gm
        Phi_new += h
        return self._finish(snap, dt, frames.from_diag(Phi_new.T))

    def step(self, snap: Snapshot, dt: float, backend: str) -> Snapshot:
        if backend == "reference":
            return self.step_reference(snap, dt)
        if backend == "moc":
            return self.step_moc(snap, dt)
        raise InvalidParam(f"unknown backend {backend!r}")


def evolve(model: ModelSpec, profile: ProfileRep, pert: PerturbationSpec,
           shift: ShiftSpec, T: float, backend: str = "moc",
           dx: float = 0.02, cfl: float = 0.45, n_out: int = 200,
           budget: float = BUDGET_DEFAULT,
           X: float | None = None) -> Trajectory:
    """Advance the perturbation to time T, storing n_out + 1 snapshots.

    The time step divides the output spacing exactly so runs at different
    resolutions share output times.  The C^1 budget check runs at output
    times, the only times W is formed, and flags its first violation in the
    trajectory instead of aborting.
    """
    if T <= 0:
        raise InvalidParam("horizon T must be positive")
    if n_out < 1:
        raise InvalidParam("n_out must be >= 1")
    X = profile.half_width if X is None else float(X)
    n = int(round(2.0 * X / dx)) + 1
    grid = np.linspace(-X, X, n)

    snap = make_initial(profile, pert, grid, budget)
    stepper = Stepper(model, profile, grid, shift, budget)

    frames = stepper._frames(stepper.Ubar + snap.U)
    speed = float(np.max(np.abs(frames.lambdas))) + shift.eps_delta
    dt_cfl = cfl * stepper.dx / speed
    per_out = max(1, math.ceil(T / (n_out * dt_cfl)))
    dt = T / (n_out * per_out)

    n_times = n_out + 1
    states = np.empty((n_times, n, model.N))
    bls = np.empty((n_times, model.N))
    brs = np.empty((n_times, model.N))
    states[0] = snap.U
    bls[0] = snap.b_left
    brs[0] = snap.b_right
    violation = None

    for m in range(1, n_times):
        for k in range(per_out):
            # keep output times exact against roundoff drift
            snap.t = (m - 1 + k / per_out) * (T / n_out)
            snap = stepper.step(snap, dt, backend)
        snap.t = m * (T / n_out)
        states[m] = snap.U
        bls[m] = snap.b_left
        brs[m] = snap.b_right
        if violation is None:
            c1 = np.maximum(np.max(np.abs(snap.U)), np.max(np.abs(snap.W)))
            if not c1 <= budget:  # a NaN norm is a violation too
                violation = float(snap.t)

    traj = Trajectory(model=model, profile=profile, shift=shift, backend=backend,
                      grid=grid, times=np.linspace(0.0, T, n_times),
                      states=states, b_left=bls, b_right=brs, dt=dt,
                      cfl_observed=stepper.last_cfl, budget=budget,
                      budget_violation_time=violation)
    traj.stepper = stepper  # fills the cached property: one Stepper per run
    return traj


# --- diagonal variables ----------------------------------------------------

@dataclass
class DiagVars:
    """Diagonalized fields of one snapshot."""

    Phi: np.ndarray
    Psi: np.ndarray
    PsiTilde: np.ndarray
    Upsilon: np.ndarray
    UpsilonTilde: np.ndarray
    Y: np.ndarray


def diagonal_vars(snap: Snapshot, frames: FrameField,
                  theta: np.ndarray) -> DiagVars:
    """Phi = L U, Psi = L W, PsiTilde = Psi + Theta Phi, and the second-derivative
    analogues with Y obtained by fourth-order differencing of W."""
    Phi, Psi = frames.to_diag(snap.U), frames.to_diag(snap.W)
    PsiT = Psi + np.einsum("njk,nk->nj", theta, Phi)
    Ups = frames.to_diag(snap.Y)
    UpsT = Ups + np.einsum("njk,nk->nj", theta, Psi)
    return DiagVars(Phi=Phi, Psi=Psi, PsiTilde=PsiT, Upsilon=Ups,
                    UpsilonTilde=UpsT, Y=snap.Y)


def phi_and_forcing(traj: Trajectory, i: int):
    """Diagonal field Phi and its Duhamel forcing G at output time i, family-major.

    Uses the trajectory's one Stepper and its transformed source, so G
    collects everything the damping exponent E_jj does not.
    """
    sf = traj.source_field(i)
    transport = None if sf.frames.constant else sf.transport
    return traj.stepper.forcing(traj.states[i], traj.perturbed_states(i),
                                float(traj.times[i]), sf.frames, sf.E_diag.T,
                                transport)
