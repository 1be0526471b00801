"""Evolution of the shifted perturbation about the profile.

The state evolved is the perturbation U(t, x) = Utilde(t, x + delta(t)) -
Ubar(x), which satisfies

    U_t + (A(Ubar + U) - ddelta) U_x
        = [q(Ubar + U) - q(Ubar)] - [A(Ubar + U) - A(Ubar)] Ubar_x + ddelta Ubar_x.

The right-hand side is evaluated in this subtracted form so U = 0 is an exact
discrete equilibrium.  Two independent backends advance it: a first-order
characteristic-upwind scheme ("reference", LeVeque, Finite Volume Methods for
Hyperbolic Problems, 2002, ch. 4-6) and a semi-Lagrangian scheme that
integrates the diagonalized system along characteristics with a one-step
Duhamel update ("moc").  The sum is written once, in ``Stepper.source``, and
every step opens with one pass of it over the n + 2 rows of U edge-padded by
the evolving boundary states, about the profile padded by the far-field
states, where Ubar_x = 0.  That pass is the first stage of every explicit
midpoint: the reference step's over all n + 2 rows, with no advection in the
four edge rows, and the four-row ``_advance_boundary`` that the moc step
gives its edge rows.  The moc step also reads its forcing G from it.  With
constant frames the reference step diagonalizes the n + 1 differences of the
padded rows once, and each family reads its upwind side as one slice of them.

Both moc kernels end in one Duhamel update, ``_duhamel_update``:
Phi_new = e (e Phif + dt Gm) with one exp, e = exp(dt (Ef + E) / 4), for Phi
at the foot, G at the segment midpoint and E at the foot and at the node.

When A is constant every node of family j moves at the same speed
c_j = lambda_j - ddelta(t), so the moc foot sits at one offset s_j = -c_j dt /
dx (in cells) from every node: the standard fixed-stencil semi-Lagrangian
step (Staniforth & Cote, Mon. Wea. Rev. 119, 1991).  That step works on
component-major rows, (N, n + 2) with one column per node and one per
boundary state (``_FrameRows``).  The source pass writes S there, and one
product of a coefficient matrix, composed once per Stepper from L0, R0 and
the terms of Q, gives Phi = L0 U with the diagonal boundary states, L0 S and
E = diag(L0 Q R0).  Phi, G = L0 S - E Phi and E are written once each into
a buffer whose row j starts at column 1 - floor(s_j).  The 4-point cubic
Lagrange stencil for Phi and the 2-point stencils for G (at s / 2) and E (at
s) are then 4 + 2 slices over all families at once, G and E sharing theirs.
The linear weights carry dt, and those of E also E at the node, so they give
dt Gm and the exponent of the Duhamel update directly.  The offsets, the
stencil weights, the speeds and their CFL check depend only on (dt, ddelta),
and are formed once per pair.

A state-dependent A is evaluated once per step, at the node states Ubar + U:
the frames are decomposed from it and keep it, and the source pass reads it
there (``Stepper._padded_A``).  E and the frame transport come from
``source_diagonal_and_transport``, and no F_tilde is formed.
Each node's foot is traced for all families in one pass, and one cell
lookup per foot serves both the Phi and the E read there.  ``evolve``
decomposes A at each output time for the step that starts there and hands
those frames to the ``Trajectory``.  Every per-node product of this path
(L U, R Phi, the transport T Phi, the source's dA term, and L Q R in
``eigenframe``) is a ``poly.node_matmul``: one multiply-add over the node
axis per component pair, each entry summed left to right from +0.  No
``np.einsum`` or stacked ``np.matmul`` runs, and the sums do not depend on
memory layout.  A, q and Q come from ``poly``'s evaluators: on the column
views of a stack here, on Python floats at a single state (the profile
shot), with the same bits either way.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, replace
from functools import cached_property

import numpy as np

from .eigenframe import (
    FrameField,
    SourceField,
    endstate_diagonals,
    frames_at_states,
    source_diagonal_and_transport,
    transformed_source,
)
from .errors import BlowUp, BudgetExceeded, CFLViolation, InvalidParam
from .model import ModelSpec
from .poly import node_matmul
from .profile import ProfileRep

BUDGET_DEFAULT = 0.02
BLOWUP_FACTOR = 10.0
CFL_LIMIT = 0.9
GAUSSIAN_TAIL_MAX = 1e-3  # largest |U0(+-X)| / amplitude of a gaussian
EDGE_TRIM = 2  # nodes dropped at each end of discrete sup norms (stencil width)
# the norms whose damping ``verify`` certifies and ``norms.csv`` records:
# C^K_b for K <= 2, then L^2 and H^2
NORM_KINDS = ("c0", "c1", "c2", "l2", "h2")


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

def far_field_ramp(x: np.ndarray, blend_width: float) -> np.ndarray:
    """Offset data's blend from its left to its right far-field state."""
    return 0.5 * (1.0 + np.tanh(x / blend_width))


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
    Its boundary states are zero, so at the grid ends it must have decayed
    to GAUSSIAN_TAIL_MAX of its amplitude; a larger tail would start the
    run with a jump at the domain edge.
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
            elif len(self.direction) != N:
                raise InvalidParam("gaussian direction must have one entry per component")
            else:
                direction[:] = self.direction
            z = (x - self.center) / self.width
            g = self.amplitude * np.exp(-0.5 * z * z)
            tail = max(abs(g[0]), abs(g[-1]))
            if tail > GAUSSIAN_TAIL_MAX * abs(self.amplitude):
                raise InvalidParam(
                    f"gaussian tail at the grid ends x = {x[0]:.6g}, {x[-1]:.6g} is "
                    f"{tail / abs(self.amplitude):.3g} of its amplitude, above "
                    f"{GAUSSIAN_TAIL_MAX}; narrow the gaussian or widen the domain")
            gx = -g * z / self.width
            return (g[:, None] * direction, gx[:, None] * direction,
                    np.zeros(N), np.zeros(N))
        if self.kind == "offset":
            dm = np.asarray(self.d_minus, dtype=float)
            dp = np.asarray(self.d_plus, dtype=float)
            if dm.shape != (N,) or dp.shape != (N,):
                raise InvalidParam("offset endstates must have one entry per component")
            sig = far_field_ramp(x, self.blend_width)
            sigx = 0.5 / (self.blend_width * np.cosh(x / self.blend_width) ** 2)
            U0 = dm[None, :] + sig[:, None] * (dp - dm)[None, :]
            W0 = sigx[:, None] * (dp - dm)[None, :]
            return U0, W0, dm.copy(), dp.copy()
        # shift_difference
        U0 = profile.eval(x + self.h) - profile.eval(x)
        W0 = profile.eval_d1(x + self.h) - profile.eval_d1(x)
        return U0, W0, np.zeros(N), np.zeros(N)


# --- snapshots and trajectories --------------------------------------------

@dataclass(eq=False)
class Snapshot:
    """The stepper's state at one time: U and the boundary states."""

    t: float
    grid: np.ndarray
    U: np.ndarray
    b_left: np.ndarray
    b_right: np.ndarray


def fd4_derivative(F: np.ndarray, dx: float, left: np.ndarray,
                   right: np.ndarray) -> np.ndarray:
    """Fourth-order centered derivative with flat boundary-state extension."""
    pad = _edge_pad(np.asarray(F, dtype=float), 2, left, right)
    return (-pad[4:] + 8.0 * pad[3:-1] - 8.0 * pad[1:-3] + pad[:-4]) / (12.0 * dx)


def interior_max(F: np.ndarray) -> float:
    """Discrete sup norm of F without EDGE_TRIM nodes at each end."""
    return float(np.max(np.abs(F[EDGE_TRIM:-EDGE_TRIM])))


def trapezoid4(y: np.ndarray, dx: float, axis: int = 0) -> np.ndarray:
    """Composite trapezoid with Gregory end corrections (fourth order).

    The result is ``np.sum(y * w, axis) * dx`` bit for bit.  Along axis 0
    of a C-ordered (n, k) integrand with k >= 2 that sum adds the rows one
    after another, starting from +0.  Here each column is summed in that
    order by one ``np.add.accumulate`` along a contiguous row of the
    transposed products, and the +0 start is added last (it only turns a
    sum of -0 into +0).  A 1-D or one-column integrand keeps numpy's
    pairwise sum.  A NaN sample, or +inf and -inf in one column, makes
    that column's integral NaN.
    """
    n = y.shape[axis]
    if n < 7:
        return np.trapezoid(y, dx=dx, axis=axis)
    w = np.ones(n)
    w[[0, -1]] = 3.0 / 8.0
    w[[1, -2]] = 7.0 / 6.0
    w[[2, -3]] = 23.0 / 24.0
    if y.ndim == 2 and axis == 0 and y.shape[1] > 1 and y.flags.c_contiguous:
        cols = np.multiply(y.T, w, out=np.empty(y.shape[::-1]))
        total = np.add.accumulate(cols, axis=1)[:, -1]
        total += 0.0
        return total * dx
    shape = [1] * y.ndim
    shape[axis] = n
    return np.sum(y * w.reshape(shape), axis=axis) * dx


@dataclass
class SourceSeries:
    """E_jj at every output time (n_times, n, N), and the interior sup series
    of Phi, PsiTilde and UpsilonTilde (n_times,)."""

    E_diag: np.ndarray
    phi: np.ndarray
    psi_tilde: np.ndarray
    upsilon_tilde: np.ndarray


@dataclass
class Trajectory:
    """Stored output of one evolution run: U and the boundary states at every
    output time.  Each per-output-time field is formed once, on first read:
    the stack ``W`` of U_x, the frames of a state-dependent A (a constant A
    reads the Stepper's), the ``norms`` table, and ``source_series``, which
    keeps no F_tilde or Theta.  U_xx is not stored: ``Y_at`` forms it for one
    output time, and the norm pass and the source pass each call it once per
    output time."""

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
    blend_width: float = 2.0    # far-field ramp width of offset initial data
    _frame_cache: dict = field(default_factory=dict, repr=False)

    @property
    def dx(self) -> float:
        return float(self.grid[1] - self.grid[0])

    @property
    def n_times(self) -> int:
        return len(self.times)

    @cached_property
    def W(self) -> np.ndarray:
        """U_x at every output time, (n_times, n, N): fourth-order differences
        of each stored U with its boundary states, row 0 included."""
        return np.stack([fd4_derivative(U, self.dx, bl, br)
                         for U, bl, br in zip(self.states, self.b_left, self.b_right)])

    def Y_at(self, i: int) -> np.ndarray:
        """U_xx at output time i, formed on every call: fourth-order
        differences of ``W[i]``, extended by zero beyond the grid."""
        zero = np.zeros_like(self.b_left[i])
        return fd4_derivative(self.W[i], self.dx, zero, zero)

    def perturbed_states(self, i: int) -> np.ndarray:
        return self.stepper.Ubar + self.states[i]

    def frames(self, i: int) -> FrameField:
        if self.model.A_is_constant:
            return self.stepper.frames0
        if i not in self._frame_cache:
            self._frame_cache[i] = frames_at_states(self.model, self.grid, self.perturbed_states(i))
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
        """Transformed source at output time i, formed on every call."""
        return transformed_source(self.model, self.perturbed_states(i), self.frames(i))

    @cached_property
    def norms(self) -> np.ndarray:
        """The ``NORM_KINDS`` at every output time, (n_times, 5), read-only:
        one pass that reads U and W from the stacks and forms Y once per time.
        c_K is the largest ``interior_max`` of the derivatives of order <= K;
        l2 and h2 use ``trapezoid4``.  Offset data is measured in l2 and h2
        against the far-field ramp of the run's ``blend_width``; derivative
        fields are square-integrable as they stand."""
        dx = self.dx
        ramp = far_field_ramp(self.grid, self.blend_width)[:, None]
        table = np.empty((self.n_times, len(NORM_KINDS)))
        for i in range(self.n_times):
            U, W, Y = self.states[i], self.W[i], self.Y_at(i)
            c0 = interior_max(U)
            c1 = max(c0, interior_max(W))
            c2 = max(c1, interior_max(Y))
            bl, br = self.b_left[i], self.b_right[i]
            if np.max(np.abs(bl)) != 0.0 or np.max(np.abs(br)) != 0.0:
                U = U - (bl[None, :] + ramp * (br - bl)[None, :])
            l2sq, w2sq, y2sq = (float(np.sum(trapezoid4(F**2, dx))) for F in (U, W, Y))
            table[i] = c0, c1, c2, np.sqrt(l2sq), np.sqrt(l2sq + w2sq + y2sq)
        table.flags.writeable = False
        return table

    @cached_property
    def source_series(self) -> SourceSeries:
        """One pass through ``source_field`` of every output time, keeping what
        ``accumulate_H``, ``scan_trajectory_damping`` and ``slaving_check`` read:
        E_jj and the interior sups of Phi = L U, PsiTilde = L W + Theta Phi
        and UpsilonTilde = L Y + Theta Psi."""
        E = np.empty_like(self.states)
        sups = np.empty((3, self.n_times))
        for i in range(self.n_times):
            sf = self.source_field(i)
            E[i] = sf.E_diag
            Phi = sf.frames.to_diag(self.states[i])
            Psi = sf.frames.to_diag(self.W[i])
            Ups = sf.frames.to_diag(self.Y_at(i))
            sups[:, i] = (interior_max(Phi),
                          interior_max(Psi + node_matmul(sf.Theta, Phi)),
                          interior_max(Ups + node_matmul(sf.Theta, Psi)))
        return SourceSeries(E, *sups)


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
    return Snapshot(t=0.0, grid=x, U=U0, b_left=bl, b_right=br)


# --- interpolation on a uniform grid ---------------------------------------

def _edge_pad(f: np.ndarray, width: int, fill_left, fill_right) -> np.ndarray:
    """f (n,) or (n, N) with ``width`` copies of the fill values added at each end."""
    pad = np.empty((len(f) + 2 * width,) + f.shape[1:])
    pad[width:-width] = f
    pad[:width] = fill_left
    pad[-width:] = fill_right
    return pad


def _cubic_weights(t):
    """Weights of the cubic Lagrange interpolant through nodes -1, 0, 1, 2 at t:
    -t (t - 1)(t - 2) / 6, (t^2 - 1)(t - 2) / 2, -t (t + 1)(t - 2) / 2 and
    t (t^2 - 1) / 6, each product taken left to right, with the factors
    they share formed once."""
    neg, t2, sq = -t, t - 2.0, t * t
    sq -= 1.0
    wm1 = neg * (t - 1.0)
    wm1 *= t2
    wm1 /= 6.0
    w0 = sq * t2
    w0 /= 2.0
    w1 = neg * (t + 1.0)
    w1 *= t2
    w1 /= 2.0
    w2 = t * sq
    w2 /= 6.0
    return wm1, w0, w1, w2


def _cubic_lagrange(t, fm1, f0, f1, f2):
    """Cubic Lagrange interpolant through nodes -1, 0, 1, 2, evaluated at t."""
    wm1, w0, w1, w2 = _cubic_weights(t)
    return wm1 * fm1 + w0 * f0 + w1 * f1 + w2 * f2


def grid_step(grid: np.ndarray) -> float:
    """Step of a uniform grid as ``np.linspace`` forms it, (x_last - x_0) / (n - 1).

    A point located as (x - x_0) / step lands in its cell up to the rounding
    of x alone; grid[1] - grid[0] carries the rounding of x_1, which grows
    with the node index (6.3e-10 cells at the end of 4001 nodes on [-40, 40]).
    """
    return float(grid[-1] - grid[0]) / (len(grid) - 1)


def _cell_reads(cells: np.ndarray, width: int):
    """Offsets t of family-major cell positions (N, n) into their cells, and the
    flat index, in a node-major pad of rows ``width`` long whose first N
    columns hold the families, of row floor(cells) + 1 in each position's
    family column."""
    i = np.floor(cells)
    return cells - i, i.astype(np.intp) * width + np.arange(width, width + len(cells))[:, None]


def _cubic_interp(pad: np.ndarray, t: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Cubic Lagrange interpolation at the ``_cell_reads`` (t, at) of positions
    in [-1, n), node k at k, of fields edge-padded by two rows (n + 4, width)."""
    return _cubic_lagrange(t, *(pad.ravel()[at + k * pad.shape[1]] for k in range(4)))


def _linear_interp(pad: np.ndarray, t: np.ndarray, at: np.ndarray) -> np.ndarray:
    """Linear interpolation at the ``_cell_reads`` (t, at) of positions in
    [-1, n), node k at k, of fields edge-padded by one row (n + 2, width)."""
    return (1.0 - t) * pad.ravel()[at] + t * pad.ravel()[at + pad.shape[1]]


def _foot_stencil(s: np.ndarray, dt: float):
    """The constant-frame moc step's interpolations at x_k + s_j dx as fixed
    stencils, for offsets -1 < s_j < 1 cells: (offsets, cubic, linear).

    Row j of a pad holds node 0 of family j at column ``offsets[j]`` =
    1 - floor(s_j), so every family's stencil points are the same columns:
    columns k .. k + n - 1 for cubic weight k (nodes -1 .. 2 about the foot's
    cell), and 1 + k .. n + k for linear weight k, in the cell of s and of
    s / 2 alike.  ``linear[k]`` holds linear weight k of the G and the E
    pad, (2, N, 1): dt times the weight at s / 2, and dt / 4 times the
    weight at s plus dt / 4 in the column of the node itself (k = 0 when
    s_j >= 0, else k = 1).  So the two slices give dt G at the segment
    midpoint and dt (E at the foot + E at the node) / 4.  Weights are (N, 1)
    columns.
    """
    m = np.floor(s)
    t = (s - m)[:, None]
    half = (0.5 * s)[:, None]
    t_mid = half - np.floor(half)
    node = (m == 0.0)[:, None]
    quarter = 0.25 * dt
    linear = np.array([[dt * (1.0 - t_mid), quarter * ((1.0 - t) + node)],
                       [dt * t_mid, quarter * (t + ~node)]])
    return tuple(int(o) for o in 1 - m), _cubic_weights(t), linear


class _Speeds:
    """Shifted speeds c = lambda - ddelta of a constant frame at one (dt, ddelta),
    CFL-checked when made; the moc step's foot stencils are formed on first read."""

    def __init__(self, dt: float, dd: float, c: np.ndarray, dx: float):
        self.key = (dt, dd)
        self.c = c
        self._s = -c * dt / dx

    @cached_property
    def stencil(self) -> tuple:
        return _foot_stencil(self._s, self.key[0])


def _duhamel_update(Phif: np.ndarray, dtGm: np.ndarray, q: np.ndarray) -> np.ndarray:
    """The moc step's one-step Duhamel update of dPhi_j/ds = E_jj Phi_j + G_j
    along each characteristic: Phi_new = e (e Phif + dt Gm) with e = exp(q),
    q = dt (Ef + E) / 4, the trapezoid of E over the segment in the exponent
    and G at its midpoint.  Written in place into Phif, with q overwritten."""
    np.exp(q, out=q)
    Phif *= q
    Phif += dtGm
    Phif *= q
    return Phif


class _FrameRows:
    """The constant-frame moc step's fields on component-major rows, one column
    per node of U padded by the boundary states, (N, n + 2), about the
    profile padded by the far-field states: ``about`` holds the rows of
    ``Stepper.about`` in that layout, as transposed views, so the source
    pass reads and writes every operand in one memory order.

    ``Y`` stacks the rows a step writes, [V; Ut; S; X; 1]: the perturbation
    V, the full states Ut = about + V, the source S (``Stepper.source`` writes
    it), the distinct monomials X of degree 2 or more among the
    terms of Q at Ut, and ones.  ``B`` is composed once from L0, R0 and the
    terms of Q, so that one product B Y gives [Phi; L0 S; E]: Phi = L0 V and
    E_j = (L0 Q R0)_jj, whose constant, linear and higher terms read the
    ones, the Ut and the X rows.  ``P`` holds that product, ``pads`` the
    rows the foot stencils read.
    """

    def __init__(self, model: ModelSpec, frames: FrameField, about: _Base):
        N, width = model.N, len(about.U)
        L0, R0 = frames.L[0], frames.R[0]
        self.about = _Base(*(np.ascontiguousarray(f.T).T for f in (about.U, about.U_x, about.q)),
                           None)
        terms = [(a, b, coeff, powers) for a, row in enumerate(model.Q_entries)
                 for b, entry in enumerate(row) for coeff, powers in entry.terms]
        self.monomials = sorted({powers for *_, powers in terms if sum(powers) > 1})
        self.Y = np.empty((3 * N + len(self.monomials) + 1, width))
        self.Y[-1] = 1.0
        self.B = np.zeros((3 * N, len(self.Y)))
        self.B[:N, :N] = self.B[N:2 * N, 2 * N:3 * N] = L0
        for a, b, coeff, powers in terms:
            degree = sum(powers)
            column = (-1 if degree == 0 else N + powers.index(1) if degree == 1
                      else 3 * N + self.monomials.index(powers))
            self.B[2 * N:, column] += coeff * L0[:, a] * R0[b]
        self.P = np.empty((3, N, width))
        self.pads = np.empty((3, N, width + 1))

    def evaluate(self, stepper: "Stepper", snap: Snapshot):
        """The rows V and S (N, n + 2) of the snapshot, S from the step's one
        ``stepper.source`` pass, and P = [Phi; G; E] (3, N, n + 2) with
        G = L0 S - E Phi."""
        N = self.P.shape[1]
        V, Ut, S = self.Y[:N], self.Y[N:2 * N], self.Y[2 * N:3 * N]
        V[:, 0], V[:, 1:-1], V[:, -1] = snap.b_left, snap.U.T, snap.b_right
        np.add(self.about.U.T, V, out=Ut)
        stepper.source(Ut.T, snap.t, self.about, out=S.T)
        for row, powers in zip(self.Y[3 * N:-1], self.monomials):
            np.prod([Ut[k] ** p for k, p in enumerate(powers) if p], axis=0, out=row)
        np.matmul(self.B, self.Y, out=self.P.reshape(3 * N, -1))
        Phi, G, E = self.P
        G -= E * Phi
        return V, S

    def advance(self, stencil: tuple) -> np.ndarray:
        """Phi one step on from the last ``evaluate``, (N, n), by
        ``_duhamel_update``.

        Each field is written once into its pad, flat beyond the grid: Phi
        with the diagonal boundary states, G and E with their edge values.
        The linear weights of ``_foot_stencil`` carry dt and E at the node,
        so G and E go through one pair of slices to dt Gm and the exponent."""
        offsets, (wm1, w0, w1, w2), linear = stencil
        P, pads = self.P, self.pads
        n = P.shape[-1] - 2
        P[1:, :, 0] = P[1:, :, 1]
        P[1:, :, -1] = P[1:, :, -2]
        pads[..., 0], pads[..., -1] = P[..., 0], P[..., -1]
        for j, o in enumerate(offsets):
            pads[:, j, o - 1:o + n + 1] = P[:, j]
        Phi = pads[0]
        Phif = wm1 * Phi[:, :n]
        Phif += w0 * Phi[:, 1:n + 1]
        Phif += w1 * Phi[:, 2:n + 2]
        Phif += w2 * Phi[:, 3:]
        GE = linear[0] * pads[1:, :, 1:n + 1]
        GE += linear[1] * pads[1:, :, 2:n + 2]
        return _duhamel_update(Phif, *GE)


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

    def rows(self, sel) -> "_Base":
        return _Base(*(None if f is None else f[sel] for f in (self.U, self.U_x, self.q, self.A)))


_EDGE_ROWS = [1, -2, 0, -1]  # of the padded rows: the edge nodes, then the boundary states


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
        self.Ubar = Ubar = profile.eval(self.grid)
        # The rows of U edge-padded by the boundary states, which perturb the
        # far-field states; Ubar_x = 0 at the far field.
        U = _edge_pad(Ubar, 1, model.U_minus if model.U_minus is not None else Ubar[0],
                      model.U_plus if model.U_plus is not None else Ubar[-1])
        self.about = _Base(U, _edge_pad(profile.eval_d1(self.grid), 1, 0.0, 0.0),
                           model.q_at(U), None if model.A_is_constant else model.A_at(U))
        self.about_boundary = self.about.rows(_EDGE_ROWS)
        self.frames0 = None
        if model.A_is_constant:
            self.frames0 = frames_at_states(model, self.grid, self.Ubar)
        self._speeds = None
        self.last_cfl = 0.0

    @cached_property
    def _rows(self) -> _FrameRows:
        """The constant-frame moc step's rows and buffers, made on its first step."""
        return _FrameRows(self.model, self.frames0, self.about)

    def source(self, Ut: np.ndarray, t: float, about: _Base, A: np.ndarray | None = None,
               out: np.ndarray | None = None) -> np.ndarray:
        """Perturbation-form source at the full states Ut, taken about the rows
        ``about``; zero at Ut = about.U by construction.  ``A`` is A(Ut) where
        the caller holds it; ``out``, when given, receives the sum."""
        S = self.model.q_at(Ut, out)
        S -= about.q
        if about.A is not None:
            if A is None:
                A = self.model.A_at(Ut)
            S -= node_matmul(A - about.A, about.U_x)
        dd = float(self.shift.delta_dot(t))
        if dd != 0.0:
            S += dd * about.U_x
        return S

    def _padded_A(self, V: np.ndarray, frames: FrameField) -> np.ndarray | None:
        """A at the padded rows about.U + V of a state-dependent A: the A that
        ``frames`` were decomposed from inside, A_at at the two boundary
        states; None (the source evaluates it) when the frames keep none."""
        if frames.constant or frames.A is None:
            return None
        A = np.empty(V.shape + V.shape[-1:])
        A[1:-1] = frames.A
        ends = [0, -1]
        A[ends] = self.model.A_at(self.about.U[ends] + V[ends])
        return A

    def _ode_node_update(self, V: np.ndarray, t: float, dt: float, about: _Base,
                         k1: np.ndarray, adv: np.ndarray | None = None) -> np.ndarray:
        """Explicit-midpoint update of perturbations V of the rows ``about`` by
        the source less a frozen advection term ``adv`` (none by default).
        ``k1`` is the source at about.U + V, and is overwritten.

        With k = S - adv, about.U + (V + (dt / 2) k1) and (V - dt adv) + dt S2
        are formed in place, in that order of operations.
        """
        if adv is not None:
            k1 -= adv
        k1 *= 0.5 * dt
        k1 += V
        k1 += about.U
        k2 = self.source(k1, t + 0.5 * dt, about)
        k2 *= dt
        k2 += V if adv is None else V - dt * adv
        return k2

    def _advance_boundary(self, V: np.ndarray, S: np.ndarray, t: float,
                          dt: float) -> np.ndarray:
        """U[0], U[-1], b_left and b_right one step on, as four rows: one
        ``_ode_node_update`` of the edge nodes and the boundary states of the
        padded rows V (n + 2, N), its first stage read from the source S
        there.  Their far-field base has Ubar_x = 0, so b' = q(base + b) -
        q(base)."""
        return self._ode_node_update(V[_EDGE_ROWS], t, dt, self.about_boundary,
                                     S[_EDGE_ROWS])

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

    def _begin(self, snap: Snapshot, dt: float, Ut: np.ndarray | None = None,
               frames: FrameField | None = None):
        """Frames at the perturbed states Ut = Ubar + U and CFL-checked shifted
        speeds (frames, c).

        Frames that vary with the state are decomposed here from Ut unless
        ``frames`` are given.  c is lambda - ddelta per
        node (n, N), or one speed per family (N,) when the frames are
        constant; those speeds and their check are formed once per
        (dt, ddelta) and kept as ``self._speeds``.
        """
        dd = self.shift.delta_dot(snap.t)
        if self.frames0 is None:
            if frames is None:
                frames = self._frames(Ut)
            c = frames.lambdas - dd
            self._check_cfl(c, dt, snap.t)
            return frames, c
        if self._speeds is None or self._speeds.key != (dt, dd):
            c = self.frames0.lambdas[0] - dd
            self._check_cfl(c, dt, snap.t)
            self._speeds = _Speeds(dt, dd, c, self.dx)
        return self.frames0, self._speeds.c

    def _finish(self, snap: Snapshot, dt: float, U_new: np.ndarray,
                b_left: np.ndarray, b_right: np.ndarray) -> Snapshot:
        """Blow-up guard, then the snapshot one step on; a non-finite U_new
        fails the guard as well."""
        amp = float(np.max(np.abs(U_new)))
        if not amp <= BLOWUP_FACTOR * self.budget:
            raise BlowUp(f"|U| = {amp:.3e} left the small-data regime "
                         f"(budget {self.budget:.3e})")
        return Snapshot(t=snap.t + dt, grid=snap.grid, U=U_new,
                        b_left=b_left, b_right=b_right)

    def step_reference(self, snap: Snapshot, dt: float,
                       frames: FrameField | None = None) -> Snapshot:
        """First-order characteristic-upwind step with midpoint source.

        Both one-sided differences of every node come from the n + 1
        differences D of U padded by the boundary states.  Constant frames
        diagonalize D once, P = L0 D, and family j, at its one speed c_j,
        reads the slice of P upwind of every node: rows [:-1] when c_j > 0,
        else rows [1:].  Per-node frames diagonalize both sides by the frame
        of each node and pick the side node by node.  One explicit midpoint
        then advances all n + 2 rows, the upwind advection frozen and zero in
        the four edge rows, from the step's one source pass as its first
        stage.  ``frames``, when given, are those at Ubar + U.
        """
        V = _edge_pad(snap.U, 1, snap.b_left, snap.b_right)
        Ut = self.about.U + V
        frames, c = self._begin(snap, dt, Ut[1:-1], frames)
        S = self.source(Ut, snap.t, self.about, self._padded_A(V, frames))
        D = V[1:] - V[:-1]
        D /= self.dx
        adv = np.empty_like(V)
        if frames.constant:
            P = frames.to_diag(D)
            upwind = np.empty_like(snap.U)
            for j, c_j in enumerate(c):
                np.multiply(c_j, P[:-1, j] if c_j > 0.0 else P[1:, j], out=upwind[:, j])
        else:
            upwind = c * np.where(c > 0.0, frames.to_diag(D[:-1]), frames.to_diag(D[1:]))
        frames.from_diag(upwind, out=adv[1:-1])
        adv[:2] = adv[-2:] = 0.0
        V = self._ode_node_update(V, snap.t, dt, self.about, S, adv)
        return self._finish(snap, dt, V[1:-1], V[0], V[-1])

    def _node_feet(self, c: np.ndarray, dt: float, Phi: np.ndarray, E: np.ndarray,
                   G: np.ndarray, phi_left: np.ndarray, phi_right: np.ndarray):
        """Phi and E at the feet and G at the segment midpoints of every family,
        for per-node speeds c (n, N) and family-major (N, n) fields.

        Each node's foot is traced with a midpoint correction, located in
        cells as the node index k plus its offset -c dt / dx.  c and G are
        padded once by their edge values.  Phi, padded by the diagonal
        boundary states, and E, by its edge values, share one pad of two rows
        at each end, so one cell lookup per foot serves both reads there.
        """
        n, N = c.shape
        k = np.arange(n, dtype=float)
        s = np.multiply(c.T, dt, out=np.empty((N, n)))
        s /= self.dx
        c_mid = _linear_interp(_edge_pad(c, 1, c[0], c[-1]), *_cell_reads(k - 0.5 * s, N))
        foot = k - c_mid * dt / self.dx
        Gm = _linear_interp(_edge_pad(G.T, 1, G[:, 0], G[:, -1]),
                            *_cell_reads(0.5 * (k + foot), N))
        pad = np.empty((n + 4, 2 * N))
        for cols, F, left, right in ((slice(N), Phi, phi_left, phi_right),
                                     (slice(N, None), E, E[:, 0], E[:, -1])):
            pad[2:-2, cols] = F.T
            pad[:2, cols] = left
            pad[-2:, cols] = right
        t, at = _cell_reads(foot, 2 * N)
        Phif = _cubic_interp(pad, t, at)
        Ef = _linear_interp(pad, t, at + 3 * N)  # one row on, in E's columns
        return Phif, Ef, Gm

    def step_moc(self, snap: Snapshot, dt: float,
                 frames: FrameField | None = None) -> Snapshot:
        """Semi-Lagrangian step: cubic foot interpolation and one-step Duhamel.

        The diagonal variable Phi = L U, its damping exponent E and its
        forcing G = L S - E Phi + T Phi (T the frame transport, zero for
        constant frames) are family-major, (N, n) arrays with one row per
        family.  Phi is interpolated at the foot of each node's
        characteristic, E there too, and G at the segment midpoint, for all
        families at once; ``_duhamel_update`` then gives Phi_new =
        e (e Phif + dt Gm) with one exp, e = exp(dt (Ef + E) / 4).  S is the
        step's one source pass over the n + 2 padded rows, and its edge and
        boundary rows are the first stage of the ``_advance_boundary``
        midpoint that gives the four edge rows.

        For constant A the fields live on the component-major rows of
        ``_FrameRows``: the source pass and one product give S, Phi, L0 S and
        E = diag(L0 Q R0), the boundary states' Phi included.  The foot is
        one offset per family, and the stencils of ``_foot_stencil``, formed
        once per (dt, ddelta), carry dt and E at the node.

        For state-dependent A, ``source_diagonal_and_transport`` supplies E
        and T, the source pass reads the A(Ut) the frames were decomposed
        from, and every node's foot is traced with a midpoint correction, all
        families in one pass (``_node_feet``).  ``frames``, when given, are
        those at Ubar + U.
        """
        if self.frames0 is not None:
            self._begin(snap, dt)
            V, S = (F.T for F in self._rows.evaluate(self, snap))
            Phi_new = self._rows.advance(self._speeds.stencil)
            frames = self.frames0
        else:
            V = _edge_pad(snap.U, 1, snap.b_left, snap.b_right)
            Ut = self.about.U + V
            frames, c = self._begin(snap, dt, Ut[1:-1], frames)
            S = self.source(Ut, snap.t, self.about, self._padded_A(V, frames))
            E, transport = source_diagonal_and_transport(self.model, Ut[1:-1], frames)
            E = E.T
            Phi = frames.diag_rows(snap.U)
            G = frames.diag_rows(S[1:-1])
            G -= E * Phi
            G += node_matmul(transport, Phi.T).T
            Phif, q, Gm = self._node_feet(c, dt, Phi, E, G, frames.L[0] @ snap.b_left,
                                          frames.L[-1] @ snap.b_right)
            q += E
            q *= 0.25 * dt
            Gm *= dt
            Phi_new = _duhamel_update(Phif, Gm, q)
        rows = self._advance_boundary(V, S, snap.t, dt)
        U_new = frames.from_diag(Phi_new.T)
        U_new[0], U_new[-1] = rows[0], rows[1]
        return self._finish(snap, dt, U_new, rows[2], rows[3])

    def step(self, snap: Snapshot, dt: float, backend: str,
             frames: FrameField | None = None) -> Snapshot:
        """One step of ``backend``; ``frames``, when given, are those at Ubar + U."""
        if backend == "reference":
            return self.step_reference(snap, dt, frames)
        if backend == "moc":
            return self.step_moc(snap, dt, frames)
        raise InvalidParam(f"unknown backend {backend!r}")


def evolve(model: ModelSpec, profile: ProfileRep, pert: PerturbationSpec,
           shift: ShiftSpec, T: float, backend: str = "moc",
           dx: float = 0.02, cfl: float = 0.45, n_out: int = 200,
           budget: float = BUDGET_DEFAULT) -> Trajectory:
    """Advance the perturbation to time T, storing n_out + 1 snapshots.

    The time step divides the output spacing exactly so runs at different
    resolutions share output times.  The C^1 budget check reads the
    trajectory's ``W`` stack after the last step, so W is formed only at
    output times, and flags the first violation after t = 0 (where
    ``make_initial`` checked the analytic W) instead of aborting.  Frames
    that vary with the state are decomposed at each output time before the
    step that starts there, which they begin, and handed to the trajectory;
    only the final time's are left for it to form.
    """
    if T <= 0:
        raise InvalidParam("horizon T must be positive")
    if n_out < 1:
        raise InvalidParam("n_out must be >= 1")
    X = profile.half_width
    n = int(round(2.0 * X / dx)) + 1
    if n < 2 * EDGE_TRIM + 1:
        raise InvalidParam(f"dx = {dx:.6g} leaves {n} grid nodes on [-{X:.6g}, {X:.6g}], "
                           f"fewer than the {2 * EDGE_TRIM + 1} the edge-trimmed norms need")
    grid = np.linspace(-X, X, n)

    snap = make_initial(profile, pert, grid, budget)
    stepper = Stepper(model, profile, grid, shift, budget)

    frames = stepper._frames(stepper.Ubar + snap.U)
    speed = float(np.max(np.abs(frames.lambdas))) + shift.eps_delta
    dt_cfl = cfl * stepper.dx / speed
    per_out = max(1, math.ceil(T / (n_out * dt_cfl)))
    dt = T / (n_out * per_out)

    n_times = n_out + 1
    states, bls, brs = (np.empty((n_times, *f.shape)) for f in (snap.U, snap.b_left, snap.b_right))
    states[0], bls[0], brs[0] = snap.U, snap.b_left, snap.b_right
    kept = {}  # frames of a state-dependent A at the output times they begin
    for m in range(1, n_times):
        if not frames.constant:
            if m > 1:
                frames = stepper._frames(stepper.Ubar + snap.U)
            kept[m - 1] = replace(frames, A=None)  # the trajectory keeps no A
        for k in range(per_out):
            # keep output times exact against roundoff drift
            snap.t = (m - 1 + k / per_out) * (T / n_out)
            snap = stepper.step(snap, dt, backend, frames if k == 0 else None)
        states[m], bls[m], brs[m] = snap.U, snap.b_left, snap.b_right

    traj = Trajectory(model=model, profile=profile, shift=shift, backend=backend,
                      grid=grid, times=np.linspace(0.0, T, n_times),
                      states=states, b_left=bls, b_right=brs, dt=dt,
                      cfl_observed=stepper.last_cfl, budget=budget,
                      blend_width=pert.blend_width, _frame_cache=kept)
    traj.stepper = stepper  # fills the cached property: one Stepper per run
    vars(stepper).pop("_rows", None)  # the moc row buffers: nothing after evolve steps
    c1 = np.maximum(np.max(np.abs(states), axis=(1, 2)), np.max(np.abs(traj.W), axis=(1, 2)))
    over = np.flatnonzero(~(c1[1:] <= budget))  # a NaN norm is a violation too
    if over.size:
        traj.budget_violation_time = float((over[0] + 1) * (T / n_out))
    return traj
