"""Diagonalization machinery along the profile.

Builds sorted real eigenvalues with biorthonormal left/right eigenvector
matrices (L A R = Lambda, L R = I), splits the transformed source L Q R into
diagonal and off-diagonal parts, solves the commutator equation
[Theta, Lambda] = F for the conjugation matrix, and extracts the damping rate
from the endstate diagonals.

Every stack of states gets its eigendata from one batched query: frames along
a field from ``frames_at_states`` (LAPACK, or a closed form for a state-dependent
2x2 A), and the endstates and the no-damping radius's state-box lattice from
``source_diagonals`` (one LAPACK ``eig``, NaN rows where A is not strictly
hyperbolic), all with the same spectrum tests and sign convention.  Along a
field the eigenvector signs are continued by the running parity of the
negative inner products of neighbouring nodes, an exclusive-or scan, and
flipped by one product with +-1 where any node flips.

The frame transport -Lambda L dR/dx takes dR/dx from ``np.gradient`` at the
one spacing of the frames' uniform grid: centred differences inside, one-sided
at the two ends.  The moc step reads only E_jj and the transport
(``source_diagonal_and_transport``); ``transformed_source`` also splits off
F_tilde and solves for Theta.

Along a state-dependent field every per-node product (``to_diag``,
``diag_rows``, ``from_diag``, the inner products of the sign continuation,
L Q R and the transport) is a ``poly.node_matmul`` or ``poly.node_dot``:
N or N^2 multiply-adds over the node axis, each entry summed left to right
from +0, which is ``np.einsum``'s sum at N = 2.  ``source_diagonal_and_transport``
forms each E_jj as the same sum that ``transformed_source`` forms for it.
A constant field keeps its one-matrix products.  A, q and Q at a single
state are evaluated on Python floats (``poly``) with the bits of that state
in a stack, and a constant A there is the model's one read-only matrix.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import Characteristic, GapTooSmall, NotDissipative, NotStrictlyHyperbolic
from .model import ModelSpec
from .poly import node_dot, node_matmul
from .profile import ProfileRep

GAP_MIN = 1e-6  # absolute eigenvalue-gap floor guarding the Theta division
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class DampingRate:
    """Damping rate extracted from the endstate source diagonals.

    ``theta_E`` is the positive decay rate -max(E_jj)/2; ``theta_E_signed``
    keeps the raw max(E_jj)/2 for reporting.
    """

    theta_E: float
    theta_E_signed: float
    E_minus: np.ndarray
    E_plus: np.ndarray


def _row_max(a: np.ndarray) -> np.ndarray:
    """np.max(a, axis=1) of an (n, k) array with short rows, NaN propagating alike.

    numpy reduces a short axis with one tiny inner loop per row; one
    elementwise maximum per column does the same work in k passes over n.
    """
    return reduce(np.maximum, a.T)


def _sign_fix(R: np.ndarray) -> None:
    """Scale each right eigenvector so its largest-magnitude entry equals +1.

    The first entry of largest magnitude leads, as np.argmax picks it; the
    search runs entry by entry over the stack, each a pass over all matrices,
    not one short search per matrix.  R is finite: both decompositions
    refuse non-finite matrices before they reach it.
    """
    N = R.shape[-1]
    for j in range(N):
        lead = R[..., 0, j].copy()  # R is divided by it in place
        size = np.abs(lead)
        for i in range(1, N):
            entry = R[..., i, j]
            mag = np.abs(entry)
            larger = mag > size
            lead = np.where(larger, entry, lead)
            size = np.where(larger, mag, size)
        for i in range(N):
            R[..., i, j] /= lead


def _spectrum(A: np.ndarray, w: np.ndarray):
    """Sorted Re of the eigenvalues ``w`` of ``A``, their order, pair/coalesced masks.

    Two eigenvalues per row are ordered by one comparison, which leaves ties
    (complex pairs among them) first index first, as ``argsort`` does.  A
    real ``w`` has no pair and is not searched for one.
    """
    scale = 1.0 + _row_max(np.abs(A).reshape(len(A), -1))
    if np.iscomplexobj(w):
        pair = _row_max(np.abs(w.imag)) > DEGENERACY_TOL * scale
    else:
        pair = np.zeros(len(w), dtype=bool)
    if w.shape[1] == 2:
        w0, w1 = w.real.T
        swap = w1 < w0
        order = np.empty(w.shape, dtype=np.intp)
        order[:, 0] = swap
        order[:, 1] = ~swap
        lam = np.empty(w.shape)
        lam[:, 0] = np.where(swap, w1, w0)
        lam[:, 1] = np.where(swap, w0, w1)
        coalesced = lam[:, 1] - lam[:, 0] < DEGENERACY_TOL * scale
    else:
        order = np.argsort(w.real, axis=1)
        lam = np.take_along_axis(w.real, order, axis=1)
        coalesced = np.any(np.diff(lam, axis=1) < DEGENERACY_TOL * scale[:, None], axis=1)
    return lam, order, pair, coalesced


def _checked_spectrum(A: np.ndarray, w: np.ndarray, c_min: float, x=None):
    """``_spectrum`` of a stack that must be strictly hyperbolic: (lambdas, order).

    Raises NotStrictlyHyperbolic on complex pairs or coalescing eigenvalues
    and Characteristic when some |lambda_j| < c_min; with ``x`` given the
    message names the x location of the first offending matrix.
    """
    def where(i):
        return "" if x is None else f" at x = {x[i]:.6g}"

    lam, order, pair, coalesced = _spectrum(A, w)
    if np.any(pair):
        i = int(np.argmax(pair))
        raise NotStrictlyHyperbolic(f"complex eigenvalues {w[i]}{where(i)}")
    if np.any(coalesced):
        i = int(np.argmax(coalesced))
        raise NotStrictlyHyperbolic(
            f"eigenvalue gap below {DEGENERACY_TOL} in {lam[i]}{where(i)}")
    if c_min > 0.0 and np.min(np.abs(lam)) < c_min:  # no |lambda| is below 0
        i = int(np.argmin(np.min(np.abs(lam), axis=1)))
        raise Characteristic(
            f"min |lambda| = {np.min(np.abs(lam)):.6g} below bound {c_min}{where(i)}")
    return lam, order


def _frames_of(V: np.ndarray, order: np.ndarray):
    """(L, R) from ``eig``'s vectors V: columns in ``order``, sign-fixed, L = R^{-1}."""
    R = np.take_along_axis(V.real, order[:, None, :], axis=2)
    _sign_fix(R)
    return np.linalg.inv(R), R


def _decompose_batch(A: np.ndarray, c_min: float, grid: np.ndarray | None = None):
    """Sorted real eigendecompositions (lambdas, L, R) of a stack of matrices,
    checked by ``_checked_spectrum`` at the locations ``grid``."""
    w, V = np.linalg.eig(A)
    lam, order = _checked_spectrum(A, w, c_min, grid)
    return (lam, *_frames_of(V, order))


def _eigvals_2x2(A: np.ndarray, c_min: float, grid: np.ndarray | None = None) -> np.ndarray:
    """Sorted eigenvalues of a stack of real 2x2 matrices in closed form,
    checked by ``_checked_spectrum`` at the locations ``grid``.

    The eigenvalues of [[a, b], [c, d]] are m -+ r, with m = (a + d)/2 and
    r^2 = ((a - d)/2)^2 + b c; the root nearer zero is det / (the farther
    root), which cancels nothing.
    """
    if not np.all(np.isfinite(A)):  # refused as LAPACK refuses it
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    m = 0.5 * (a + d)
    h = 0.5 * (a - d)
    disc = h * h + b * c
    r = np.sqrt(np.abs(disc))
    far = m + np.copysign(r, m)
    near = np.zeros_like(far)  # far = 0: a double root at 0, not NaN
    np.divide(a * d - b * c, far, out=near, where=far != 0.0)
    w = np.stack([near, far], axis=1)
    pair = disc < 0.0
    if np.any(pair):
        w = w.astype(complex)
        w[pair] = m[pair, None] + np.outer(r[pair], [-1j, 1j])
    return _checked_spectrum(A, w, c_min, grid)[0]


def _decompose_2x2(A: np.ndarray, c_min: float, grid: np.ndarray | None = None):
    """``_decompose_batch`` of a stack of real 2x2 matrices, in closed form.

    The eigenvalues are those of ``_eigvals_2x2``.  Column j of R is the
    larger of (b, l - a) and (l - d, c) at l = lambda_j, each orthogonal to
    one row of A - l I, and L = R^{-1} is the adjugate of R over its
    determinant.  The entries of R are formed and sign-fixed as contiguous
    rows over the stack, ``rows[i, j]`` = R[:, i, j], and read from there.
    """
    lam = _eigvals_2x2(A, c_min, grid)
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    lam_rows = np.ascontiguousarray(lam.T)
    la = lam_rows - a
    ld = lam_rows - d
    first = np.abs(b) + np.abs(la) >= np.abs(ld) + np.abs(c)
    rows = np.empty((2, 2, len(A)))
    rows[0] = np.where(first, b, ld)
    rows[1] = np.where(first, la, c)
    del la, ld, first  # keeps the peak memory of a large stack low
    _sign_fix(np.moveaxis(rows, -1, 0))  # the (node, i, j) view, fixed in place
    (r00, r01), (r10, r11) = rows
    det = r00 * r11 - r01 * r10
    R, L = np.empty_like(A), np.empty_like(A)
    R[:, 0, 0], R[:, 0, 1], R[:, 1, 0], R[:, 1, 1] = r00, r01, r10, r11
    L[:, 0, 0] = r11 / det
    L[:, 0, 1] = -r01 / det
    L[:, 1, 0] = -r10 / det
    L[:, 1, 1] = r00 / det
    return lam, L, R


@dataclass
class FrameField:
    """Eigenframes at every grid node, with signs continued along the grid.

    ``constant`` marks one decomposition (constant A) held as read-only views;
    such a field builds the matrices of its products once, on first use.  A
    state-dependent field from ``frames_at_states`` keeps the matrices ``A``
    it decomposed, which the source at those states reads.
    """

    grid: np.ndarray
    lambdas: np.ndarray  # (n, N)
    L: np.ndarray        # (n, N, N)
    R: np.ndarray        # (n, N, N)
    constant: bool = False
    A: np.ndarray | None = None  # (n, N, N), or None

    @cached_property
    def _L0T(self) -> np.ndarray:
        return np.ascontiguousarray(self.L[0].T)

    @cached_property
    def _R0T(self) -> np.ndarray:
        return np.ascontiguousarray(self.R[0].T)

    @cached_property
    def kron(self) -> np.ndarray:
        """L0 (x) R0 of a constant field, arranged so that Q.reshape(n, N * N) @ kron
        is L0 Q R0 per node, flattened: (L Q R)_jk = sum_ab L_ja Q_ab R_bk."""
        N = self.L.shape[-1]
        return np.einsum("ja,bk->abjk", self.L[0], self.R[0]).reshape(N * N, N * N)

    def to_diag(self, V: np.ndarray) -> np.ndarray:
        """Diagonal variables L V at every node of a field V (n, N)."""
        if self.constant:
            return V @ self._L0T
        return self.diag_rows(V).T

    def diag_rows(self, V: np.ndarray) -> np.ndarray:
        """``to_diag(V)`` family-major, (N, n), C-contiguous: for a constant
        field one product L0 V^T, otherwise one ``node_matmul`` into the rows."""
        if self.constant:
            return self.L[0] @ V.T
        rows = np.empty(V.shape[::-1])
        node_matmul(self.L, V, out=rows.T)
        return rows

    def from_diag(self, Phi: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        """State field R Phi at every node of diagonal variables Phi (n, N),
        written into ``out`` when given."""
        if self.constant:
            return np.matmul(Phi, self._R0T, out=out)
        return node_matmul(self.R, Phi, out=out)

    @property
    def min_abs_lambda(self) -> float:
        return float(np.min(np.abs(self.lambdas)))

    @property
    def min_gap(self) -> float:
        if self.lambdas.shape[1] < 2:
            return float("inf")
        return float(np.min(np.diff(self.lambdas, axis=1)))


def _flip_parity(steps: np.ndarray) -> np.ndarray:
    """Whether row i is flipped against row 0, for ``steps[i - 1]`` the signed
    step from row i - 1 to row i (one column per independent sequence).

    A negative step flips, a positive one keeps; one that is not strictly
    signed (zero or NaN) restarts at unflipped.  Row i is thus flipped when
    the negative steps since the last restart are odd in number: the running
    exclusive-or of the negative steps, against its value at that restart.
    """
    neg = steps < 0
    flip = np.zeros((len(steps) + 1,) + steps.shape[1:], dtype=bool)
    np.logical_xor.accumulate(neg, axis=0, out=flip[1:])
    restarts = ~(neg | (steps > 0))
    if not restarts.any():
        return flip
    # last row at or before i whose step is not strictly signed
    restart = np.zeros(flip.shape, dtype=np.intp)
    rows = np.arange(1, len(flip)).reshape((-1,) + (1,) * (steps.ndim - 1))
    restart[1:] = np.where(restarts, rows, 0)
    restart = np.maximum.accumulate(restart, axis=0)
    return flip ^ np.take_along_axis(flip, restart, axis=0)


def _continue_signs(lambdas: np.ndarray, L: np.ndarray, R: np.ndarray) -> None:
    """Flip signs so consecutive right eigenvectors have positive inner products.

    Flipping column j at node i - 1 negates its inner product with node i
    exactly, so the sign of node i is the ``_flip_parity`` of the raw inner
    products: restarted at +1 after one that is not strictly signed (zero or
    NaN), where no flip is made.  The flips scale R's columns and L's rows by
    -1, which negates exactly, and only when some node flips.
    """
    steps = np.empty((len(R) - 1, R.shape[-1]))
    for j, step in enumerate(steps.T):
        node_dot([(R[1:, k, j], R[:-1, k, j]) for k in range(R.shape[1])], step)
    flip = _flip_parity(steps)
    if flip.any():
        sign = np.where(flip, -1.0, 1.0)
        R *= sign[:, None, :]
        L *= sign[:, :, None]


def frames_at_states(model: ModelSpec, grid: np.ndarray, states: np.ndarray,
                     c_min: float = 0.0) -> FrameField:
    """Decompose A at every state and continue eigenvector signs along the grid.

    Constant A is decomposed once (LAPACK) and held as read-only views.  A
    state-dependent A is decomposed at every node: in closed form when
    N = 2, with LAPACK ``eig``/``inv`` otherwise; the field keeps A(states).
    """
    grid = np.asarray(grid, dtype=float)
    states = np.asarray(states, dtype=float)
    if model.A_is_constant:
        lam, L, R = _decompose_batch(model.A_at(states[:1]), c_min)
        n, N = states.shape
        return FrameField(grid=grid, lambdas=np.broadcast_to(lam[0], (n, N)),
                          L=np.broadcast_to(L[0], (n, N, N)),
                          R=np.broadcast_to(R[0], (n, N, N)), constant=True)
    decompose_stack = _decompose_2x2 if model.N == 2 else _decompose_batch
    A = model.A_at(states)
    lam, L, R = decompose_stack(A, c_min, grid)
    _continue_signs(lam, L, R)
    return FrameField(grid=grid, lambdas=lam, L=L, R=R, A=A)


def profile_lambdas(model: ModelSpec, profile: ProfileRep, x: np.ndarray,
                    c_min: float = 0.0) -> np.ndarray:
    """Sorted eigenvalues of A(Ubar(x)) at points x, (len(x), N), equal to
    ``frames_at_states(...).lambdas`` with its checks.  The profile is
    evaluated only where A depends on the state; a constant A is decomposed
    once.  For N = 2 no eigenvectors are formed; N >= 3 takes them from
    ``frames_at_states``, whose LAPACK ``eig`` may round its eigenvalues
    differently from ``eigvals``."""
    x = np.asarray(x, dtype=float)
    if model.A_is_constant:
        lam = _decompose_batch(model.A_at(np.zeros((1, model.N))), c_min)[0]
        return np.broadcast_to(lam[0], (len(x), model.N))
    states = profile.eval(x)
    if model.N == 2:
        return _eigvals_2x2(model.A_at(states), c_min, x)
    return frames_at_states(model, x, states, c_min).lambdas


def theta_field(lambdas: np.ndarray, F_tilde: np.ndarray,
                gap_min: float = GAP_MIN) -> np.ndarray:
    """Solve [Theta, Lambda] = F at every grid node.

    Theta_jk = F_jk / (lambda_k - lambda_j) off the diagonal, zero on it.
    Each off-diagonal pair (j, k) is one difference of two contiguous rows
    of lambda^T and one division along the grid.  GapTooSmall is one
    ``np.min`` of |lambda_k - lambda_j| over every pair and node: a NaN
    eigenvalue makes that minimum NaN, which raises nothing, and makes its
    pairs' entries of Theta NaN.
    """
    N = lambdas.shape[1]
    pairs = [(j, k) for j in range(N) for k in range(N) if j != k]
    lam = np.ascontiguousarray(lambdas.T)
    denom = np.empty((len(pairs), len(lambdas)))
    for d, (j, k) in zip(denom, pairs):
        np.subtract(lam[k], lam[j], out=d)
    if denom.size and np.min(np.abs(denom)) < gap_min:
        raise GapTooSmall(f"eigenvalue gap below {gap_min} along the field")
    Theta = np.zeros_like(F_tilde)
    for d, (j, k) in zip(denom, pairs):
        np.divide(F_tilde[:, j, k], d, out=Theta[:, j, k])
    return Theta


def source_diagonals(model: ModelSpec, states: np.ndarray):
    """Sorted eigenvalues of A and the diagonal of L Q R at each row of ``states``.

    One batched ``eig`` serves the whole stack.  A row where A is not strictly
    hyperbolic (a complex pair or coalescing eigenvalues, the tests of
    ``_checked_spectrum``) has no frame and is NaN in both (n, N) arrays.
    """
    states = np.asarray(states, dtype=float)
    A = model.A_at(states)
    w, V = np.linalg.eig(A)
    lam, order, pair, coalesced = _spectrum(A, w)
    ok = ~(pair | coalesced)
    L, R = _frames_of(V[ok], order[ok])
    E = np.full(lam.shape, np.nan)
    E[ok] = np.matmul(np.matmul(L, model.Q_at(states[ok])), R)[
        :, np.eye(model.N, dtype=bool)]
    lam[~ok] = np.nan
    return lam, E


def endstate_diagonals(model: ModelSpec):
    """``source_diagonals`` at (U-, U+): eigenvalues and diag(L Q R), rows in
    that order; NotStrictlyHyperbolic when A is not strictly hyperbolic there."""
    lam, E = source_diagonals(model, np.stack([model.U_minus, model.U_plus]))
    for side, row in zip("-+", lam):
        if np.isnan(row[0]):
            raise NotStrictlyHyperbolic(f"A is not strictly hyperbolic at U{side}")
    return lam, E


def damping_rate(model: ModelSpec) -> DampingRate:
    """theta_E = -max_j E^{+-}_jj / 2; requires all endstate diagonals negative."""
    _, (e_minus, e_plus) = endstate_diagonals(model)
    worst = float(max(e_minus.max(), e_plus.max()))
    if worst >= 0.0:
        raise NotDissipative(
            f"endstate source diagonal not negative: E- = {e_minus}, E+ = {e_plus}")
    return DampingRate(theta_E=-0.5 * worst, theta_E_signed=0.5 * worst,
                       E_minus=e_minus, E_plus=e_plus)


def _frame_transport(frames: FrameField) -> np.ndarray:
    """Frame-transport matrix -Lambda L dR/dx at every node, (n, N, N), with
    dR/dx by ``np.gradient`` at the spacing of the frames' uniform grid."""
    dx = frames.grid[1] - frames.grid[0]
    T = node_matmul(frames.L, np.gradient(frames.R, dx, axis=0))
    T *= -frames.lambdas[:, :, None]
    return T


def source_diagonal_and_transport(model: ModelSpec, states: np.ndarray,
                                  frames: FrameField):
    """``transformed_source``'s E_diag (n, N) and transport (n, N, N) along a
    state-dependent field.

    Only the diagonals of L Q R and of the transport are added, each
    diagonal entry of L Q R the ``node_dot`` that ``transformed_source``
    forms for it; no F_tilde is formed.  E is the transposed view of
    family-major rows.
    """
    LQ, R = node_matmul(frames.L, model.Q_at(states)), frames.R
    T = _frame_transport(frames)
    N = R.shape[-1]
    E = np.empty((N, len(R)))
    for j, row in enumerate(E):
        node_dot([(LQ[:, j, k], R[:, k, j]) for k in range(N)], row)
        row += T[:, j, j]
    return E.T, T


@dataclass
class SourceField:
    """Transformed source along a state field.

    ``E_diag[i, j]`` is the damping coefficient of family j at node i: the jj
    entry of L Q R minus the frame-transport term Lambda L dR/dx (zero for
    state-independent A).  ``F_tilde`` is the off-diagonal remainder,
    ``transport`` the raw transport matrix, and ``Theta`` the commutator
    conjugation matrix.
    """

    E_diag: np.ndarray     # (n, N)
    F_tilde: np.ndarray    # (n, N, N)
    transport: np.ndarray  # (n, N, N)
    frames: FrameField
    Theta: np.ndarray      # (n, N, N)


def transformed_source(model: ModelSpec, states: np.ndarray,
                       frames: FrameField) -> SourceField:
    """Full transformed source L Q R - Lambda L dR/dx split along a state field,
    whose eigenframes ``frames`` are those of ``frames_at_states`` on the
    field's grid."""
    states = np.asarray(states, dtype=float)
    Q = model.Q_at(states)
    n, N = states.shape
    if model.A_is_constant:
        M = (Q.reshape(n, N * N) @ frames.kron).reshape(n, N, N)
        T = np.broadcast_to(0.0, (n, N, N))  # no frame transport; read-only
    else:
        M = node_matmul(node_matmul(frames.L, Q), frames.R)
        T = _frame_transport(frames)
        M += T
    eye = np.eye(N, dtype=bool)
    E_diag = M[:, eye]
    F_tilde = M  # in place: M is fresh here and E_diag holds the diagonal
    F_tilde[:, eye] = 0.0
    return SourceField(E_diag=E_diag, F_tilde=F_tilde, transport=T,
                       frames=frames, Theta=theta_field(frames.lambdas, F_tilde))
