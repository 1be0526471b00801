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
hyperbolic), all with the same spectrum tests and sign convention.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property, reduce

import numpy as np

from .errors import Characteristic, GapTooSmall, NotDissipative, NotStrictlyHyperbolic
from .model import ModelSpec
from .profile import ProfileRep

GAP_MIN = 1e-6  # absolute eigenvalue-gap floor guarding the Theta division
DEGENERACY_TOL = 1e-10


@dataclass(frozen=True)
class EigenFrame:
    """Eigendata of the coefficient matrix at one state.

    Rows of L are left eigenvectors, columns of R right eigenvectors, with
    L R = I and eigenvalues sorted ascending.
    """

    lambdas: np.ndarray
    L: np.ndarray
    R: np.ndarray


@dataclass(frozen=True)
class SourceSplit:
    """Diagonal/off-diagonal split E + F of L Q R."""

    E: np.ndarray
    F: np.ndarray


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
    (complex pairs among them) first index first, as ``argsort`` does.
    """
    scale = 1.0 + _row_max(np.abs(A).reshape(len(A), -1))
    pair = _row_max(np.abs(w.imag)) > DEGENERACY_TOL * scale
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
    if np.min(np.abs(lam)) < c_min:
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


def _decompose_2x2(A: np.ndarray, c_min: float, grid: np.ndarray | None = None):
    """``_decompose_batch`` of a stack of real 2x2 matrices, in closed form.

    The eigenvalues of [[a, b], [c, d]] are m -+ r, with m = (a + d)/2 and
    r^2 = ((a - d)/2)^2 + b c; the root nearer zero is det / (the farther
    root), which cancels nothing.  Column j of R is the larger of (b, l - a)
    and (l - d, c) at l = lambda_j, each orthogonal to one row of A - l I,
    and L = R^{-1} is the adjugate of R over its determinant.
    """
    if not np.all(np.isfinite(A)):  # refused as LAPACK refuses it
        raise np.linalg.LinAlgError("Array must not contain infs or NaNs")
    a, b, c, d = A[:, 0, 0], A[:, 0, 1], A[:, 1, 0], A[:, 1, 1]
    m = 0.5 * (a + d)
    h = 0.5 * (a - d)
    disc = h * h + b * c
    r = np.sqrt(np.abs(disc))
    far = m + np.copysign(r, m)
    with np.errstate(divide="ignore", invalid="ignore"):  # far = 0: a double root
        near = np.where(far != 0.0, (a * d - b * c) / far, 0.0)  # at 0, not NaN
    w = np.stack([near, far], axis=1)
    pair = disc < 0.0
    if np.any(pair):
        w = w.astype(complex)
        w[pair] = m[pair, None] + np.outer(r[pair], [-1j, 1j])
    lam, _ = _checked_spectrum(A, w, c_min, grid)
    del m, h, disc, r, far, near, w, pair  # keeps the peak memory of a large stack low
    la = lam - a[:, None]
    ld = lam - d[:, None]
    b, c = b[:, None], c[:, None]
    first = np.abs(b) + np.abs(la) >= np.abs(ld) + np.abs(c)
    R = np.empty_like(A)
    R[:, 0, :] = np.where(first, b, ld)
    R[:, 1, :] = np.where(first, la, c)
    del la, ld, first  # likewise before L
    _sign_fix(R)
    det = R[:, 0, 0] * R[:, 1, 1] - R[:, 0, 1] * R[:, 1, 0]
    L = np.empty_like(R)
    L[:, 0, 0] = R[:, 1, 1] / det
    L[:, 0, 1] = -R[:, 0, 1] / det
    L[:, 1, 0] = -R[:, 1, 0] / det
    L[:, 1, 1] = R[:, 0, 0] / det
    return lam, L, R


def decompose(A: np.ndarray, c_min: float = 0.0) -> EigenFrame:
    """Sorted real eigendecomposition of one matrix with L = R^{-1}."""
    lam, L, R = _decompose_batch(np.asarray(A, dtype=float)[None], c_min)
    return EigenFrame(lambdas=lam[0], L=L[0], R=R[0])


@dataclass
class FrameField:
    """Eigenframes at every grid node, with signs continued along the grid.

    ``constant`` marks one decomposition (constant A) held as read-only views;
    such a field builds the matrices of its products once, on first use.
    """

    grid: np.ndarray
    lambdas: np.ndarray  # (n, N)
    L: np.ndarray        # (n, N, N)
    R: np.ndarray        # (n, N, N)
    constant: bool = False

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

    @cached_property
    def _kron_diag_rows(self) -> np.ndarray:
        N = self.L.shape[-1]
        return np.ascontiguousarray(self.kron[:, ::N + 1].T)

    def conjugate_diag(self, Q: np.ndarray) -> np.ndarray:
        """diag(L0 Q R0) at every node of a stack Q (n, N, N), for a constant
        field, family-major (N, n): one product of the diagonal columns of
        ``kron`` with the flattened stack."""
        return self._kron_diag_rows @ Q.reshape(len(Q), -1).T

    def to_diag(self, V: np.ndarray) -> np.ndarray:
        """Diagonal variables L V at every node of a field V (n, N)."""
        if self.constant:
            return V @ self._L0T
        return np.einsum("njk,nk->nj", self.L, V)

    def diag_rows(self, V: np.ndarray) -> np.ndarray:
        """``to_diag(V)`` family-major, (N, n): for a constant field one
        C-contiguous product L0 V^T, otherwise the transposed view."""
        if self.constant:
            return self.L[0] @ V.T
        return self.to_diag(V).T

    def from_diag(self, Phi: np.ndarray) -> np.ndarray:
        """State field R Phi at every node of diagonal variables Phi (n, N)."""
        if self.constant:
            return Phi @ self._R0T
        return np.einsum("njk,nk->nj", self.R, Phi)

    @property
    def min_abs_lambda(self) -> float:
        return float(np.min(np.abs(self.lambdas)))

    @property
    def min_gap(self) -> float:
        if self.lambdas.shape[1] < 2:
            return float("inf")
        return float(np.min(np.diff(self.lambdas, axis=1)))

    @property
    def lipschitz(self) -> float:
        """Recorded frame-continuity constant max |frame(x_{i+1}) - frame(x_i)| / dx."""
        if len(self.grid) < 2:
            return 0.0
        dx = np.diff(self.grid)
        dR = np.max(np.abs(np.diff(self.R, axis=0)), axis=(1, 2))
        dl = np.max(np.abs(np.diff(self.lambdas, axis=0)), axis=1)
        return float(np.max(np.maximum(dR, dl) / dx))


def _flip_parity(steps: np.ndarray) -> np.ndarray:
    """Whether row i is flipped against row 0, for ``steps[i - 1]`` the signed
    step from row i - 1 to row i (one column per independent sequence).

    A negative step flips, a positive one keeps; one that is not strictly
    signed (zero or NaN) restarts at unflipped.  Row i is thus flipped when
    the negative steps since the last restart are odd in number.
    """
    n = len(steps) + 1
    neg = np.zeros((n,) + steps.shape[1:], dtype=np.int64)
    neg[1:] = np.cumsum(steps < 0, axis=0)
    # last row at or before i whose step is not strictly signed
    restart = np.zeros(neg.shape, dtype=np.int64)
    rows = np.arange(1, n).reshape((-1,) + (1,) * (steps.ndim - 1))
    restart[1:] = np.where((steps < 0) | (steps > 0), 0, rows)
    restart = np.maximum.accumulate(restart, axis=0)
    return (neg - np.take_along_axis(neg, restart, axis=0)) % 2 == 1


def _continue_signs(lambdas: np.ndarray, L: np.ndarray, R: np.ndarray) -> None:
    """Flip signs so consecutive right eigenvectors have positive inner products.

    Flipping column j at node i - 1 negates its inner product with node i
    exactly, so the sign of node i is the ``_flip_parity`` of the raw inner
    products: restarted at +1 after one that is not strictly signed (zero or
    NaN), where no flip is made.
    """
    flip = _flip_parity(np.einsum("ikj,ikj->ij", R[1:], R[:-1]))
    np.negative(R, out=R, where=flip[:, None, :])
    np.negative(L, out=L, where=flip[:, :, None])


def frames_at_states(model: ModelSpec, grid: np.ndarray, states: np.ndarray,
                     c_min: float = 0.0) -> FrameField:
    """Decompose A at every state and continue eigenvector signs along the grid.

    Constant A is decomposed once (LAPACK) and held as read-only views.  A
    state-dependent A is decomposed at every node: in closed form when
    N = 2, with LAPACK ``eig``/``inv`` otherwise.
    """
    grid = np.asarray(grid, dtype=float)
    states = np.asarray(states, dtype=float)
    if model.A_is_constant:
        frame = decompose(model.A_at(states[0]), c_min)
        n, N = states.shape
        return FrameField(grid=grid, lambdas=np.broadcast_to(frame.lambdas, (n, N)),
                          L=np.broadcast_to(frame.L, (n, N, N)),
                          R=np.broadcast_to(frame.R, (n, N, N)), constant=True)
    decompose_stack = _decompose_2x2 if model.N == 2 else _decompose_batch
    lam, L, R = decompose_stack(model.A_at(states), c_min, grid)
    _continue_signs(lam, L, R)
    return FrameField(grid=grid, lambdas=lam, L=L, R=R)


def profile_lambdas(model: ModelSpec, profile: ProfileRep, x: np.ndarray,
                    c_min: float = 0.0) -> np.ndarray:
    """Sorted eigenvalues of A(Ubar(x)) at points x, (len(x), N), with the
    checks of ``frames_at_states``.  The profile is evaluated only where A
    depends on the state; a constant A is decomposed once."""
    x = np.asarray(x, dtype=float)
    if model.A_is_constant:
        lam = decompose(model.A_at(np.zeros(model.N)), c_min).lambdas
        return np.broadcast_to(lam, (len(x), model.N))
    return frames_at_states(model, x, profile.eval(x), c_min).lambdas


def frame_along_profile(model: ModelSpec, profile: ProfileRep,
                        c_min: float = 0.0) -> FrameField:
    """Eigenframes at every profile node."""
    return frames_at_states(model, profile.grid, profile.values, c_min)


def source_split(frame: EigenFrame, Qmat: np.ndarray) -> SourceSplit:
    """Split L Q R into diagonal E and off-diagonal F."""
    M = frame.L @ np.asarray(Qmat, dtype=float) @ frame.R
    E = np.diag(np.diag(M))
    return SourceSplit(E=E, F=M - E)


def _theta_field(lambdas: np.ndarray, F_tilde: np.ndarray,
                 gap_min: float = GAP_MIN) -> np.ndarray:
    """Solve [Theta, Lambda] = F at every grid node.

    Theta_jk = F_jk / (lambda_k - lambda_j) off the diagonal, zero on it.
    """
    denom = lambdas[:, None, :] - lambdas[:, :, None]
    N = lambdas.shape[1]
    off = ~np.eye(N, dtype=bool)
    denom_off = denom[:, off]
    if denom_off.size and np.min(np.abs(denom_off)) < gap_min:
        raise GapTooSmall(f"eigenvalue gap below {gap_min} along the field")
    Theta = np.zeros_like(F_tilde)
    Theta[:, off] = F_tilde[:, off] / denom_off
    return Theta


def theta_matrix(frame: EigenFrame, F_tilde: np.ndarray,
                 gap_min: float = GAP_MIN) -> np.ndarray:
    """Solve the commutator equation [Theta, Lambda] = F at one state."""
    F = np.asarray(F_tilde, dtype=float)[None]
    return _theta_field(frame.lambdas[None], F, gap_min)[0]


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


@dataclass
class SourceField:
    """Transformed source along a state field.

    ``E_diag[i, j]`` is the damping coefficient of family j at node i: the jj
    entry of L Q R minus the frame-transport term Lambda L dR/dx (zero for
    state-independent A).  ``F_tilde`` is the off-diagonal remainder,
    ``transport`` the raw transport matrix, and ``Theta`` the commutator
    conjugation matrix.
    """

    grid: np.ndarray
    E_diag: np.ndarray     # (n, N)
    F_tilde: np.ndarray    # (n, N, N)
    transport: np.ndarray  # (n, N, N)
    frames: FrameField
    Theta: np.ndarray | None = None


def transformed_source(model: ModelSpec, grid: np.ndarray, states: np.ndarray,
                       frames: FrameField | None = None,
                       with_theta: bool = True) -> SourceField:
    """Full transformed source L Q R - Lambda L dR/dx split along a state field."""
    grid = np.asarray(grid, dtype=float)
    states = np.asarray(states, dtype=float)
    if frames is None:
        frames = frames_at_states(model, grid, states)
    Q = model.Q_at(states)
    n, N = states.shape
    if model.A_is_constant:
        M = (Q.reshape(n, N * N) @ frames.kron).reshape(n, N, N)
        T = np.broadcast_to(0.0, (n, N, N))  # no frame transport; read-only
    else:
        M = np.matmul(np.matmul(frames.L, Q), frames.R)
        Rx = np.gradient(frames.R, grid, axis=0)
        T = -frames.lambdas[:, :, None] * np.matmul(frames.L, Rx)
        M = M + T
    eye = np.eye(N, dtype=bool)
    E_diag = M[:, eye]
    F_tilde = M  # in place: M is fresh here and E_diag holds the diagonal
    F_tilde[:, eye] = 0.0
    Theta = _theta_field(frames.lambdas, F_tilde) if with_theta else None
    return SourceField(grid=grid, E_diag=E_diag, F_tilde=F_tilde, transport=T,
                       frames=frames, Theta=Theta)


def profile_source_field(model: ModelSpec, profile: ProfileRep,
                         frames: FrameField | None = None) -> SourceField:
    """Transformed source along the stationary profile."""
    return transformed_source(model, profile.grid, profile.values, frames)
