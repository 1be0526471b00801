"""Relaxation system definitions.

A model is the quasilinear balance law ``U_t + A(U) U_x = q(U)`` posed on an
admissible state box, with the shock frame already absorbed into ``A``.  The
built-in system is the Jin-Xin relaxation of a scalar conservation law; custom
systems are specified through polynomial matrix/vector entries so the source
Jacobian ``Q = dq`` stays available in closed form.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .errors import DegenerateShock, InvalidParam, OutOfDomain, ValidationFailed
from .poly import Poly, jacobian_polys, poly_matrix_eval, poly_vector_eval

# Padding of the admissible box around the endstate segment: half the
# diameter plus an absolute floor, per component.
BOX_PAD_FRACTION = 0.5
BOX_PAD_FLOOR = 0.5


def _as_poly(n_vars: int, spec) -> Poly:
    """Coerce an entry spec (number | term list | Poly) into a Poly."""
    if isinstance(spec, Poly):
        return spec
    if isinstance(spec, (int, float)):
        return Poly.constant(n_vars, float(spec))
    terms = tuple((float(c), tuple(int(p) for p in powers)) for c, powers in spec)
    return Poly(n_vars, terms)


@dataclass(frozen=True)
class ModelSpec:
    """Immutable relaxation system; all evaluators are pure functions."""

    name: str
    N: int
    params: dict
    state_box: tuple[np.ndarray, np.ndarray]
    shock_speed: float
    A_entries: tuple
    q_entries: tuple
    Q_entries: tuple
    U_minus: np.ndarray | None = None
    U_plus: np.ndarray | None = None
    flux_coeffs: tuple | None = field(default=None)

    @cached_property
    def A_is_constant(self) -> bool:
        return all(p.is_constant for row in self.A_entries for p in row)

    @cached_property
    def _A_const(self) -> np.ndarray:
        return poly_matrix_eval(self.A_entries, np.zeros(self.N))

    # Unchecked batched evaluators for hot loops; the public eval_* wrappers
    # enforce the state box.
    def A_at(self, U: np.ndarray) -> np.ndarray:
        U = np.asarray(U, dtype=float)
        if self.A_is_constant:
            return np.broadcast_to(self._A_const, U.shape[:-1] + (self.N, self.N))
        return poly_matrix_eval(self.A_entries, U)

    def q_at(self, U: np.ndarray) -> np.ndarray:
        return poly_vector_eval(self.q_entries, U)

    def Q_at(self, U: np.ndarray) -> np.ndarray:
        return poly_matrix_eval(self.Q_entries, U)

    @cached_property
    def dA_entries(self) -> tuple:
        """dA_entries[k][i][j] = d A_ij / d U_k, exact."""
        return tuple(
            tuple(tuple(self.A_entries[i][j].diff(k) for j in range(self.N))
                  for i in range(self.N))
            for k in range(self.N)
        )

    def in_box(self, U: np.ndarray) -> np.ndarray:
        lo, hi = self.state_box
        U = np.asarray(U, dtype=float)
        return np.all((U >= lo) & (U <= hi), axis=-1)

    def require_in_box(self, U: np.ndarray) -> None:
        U = np.asarray(U, dtype=float)
        if not np.all(np.isfinite(U)):
            raise OutOfDomain(f"non-finite state {U}")
        if not np.all(self.in_box(U)):
            raise OutOfDomain(
                f"state {U} outside admissible box {self.state_box[0]}..{self.state_box[1]}"
            )


def eval_A(model: ModelSpec, U: np.ndarray) -> np.ndarray:
    """Coefficient matrix A(U); raises OutOfDomain outside the state box."""
    model.require_in_box(U)
    return model.A_at(np.asarray(U, dtype=float))


def eval_q(model: ModelSpec, U: np.ndarray) -> np.ndarray:
    """Source term q(U); raises OutOfDomain outside the state box."""
    model.require_in_box(U)
    return model.q_at(np.asarray(U, dtype=float))


def eval_Q(model: ModelSpec, U: np.ndarray) -> np.ndarray:
    """Exact source Jacobian Q(U) = dq(U)."""
    model.require_in_box(U)
    return model.Q_at(np.asarray(U, dtype=float))


def _padded_box(points) -> tuple[np.ndarray, np.ndarray]:
    pts = np.asarray(points, dtype=float)
    lo = pts.min(axis=0)
    hi = pts.max(axis=0)
    pad = BOX_PAD_FRACTION * (hi - lo) + BOX_PAD_FLOOR
    return lo - pad, hi + pad


def build_jinxin(a: float, eps: float, flux, u_minus: float, u_plus: float) -> ModelSpec:
    """Jin-Xin relaxation of u_t + f(u)_x = 0 in the frame of its shock.

    State U = (u, v) with A = [[-s, 1], [a^2, -s]] and q = (0, (f(u) - v)/eps),
    where the shock speed s comes from the Rankine-Hugoniot condition of the
    reduced conservation law.  ``flux`` lists polynomial coefficients of f,
    lowest order first.
    """
    if a <= 0:
        raise InvalidParam(f"wave speed a must be positive, got {a}")
    if eps <= 0:
        raise InvalidParam(f"relaxation time eps must be positive, got {eps}")
    if u_minus == u_plus:
        raise DegenerateShock(f"equal endstates u={u_minus}")
    flux = tuple(float(c) for c in flux)

    def f(u):
        return sum(c * u**k for k, c in enumerate(flux))

    s = (f(u_plus) - f(u_minus)) / (u_plus - u_minus)

    A = (
        (Poly.constant(2, -s), Poly.constant(2, 1.0)),
        (Poly.constant(2, a * a), Poly.constant(2, -s)),
    )
    # q_2 = (f(u) - v)/eps
    q2 = Poly.univariate(2, 0, [c / eps for c in flux]) + Poly.variable(2, 1).scaled(-1.0 / eps)
    q = (Poly.constant(2, 0.0), q2)
    Q = jacobian_polys(q)

    U_minus = np.array([u_minus, f(u_minus)])
    U_plus = np.array([u_plus, f(u_plus)])
    return ModelSpec(
        name="jinxin",
        N=2,
        params={"a": float(a), "eps": float(eps), "u_minus": float(u_minus),
                "u_plus": float(u_plus)},
        state_box=_padded_box([U_minus, U_plus]),
        shock_speed=float(s),
        A_entries=A,
        q_entries=q,
        Q_entries=Q,
        U_minus=U_minus,
        U_plus=U_plus,
        flux_coeffs=flux,
    )


def build_custom(
    name: str,
    N: int,
    A_entries,
    q_entries,
    U_minus=None,
    U_plus=None,
    Q_entries=None,
    state_box=None,
    shock_speed: float = 0.0,
    params: dict | None = None,
) -> ModelSpec:
    """Assemble a model from polynomial entry specs.

    ``Q_entries`` defaults to the exact Jacobian of ``q_entries``; passing it
    explicitly is only useful for injecting a deliberately wrong Jacobian in
    validation tests.  Without endstates an explicit ``state_box`` is required.
    """
    if N < 1:
        raise InvalidParam(f"state dimension must be positive, got {N}")
    A = tuple(tuple(_as_poly(N, e) for e in row) for row in A_entries)
    q = tuple(_as_poly(N, e) for e in q_entries)
    if len(A) != N or any(len(row) != N for row in A) or len(q) != N:
        raise InvalidParam("A must be NxN and q length N")
    Q = jacobian_polys(q) if Q_entries is None else tuple(
        tuple(_as_poly(N, e) for e in row) for row in Q_entries
    )

    U_minus = None if U_minus is None else np.asarray(U_minus, dtype=float)
    U_plus = None if U_plus is None else np.asarray(U_plus, dtype=float)
    if state_box is None:
        if U_minus is None or U_plus is None:
            raise InvalidParam("custom model needs endstates or an explicit state_box")
        state_box = _padded_box([U_minus, U_plus])
    else:
        state_box = (np.asarray(state_box[0], dtype=float),
                     np.asarray(state_box[1], dtype=float))

    model = ModelSpec(
        name=name, N=N, params=params or {}, state_box=state_box,
        shock_speed=float(shock_speed), A_entries=A, q_entries=q, Q_entries=Q,
        U_minus=U_minus, U_plus=U_plus,
    )
    for U_end, side in ((U_minus, "U-"), (U_plus, "U+")):
        if U_end is not None:
            res = np.max(np.abs(model.q_at(U_end)))
            if res > 1e-10 * (1.0 + float(np.max(np.abs(U_end)))):
                raise InvalidParam(f"endstate {side} is not an equilibrium of q "
                                   f"(|q| = {res:.3e})")
    return model


def fd_jacobian(fun, U: np.ndarray) -> np.ndarray:
    """Central-difference Jacobian with per-component step h = 1e-6 (1 + |U_i|)."""
    U = np.asarray(U, dtype=float)
    n = U.shape[-1]
    m = len(np.atleast_1d(fun(U)))
    J = np.empty((m, n))
    for k in range(n):
        h = 1e-6 * (1.0 + abs(U[k]))
        Up = U.copy(); Up[k] += h
        Um = U.copy(); Um[k] -= h
        J[:, k] = (fun(Up) - fun(Um)) / (2.0 * h)
    return J


@dataclass(frozen=True)
class ValidationReport:
    n_samples: int
    max_rel_jacobian_error: float
    worst_state: np.ndarray
    finite_ok: bool


def validate_model(model: ModelSpec, n_samples: int, seed: int = 0,
                   tol: float = 1e-6) -> ValidationReport:
    """Sample the state box and check Q against the finite-difference Jacobian of q.

    All samples are evaluated as one stack, the difference quotients with
    the per-sample steps of ``fd_jacobian``.  Raises ValidationFailed
    (carrying the worst offending state, the first of equal ones) when the
    relative Jacobian error exceeds ``tol``, or naming the first sample with
    a non-finite evaluation.
    """
    if n_samples < 1:
        raise InvalidParam(f"n_samples must be >= 1, got {n_samples}")
    rng = np.random.default_rng(seed)
    lo, hi = model.state_box
    samples = lo + (hi - lo) * rng.random((n_samples, model.N))
    Qv = model.Q_at(samples)
    finite = (np.all(np.isfinite(model.A_at(samples)), axis=(1, 2))
              & np.all(np.isfinite(model.q_at(samples)), axis=1)
              & np.all(np.isfinite(Qv), axis=(1, 2)))
    if not np.all(finite):
        raise ValidationFailed("non-finite evaluation", state=samples[np.argmin(finite)])
    J = np.empty_like(Qv)
    for k in range(model.N):
        h = 1e-6 * (1.0 + np.abs(samples[:, k]))
        Up = samples.copy(); Up[:, k] += h
        Um = samples.copy(); Um[:, k] -= h
        J[:, :, k] = (model.q_at(Up) - model.q_at(Um)) / (2.0 * h)[:, None]
    err = np.max(np.abs(Qv - J), axis=(1, 2)) / (1.0 + np.max(np.abs(Qv), axis=(1, 2)))
    i = int(np.argmax(np.where(err > 0.0, err, 0.0)))  # NaN errors never lead
    worst_err, worst_state = (float(err[i]), samples[i]) if err[i] > 0.0 \
        else (0.0, samples[0])
    report = ValidationReport(
        n_samples=n_samples,
        max_rel_jacobian_error=worst_err,
        worst_state=worst_state,
        finite_ok=True,
    )
    if worst_err > tol:
        raise ValidationFailed(
            f"Jacobian mismatch {worst_err:.3e} exceeds {tol:.1e}",
            state=worst_state, error=worst_err,
        )
    return report
