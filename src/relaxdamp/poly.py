"""Multivariate polynomials with exact differentiation.

Model coefficients are specified as polynomial entries so that Jacobians and
the higher profile derivatives can be computed in closed form instead of by
finite differences.  A polynomial is a list of monomials ``(coeff, powers)``
where ``powers`` has one exponent per state variable.

Entries are evaluated on component columns: the Python floats of a single
state (``U.tolist()``) or the column views ``U[..., k]`` of a stack.  Both
run one monomial loop in one order, summed from +0 (a float, or a
zero-filled output array), with x * x for a square and numpy's ``power``
for higher exponents, and a constant entry is the sum of its coefficients.
So a state gives the same bits alone as in a stack, and a single state
costs no per-entry numpy call.

Per-node products of small matrices over a stack of nodes (``node_matmul``)
are taken on component columns too: each entry is a ``node_dot``, a sum of
multiply-adds over the node axis, left to right from +0.  For two terms
that is ``np.einsum``'s sum, signed zeros included.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np


@dataclass(frozen=True)
class Poly:
    """Polynomial in ``n_vars`` variables as a tuple of monomial terms."""

    n_vars: int
    terms: tuple[tuple[float, tuple[int, ...]], ...]

    def __post_init__(self):
        for coeff, powers in self.terms:
            if len(powers) != self.n_vars:
                raise ValueError(
                    f"term {powers} has {len(powers)} exponents, expected {self.n_vars}"
                )

    @classmethod
    def constant(cls, n_vars: int, value: float) -> "Poly":
        if value == 0.0:
            return cls(n_vars, ())
        return cls(n_vars, ((float(value), (0,) * n_vars),))

    @classmethod
    def variable(cls, n_vars: int, index: int) -> "Poly":
        powers = tuple(1 if k == index else 0 for k in range(n_vars))
        return cls(n_vars, ((1.0, powers),))

    @classmethod
    def univariate(cls, n_vars: int, index: int, coeffs) -> "Poly":
        """Polynomial sum_k coeffs[k] * x_index**k embedded in n_vars variables."""
        terms = []
        for k, c in enumerate(coeffs):
            if c == 0.0:
                continue
            powers = tuple(k if j == index else 0 for j in range(n_vars))
            terms.append((float(c), powers))
        return cls(n_vars, tuple(terms))

    @cached_property
    def is_constant(self) -> bool:
        return all(all(p == 0 for p in powers) for _, powers in self.terms)

    @cached_property
    def _monomials(self) -> tuple:
        """Terms as (coeff, ((k, p), ...)) with the zero exponents dropped."""
        return tuple((coeff, tuple((k, p) for k, p in enumerate(powers) if p))
                     for coeff, powers in self.terms)

    def at(self, columns, total=0.0):
        """The polynomial at component ``columns`` (see the module docstring),
        added to ``total``: +0.0 for floats, which gives a float, or a
        zero-filled array for column views, which the sum accumulates in
        place.  Each monomial is its coefficient times its factors, left to
        right."""
        for coeff, factors in self._monomials:
            term = coeff
            for k, p in factors:
                term = term * (columns[k] if p == 1 else _power(columns[k], p))
            total += term
        return total

    def diff(self, var: int) -> "Poly":
        """Exact partial derivative with respect to variable ``var``."""
        terms = []
        for coeff, powers in self.terms:
            p = powers[var]
            if p == 0:
                continue
            new_powers = tuple(q - 1 if k == var else q for k, q in enumerate(powers))
            terms.append((coeff * p, new_powers))
        return Poly(self.n_vars, tuple(terms))

    def scaled(self, factor: float) -> "Poly":
        return Poly(self.n_vars, tuple((c * factor, p) for c, p in self.terms))

    def __add__(self, other: "Poly") -> "Poly":
        if self.n_vars != other.n_vars:
            raise ValueError("mismatched variable counts")
        return Poly(self.n_vars, self.terms + other.terms)


def _power(x, p: int):
    """x ** p of a column, p >= 2: numpy's for an array, which squares x ** 2
    (x * x) and takes its vectorized pow above that.  A float takes x * x for
    a square and numpy's power above, since numpy's pow need not round as
    libm's does: the bits of the column it belongs to."""
    if isinstance(x, np.ndarray):
        return x ** p
    return x * x if p == 2 else float(np.power(x, p))


def _columns(U: np.ndarray):
    """Component columns of states U (..., n): floats for one state, else views."""
    return U.tolist() if U.ndim == 1 else [U[..., k] for k in range(U.shape[-1])]


def poly_matrix_eval(entries, U: np.ndarray) -> np.ndarray:
    """Evaluate a nested sequence of Poly entries at U (..., n) -> (..., rows, cols)."""
    U = np.asarray(U, dtype=float)
    columns = _columns(U)
    if U.ndim == 1:
        return np.array([[p.at(columns) for p in row] for row in entries])
    out = np.zeros(U.shape[:-1] + (len(entries), len(entries[0])))
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            p.at(columns, out[..., i, j])
    return out


def poly_vector_eval(entries, U: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Evaluate a sequence of Poly entries at U (..., n) -> (..., len(entries)),
    into ``out`` (zero-filled here) when given for a stack."""
    U = np.asarray(U, dtype=float)
    columns = _columns(U)
    if U.ndim == 1:
        return np.array([p.at(columns) for p in entries])
    if out is None:
        out = np.zeros(U.shape[:-1] + (len(entries),))
    else:
        out.fill(0.0)
    for i, p in enumerate(entries):
        p.at(columns, out[..., i])
    return out


def node_dot(pairs, out: np.ndarray) -> np.ndarray:
    """Sum of the products a * b of the ``pairs`` of node arrays, into ``out``:
    ((+0 + a_0 b_0) + a_1 b_1) + ..., left to right."""
    (a, b), *rest = pairs
    np.multiply(a, b, out=out)
    out += 0.0  # +0 + x: turns only a -0 into +0
    for a, b in rest:
        out += a * b
    return out


def node_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-node product of a (..., I, K) with matrices b (..., K, J) or vectors
    b (..., K): (..., I, J) or (..., I), written into ``out`` when given.  Each
    entry is one ``node_dot`` of K pairs of component columns over the nodes."""
    vector = b.ndim == a.ndim - 1
    if out is None:
        out = np.empty(a.shape[:-1] if vector else a.shape[:-1] + b.shape[-1:])
    b3, out3 = (b[..., None], out[..., None]) if vector else (b, out)
    K = a.shape[-1]
    for i in range(a.shape[-2]):
        for j in range(b3.shape[-1]):
            node_dot([(a[..., i, k], b3[..., k, j]) for k in range(K)], out3[..., i, j])
    return out


def jacobian_polys(entries) -> tuple[tuple[Poly, ...], ...]:
    """Exact Jacobian of a polynomial vector field: row i, column k = d entries[i] / d x_k."""
    n_vars = entries[0].n_vars
    return tuple(
        tuple(entries[i].diff(k) for k in range(n_vars)) for i in range(len(entries))
    )
