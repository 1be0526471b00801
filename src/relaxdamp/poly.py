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

A stack of matrices (..., rows, cols) is stored node-last: each entry is one
contiguous row over the nodes, and the (..., rows, cols) array a reader
indexes by node is a transposed view of those rows.  Per-node products of
small matrices (``node_matmul``) are one ``node_dot`` over such rows: for
each k, one broadcast multiply-add of the rows a[..., :, k] and b[..., k, :]
into all I x J entries at once, every entry summed left to right from +0.
For two terms that is ``np.einsum``'s sum, signed zeros included.  So an
N x N product makes 2N numpy calls over contiguous rows, where one sum per
entry over strided node-major columns makes 2N^3, and the bits do not
depend on the layout the operands come in.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache, cached_property

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
    """Evaluate a nested sequence of Poly entries at U (..., n) -> (..., rows, cols),
    node-last for a stack."""
    U = np.asarray(U, dtype=float)
    columns = _columns(U)
    if U.ndim == 1:
        return np.array([[p.at(columns) for p in row] for row in entries])
    rows = np.zeros((len(entries), len(entries[0])) + U.shape[:-1])
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            p.at(columns, rows[i, j])
    return rows.transpose(_to_front(rows.ndim, rows.ndim - 2))


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


@cache
def _to_front(ndim: int, m: int) -> tuple[int, ...]:
    """Axis order moving the last m of ndim axes to the front, in order; its
    inverse is ``_to_front(ndim, ndim - m)``."""
    return (*range(ndim - m, ndim), *range(ndim - m))


def node_rows(a: np.ndarray) -> np.ndarray:
    """The component rows (I, J, ...) of a stack a (..., I, J), as a view."""
    return a.transpose(_to_front(a.ndim, 2))


def node_last(a: np.ndarray) -> np.ndarray:
    """A stack (n, ...) read through the same view with its node axis last in
    memory: a copy unless it is node-last already."""
    rows = np.ascontiguousarray(a.transpose(_to_front(a.ndim, a.ndim - 1)))
    return rows.transpose(_to_front(a.ndim, 1))


def node_dot(a: np.ndarray, b: np.ndarray, out: np.ndarray) -> np.ndarray:
    """Sum over the first axis of the broadcast products a[k] * b[k], into
    ``out``: ((+0 + a_0 b_0) + a_1 b_1) + ..., left to right, one broadcast
    multiply-add per k."""
    np.multiply(a[0], b[0], out=out)
    out += 0.0  # +0 + x: turns only a -0 into +0
    for k in range(1, len(a)):
        out += a[k] * b[k]
    return out


def node_matmul(a: np.ndarray, b: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """Per-node product of a (..., I, K) with matrices b (..., K, J) or vectors
    b (..., K) over the same nodes: (..., I, J) or (..., I), written into
    ``out`` when given, else into fresh node-last rows.  One ``node_dot``
    over the component rows, its k-th term a[..., :, k] b[..., k, :]."""
    nd, m = b.ndim, b.ndim - a.ndim + 2  # m: component axes of b and the product
    if out is None:
        out = np.empty(a.shape[-2:-1] + b.shape[a.ndim - 1:] + a.shape[:-2])
        out = out.transpose(_to_front(nd, nd - m))
    b_rows, out_rows = b.transpose(_to_front(nd, m)), out.transpose(_to_front(nd, m))
    if m == 1:  # the vectors as one-column matrices
        b_rows, out_rows = b_rows[:, None], out_rows[:, None]
    node_dot(node_rows(a).swapaxes(0, 1)[:, :, None], b_rows[:, None], out_rows)
    return out


def jacobian_polys(entries) -> tuple[tuple[Poly, ...], ...]:
    """Exact Jacobian of a polynomial vector field: row i, column k = d entries[i] / d x_k."""
    n_vars = entries[0].n_vars
    return tuple(
        tuple(entries[i].diff(k) for k in range(n_vars)) for i in range(len(entries))
    )
