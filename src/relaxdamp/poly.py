"""Multivariate polynomials with exact differentiation.

Model coefficients are specified as polynomial entries so that Jacobians and
the higher profile derivatives can be computed in closed form instead of by
finite differences.  A polynomial is a list of monomials ``(coeff, powers)``
where ``powers`` has one exponent per state variable.
"""

from __future__ import annotations

from dataclasses import dataclass

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

    @property
    def is_constant(self) -> bool:
        return all(all(p == 0 for p in powers) for _, powers in self.terms)

    def __call__(self, U: np.ndarray) -> np.ndarray:
        """Evaluate at states ``U`` of shape (..., n_vars); returns shape (...)."""
        U = np.asarray(U, dtype=float)
        out = np.zeros(U.shape[:-1], dtype=float)
        for coeff, powers in self.terms:
            term = coeff
            for k, p in enumerate(powers):
                if p == 1:
                    term = term * U[..., k]
                elif p > 1:
                    term = term * U[..., k] ** p
            out += term
        return out

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


def poly_matrix_eval(entries, U: np.ndarray) -> np.ndarray:
    """Evaluate a nested sequence of Poly entries at U (..., n) -> (..., rows, cols)."""
    U = np.asarray(U, dtype=float)
    out = np.zeros(U.shape[:-1] + (len(entries), len(entries[0])), dtype=float)
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            if p.terms:
                out[..., i, j] = p(U)
    return out


def poly_vector_eval(entries, U: np.ndarray) -> np.ndarray:
    """Evaluate a sequence of Poly entries at U (..., n) -> (..., len(entries))."""
    U = np.asarray(U, dtype=float)
    out = np.zeros(U.shape[:-1] + (len(entries),), dtype=float)
    for i, p in enumerate(entries):
        if p.terms:
            out[..., i] = p(U)
    return out


def jacobian_polys(entries) -> tuple[tuple[Poly, ...], ...]:
    """Exact Jacobian of a polynomial vector field: row i, column k = d entries[i] / d x_k."""
    n_vars = entries[0].n_vars
    return tuple(
        tuple(entries[i].diff(k) for k in range(n_vars)) for i in range(len(entries))
    )
