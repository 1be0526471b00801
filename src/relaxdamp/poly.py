"""Multivariate polynomials with exact differentiation.

Model coefficients are specified as polynomial entries so that Jacobians and
the higher profile derivatives can be computed in closed form instead of by
finite differences.  A polynomial is a list of monomials ``(coeff, powers)``
where ``powers`` has one exponent per state variable.
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
    def value(self) -> float:
        """A constant polynomial's value, summed in term order as evaluation sums it."""
        total = 0.0
        for coeff, _ in self.terms:
            total += coeff
        return total

    @cached_property
    def _monomials(self) -> tuple:
        """Terms as (coeff, ((k, p), ...)) with the zero exponents dropped."""
        return tuple((coeff, tuple((k, p) for k, p in enumerate(powers) if p))
                     for coeff, powers in self.terms)

    def __call__(self, U: np.ndarray) -> np.ndarray:
        """Evaluate at states ``U`` of shape (..., n_vars); returns shape (...)."""
        U = np.asarray(U, dtype=float)
        out = np.zeros(U.shape[:-1], dtype=float)
        self.add_to(out, U)
        return out

    def add_to(self, out: np.ndarray, U: np.ndarray) -> None:
        """out += the polynomial at ``U``, one monomial at a time."""
        for coeff, factors in self._monomials:
            term = coeff
            for k, p in factors:
                term = term * (U[..., k] if p == 1 else U[..., k] ** p)
            out += term

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


def _fill(out: np.ndarray, p: Poly, U: np.ndarray) -> None:
    """Evaluate p at U into the zero-filled ``out``: a constant as its value."""
    if p.is_constant:
        if p.terms:
            out[...] = p.value
    else:
        p.add_to(out, U)


def poly_matrix_eval(entries, U: np.ndarray) -> np.ndarray:
    """Evaluate a nested sequence of Poly entries at U (..., n) -> (..., rows, cols)."""
    U = np.asarray(U, dtype=float)
    out = np.zeros(U.shape[:-1] + (len(entries), len(entries[0])), dtype=float)
    for i, row in enumerate(entries):
        for j, p in enumerate(row):
            _fill(out[..., i, j], p, U)
    return out


def poly_vector_eval(entries, U: np.ndarray) -> np.ndarray:
    """Evaluate a sequence of Poly entries at U (..., n) -> (..., len(entries))."""
    U = np.asarray(U, dtype=float)
    out = np.zeros(U.shape[:-1] + (len(entries),), dtype=float)
    for i, p in enumerate(entries):
        _fill(out[..., i], p, U)
    return out


def jacobian_polys(entries) -> tuple[tuple[Poly, ...], ...]:
    """Exact Jacobian of a polynomial vector field: row i, column k = d entries[i] / d x_k."""
    n_vars = entries[0].n_vars
    return tuple(
        tuple(entries[i].diff(k) for k in range(n_vars)) for i in range(len(entries))
    )
