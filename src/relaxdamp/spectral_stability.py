"""High-frequency dissipativity of the endstate symbols.

Certifies that the spectrum of i xi A(U+-) + Q(U+-) has uniformly negative
real part beyond a frequency threshold, validates the large-frequency
expansion of the eigenvalues against the diagonalized source entries, and
scans strict hyperbolicity / non-characteristicity along the profile.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import permutations

import numpy as np

from .errors import InvalidParam, PairingAmbiguous, ScanTooCoarse
from .eigenframe import FrameField, _flip_parity, endstate_diagonals
from .model import ModelSpec

XI_MIN_DEFAULT = 0.01


def _endstate(model: ModelSpec, side: str) -> np.ndarray:
    U = model.U_minus if side == "minus" else model.U_plus
    if U is None:
        raise InvalidParam(f"model has no {side} endstate")
    return U


def _symbol_eigvals(model: ModelSpec, side: str, xi) -> np.ndarray:
    """Unsorted eigenvalues of i xi A(U_side) + Q(U_side), one stacked ``eigvals``
    for an array of frequencies xi (one row each)."""
    U = _endstate(model, side)
    xi = np.asarray(xi, dtype=float)[..., None, None]
    return np.linalg.eigvals(1j * xi * model.A_at(U) + model.Q_at(U))


def _by_im_re(mu: np.ndarray) -> np.ndarray:
    """Each row of eigenvalues sorted by (Im, Re)."""
    return np.take_along_axis(mu, np.lexsort((mu.real, mu.imag), axis=-1), axis=-1)


def symbol_spectrum(model: ModelSpec, side: str, xi) -> np.ndarray:
    """Eigenvalues of i xi A(U_side) + Q(U_side), sorted by (Im, Re); one row
    per frequency for an array xi."""
    return _by_im_re(_symbol_eigvals(model, side, xi))


@dataclass
class SpectralScan:
    """Spectrum of one endstate symbol over a frequency grid.

    ``spectra[m, j]`` is branch j at ``xi_grid[m]``; branches are continued
    across the grid by nearest-neighbor matching in the complex plane.
    """

    side: str
    xi_grid: np.ndarray
    spectra: np.ndarray

    @property
    def worst_real(self) -> np.ndarray:
        return self.spectra.real.max(axis=1)


def _min_cost_permutation(cost, perms):
    """The permutation p of ``perms`` with the least sum_i cost[i][p[i]]; on a
    tie, the first of them.  An exact assignment by enumeration: ``perms``
    holds all N! permutations, few for the N of a relaxation system."""
    best, least = perms[0], math.inf
    for p in perms:
        total = 0.0
        for row, j in zip(cost, p):
            total += row[j]
        if total < least:
            best, least = p, total
    return best


def _scan_side(model: ModelSpec, side: str, xi_grid: np.ndarray) -> SpectralScan:
    """All symbol spectra of one side from one stacked ``eigvals``; branches are
    ordered by (Im, Re) at the first frequency and continued by the matching
    that moves them least in total from one frequency to the next.

    For N = 2 there is no loop over frequencies.  Against the raw rows, the
    matching at frequency m is a swap when the swap is strictly cheaper than
    the raw order and the matching at m - 1 is not, or the other way round;
    on a tie it is the raw order.  That is the ``_flip_parity`` of the cost
    differences, formed as the enumeration forms its costs.
    """
    spectra = _symbol_eigvals(model, side, xi_grid)
    if model.N == 2:
        spectra[0] = _by_im_re(spectra[0])
        prev, mu = spectra[:-1], spectra[1:]

        def dist(a, b):  # abs(b - a) of Python complex numbers
            d = b - a
            return np.hypot(d.real, d.imag)

        keep = dist(prev[:, 0], mu[:, 0]) + dist(prev[:, 1], mu[:, 1])
        swap = dist(prev[:, 0], mu[:, 1]) + dist(prev[:, 1], mu[:, 0])
        swapped = _flip_parity(swap - keep)
        spectra[swapped] = spectra[swapped, ::-1]
        return SpectralScan(side=side, xi_grid=xi_grid, spectra=spectra)
    rows = spectra.tolist()
    rows[0] = _by_im_re(spectra[0]).tolist()
    perms = list(permutations(range(model.N)))
    for m in range(1, len(rows)):
        prev, mu = rows[m - 1], rows[m]
        p = _min_cost_permutation([[abs(b - a) for b in mu] for a in prev], perms)
        rows[m] = [mu[j] for j in p]
    return SpectralScan(side=side, xi_grid=xi_grid, spectra=np.array(rows))


@dataclass
class Certificate:
    """Scanned dissipativity certificate Re sigma <= -margin for |xi| >= threshold."""

    passed: bool
    margin: float
    threshold: float | None
    achieved: float | None
    xi_min: float
    xi_max: float
    witness_xi: float | None = None
    witness_re: float | None = None
    witness_side: str | None = None
    scans: dict = field(default_factory=dict)


def dissipativity_certificate(model: ModelSpec, xi_max: float, n_xi: int,
                              margin: float,
                              xi_min: float = XI_MIN_DEFAULT) -> Certificate:
    """Scan both endstate symbols over a log-spaced frequency grid.

    Finds the smallest scanned threshold C with max Re mu <= -margin for all
    scanned xi >= C on both sides (negative frequencies follow by conjugate
    symmetry of real-matrix symbols).  The zero mode at small xi never blocks
    certification; failure at the top of the range does, with a witness.
    """
    if xi_max <= 0 or xi_min <= 0 or xi_max <= xi_min:
        raise InvalidParam("need 0 < xi_min < xi_max")
    if n_xi < 100:
        raise InvalidParam(f"n_xi must be >= 100, got {n_xi}")
    xi_grid = np.geomspace(xi_min, xi_max, n_xi)
    scans = {side: _scan_side(model, side, xi_grid) for side in ("minus", "plus")}

    worst = np.maximum(scans["minus"].worst_real, scans["plus"].worst_real)
    jumps = np.max(np.abs(np.diff(scans["minus"].spectra.real, axis=0)))
    jumps = max(jumps, np.max(np.abs(np.diff(scans["plus"].spectra.real, axis=0))))
    if jumps > 10.0 * margin:
        raise ScanTooCoarse(
            f"Re mu jumps by {jumps:.3g} between adjacent xi (margin {margin})")

    ok = worst <= -margin
    if not ok[-1]:
        i = int(np.where(~ok)[0][-1])
        side = "minus" if scans["minus"].worst_real[i] >= scans["plus"].worst_real[i] \
            else "plus"
        return Certificate(passed=False, margin=margin, threshold=None,
                           achieved=None, xi_min=xi_min, xi_max=xi_max,
                           witness_xi=float(xi_grid[i]), witness_re=float(worst[i]),
                           witness_side=side, scans=scans)
    # smallest grid point from which the condition holds through xi_max
    bad = np.where(~ok)[0]
    start = int(bad[-1]) + 1 if bad.size else 0
    return Certificate(passed=True, margin=margin,
                       threshold=float(xi_grid[start]),
                       achieved=float(-worst[start:].max()),
                       xi_min=xi_min, xi_max=xi_max, scans=scans)


@dataclass
class ExpansionCheck:
    """Fit of the O(1/|xi|) remainder in the high-frequency eigenvalue expansion."""

    side: str
    xi_list: np.ndarray
    re_by_branch: np.ndarray      # (n_xi, N) paired Re mu_j
    im_over_xi: np.ndarray        # (n_xi, N) paired Im mu_j / xi
    E_diag: np.ndarray
    remainder_constant: float     # max over xi, j of |xi| * |Re mu_j - E_jj|


def expansion_check(model: ModelSpec, side: str, xi_list) -> ExpansionCheck:
    """Pair symbol branches to iota lambda_j xi + E_jj and bound the remainder.

    Branches are matched by imaginary part against lambda_j xi; the pairing
    must be injective at every listed frequency.  All symbol spectra come
    from one stacked ``eigvals``.
    """
    _endstate(model, side)
    lam, E = (rows[0 if side == "minus" else 1] for rows in endstate_diagonals(model))
    xi_list = np.asarray(sorted(xi_list), dtype=float)
    if np.min(np.abs(xi_list)) < 10.0 * np.max(np.abs(lam)) * (1.0 - 1e-9):
        raise InvalidParam("expansion check needs |xi| >= 10 max |lambda|")
    mu = symbol_spectrum(model, side, xi_list)
    dist = np.abs(mu.imag[:, None, :] - lam[None, :, None] * xi_list[:, None, None])
    pick = np.argmin(dist, axis=2)
    picked = np.sort(pick, axis=1)
    crossed = np.any(picked[:, 1:] == picked[:, :-1], axis=1)
    close = np.zeros(len(xi_list), dtype=bool)
    if model.N > 1:
        gap = np.min(np.diff(lam))
        ranked = np.sort(dist, axis=2)
        close = np.any(ranked[:, :, 1] - ranked[:, :, 0]
                       < 0.1 * gap * np.abs(xi_list)[:, None], axis=1)
    if np.any(crossed | close):
        m = int(np.argmax(crossed | close))
        how = "cross" if crossed[m] else "within tolerance"
        raise PairingAmbiguous(f"branch imaginary parts {how} at xi = {xi_list[m]:.6g}")
    re_b = np.take_along_axis(mu.real, pick, axis=1)
    im_over = np.take_along_axis(mu.imag, pick, axis=1) / xi_list[:, None]
    worst = float(np.max(np.abs(xi_list)[:, None] * np.abs(re_b - E)))
    return ExpansionCheck(side=side, xi_list=xi_list, re_by_branch=re_b,
                          im_over_xi=im_over, E_diag=E, remainder_constant=worst)


@dataclass
class HyperbolicityReport:
    min_abs_lambda: float
    min_gap: float
    c_min: float
    passed: bool


def hyperbolicity_scan(frames: FrameField, c_min: float) -> HyperbolicityReport:
    """Aggregate the spectral margins of the eigenframes at every profile node.

    Structural defects (complex or coalescing eigenvalues) raise
    NotStrictlyHyperbolic with the offending location when ``frames`` are
    built (``frames_at_states`` at c_min = 0); falling short of the requested
    non-characteristicity bound is reported as a failed scan.
    """
    min_abs = frames.min_abs_lambda
    min_gap = frames.min_gap
    return HyperbolicityReport(
        min_abs_lambda=min_abs, min_gap=min_gap, c_min=c_min,
        passed=bool(min_abs >= c_min and min_gap > 0.0),
    )
