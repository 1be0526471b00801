"""Endstate symbol spectra, dissipativity certificates, expansion checks."""

from __future__ import annotations

import math
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.optimize import linear_sum_assignment

from conftest import vara_model
from relaxdamp import build_custom, build_jinxin, frames_at_states
from relaxdamp.config import config_from_dict
from relaxdamp.eigenframe import _decompose_batch
from relaxdamp.errors import InvalidParam, PairingAmbiguous, ScanTooCoarse
from relaxdamp.poly import Poly
from relaxdamp.spectral_stability import (
    _min_cost_permutation,
    _scan_side,
    dissipativity_certificate,
    expansion_check,
    hyperbolicity_scan,
    symbol_spectrum,
)


def decay_model(rates=(-1.0, -1.0), A=None):
    Aentries = A if A is not None else [[0.0, 0.0], [0.0, 0.0]]
    q = [Poly.variable(2, 0).scaled(rates[0]), Poly.variable(2, 1).scaled(rates[1])]
    return build_custom("decay", 2, Aentries, q, U_minus=[0.0, 0.0],
                        U_plus=[0.0, 0.0], state_box=([-1.0, -1.0], [1.0, 1.0]))


def test_symbol_at_zero_frequency(jinxin):
    mu = symbol_spectrum(jinxin, "plus", 0.0)
    assert np.allclose(sorted(mu.real), [-1.0, 0.0], atol=1e-12)
    assert np.allclose(mu.imag, 0.0, atol=1e-12)


def test_symbol_frequency_independent_without_advection():
    m = decay_model(rates=(-2.0, -5.0))
    for xi in (0.0, 3.0, 50.0):
        mu = symbol_spectrum(m, "minus", xi)
        assert np.allclose(sorted(mu.real), [-5.0, -2.0], atol=1e-12)
        assert np.allclose(mu.imag, 0.0, atol=1e-12)


def test_symbol_high_frequency_real_parts(jinxin):
    mu = symbol_spectrum(jinxin, "plus", 50.0)
    assert np.allclose(sorted(mu.real), [-0.75, -0.25], atol=0.05)


def test_conjugate_symmetry(jinxin):
    for xi in (0.3, 3.7, 42.0):
        mu_p = np.sort_complex(symbol_spectrum(jinxin, "minus", xi))
        mu_m = np.sort_complex(symbol_spectrum(jinxin, "minus", -xi))
        assert np.max(np.abs(mu_m - np.sort_complex(np.conj(mu_p)))) <= 1e-12


def test_certificate_default_model(jinxin):
    cert = dissipativity_certificate(jinxin, xi_max=100.0, n_xi=400, margin=0.1)
    assert cert.passed
    assert cert.achieved >= 0.1
    assert cert.threshold <= 5.0


def test_certificate_monotone_under_larger_scan(jinxin):
    c1 = dissipativity_certificate(jinxin, xi_max=100.0, n_xi=400, margin=0.1)
    c2 = dissipativity_certificate(jinxin, xi_max=400.0, n_xi=400, margin=0.1)
    assert c2.passed
    assert c2.threshold <= c1.threshold * 1.05  # certified region never shrinks


def test_certificate_supercharacteristic_fails():
    m = build_jinxin(a=0.5, eps=1.0, flux=[0, 0, 0.5], u_minus=1.0, u_plus=-1.0)
    cert = dissipativity_certificate(m, xi_max=100.0, n_xi=400, margin=0.1)
    assert not cert.passed
    assert cert.witness_xi is not None
    assert cert.witness_re == pytest.approx(0.5, abs=0.01)


def test_certificate_trivial_decay_model():
    m = decay_model()
    cert = dissipativity_certificate(m, xi_max=10.0, n_xi=100, margin=0.9,
                                     xi_min=0.01)
    assert cert.passed
    assert cert.threshold == pytest.approx(0.01)
    assert cert.achieved == pytest.approx(1.0)


def test_certificate_preconditions(jinxin):
    with pytest.raises(InvalidParam):
        dissipativity_certificate(jinxin, xi_max=100.0, n_xi=50, margin=0.1)
    with pytest.raises(InvalidParam):
        dissipativity_certificate(jinxin, xi_max=0.001, n_xi=100, margin=0.1)


def test_scan_too_coarse(jinxin):
    with pytest.raises(ScanTooCoarse):
        dissipativity_certificate(jinxin, xi_max=100.0, n_xi=100, margin=1e-5)


def test_expansion_check_bounded(jinxin):
    for side in ("minus", "plus"):
        res = expansion_check(jinxin, side, [20.0, 40.0, 80.0, 160.0])
        assert res.remainder_constant <= 0.1
        assert np.allclose(sorted(res.E_diag), [-0.75, -0.25], atol=1e-12)
        # real parts approach E monotonically from the scanned side
        gaps = np.abs(res.re_by_branch - res.E_diag[None, :])
        assert np.all(np.diff(gaps, axis=0) <= 1e-12)
        assert np.max(np.abs(np.abs(res.im_over_xi[-1]) - 2.0)) <= 1e-3


def test_expansion_exact_for_commuting_symbol():
    m = decay_model(rates=(-2.0, -5.0), A=[[-1.0, 0.0], [0.0, 3.0]])
    res = expansion_check(m, "plus", [30.0, 60.0, 120.0])
    assert res.remainder_constant <= 1e-10


def test_expansion_requires_high_frequency(jinxin):
    with pytest.raises(InvalidParam):
        expansion_check(jinxin, "plus", [5.0, 40.0])


def _crossing_model():
    """Nearly coalescing speeds with strong coupling, which mix the branches."""
    A = [[1.0, 0.0], [0.0, 1.0 + 1e-8]]
    q = [Poly.variable(2, 0).scaled(-1.0) + Poly.variable(2, 1).scaled(5.0),
         Poly.variable(2, 0).scaled(5.0) + Poly.variable(2, 1).scaled(-2.0)]
    return build_custom("near", 2, A, q, U_minus=[0.0, 0.0], U_plus=[0.0, 0.0],
                        state_box=([-1.0, -1.0], [1.0, 1.0]))


def test_expansion_pairing_ambiguous():
    with pytest.raises(PairingAmbiguous):
        expansion_check(_crossing_model(), "plus", [20.0, 40.0])


def _expansion_per_frequency(model, side, xi_list):
    """expansion_check one frequency at a time: its (re, im / xi, remainder),
    or the message of the PairingAmbiguous it raises."""
    U = model.U_minus if side == "minus" else model.U_plus
    lams, L, R = _decompose_batch(model.A_at(U)[None], 0.0)
    lam, E = lams[0], np.diag(L[0] @ model.Q_at(U) @ R[0])
    rows = []
    worst = 0.0
    gap = np.min(np.diff(lam)) if model.N > 1 else np.inf
    for xi in sorted(xi_list):
        mu = np.linalg.eigvals(1j * xi * model.A_at(U) + model.Q_at(U))
        mu = mu[np.lexsort((mu.real, mu.imag))]
        dist = np.abs(mu.imag[None, :] - lam[:, None] * xi)
        pick = np.argmin(dist, axis=1)
        if len(set(pick.tolist())) != model.N:
            return f"branch imaginary parts cross at xi = {xi:.6g}"
        ranked = np.sort(dist, axis=1)
        if model.N > 1 and np.any(ranked[:, 1] - ranked[:, 0] < 0.1 * gap * abs(xi)):
            return f"branch imaginary parts within tolerance at xi = {xi:.6g}"
        rows.append((mu.real[pick], mu.imag[pick] / xi))
        worst = max(worst, float(np.max(np.abs(xi) * np.abs(mu.real[pick] - E))))
    re, im = (np.array(r) for r in zip(*rows))
    return re, im, worst


@pytest.mark.parametrize("name", ["jinxin", "varA", "near", "coupled3"])
def test_stacked_expansion_check_matches_per_frequency_loop(name, jinxin):
    u = Poly.variable(3, 0)
    model, xi_list = {
        "jinxin": (jinxin, [160.0, 20.0, 40.0, 80.0, 33.0]),
        "varA": (vara_model(), [25.0, 50.0, 100.0, 200.0]),
        "near": (_crossing_model(), [20.0, 40.0]),
        "coupled3": (build_custom(
            "coupled3", 3, [[-1.0, 0.5, 0.0], [0.0, 0.5, 0.2], [0.0, 0.0, 2.0]],
            [u.scaled(-1.0) + Poly.variable(3, 1).scaled(0.3),
             Poly.variable(3, 1).scaled(-2.0),
             Poly.variable(3, 2).scaled(-0.5) + u.scaled(0.1)],
            U_minus=[0.0, 0.0, 0.0], U_plus=[0.0, 0.0, 0.0],
            state_box=([-1.0] * 3, [1.0] * 3)), [30.0, 60.0, 120.0]),
    }[name]
    for side in ("minus", "plus"):
        want = _expansion_per_frequency(model, side, xi_list)
        if isinstance(want, str):
            with pytest.raises(PairingAmbiguous) as err:
                expansion_check(model, side, xi_list)
            assert str(err.value) == want
            continue
        res = expansion_check(model, side, xi_list)
        assert np.array_equal(res.re_by_branch, want[0])
        assert np.array_equal(res.im_over_xi, want[1])
        assert res.remainder_constant == want[2]


def test_hyperbolicity_scan_passes(jinxin, jinxin_profile):
    frames = frames_at_states(jinxin, jinxin_profile.grid, jinxin_profile.values)
    rep = hyperbolicity_scan(frames, c_min=1.0)
    assert rep.passed
    assert rep.min_abs_lambda == pytest.approx(2.0, abs=1e-12)
    assert rep.min_gap == pytest.approx(4.0, abs=1e-12)


def test_hyperbolicity_scan_threshold_fail(jinxin, jinxin_profile):
    frames = frames_at_states(jinxin, jinxin_profile.grid, jinxin_profile.values)
    rep = hyperbolicity_scan(frames, c_min=3.0)
    assert not rep.passed
    assert rep.min_abs_lambda == pytest.approx(2.0, abs=1e-12)


def test_characteristic_shock_frame_fails():
    # s = a puts one eigenvalue of the frame-shifted matrix at zero
    m = build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0.5], u_minus=3.0, u_plus=1.0)
    assert m.shock_speed == pytest.approx(2.0)
    from relaxdamp.profile import constant_profile

    prof = constant_profile(m, m.U_minus, X=5.0, n=51)
    rep = hyperbolicity_scan(frames_at_states(m, prof.grid, prof.values), c_min=0.01)
    assert not rep.passed
    assert rep.min_abs_lambda == pytest.approx(0.0, abs=1e-12)


def _scan_side_loop(model, side, xi_grid):
    """One ``eigvals`` per frequency, kept as the reference for the stacked scan."""
    U = model.U_minus if side == "minus" else model.U_plus
    A, Q = model.A_at(U), model.Q_at(U)
    spectra = np.empty((len(xi_grid), model.N), dtype=complex)
    prev = None
    for m, xi in enumerate(xi_grid):
        mu = np.linalg.eigvals(1j * xi * A + Q)
        if prev is None:
            mu = mu[np.lexsort((mu.real, mu.imag))]
        else:
            _, cols = linear_sum_assignment(np.abs(mu[None, :] - prev[:, None]))
            mu = mu[cols]
        spectra[m] = mu
        prev = mu
    return spectra


def _coupled_3x3():
    rows = [[-1.0, 0.4, 0.1], [0.3, -2.0, 0.5], [0.2, 0.6, -1.5]]
    q = [sum((Poly.variable(3, k).scaled(c) for k, c in enumerate(row)),
             Poly.constant(3, 0.0)) for row in rows]
    return build_custom("coupled3", 3, [[0.4, 0.0, 0.0], [0.0, -0.6, 0.0], [0.0, 0.0, -1.6]],
                        q, U_minus=[0.0] * 3, U_plus=[0.0] * 3,
                        state_box=([-1.0] * 3, [1.0] * 3))


@pytest.mark.parametrize("which", ["jinxin", "vara", "coupled3"])
def test_stacked_scan_matches_per_frequency_loop(which, jinxin):
    model = {"jinxin": jinxin, "vara": vara_model(), "coupled3": _coupled_3x3()}[which]
    xi_grid = np.geomspace(0.01, 100.0, 2000)
    for side in ("minus", "plus"):
        got = _scan_side(model, side, xi_grid).spectra
        assert got.tobytes() == _scan_side_loop(model, side, xi_grid).tobytes()


_VARA_MODEL = {"kind": "custom", "name": "jinxin-varA", "N": 2,
               "A": [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
               "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
               "U_minus": [1.0, 0.5], "U_plus": [-1.0, 0.5]}


@pytest.mark.parametrize("payload", [
    {},                              # the default config
    {"spectral": {"n_xi": 2000}},    # the dense frequency scan of jinxin-dense-ref
    {"model": _VARA_MODEL},
], ids=["default", "jinxin-dense-ref", "varA"])
def test_config_scans_match_assignment_matching(payload):
    cfg = config_from_dict(payload)
    sc = cfg.spectral_cfg
    xi_grid = np.geomspace(sc["xi_min"], sc["xi_max"], int(sc["n_xi"]))
    for side in ("minus", "plus"):
        got = _scan_side(cfg.model, side, xi_grid).spectra
        assert got.tobytes() == _scan_side_loop(cfg.model, side, xi_grid).tobytes()


def _scan_by_enumeration(spectra):
    """Branch continuation frequency by frequency through ``_min_cost_permutation``."""
    rows = spectra.tolist()
    rows[0] = sorted(rows[0], key=lambda z: (z.imag, z.real))
    perms = list(permutations(range(spectra.shape[1])))
    for m in range(1, len(rows)):
        prev, mu = rows[m - 1], rows[m]
        p = _min_cost_permutation([[abs(b - a) for b in mu] for a in prev], perms)
        rows[m] = [mu[j] for j in p]
    return np.array(rows)


@settings(max_examples=200, deadline=None, derandomize=True, database=None)
@given(arrays(np.complex128, st.tuples(st.integers(1, 40), st.just(2)),
              elements=st.complex_numbers(max_magnitude=4.0, allow_nan=False,
                                          allow_infinity=False).map(
                                              lambda z: complex(round(z.real), z.imag))
              | st.sampled_from([0j, 1 + 0j, -1 + 1j, 1j, 2 + 0j])))
def test_two_branch_scan_matches_the_enumeration(spectra):
    # small integers make exact ties, where the matching resets to the raw order
    import relaxdamp.spectral_stability as ss

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(ss, "_symbol_eigvals", lambda model, side, xi: spectra.copy())
        got = _scan_side(decay_model(), "plus", np.arange(len(spectra), dtype=float)).spectra
    assert got.tobytes() == _scan_by_enumeration(spectra).tobytes()


def _square_costs():
    entries = st.one_of(st.floats(-1e3, 1e3, allow_nan=False),
                        st.integers(0, 2).map(float))  # small integers make ties
    return st.integers(1, 4).flatmap(
        lambda n: arrays(np.float64, (n, n), elements=entries))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(_square_costs())
def test_permutation_matching_finds_the_assignment_optimum(cost):
    n = len(cost)
    perms = list(permutations(range(n)))
    p = _min_cost_permutation(cost.tolist(), perms)
    assert sorted(p) == list(range(n))
    rows, cols = linear_sum_assignment(cost)
    ours = math.fsum(cost[i, j] for i, j in enumerate(p))
    theirs = math.fsum(cost[rows, cols])
    assert ours == pytest.approx(theirs, rel=1e-12, abs=1e-9)


def test_permutation_matching_breaks_ties_by_permutation_order():
    perms = list(permutations(range(3)))
    assert _min_cost_permutation([[1.0] * 3] * 3, perms) == (0, 1, 2)
    assert _min_cost_permutation([[0.0, 0.0, 1.0], [0.0, 0.0, 1.0], [1.0, 1.0, 0.0]],
                                 perms) == (0, 1, 2)
    assert _min_cost_permutation([[1.0, 0.0], [0.0, 1.0]], [(0, 1), (1, 0)]) == (1, 0)
