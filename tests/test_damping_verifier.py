"""Norms, weights, weighted energies, and damping feasibility."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import scalar_model, synthetic_trajectory, vara_model
from relaxdamp import build_custom, build_jinxin, damping_rate
from relaxdamp.damping_verifier import (
    default_weight_constants,
    feasibility_table,
    fit_damping,
    norm_series,
    slaving_check,
    weight_fn,
    weighted_energy_series,
)
from relaxdamp.eigenframe import _decompose_2x2
from relaxdamp.characteristics import no_damping_radius
from relaxdamp.config import config_from_dict
from relaxdamp.dynamics import (NORM_KINDS, PerturbationSpec, ShiftSpec, Trajectory, evolve,
                                far_field_ramp, fd4_derivative, interior_max, trapezoid4)
from relaxdamp.errors import Characteristic, InvalidParam, NotStrictlyHyperbolic
from relaxdamp.poly import Poly
from relaxdamp.profile import constant_profile, exact_jinxin_profile, solve_profile


def still_trajectory(grid, U, b=None):
    """A Trajectory with the one output time t = 0, holding U (n, N) on
    ``grid`` with boundary states b on both sides (zero by default)."""
    b = np.zeros(U.shape[1]) if b is None else b
    return Trajectory(model=None, profile=None, shift=ShiftSpec(kind="zero"),
                      backend="synthetic", grid=grid, times=np.zeros(1), states=U[None],
                      b_left=b[None], b_right=b[None].copy(), dt=0.0, cfl_observed=0.0,
                      budget=1.0)


def snapshot_norms(traj, i):
    """The ``NORM_KINDS`` at output time i, formed from that time's fields
    alone: the per-output-time oracle of ``norm_series``."""
    dx, U, W = traj.dx, traj.states[i], traj.W[i]
    zero = np.zeros(U.shape[1])
    Y = fd4_derivative(W, dx, zero, zero)
    c = [interior_max(U)]
    for F in (W, Y):
        c.append(max(c[-1], interior_max(F)))
    bl, br = traj.b_left[i], traj.b_right[i]
    if np.max(np.abs(bl)) != 0.0 or np.max(np.abs(br)) != 0.0:
        sig = far_field_ramp(traj.grid, traj.blend_width)
        U = U - (bl[None, :] + sig[:, None] * (br - bl)[None, :])
    l2sq, w2sq, y2sq = (float(np.sum(trapezoid4(F**2, dx))) for F in (U, W, Y))
    return dict(zip(NORM_KINDS, c + [np.sqrt(l2sq), np.sqrt(l2sq + w2sq + y2sq)]))


def oracle_series(traj):
    rows = [snapshot_norms(traj, i) for i in range(traj.n_times)]
    return {kind: np.array([row[kind] for row in rows]) for kind in NORM_KINDS}


# --- norms -------------------------------------------------------------------

def test_ckb_constant_field():
    grid = np.linspace(-10, 10, 201)
    U = np.tile([1e-2, 0.0], (201, 1))
    traj = still_trajectory(grid, U, b=np.array([1e-2, 0.0]))
    for kind in ("c0", "c1", "c2"):
        assert norm_series(traj, kind)[0] == pytest.approx(1e-2)
    # the field is its own far-field state; its derivatives are round-off
    assert norm_series(traj, "l2")[0] == 0.0
    assert norm_series(traj, "h2")[0] <= 1e-15


def test_ckb_gaussian_dominated_by_peak():
    grid = np.linspace(-40, 40, 4001)
    A, w = 1e-2, 2.0
    g = A * np.exp(-0.5 * (grid / w) ** 2)
    traj = still_trajectory(grid, g[:, None] * np.array([1.0, 0.0]))
    # max slope A/(w sqrt(e)) = 3.03e-3 is below the peak
    assert norm_series(traj, "c0")[0] == pytest.approx(A)
    assert norm_series(traj, "c1")[0] == pytest.approx(A)
    assert np.max(np.abs(traj.W[0])) == pytest.approx(A / (w * np.sqrt(np.e)), rel=1e-3)


def test_ckb_norms_nested(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=2.0, backend="moc", dx=0.04, n_out=4)
    c0, c1, c2 = (norm_series(traj, kind) for kind in ("c0", "c1", "c2"))
    assert np.all(c0 <= c1) and np.all(c1 <= c2)
    assert np.all(norm_series(traj, "l2") <= norm_series(traj, "h2"))


def test_l2_zero_and_gaussian_identity():
    grid = np.linspace(-40, 40, 4001)
    traj = still_trajectory(grid, np.zeros((4001, 2)))
    assert norm_series(traj, "l2")[0] == norm_series(traj, "h2")[0] == 0.0
    A, w = 1e-2, 2.0
    g = A * np.exp(-0.5 * (grid / w) ** 2)
    traj = still_trajectory(grid, g[:, None] * np.array([1.0, 0.0]))
    assert norm_series(traj, "l2")[0] ** 2 == pytest.approx(A**2 * w * np.sqrt(np.pi), abs=1e-8)


def test_offset_norms_use_the_runs_blend_width(jinxin, jinxin_profile):
    # offset data is its own far-field ramp at t = 0, so its L2 norm is 0
    # at every blend width, not only at the default 2
    for blend_width in (1.0, 2.0):
        pert = PerturbationSpec(kind="offset", d_minus=(1e-3, 0.0), d_plus=(-1e-3, 0.0),
                                blend_width=blend_width)
        traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                      T=0.2, dx=0.08, n_out=1)
        assert traj.blend_width == blend_width
        assert norm_series(traj, "l2")[0] == 0.0
        assert norm_series(traj, "l2")[1] > 0.0
        want = oracle_series(traj)
        for kind in NORM_KINDS:
            assert np.array_equal(norm_series(traj, kind), want[kind])


def test_quadrature_fourth_order():
    exact = (np.exp(4.0) - np.exp(-4.0)) * 10.0
    errs = []
    for n in (501, 1001):
        x = np.linspace(-40, 40, n)
        errs.append(abs(trapezoid4(np.exp(x / 10.0), x[1] - x[0]) - exact))
    assert errs[0] / errs[1] >= 4.0  # halving the step cuts error at least 4x


_EDGE_VALUES = st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, -1.5, 1e308])


def _same_bits(a, b) -> bool:
    return np.array_equal(a, b, equal_nan=True) and np.array_equal(np.signbit(a), np.signbit(b))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(y=st.one_of(
    arrays(np.float64, st.tuples(st.integers(7, 60), st.integers(1, 5)),
           elements=st.one_of(_EDGE_VALUES, st.floats(-1e3, 1e3))),
    arrays(np.float64, st.tuples(st.integers(7, 60), st.integers(1, 4)),
           elements=st.floats(allow_nan=True, allow_infinity=True)),
    arrays(np.float64, st.integers(7, 60), elements=st.one_of(_EDGE_VALUES, st.floats()))),
    dx=st.sampled_from([0.02, 1.0, 0.1]))
def test_trapezoid4_matches_weighted_sum_bit_for_bit(y, dx):
    # C-ordered (n, k) columns summed by one accumulate, 1-D by the pairwise sum
    n = len(y)
    w = np.ones(n)
    w[[0, -1]] = 3.0 / 8.0
    w[[1, -2]] = 7.0 / 6.0
    w[[2, -3]] = 23.0 / 24.0
    with np.errstate(invalid="ignore", over="ignore"):
        want = np.sum(y * (w[:, None] if y.ndim == 2 else w), axis=0) * dx
        got = trapezoid4(y, dx)
    assert y.flags.c_contiguous and got.shape == want.shape
    assert _same_bits(got, want)


# --- weights -----------------------------------------------------------------

def test_weight_constant_speed_closed_form(jinxin, jinxin_profile):
    # family 1 has lambda = +2 everywhere; alpha decays by exp of the
    # antiderivative of e^{-c|x|}: total log drop 2C/(c lambda) (1 - e^{-cX})
    wf = weight_fn(jinxin, jinxin_profile, C_alpha=1.0, c_alpha=0.25)
    alpha = wf.values[1]
    drop = (1.0 / (0.25 * 2.0)) * 2.0 * (1.0 - np.exp(-0.25 * 40.0))
    assert alpha.max() == pytest.approx(1.0)
    assert alpha.min() == pytest.approx(np.exp(-drop), rel=1e-10)
    assert wf.ode_residual[1] <= 1e-10
    assert 0.0 < alpha.min() < alpha.max()


def test_weight_lower_bound(jinxin, jinxin_profile):
    for j, C, c in ((0, 2.0, 0.1), (1, 1.0, 0.25)):
        alpha = weight_fn(jinxin, jinxin_profile, C, c).values[j]
        assert alpha.min() >= np.exp(-2.0 * C / (c * 2.0)) * (1.0 - 1e-12)


def test_non_decaying_tail_fit_names_side_order_and_rate():
    # at eps = 0.05 the plus tail of U_x reaches the noise floor well inside
    # X = 10, and its order-1 fit is rising although the profile is symmetric
    cfg = config_from_dict({"model": {"eps": 0.05}, "profile": {"X": 10, "n": 4001}})
    prof = cfg.profile
    assert prof.decay_fits[("minus", 1)].rate > 4.0
    assert prof.decay_fits[("plus", 1)].rate == pytest.approx(-0.1274, abs=1e-4)
    message = r"^decay fit of the plus tail at order 1 has rate -0\.1274 <= 0"
    with pytest.raises(InvalidParam, match=message):
        default_weight_constants(prof)
    with pytest.raises(InvalidParam, match=message):
        no_damping_radius(cfg.model, prof, eps_budget=1e-2,
                          theta_E=cfg.damping.theta_E, source=cfg.profile_source)


def _exact_profile(eps):
    model = build_jinxin(a=2.0, eps=eps, flux=[0.0, 0.0, 0.5], u_minus=1.0, u_plus=-1.0)
    return exact_jinxin_profile(model, np.linspace(-10.0, 10.0, 4001))


def test_lower_bound_tail_fits_set_no_weight_constants():
    # at eps = 0.01 both U_x tails fall under the noise floor inside X = 10:
    # their fits only bound the rate, and weights built on C_tail = 1e-13 would
    # all be 1 to 12 digits
    prof = _exact_profile(0.01)
    assert all(prof.decay_fit(side, 1).is_lower_bound for side in ("minus", "plus"))
    with pytest.raises(InvalidParam,
                       match=r"^decay fit of the minus tail at order 1 is only a lower bound"):
        default_weight_constants(prof)


@pytest.mark.parametrize("eps, want", [
    (0.05, (39.99999999718081, 2.499999999994178)),
    (0.2, (9.955937031886247, 0.6247467692347846)),
])
def test_weight_constants_of_resolved_tails(eps, want):
    prof = _exact_profile(eps)
    assert not any(prof.decay_fit(side, 1).is_lower_bound for side in ("minus", "plus"))
    assert default_weight_constants(prof) == pytest.approx(want, rel=1e-12)


def test_weight_characteristic_guard():
    m = build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0.5], u_minus=3.0, u_plus=1.0)
    prof = constant_profile(m, m.U_minus, X=10.0, n=101)
    with pytest.raises(Characteristic):
        weight_fn(m, prof, 1.0, 0.25, c_min=1e-3)


def test_weight_complex_pair_raises():
    # A = [[1 + u, 1], [-1, 1]] has eigenvalues 1 + u/2 +- i sqrt(1 - u^2/4) near u = 0
    A = [[[[1.0, [0, 0]], [1.0, [1, 0]]], 1.0], [-1.0, 1.0]]
    m = build_custom("complex-pair", 2, A, [0.0, 0.0],
                     state_box=([-1.0, -1.0], [1.0, 1.0]))
    prof = constant_profile(m, [0.0, 0.0], X=10.0, n=101)
    with pytest.raises(NotStrictlyHyperbolic, match="at x = "):
        weight_fn(m, prof, 1.0, 0.25)


def _eigvals_spectrum(A):
    return np.sort(np.linalg.eigvals(A).real, axis=-1)


def _closed_form_spectrum(A):
    return _decompose_2x2(A.reshape(-1, 2, 2), 0.0)[0].reshape(A.shape[:-1])


def _weights_per_family(model, profile, C_alpha, c_alpha, spectrum=_eigvals_spectrum):
    """The weights as computed family by family, with the sorted eigenvalues
    ``spectrum(A)`` at every node (``eigvals`` by default)."""
    x = profile.grid
    mid = 0.5 * (x[1:] + x[:-1])
    half = 0.5 * np.diff(x)
    out = []
    for j in range(model.N):
        def increments(nodes, wts):
            pts = mid[:, None] + half[:, None] * nodes[None, :]
            A = model.A_at(profile.eval(pts.ravel()))
            lam = spectrum(A)[..., j].reshape(pts.shape)
            f = C_alpha * np.exp(-c_alpha * np.abs(pts)) / lam
            return np.sum(f * wts[None, :], axis=1) * half

        inc7 = increments(*np.polynomial.legendre.leggauss(7))
        log_alpha = np.concatenate([[0.0], np.cumsum(-inc7)])
        log_alpha -= np.max(log_alpha)
        alpha = np.exp(log_alpha)
        inc15 = increments(*np.polynomial.legendre.leggauss(15))
        resid = float(np.max(np.abs(alpha[1:] - alpha[:-1] * np.exp(-inc15))))
        out.append((alpha, resid))
    return out


@pytest.mark.parametrize("case", ["jinxin", "vara"])
def test_weights_evaluate_the_profile_only_where_A_varies(case, request, monkeypatch):
    if case == "jinxin":
        model, prof = request.getfixturevalue("jinxin"), request.getfixturevalue("jinxin_profile")
    else:
        model, prof = request.getfixturevalue("vara_profile")
    points = []
    original = type(prof).eval

    def counted(self, x):
        points.append(np.size(x))
        return original(self, x)
    monkeypatch.setattr(type(prof), "eval", counted)
    weight_fn(model, prof, 1.0, 0.25)
    cells = len(prof.grid) - 1
    assert points == ([] if model.A_is_constant else [7 * cells, 15 * cells])


@pytest.fixture(scope="module")
def vara_profile():
    model = vara_model()
    return model, solve_profile(model, X=20.0, n=801)


@pytest.mark.parametrize("case", ["jinxin", "vara"])
def test_weights_match_per_family_eigvals(case, request):
    if case == "jinxin":
        model, prof = request.getfixturevalue("jinxin"), request.getfixturevalue("jinxin_profile")
    else:
        model, prof = request.getfixturevalue("vara_profile")
    Ca, ca = default_weight_constants(prof)
    weights = weight_fn(model, prof, Ca, ca)
    assert weights.values.shape == (model.N, len(prof.grid))
    assert weights.ode_residual.shape == (model.N,)
    if model.A_is_constant:  # one decomposition: the eigvals oracle holds bit for bit
        oracles = [(_weights_per_family(model, prof, Ca, ca), 0.0)]
    else:  # closed-form eigenvalues: bit for bit against them, rounding against eigvals
        oracles = [(_weights_per_family(model, prof, Ca, ca, _closed_form_spectrum), 0.0),
                   (_weights_per_family(model, prof, Ca, ca), 1e-13)]
    for oracle, rtol in oracles:
        for values, residual, (alpha, resid) in zip(weights.values, weights.ode_residual,
                                                    oracle, strict=True):
            if rtol == 0.0:
                assert np.array_equal(values, alpha)
                assert residual == resid
            else:
                assert np.allclose(values, alpha, rtol=rtol, atol=0.0)
                assert residual == pytest.approx(resid, abs=1e-15)


def test_weight_fn_takes_no_eigvals_for_state_dependent_2x2(vara_profile, monkeypatch):
    # the closed-form frames serve a state-dependent 2x2 A: no LAPACK eigen-call
    model, prof = vara_profile

    def refuse(*args, **kwargs):
        raise AssertionError("LAPACK eigen-call")

    for name in ("eigvals", "eig"):
        monkeypatch.setattr(np.linalg, name, refuse)
    assert weight_fn(model, prof, *default_weight_constants(prof)).values.shape[0] == 2


# --- energies ----------------------------------------------------------------

def test_energy_zero_field(jinxin, jinxin_profile):
    traj = evolve(jinxin, jinxin_profile, PerturbationSpec(kind="zero"),
                  ShiftSpec(kind="zero"), T=1.0, backend="moc", dx=0.02, n_out=4)
    Ca, ca = default_weight_constants(jinxin_profile)
    ws = weight_fn(jinxin, jinxin_profile, Ca, ca)
    es = weighted_energy_series(traj, ws, damping_rate(jinxin).theta_E)
    assert np.max(np.abs(es.energies)) == 0.0


def test_energy_pure_decay_rate():
    model = scalar_model(speed=2.0, decay=0.1)
    prof = constant_profile(model, [0.0], X=40.0, n=2001)
    beta = 0.1

    def field(t, x):
        return (1e-2 * np.exp(-beta * t) * np.exp(-0.5 * (x / 3.0) ** 2))[:, None]

    traj = synthetic_trajectory(model, prof, field, T=1.0, n_out=100)
    es = weighted_energy_series(traj, weight_fn(model, prof, 1.0, 0.25), theta_E=0.05)
    ratio = es.rates[1:-1, 0] / es.energies[1:-1, 0]
    assert np.max(np.abs(ratio + 2.0 * beta)) <= 1e-6


def test_energy_ratio_is_none_for_a_family_starting_at_zero():
    # diagonal A: Phi = U, so family 1 starts at exactly zero energy and grows
    x1, x2 = Poly.variable(2, 0), Poly.variable(2, 1)
    model = build_custom("diag", 2, [[-1.0, 0.0], [0.0, 2.0]],
                         [x1.scaled(-0.1), x2.scaled(-0.1)],
                         U_minus=[0.0, 0.0], U_plus=[0.0, 0.0],
                         state_box=([-1.0, -1.0], [1.0, 1.0]))
    prof = constant_profile(model, [0.0, 0.0], X=40.0, n=2001)

    def field(t, x):
        g = 1e-2 * np.exp(-0.5 * (x / 3.0) ** 2)
        return np.column_stack([t * g, np.exp(-0.1 * t) * g])

    traj = synthetic_trajectory(model, prof, field, T=1.0, n_out=10)
    es = weighted_energy_series(traj, weight_fn(model, prof, 1.0, 0.25), theta_E=0.05)
    assert es.energies[0, 0] == 0.0 < es.energies[-1, 0]
    ratio = es.ratio
    assert ratio[0] is None
    assert ratio[1] == es.energies[-1, 1] / es.energies[0, 1]


# --- feasibility -------------------------------------------------------------

def test_feasibility_pure_decay_analytic():
    times = np.linspace(0.0, 40.0, 201)
    series = np.exp(-0.2 * times)
    forcing = np.zeros_like(times)
    theta_grid = np.array([0.05, 0.1, 0.2, 0.25, 0.3])
    tab = feasibility_table(times, series, forcing, theta_grid, C_cap=1e3)
    # C_min = 1 for theta <= 0.2 and e^{(theta - 0.2) T} beyond
    assert np.allclose(tab.C_min[:3], 1.0, rtol=1e-12)
    assert tab.C_min[3] == pytest.approx(np.exp(0.05 * 40.0), rel=1e-10)
    assert np.all(np.diff(tab.C_min) >= -1e-12)  # monotone in theta
    assert tab.theta_max == pytest.approx(0.3)  # cap is generous here


def test_feasibility_zero_degenerate():
    times = np.linspace(0.0, 10.0, 11)
    tab = feasibility_table(times, np.zeros(11), np.zeros(11), np.array([0.1, 0.2]))
    assert tab.degenerate
    assert tab.theta_max == pytest.approx(0.2)


def _C_min_per_rate(times, series, forcing, theta_grid):
    """C_min by one scalar recursion per rate over the output times; the
    table, which runs the recursion for all rates at once, must match it bit
    for bit."""
    C_min = np.empty_like(theta_grid)
    for k, th in enumerate(theta_grid):
        D = np.empty_like(times)
        D[0] = series[0]
        I = 0.0
        for m in range(1, len(times)):
            dt = times[m] - times[m - 1]
            decay = np.exp(-th * dt)
            I = decay * I + 0.5 * dt * (decay * forcing[m - 1] + forcing[m])
            D[m] = np.exp(-th * times[m]) * series[0] + I
        with np.errstate(divide="ignore", invalid="ignore"):
            ratio = np.where(D > 0.0, series / D, np.where(series > 0.0, np.inf, 0.0))
        C_min[k] = float(np.max(ratio))
    return C_min


_values = st.one_of(st.just(0.0), st.floats(1e-6, 1e3))


@settings(max_examples=80, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_feasibility_table_matches_scalar_recursion(data):
    n_t = data.draw(st.integers(1, 40))
    t0 = data.draw(st.floats(0.0, 5.0))
    steps = data.draw(arrays(float, n_t - 1, elements=st.floats(1e-3, 3.0)))
    times = t0 + np.concatenate([[0.0], np.cumsum(steps)])
    series = data.draw(arrays(float, n_t, elements=_values))
    forcing = data.draw(arrays(float, n_t, elements=_values))
    theta_grid = data.draw(arrays(float, st.integers(1, 25), elements=st.floats(0.0, 2.0)))
    assume(series[0] != 0.0 or np.max(forcing) != 0.0)
    tab = feasibility_table(times, series, forcing, theta_grid)
    assert not tab.degenerate
    assert np.array_equal(tab.C_min, _C_min_per_rate(times, series, forcing, theta_grid))


def test_feasibility_table_saturation():
    times = np.linspace(0.0, 20.0, 41)
    series = np.exp(-0.2 * times)
    forcing = np.zeros_like(times)
    assert feasibility_table(times, series, forcing, np.array([0.1, 0.2])).saturated
    # the top rate needs C = e^{0.2 T} = e^4 > cap: feasible set ends inside the grid
    tab = feasibility_table(times, series, forcing, np.array([0.1, 0.2, 0.4]), C_cap=10.0)
    assert tab.feasible.tolist() == [True, True, False]
    assert not tab.saturated
    assert tab.theta_max == pytest.approx(0.2)


def test_fit_damping_monotone_and_feasible(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=10.0, backend="moc", dx=0.04, n_out=25)
    grid = np.linspace(0.01, 0.3, 15)
    for kind in ("c0", "c2", "h2"):
        tab = fit_damping(traj, kind, grid)
        assert np.all(np.diff(tab.C_min) >= -1e-9)
        assert tab.theta_max >= 0.0625


def test_slaving_check_feasible(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=10.0, backend="moc", dx=0.04, n_out=25)
    tables = slaving_check(traj, np.linspace(0.01, 0.3, 15))
    assert tables["psi_tilde"].theta_max >= 0.0625
    assert tables["upsilon_tilde"].theta_max >= 0.0625


def test_slaving_degenerate_on_zero_run(jinxin, jinxin_profile):
    traj = evolve(jinxin, jinxin_profile, PerturbationSpec(kind="zero"),
                  ShiftSpec(kind="zero"), T=1.0, backend="moc", dx=0.04, n_out=4)
    tables = slaving_check(traj, np.linspace(0.01, 0.3, 5))
    assert tables["psi_tilde"].degenerate
    assert tables["upsilon_tilde"].degenerate


def test_slaving_check_adversarial_growth():
    # derivative field grows while the amplitude stays flat: no slaved rate fits
    model = scalar_model(speed=2.0, decay=0.25)
    prof = constant_profile(model, [0.0], X=40.0, n=4001)

    def field(t, x):
        k = 1.0 + 7.0 * t
        return (1e-3 * np.sin(k * x) * np.exp(-0.5 * (x / 10.0) ** 2))[:, None]

    traj = synthetic_trajectory(model, prof, field, T=20.0, n_out=40)
    tables = slaving_check(traj, np.linspace(0.01, 0.3, 15), C_cap=10.0)
    assert not tables["upsilon_tilde"].degenerate
    assert not np.any(tables["upsilon_tilde"].feasible)
    assert tables["upsilon_tilde"].theta_max is None
    assert tables["psi_tilde"].theta_max is not None


def test_l2_cross_norm_consistency(jinxin, jinxin_profile):
    # for shift-free runs the L2 feasible set should cover the C0 feasible set
    # intersected with [0, 2 theta_E] (sanity, not a theorem)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=10.0, backend="moc", dx=0.04, n_out=25)
    grid = np.linspace(0.01, 0.25, 13)  # within [0, 2 theta_E]
    c0 = fit_damping(traj, "c0", grid)
    l2 = fit_damping(traj, "l2", grid)
    assert np.all(l2.feasible[c0.feasible])


def _counted_fd4(monkeypatch):
    """Record the arguments of every ``dynamics.fd4_derivative`` call."""
    import relaxdamp.dynamics as dyn

    calls = []
    fd4 = dyn.fd4_derivative

    def counted(*args):
        calls.append(args)
        return fd4(*args)

    monkeypatch.setattr(dyn, "fd4_derivative", counted)
    return calls


def test_norm_series_computes_each_kind_once(monkeypatch):
    model = scalar_model(speed=2.0, decay=0.25)
    prof = constant_profile(model, [0.0], X=20.0, n=801)

    def field(t, x):
        return (1e-3 * np.exp(-0.25 * t) * np.exp(-0.5 * (x / 3.0) ** 2))[:, None]

    traj = synthetic_trajectory(model, prof, field, T=4.0, n_out=8)
    want = oracle_series(traj)
    calls = _counted_fd4(monkeypatch)
    grid = np.linspace(0.01, 0.3, 5)
    for _ in range(2):
        for kind in NORM_KINDS:
            fit_damping(traj, kind, grid)
        for kind in NORM_KINDS:
            series = norm_series(traj, kind)
            assert np.array_equal(series, want[kind])
            assert not series.flags.writeable
    # the oracle formed W already; the one pass formed Y once per output time
    assert len(calls) == traj.n_times
    assert "norms" in vars(traj) and traj.norms.shape == (traj.n_times, len(NORM_KINDS))


@pytest.mark.parametrize("kind", ["h1", "C0", ""])
def test_unknown_norm_kind_is_refused_before_the_norm_pass(kind, monkeypatch):
    model = scalar_model(speed=2.0, decay=0.25)
    prof = constant_profile(model, [0.0], X=10.0, n=201)

    def field(t, x):
        return (1e-3 * np.exp(-0.25 * t) * np.exp(-0.5 * (x / 3.0) ** 2))[:, None]

    traj = synthetic_trajectory(model, prof, field, T=2.0, n_out=4)
    traj.W  # formed before the counter
    calls = _counted_fd4(monkeypatch)
    for refuse in (lambda: norm_series(traj, kind),
                   lambda: fit_damping(traj, kind, np.array([0.1]))):
        with pytest.raises(InvalidParam, match=f"unknown norm kind {kind!r}"):
            refuse()
    assert calls == [] and "norms" not in vars(traj)


def test_norm_series_differences_each_snapshot_twice(monkeypatch):
    model = scalar_model(speed=2.0, decay=0.25)
    prof = constant_profile(model, [0.0], X=10.0, n=201)

    def field(t, x):
        return (1e-3 * np.exp(-0.25 * t) * np.exp(-0.5 * (x / 3.0) ** 2))[:, None]

    traj = synthetic_trajectory(model, prof, field, T=2.0, n_out=4)
    calls = _counted_fd4(monkeypatch)
    n = traj.n_times
    norm_series(traj, "c0")
    # per output time, W once (the trajectory's stack), then Y once, for every kind
    assert len(calls) == 2 * n
    for kind in NORM_KINDS:
        norm_series(traj, kind)
    assert len(calls) == 2 * n
    # the source pass forms its own Y once per output time from the same W
    assert traj.source_series.phi.shape == (n,)
    assert len(calls) == 3 * n
    zero = np.zeros(1)
    for i in range(n):
        assert np.array_equal(calls[i][0], traj.states[i])
        for Y_call in (calls[n + i], calls[2 * n + i]):
            assert np.array_equal(Y_call[0], traj.W[i])
            assert np.array_equal(Y_call[2], zero) and np.array_equal(Y_call[3], zero)
