"""Profile construction: closed form, shooting, decay fits, residuals."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from conftest import vara_model
from relaxdamp import ode
from relaxdamp import profile as profile_module
from relaxdamp import build_jinxin, exact_jinxin_profile, fit_decay, residual, solve_profile
from relaxdamp.errors import NoConnection, NotApplicable, NoUnstableDirection
from relaxdamp.model import build_custom
from relaxdamp.poly import poly_matrix_eval
from relaxdamp.profile import (
    NOISE_FLOOR,
    ProfileRep,
    _derivative_samples,
    _fit_all_orders,
    constant_profile,
    ode_rhs,
    ode_rhs_jacobian,
    _solve_2x2,
)


def test_exact_profile_is_tanh(jinxin, jinxin_profile):
    x = jinxin_profile.grid
    assert np.max(np.abs(jinxin_profile.values[:, 0] + np.tanh(x / 8.0))) <= 1e-14
    assert np.max(np.abs(jinxin_profile.values[:, 1] - 0.5)) <= 1e-14


def test_exact_profile_satisfies_reduced_ode(jinxin_profile):
    # independent check: 4 u_x = (u^2 - 1)/2 pointwise
    u = jinxin_profile.values[:, 0]
    ux = jinxin_profile.d1[:, 0]
    assert np.max(np.abs(4.0 * ux - 0.5 * (u**2 - 1.0))) <= 1e-12


def test_exact_profile_residual(jinxin, jinxin_profile):
    assert residual(jinxin_profile, jinxin) <= 1e-12


def test_profile_odd_symmetry_at_origin(jinxin_profile):
    i0 = len(jinxin_profile.grid) // 2
    assert jinxin_profile.values[i0, 0] == pytest.approx(0.0, abs=1e-14)


def test_decay_rates_quarter(jinxin_profile):
    for side in ("minus", "plus"):
        for k in range(3):
            fit = jinxin_profile.decay_fit(side, k)
            assert fit.rate == pytest.approx(0.25, rel=0.02)
            assert fit.rate > 0
            assert fit.envelope_factor <= 1.05
    # tanh tail amplitude: 1 - tanh(x/8) ~ 2 e^{-x/4}
    assert jinxin_profile.decay_fit("plus", 0).amplitude == pytest.approx(2.0, rel=0.05)


def test_exact_profile_requires_quadratic_flux():
    m = build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0, 0.25], u_minus=1.0, u_plus=-1.0)
    with pytest.raises(NotApplicable):
        exact_jinxin_profile(m, np.linspace(-40, 40, 101))


def test_exact_profile_requires_entropy_ordering():
    m = build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0.5], u_minus=-1.0, u_plus=1.0)
    with pytest.raises(NotApplicable):
        exact_jinxin_profile(m, np.linspace(-40, 40, 101))


def test_shooting_matches_exact(jinxin, jinxin_profile):
    prof = solve_profile(jinxin, X=40.0, n=4001, tol=1e-8)
    err = np.max(np.abs(prof.values - jinxin_profile.values))
    assert err <= 1e-6
    assert residual(prof, jinxin) <= 1e-10
    assert prof.decay_fit("plus", 0).rate == pytest.approx(0.25, rel=0.02)


def test_shooting_pinned_at_midpoint(jinxin):
    prof = solve_profile(jinxin, X=20.0, n=801, tol=1e-8)
    i0 = len(prof.grid) // 2
    assert prof.values[i0, 0] == pytest.approx(0.0, abs=1e-8)


def test_swapped_endstates_have_no_unstable_direction():
    m = build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0.5], u_minus=-1.0, u_plus=1.0)
    with pytest.raises(NoUnstableDirection):
        solve_profile(m, X=20.0, n=401, tol=1e-8)


def test_grid_placement_invariance(jinxin):
    p40 = solve_profile(jinxin, X=40.0, n=2001, tol=1e-8)
    p44 = solve_profile(jinxin, X=44.0, n=2201, tol=1e-8)
    x = np.linspace(-30.0, 30.0, 501)
    assert np.max(np.abs(p40.eval(x) - p44.eval(x))) <= 1e-8


def test_monotone_u_and_inside_box(jinxin):
    prof = solve_profile(jinxin, X=40.0, n=2001, tol=1e-8)
    assert np.all(np.diff(prof.values[:, 0]) < 0.0)
    lo, hi = jinxin.state_box
    assert np.all(prof.values >= lo) and np.all(prof.values <= hi)


def test_interpolation_accuracy(jinxin_profile):
    x = np.linspace(-20.0, 20.0, 1237)  # avoids grid nodes
    exact = -np.tanh(x / 8.0)
    assert np.max(np.abs(jinxin_profile.eval(x)[:, 0] - exact)) <= 1e-8
    exact_d1 = -(1.0 / 8.0) / np.cosh(x / 8.0) ** 2
    assert np.max(np.abs(jinxin_profile.eval_d1(x)[:, 0] - exact_d1)) <= 1e-8


def test_residual_zero_on_constant_equilibrium(jinxin):
    prof = constant_profile(jinxin, jinxin.U_minus, X=10.0, n=101)
    assert residual(prof, jinxin) <= 1e-14


def test_residual_detects_injected_corruption(jinxin, jinxin_profile):
    corrupted = constant_profile(jinxin, jinxin.U_minus, X=10.0, n=101)
    corrupted.values[:] = jinxin_profile.eval(corrupted.grid)
    corrupted.d1[:] = jinxin_profile.eval_d1(corrupted.grid)
    base = residual(corrupted, jinxin)
    corrupted.values[60, 1] += 1e-3  # poke the v component off the profile
    assert residual(corrupted, jinxin) >= max(1e-4, base)


def test_fit_decay_constant_profile_below_noise(jinxin):
    # both tails sit on the floor of a flat profile: lower bounds of rate 0
    prof = constant_profile(jinxin, jinxin.U_plus, X=10.0, n=101)
    fits = fit_decay(prof, 0)
    assert sorted(fits) == ["minus", "plus"]
    for side, fit in fits.items():
        assert (fit.side, fit.order) == (side, 0)
        assert fit.is_lower_bound
        assert fit.amplitude == NOISE_FLOOR
        assert fit.rate == 0.0


def test_tail_under_noise_keeps_the_other_sides_fit(jinxin):
    # an exact minus tail next to a clean 1e-2 e^{-x} plus tail: the minus
    # fits are lower bounds, the plus fits keep the true rate 1 at every order
    x = np.linspace(-10.0, 10.0, 2001)
    tail = np.where(x > 0.0, 1e-2 * np.exp(-x), 0.0)[:, None] * [1.0, 0.0]
    ends = np.where(x[:, None] > 0.0, jinxin.U_plus, jinxin.U_minus)
    prof = ProfileRep(grid=x, values=ends + tail, d1=-tail, d2=tail.copy(),
                      U_minus=jinxin.U_minus.copy(), U_plus=jinxin.U_plus.copy())
    _fit_all_orders(prof)
    for k in range(3):
        minus, plus = prof.decay_fit("minus", k), prof.decay_fit("plus", k)
        assert minus.is_lower_bound and minus.amplitude == NOISE_FLOOR
        assert not plus.is_lower_bound
        assert plus.rate == pytest.approx(1.0, abs=1e-9)
        assert plus.amplitude == pytest.approx(1e-2, rel=1e-8)


def test_endstate_gap_matches_tail_size(jinxin_profile):
    # exact tanh tail at X = 40: 1 - tanh(5) ~ 9.08e-5
    assert jinxin_profile.endstate_gap == pytest.approx(1.0 - np.tanh(5.0), rel=1e-6)


def test_endstate_gap_small_on_wide_grid(jinxin):
    grid = np.linspace(-64.0, 64.0, 6401)
    prof = exact_jinxin_profile(jinxin, grid)
    assert prof.endstate_gap <= 1e-6


def _node_jacobian(model, U):
    """dg = A^{-1} (Q - B), B[:, k] = (dA/dU_k) g, one state at a time."""
    A = model.A_at(U)
    g = np.linalg.solve(A, model.q_at(U))
    B = np.empty((model.N, model.N))
    for k in range(model.N):
        B[:, k] = poly_matrix_eval(model.dA_entries[k], U) @ g
    return np.linalg.solve(A, model.Q_at(U) - B)


def test_batched_derivative_samples_match_node_loop(jinxin):
    varA = build_custom(
        "jinxin-varA", 2, [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
        [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
        U_minus=[1.0, 0.5], U_plus=[-1.0, 0.5])
    for model in (jinxin, varA):
        values = solve_profile(model, X=20.0, n=401).values
        d1, d2 = _derivative_samples(model, values)
        g = np.stack([np.linalg.solve(model.A_at(U), model.q_at(U)) for U in values])
        dg_g = np.stack([_node_jacobian(model, U) @ gU for U, gU in zip(values, g)])
        assert all(np.array_equal(ode_rhs_jacobian(model, U), _node_jacobian(model, U))
                   for U in values[::40])
        assert d1.tobytes() == g.tobytes()
        assert d2.tobytes() == dg_g.tobytes()
        assert d1.flags.c_contiguous and d2.flags.c_contiguous


def test_stacked_jacobian_has_each_states_bits_for_a_dense_dA():
    # every entry of A depends on both components, so (dA/dU_k) g sums two
    # rounded products: a stack gives each state's bits, whatever the layout
    # of the matrix stacks it evaluates
    model = build_custom(
        "dense-A", 2,
        [[[[2.0, [0, 0]], [0.3, [1, 0]], [0.2, [0, 1]]], [[0.4, [0, 0]], [-0.7, [0, 1]]]],
         [[[4.0, [0, 0]], [0.2, [1, 0]], [0.1, [0, 1]]], [[-1.5, [0, 0]], [-0.1, [1, 1]]]]],
        [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]], U_minus=[1.0, 0.5], U_plus=[-1.0, 0.5])
    U = [0.0, 0.5] + 0.3 * np.random.default_rng(8).standard_normal((300, 2))
    stacked = ode_rhs_jacobian(model, U)
    assert all(stacked[k].tobytes() == ode_rhs_jacobian(model, u).tobytes()
               for k, u in enumerate(U))


# --- the one-state 2x2 solve of the shot ----------------------------------------

_ENTRY = st.floats(-1e3, 1e3, allow_subnormal=False)
_POWER_OF_TWO = st.builds(lambda sign, k: sign * 2.0 ** k, st.sampled_from([-1.0, 1.0]),
                          st.integers(-20, 20))


@settings(max_examples=500, deadline=None)
@given(_ENTRY, st.one_of(st.just(0.0), _POWER_OF_TWO), _ENTRY, _ENTRY,
       st.one_of(st.just(0.0), _POWER_OF_TWO), _ENTRY, st.booleans())
@example(2.0, 0.0, 2.0, 1.0, 0.5, 0.75, False)  # a tie |a21| = |a11| keeps the rows
@example(0.0, 0.0, 3.0, 1.0, 1.0, 2.0, True)  # [[0, 1], [c^2, 0]]: swapped by LAPACK
def test_solve_2x2_is_lapack_bit_for_bit_when_no_fused_product_rounds(
        p11, p12, p21, p22, c1, c2, swap):
    # LAPACK's pivoted system [[p11, p12], [p21, p22]] (|p21| <= |p11|) with
    # right side (c1, c2): with p12 and c1 zero or a power of two, the
    # products l p12, l c1 and p12 x2 are exact, so they round alike fused or
    # not, and every other operation is the closed form's: the bits must be
    # np.linalg.solve's.  A zero p12 and a zero l give the diagonal and
    # anti-diagonal A of an s = 0 shock.
    if abs(p21) > abs(p11):
        p11, p21 = p21, p11
    rows, rhs = [[p11, p12], [p21, p22]], [c1, c2]
    if swap and abs(p21) < abs(p11):  # LAPACK swaps them back
        rows, rhs = rows[::-1], rhs[::-1]
    A, b = np.array(rows), np.array(rhs)
    try:
        want = np.linalg.solve(A, b)
    except np.linalg.LinAlgError:
        with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
            _solve_2x2(*rows[0], *rows[1], *rhs)
        return
    assert _solve_2x2(*rows[0], *rows[1], *rhs).tobytes() == want.tobytes()


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(-10.0, 10.0, allow_nan=False), min_size=6, max_size=6))
def test_solve_2x2_agrees_with_lapack_on_well_conditioned_systems(entries):
    # LAPACK's fused products differ from the closed form's by rounding: the
    # two agree within 4 eps ||A|| ||A^-1|| ||x|| (infinity norms)
    A, b = np.array(entries[:4]).reshape(2, 2), np.array(entries[4:])
    norm = np.max(np.sum(np.abs(A), axis=1))
    assume(abs(A[0, 0] * A[1, 1] - A[0, 1] * A[1, 0]) > 1e-3 * norm ** 2)
    want = np.linalg.solve(A, b)
    cond = norm * np.max(np.sum(np.abs(np.linalg.inv(A)), axis=1))
    bound = 4.0 * np.finfo(float).eps * cond * np.max(np.abs(want))
    assert np.max(np.abs(_solve_2x2(*entries) - want)) <= bound


@pytest.mark.parametrize("A", [[[0.0, 0.0], [0.0, 0.0]], [[0.0, 1.0], [0.0, 2.0]],
                               [[1.0, 2.0], [2.0, 4.0]], [[3.0, 1.0], [0.0, 0.0]]])
def test_solve_2x2_zero_pivot_is_singular(A):
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        np.linalg.solve(np.array(A), np.ones(2))
    with pytest.raises(np.linalg.LinAlgError, match="Singular matrix"):
        _solve_2x2(*A[0], *A[1], 1.0, 1.0)


@pytest.mark.parametrize("where", range(6))
def test_solve_2x2_propagates_nan(where):
    entries = [2.0, 1.0, 4.0, 3.0, 1.0, -1.0]
    entries[where] = np.nan
    assert np.all(np.isnan(_solve_2x2(*entries)))


@pytest.mark.parametrize("which", ["jinxin", "vara"])
def test_solve_profile_makes_a_fixed_number_of_lapack_solves(jinxin, monkeypatch, which):
    # the shot solves each state in closed form: only the stacked solves at
    # U- and U+ and those of the derivative samples reach np.linalg.solve
    model = {"jinxin": jinxin, "vara": vara_model()}[which]
    solve = np.linalg.solve
    calls = []

    def spy(*args):
        calls.append(1)
        return solve(*args)

    monkeypatch.setattr(np.linalg, "solve", spy)
    counts = []
    for X, n in ((20.0, 401), (40.0, 4001)):
        calls.clear()
        solve_profile(model, X=X, n=n)
        counts.append(len(calls))
    assert counts == [6, 6]


def _sample_orbit_loop(xi, tail, sol):
    """Node-by-node orbit sampling, kept as the reference for ``_sample_orbit``."""
    values = np.empty((len(xi), sol.y.shape[0]))
    for i, s in enumerate(xi):
        values[i] = tail(np.array([s]))[0] if s < 0.0 else sol.sol(s)
    return values


def test_orbit_sampling_matches_node_loop(jinxin, monkeypatch):
    seen = {}
    sample = profile_module._sample_orbit

    def spy(*args):
        seen["args"], seen["values"] = args, sample(*args)
        return seen["values"]

    monkeypatch.setattr(profile_module, "_sample_orbit", spy)
    prof = solve_profile(jinxin, X=40.0, n=4001)
    assert prof.values is seen["values"]
    xi, tail, sol = seen["args"]
    # both branches: either side of the launch, then the shot up to its last time
    mixed = np.concatenate([np.linspace(-5.0, 5.0, 201), xi,
                            np.linspace(0.0, sol.t[-1], 321)])
    for points in (xi, mixed):
        got = profile_module._sample_orbit(points, tail, sol)
        want = _sample_orbit_loop(points, tail, sol)
        # the dense output sums terms of the state's size: 2 ulp of its largest entry
        ulp = np.spacing(np.max(np.abs(want), axis=1, keepdims=True))
        assert np.all(np.abs(got - want) <= 2.0 * ulp)


def _counted_shots(monkeypatch, t_end=None):
    """Spy on the profile module's ``shoot``; optionally end every t_span at t_end."""
    spans = []
    shoot = profile_module.shoot

    def spy(fun, t_span, *args, **kwargs):
        spans.append(t_span)
        if t_end is not None:
            t_span = (t_span[0], min(t_span[1], t_end))
        return shoot(fun, t_span, *args, **kwargs)

    monkeypatch.setattr(profile_module, "shoot", spy)
    return spans


@pytest.mark.parametrize("which, X", [("jinxin", 40.0), ("vara", 20.0)])
def test_profile_is_one_shot(jinxin, monkeypatch, which, X):
    model = {"jinxin": jinxin, "vara": vara_model()}[which]
    spans = _counted_shots(monkeypatch)
    prof = solve_profile(model, X=X, n=801)
    assert len(spans) == 1
    assert residual(prof, model) <= 1e-8


def test_shot_ending_before_connection_check_raises(jinxin, monkeypatch):
    # the midpoint crossing is near xi = 55, the connection check near 182
    spans = _counted_shots(monkeypatch, t_end=100.0)
    with pytest.raises(NoConnection, match="before the connection check"):
        solve_profile(jinxin, X=40.0, n=801)
    assert len(spans) == 1 and spans[0][1] > 100.0


# --- the shot and the interpolant against scipy ------------------------------------

def _captured_shot(model, X, n, monkeypatch):
    """solve_profile's profile, and the arguments and result of its one shot."""
    seen = {}
    shoot = profile_module.shoot

    def spy(*args, **kwargs):
        seen["args"], seen["kwargs"] = args, kwargs
        seen["shot"] = shoot(*args, **kwargs)
        return seen["shot"]

    monkeypatch.setattr(profile_module, "shoot", spy)
    prof = solve_profile(model, X=X, n=n)
    monkeypatch.undo()
    return prof, seen["args"], seen["kwargs"], seen["shot"]


def _stacked_rhs(model):
    """The profile ODE's right-hand side with A and q evaluated as a stack of
    one state (column views), not on the floats of the state."""
    def rhs(_xi, y):
        return np.linalg.solve(model.A_at(y[None])[0], model.q_at(y[None])[0])
    return rhs


@pytest.mark.parametrize("which, X", [("jinxin", 40.0), ("vara", 20.0)])
def test_shot_matches_scipy_rk45_bit_for_bit(jinxin, monkeypatch, which, X):
    from scipy.integrate import solve_ivp

    model = {"jinxin": jinxin, "vara": vara_model()}[which]
    prof, (fun, t_span, y0), kw, shot = _captured_shot(model, X, 4001, monkeypatch)
    ref = solve_ivp(fun, t_span, y0, method="RK45", rtol=kw["rtol"], atol=kw["atol"],
                    events=kw["events"], dense_output=True)
    # the shot evaluates A and q on the floats of one state: scipy's orbit with
    # them evaluated as a stack is the same, bit for bit
    stacked = solve_ivp(_stacked_rhs(model), t_span, y0, method="RK45", rtol=kw["rtol"],
                        atol=kw["atol"], events=kw["events"], dense_output=True)
    assert stacked.t.tobytes() == ref.t.tobytes() and stacked.y.tobytes() == ref.y.tobytes()
    assert stacked.t_events[0].tobytes() == ref.t_events[0].tobytes()
    steps = len(shot.t)
    # the same steps, stopped early: scipy runs on to xi_max
    assert shot.t.tobytes() == ref.t[:steps].tobytes()
    assert shot.y.tobytes() == ref.y[:, :steps].tobytes()
    assert steps < len(ref.t)
    assert shot.t_events[0].tobytes() == ref.t_events[0].tobytes()
    assert shot.t_events[1].size == ref.t_events[1].size == 0
    xi = np.concatenate([np.linspace(0.0, shot.t[-1], 1001), shot.t[::-1], [shot.t[-1] / 3]])
    assert shot.sol(xi).tobytes() == ref.sol(xi).tobytes()
    assert shot.sol(xi[5]).tobytes() == ref.sol(xi[5]).tobytes()
    # the shot stops after the first step that reaches the connection check
    xi_star = ref.t_events[0][0]
    xi_end = kw["until"](ref.t_events)
    assert shot.t[-2] < xi_end <= shot.t[-1]
    assert shot.sol(xi_end).tobytes() == ref.sol(xi_end).tobytes()  # the miss at U+
    # and the grid samples past the launch are those of the full shot
    xi = xi_star + prof.grid
    past_launch = xi >= 0.0
    assert prof.values[past_launch].tobytes() == ref.sol(xi[past_launch]).T.tobytes()


def test_moving_shock_profile_matches_lapack_rhs(monkeypatch):
    # s = 0.2: A = [[-s, 1], [a^2, -s]] eliminates a nonzero entry, where the
    # closed form rounds the products LAPACK fuses; the shot takes the same
    # steps to rounding and the profile pinned at its crossing stays put
    model = build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0.5], u_minus=1.2, u_plus=-0.8)
    assert model.shock_speed == pytest.approx(0.2)
    prof, *_, shot = _captured_shot(model, 40.0, 4001, monkeypatch)
    monkeypatch.setattr(profile_module, "ode_rhs",
                        lambda m, U: np.linalg.solve(m.A_at(U), m.q_at(U)))
    ref, *_, ref_shot = _captured_shot(model, 40.0, 4001, monkeypatch)
    assert len(shot.t) == len(ref_shot.t)
    assert shot.t_events[0][0] == pytest.approx(ref_shot.t_events[0][0], abs=1e-11)
    assert np.max(np.abs(prof.values - ref.values)) <= 1e-14
    assert np.max(np.abs(prof.d1 - ref.d1)) <= 1e-14


def test_terminal_event_ends_the_shot_like_scipy():
    from scipy.integrate import solve_ivp

    def rhs(_t, y):
        return np.array([y[1], -y[0]])

    def down(_t, y):
        return y[0]
    down.direction = -1.0

    def high(_t, y):
        return y[1] - 0.5
    high.terminal = True

    y0 = np.array([1.0, 0.0])
    ours = ode.shoot(rhs, (0.0, 20.0), y0, rtol=1e-9, atol=1e-12, events=[down, high])
    ref = solve_ivp(rhs, (0.0, 20.0), y0, method="RK45", rtol=1e-9, atol=1e-12,
                    events=[down, high], dense_output=True)
    assert ours.status == ref.status == 1 and ours.message == ref.message
    assert ours.t.tobytes() == ref.t.tobytes() and ours.y.tobytes() == ref.y.tobytes()
    for mine, theirs in zip(ours.t_events, ref.t_events):
        assert mine.tobytes() == theirs.tobytes()


@pytest.mark.parametrize("f, bracket", [
    (lambda x: x**2 - 2.0, (0.0, 3.0)),
    (lambda x: np.cos(x) - x, (-1.0, 1.0)),
    (lambda x: np.exp(x) - 1e3, (0.0, 50.0)),
    (lambda x: x**3 - 2.0 * x - 5.0, (2.0, 3.0)),
    (lambda x: np.tanh(x - 0.3), (-5.0, 5.0)),
    (lambda x: x, (0.0, 1.0)),
])
def test_brentq_matches_scipy(f, bracket):
    from scipy.optimize import brentq

    tol = 4.0 * np.finfo(float).eps
    assert ode.brentq(f, *bracket) == brentq(f, *bracket, xtol=tol, rtol=tol)


def test_rms_on_floats_is_numpys_norm():
    # the step control's RMS: np.linalg.norm's sqrt(x . x) over sqrt(size), bit for bit
    rng = np.random.default_rng(5)
    for size in (1, 2, 3, 7):
        xs = rng.standard_normal((300, size)) * 10.0 ** rng.integers(-8, 8, (300, 1))
        for x in xs:
            assert ode._rms(x) == np.linalg.norm(x) / x.size ** 0.5


def test_active_events_match_the_sign_change_masks():
    # one event at a time against scipy's masks over the event vector
    values = [-1.0, -0.0, 0.0, 2.0, np.nan]
    g, g_new, direction = (np.array(v) for v in zip(*[
        (a, b, d) for a in values for b in values for d in (-1.0, 0.0, 1.0, np.nan)]))
    up = (g <= 0) & (g_new >= 0)
    down = (g >= 0) & (g_new <= 0)
    mask = up & (direction > 0) | down & (direction < 0) | (up | down) & (direction == 0)
    got = ode._active_events(g.tolist(), g_new.tolist(), direction.tolist())
    assert got == np.nonzero(mask)[0].tolist()


@pytest.mark.parametrize("which, X", [("exact", 40.0), ("jinxin", 40.0), ("vara", 20.0)])
def test_hermite_evaluator_matches_scipy(jinxin, jinxin_profile, which, X):
    from scipy.interpolate import CubicHermiteSpline

    if which == "exact":
        prof = jinxin_profile
    else:
        prof = solve_profile({"jinxin": jinxin, "vara": vara_model()}[which], X=X, n=4001)
    rng = np.random.default_rng(11)
    off_grid = rng.uniform(-X, X, 20001)  # more than two evaluation chunks
    outside = np.concatenate([rng.uniform(-2.0 * X, -X, 50), rng.uniform(X, 2.0 * X, 50),
                              np.nextafter([-X, X], [-np.inf, np.inf])])
    for points in (off_grid, outside, prof.grid, off_grid[1:].reshape(200, 100)):
        for got, y, dydx in ((prof.eval, prof.values, prof.d1),
                             (prof.eval_d1, prof.d1, prof.d2)):
            want = CubicHermiteSpline(prof.grid, y, dydx, axis=0)
            assert got(points).tobytes() == want(points).tobytes()
            assert got(points[0]).tobytes() == want(points[0]).tobytes()


@pytest.mark.parametrize("grid", [
    np.linspace(-40.0, 40.0, 4001),
    np.cumsum(np.random.default_rng(5).uniform(1e-3, 1.0, 500)),
    np.geomspace(1.0, 1e6, 300),
], ids=["uniform", "random-steps", "geometric"])
def test_hermite_interval_is_searchsorted_right(grid):
    interp = profile_module._CubicHermite(grid, np.zeros((len(grid), 1)),
                                          np.zeros((len(grid), 1)))
    rng = np.random.default_rng(6)
    points = np.concatenate([
        rng.uniform(grid[0] - 5.0, grid[-1] + 5.0, 20000), grid,
        np.nextafter(grid, -np.inf), np.nextafter(grid, np.inf)])
    for pts in (points, np.sort(points)):
        want = np.clip(np.searchsorted(grid, pts, side="right") - 1, 0, len(grid) - 2)
        assert np.array_equal(interp.interval(pts), want)


def test_hermite_evaluator_matches_scipy_on_signed_zeros():
    from scipy.interpolate import CubicHermiteSpline

    # at x = 0 every term of the first cubic is -0.0; PPoly sums from +0.0
    grid = np.array([0.0, 0.5, 1.0])
    values = np.array([[-0.0], [-1.0], [2.0]])
    d1 = np.array([[-0.0], [-5.0], [1.0]])
    prof = ProfileRep(grid=grid, values=values, d1=d1, d2=np.zeros_like(d1),
                      U_minus=values[0], U_plus=values[-1])
    want = CubicHermiteSpline(grid, values, d1, axis=0)
    for x in (0.0, np.array([0.0, 0.25]), grid):
        assert prof.eval(x).tobytes() == want(x).tobytes()
