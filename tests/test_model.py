"""Model construction, evaluators, and Jacobian cross-checks."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import vara_model
from relaxdamp import build_custom, build_jinxin, eval_A, eval_Q, eval_q, validate_model
from relaxdamp.errors import DegenerateShock, InvalidParam, OutOfDomain, ValidationFailed
from relaxdamp.model import fd_jacobian
from relaxdamp.poly import Poly, _power, poly_matrix_eval, poly_vector_eval


def rankine_hugoniot(flux, um, up):
    f = lambda u: sum(c * u**k for k, c in enumerate(flux))
    return (f(up) - f(um)) / (up - um)


def test_jinxin_shock_speed_symmetric():
    m = build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0.5], u_minus=1.0, u_plus=-1.0)
    assert m.shock_speed == pytest.approx(0.0, abs=1e-15)
    assert m.shock_speed == pytest.approx(rankine_hugoniot([0, 0, 0.5], 1.0, -1.0))
    A = eval_A(m, m.U_minus)
    assert np.allclose(A, [[0.0, 1.0], [4.0, 0.0]])


def test_jinxin_shock_speed_one_half():
    m = build_jinxin(a=1.0, eps=1.0, flux=[0, 0, 0.5], u_minus=1.0, u_plus=0.0)
    assert m.shock_speed == pytest.approx(0.5)
    assert m.shock_speed == pytest.approx(rankine_hugoniot([0, 0, 0.5], 1.0, 0.0))


def test_equal_endstates_degenerate():
    with pytest.raises(DegenerateShock):
        build_jinxin(a=2.0, eps=1.0, flux=[0, 0, 0.5], u_minus=1.0, u_plus=1.0)


@pytest.mark.parametrize("a,eps", [(-1.0, 1.0), (0.0, 1.0), (2.0, 0.0), (2.0, -3.0)])
def test_invalid_params(a, eps):
    with pytest.raises(InvalidParam):
        build_jinxin(a=a, eps=eps, flux=[0, 0, 0.5], u_minus=1.0, u_plus=-1.0)


def test_eval_A_state_dependent_entry():
    m = build_custom("diag", 2, [[Poly.variable(2, 0), 0.0], [0.0, -1.0]],
                     [0.0, 0.0], state_box=([-1.0, -1.0], [1.0, 1.0]))
    A = eval_A(m, [0.5, 0.0])
    assert np.allclose(A, [[0.5, 0.0], [0.0, -1.0]])


def _poly_eval_full(poly, U):
    """Poly evaluation that starts every monomial from a filled array."""
    U = np.asarray(U, dtype=float)
    out = np.zeros(U.shape[:-1], dtype=float)
    for coeff, powers in poly.terms:
        term = np.full(U.shape[:-1], coeff, dtype=float)
        for k, p in enumerate(powers):
            if p == 1:
                term = term * U[..., k]
            elif p > 1:
                term = term * U[..., k] ** p
        out += term
    return out


def test_poly_eval_matches_filled_monomials():
    x, y = Poly.variable(3, 0), Poly.variable(3, 1)
    entries = [
        [Poly.constant(3, 0.0), Poly.constant(3, 2.5)],
        [x.scaled(3.0) + Poly.univariate(3, 1, [1.0, 0.0, -0.5, 0.25]),
         Poly(3, ((0.7, (1, 2, 3)), (-1.5, (0, 0, 0)))) + y],
    ]
    rng = np.random.default_rng(11)
    for U in (rng.uniform(-2.0, 2.0, (257, 3)), rng.uniform(-2.0, 2.0, (4, 5, 3)),
              np.array([0.3, -1.2, 0.8])):
        got = poly_matrix_eval(entries, U)
        vec = poly_vector_eval([row[1] for row in entries] + [entries[0][0]], U)
        for i in range(2):
            for j in range(2):
                assert np.array_equal(got[..., i, j], _poly_eval_full(entries[i][j], U))
            assert np.array_equal(vec[..., i], _poly_eval_full(entries[i][1], U))
        assert np.array_equal(vec[..., 2], np.zeros(U.shape[:-1]))


def _signed_states(rng, n, n_vars):
    """Random states with signed zeros, NaN and infinities among their components."""
    U = 3.0 * rng.standard_normal((n, n_vars))
    U[::5, 0] = -0.0
    U[1::5, 0] = 0.0
    U[::7, -1] = -0.0
    U[3::11, 1] = np.nan
    U[4::13, 0] = np.inf
    U[5::17, -1] = -np.inf
    return U


def test_single_state_evaluation_matches_the_stack_bit_for_bit():
    # one state evaluates on Python floats, a stack on column views: exponents
    # 0-4, constant and empty entries, products whose sum is a signed zero
    x, y, z = (Poly.variable(3, k) for k in range(3))
    entries = [
        [Poly(3, ()), Poly.constant(3, -2.5), Poly(3, ((1.5, (0, 0, 0)), (-0.25, (0, 0, 0))))],
        [Poly(3, ((0.7, (1, 2, 3)), (-1.5, (0, 0, 0)))),
         Poly(3, ((1.0, (4, 0, 0)), (-2.0, (0, 3, 1)), (0.5, (0, 0, 2)))),
         x + y.scaled(-1.0)],
        [Poly(3, ((2.0, (0, 4, 0)),)), Poly(3, ((-1.0, (3, 0, 0)), (1.0, (0, 0, 0)))),
         Poly(3, ((1.0, (1, 1, 0)), (1.0, (0, 1, 1))))],
    ]
    U = _signed_states(np.random.default_rng(4), 400, 3)
    with np.errstate(invalid="ignore"):  # numpy warns of inf * 0 and inf - inf
        stack = poly_matrix_eval(entries, U)
        vec = poly_vector_eval(entries[1] + entries[2], U)
        assert poly_matrix_eval(entries, U.reshape(20, 20, 3)).tobytes() == stack.tobytes()
    for k, u in enumerate(U):
        assert poly_matrix_eval(entries, u).tobytes() == stack[k].tobytes(), k
        assert poly_vector_eval(entries[1] + entries[2], u).tobytes() == vec[k].tobytes(), k
    assert np.isnan(stack).any() and np.isinf(stack).any()
    # x y + y z sums signed zero products, and a sum from +0 is never -0
    assert (stack[:, 2, 2] == 0.0).sum() >= 10
    assert not (np.signbit(stack) & (stack == 0.0)).any()


@pytest.mark.parametrize("p", [2, 3, 4])
def test_float_powers_are_numpys(p):
    # numpy's vectorized pow need not round as libm's does, so a float takes
    # a power above 2 through numpy, and a square as x * x: the bits of a
    # stack's column
    col = 3.0 * np.random.default_rng(p).standard_normal((5000, 2))[:, 0]
    want = (col ** p).tobytes()
    assert np.array([_power(v, p) for v in col.tolist()]).tobytes() == want
    assert _power(col, p).tobytes() == want
    u = Poly(1, ((1.0, (p,)),))
    assert np.array([u.at([v]) for v in col.tolist()]).tobytes() == want


def test_constant_A_at_one_state_is_the_cached_matrix(jinxin):
    A = jinxin.A_at(jinxin.U_minus)
    assert A is jinxin.A_at(np.array([0.3, -0.2])) and not A.flags.writeable
    assert np.array_equal(A, jinxin.A_at(np.zeros((3, 2)))[1])


def test_eval_outside_box_raises(jinxin):
    with pytest.raises(OutOfDomain):
        eval_A(jinxin, [10.0, 0.0])
    with pytest.raises(OutOfDomain):
        eval_q(jinxin, [0.0, 50.0])


def test_source_at_equilibrium_flux_point(jinxin):
    # f(1) = 0.5 makes (u, v) = (1, 0.5) an equilibrium of q
    q = eval_q(jinxin, [1.0, 0.5])
    assert np.allclose(q, 0.0, atol=1e-15)


def test_jacobian_matches_finite_differences(jinxin):
    Q = eval_Q(jinxin, [1.0, 0.5])
    assert np.allclose(Q, [[0.0, 0.0], [1.0, -1.0]], atol=1e-14)
    J = fd_jacobian(jinxin.q_at, np.array([1.0, 0.5]))
    assert np.max(np.abs(Q - J)) <= 1e-6 * (1.0 + np.max(np.abs(Q)))


def test_endstates_are_equilibria(jinxin):
    for U in (jinxin.U_minus, jinxin.U_plus):
        assert np.max(np.abs(jinxin.q_at(U))) <= 1e-12


def test_jacobian_property_on_box_samples(jinxin):
    rng = np.random.default_rng(7)
    lo, hi = jinxin.state_box
    for _ in range(25):
        U = lo + (hi - lo) * rng.random(2)
        Q = jinxin.Q_at(U)
        J = fd_jacobian(jinxin.q_at, U)
        assert np.max(np.abs(Q - J)) <= 1e-6 * (1.0 + np.max(np.abs(Q)))


def test_evaluators_are_pure(jinxin):
    U = np.array([0.3, 0.1])
    assert np.array_equal(eval_A(jinxin, U), eval_A(jinxin, U))
    assert np.array_equal(eval_q(jinxin, U), eval_q(jinxin, U))
    assert np.array_equal(eval_Q(jinxin, U), eval_Q(jinxin, U))


def test_validate_model_passes(jinxin):
    report = validate_model(jinxin, n_samples=50, seed=3)
    assert report.max_rel_jacobian_error <= 1e-6


def test_validate_model_detects_wrong_jacobian():
    # hand-coded Q with a flipped sign on the coupling entry
    q2 = Poly.univariate(2, 0, [0.0, 0.0, 0.5]) + Poly.variable(2, 1).scaled(-1.0)
    bad_Q = [[0.0, 0.0], [Poly.variable(2, 0).scaled(-1.0), -1.0]]
    m = build_custom("bad", 2, [[0.0, 1.0], [4.0, 0.0]], [0.0, q2],
                     U_minus=[1.0, 0.5], U_plus=[-1.0, 0.5], Q_entries=bad_Q)
    with pytest.raises(ValidationFailed) as err:
        validate_model(m, n_samples=20, seed=0)
    assert err.value.state is not None


def _validate_model_loop(model, n_samples, seed):
    """validate_model as one sample at a time: (worst error, worst state), or
    the state of the first non-finite evaluation."""
    rng = np.random.default_rng(seed)
    lo, hi = model.state_box
    samples = lo + (hi - lo) * rng.random((n_samples, model.N))
    worst_err, worst_state = 0.0, samples[0]
    for U in samples:
        A, qv, Qv = model.A_at(U), model.q_at(U), model.Q_at(U)
        if not (np.all(np.isfinite(A)) and np.all(np.isfinite(qv))
                and np.all(np.isfinite(Qv))):
            return "non-finite", U
        err = np.max(np.abs(Qv - fd_jacobian(model.q_at, U))) / (1.0 + np.max(np.abs(Qv)))
        if err > worst_err:
            worst_err, worst_state = err, U
    return float(worst_err), worst_state


def _cubic_3x3(scale=1.0):
    q = [[[1.0, [3, 0, 0]], [-1.0, [0, 1, 0]]], [[0.3, [1, 2, 0]]],
         [[-0.7 * scale, [0, 0, 5]], [0.2, [1, 1, 1]]]]
    return build_custom("cubic3", 3, [[1.0, 0.0, 0.0], [0.0, 2.0, 0.0], [0.0, 0.0, -1.0]],
                        q, state_box=([-2.0] * 3, [2.0] * 3))


@pytest.mark.filterwarnings("ignore:overflow encountered")
@pytest.mark.parametrize("which", ["jinxin", "vara", "cubic3", "wrong-Q", "overflow"])
def test_batched_validation_matches_the_sample_loop(which, jinxin):
    wrong = build_custom("wrong", 2, [[0.0, 1.0], [1.0, 0.0]], [0.0, [[1.0, [2, 0]]]],
                         Q_entries=[[0.0, 0.0], [[[2.1, [1, 0]]], 0.0]],
                         state_box=([-1.0] * 2, [1.0] * 2))
    model = {"jinxin": jinxin, "vara": vara_model(), "cubic3": _cubic_3x3(),
             "wrong-Q": wrong, "overflow": _cubic_3x3(1e307)}[which]
    for seed in range(4):
        for n in (1, 5, 100):
            want_err, want_state = _validate_model_loop(model, n, seed)
            if want_err == "non-finite" or want_err > 1e-6:
                with pytest.raises(ValidationFailed) as err:
                    validate_model(model, n, seed)
                assert np.array_equal(err.value.state, want_state)
                if want_err == "non-finite":
                    assert "non-finite" in str(err.value)
                else:
                    assert err.value.error == want_err
            else:
                report = validate_model(model, n, seed)
                assert report.max_rel_jacobian_error == want_err
                assert np.array_equal(report.worst_state, want_state)


def test_validate_model_needs_samples(jinxin):
    with pytest.raises(InvalidParam):
        validate_model(jinxin, n_samples=0)


def test_custom_rejects_non_equilibrium_endstates():
    with pytest.raises(InvalidParam):
        build_custom("bad", 1, [[1.0]], [Poly.constant(1, 1.0)],
                     U_minus=[0.0], U_plus=[1.0])


@pytest.mark.parametrize("box, message", [
    (([2.0, 2.0], [-2.0, -1.0]), "state_box needs lo < hi in every component"),
    (([5.0, 5.0], [6.0, 6.0]), "state_box must contain U_minus"),
    (([-2.0], [2.0]), "state_box must be two lists of 2 numbers"),
], ids=["reversed", "disjoint", "short"])
def test_custom_rejects_a_state_box_that_is_empty_or_misses_an_endstate(box, message):
    # a reversed box makes the no-damping radius's C_lip 0 and disarms the
    # shot's divergence guard; a disjoint one takes C_lip on states never
    # visited; a short one would be broadcast over the components
    vara = vara_model()

    def rebuild(state_box):
        return build_custom(vara.name, vara.N, vara.A_entries, vara.q_entries,
                            U_minus=vara.U_minus, U_plus=vara.U_plus, state_box=state_box)

    with pytest.raises(InvalidParam, match=f"^{message}$"):
        rebuild(box)
    # the default padded box, given explicitly, passes
    assert all(np.array_equal(a, b) for a, b in zip(rebuild(vara.state_box).state_box,
                                                      vara.state_box))


def test_state_box_padding(jinxin):
    lo, hi = jinxin.state_box
    # segment u in [-1, 1]: pad = 0.5 * 2 + 0.5 = 1.5
    assert lo[0] == pytest.approx(-2.5)
    assert hi[0] == pytest.approx(2.5)
    # v is the single point 0.5: pad = 0.5 absolute floor
    assert lo[1] == pytest.approx(0.0)
    assert hi[1] == pytest.approx(1.0)
