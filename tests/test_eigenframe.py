"""Eigendecomposition, source splitting, commutator solve, damping rate."""

from __future__ import annotations

import numpy as np
import pytest

from conftest import vara_model
from relaxdamp import (
    build_custom,
    build_jinxin,
    damping_rate,
    decompose,
    frame_along_profile,
    profile_source_field,
    source_split,
    theta_matrix,
)
from relaxdamp.eigenframe import (
    _continue_signs,
    _decompose_2x2,
    _decompose_batch,
    _row_max,
    _sign_fix,
    _spectrum,
    endstate_diagonals,
    frames_at_states,
    source_diagonals,
)
from relaxdamp.errors import Characteristic, GapTooSmall, NotDissipative, NotStrictlyHyperbolic
from relaxdamp.poly import Poly
from relaxdamp.profile import solve_profile


def test_decompose_jinxin_matrix():
    A = np.array([[0.0, 1.0], [4.0, 0.0]])
    fr = decompose(A)
    assert np.allclose(fr.lambdas, [-2.0, 2.0])
    assert np.max(np.abs(fr.L @ A @ fr.R - np.diag(fr.lambdas))) <= 1e-10 * 5.0
    assert np.max(np.abs(fr.L @ fr.R - np.eye(2))) <= 1e-10
    # eigenvectors proportional to the hand computation (1, -2), (1, 2)
    for j, ref in enumerate((np.array([1.0, -2.0]), np.array([1.0, 2.0]))):
        col = fr.R[:, j]
        c = col @ ref / (ref @ ref)
        assert np.max(np.abs(col - c * ref)) <= 1e-12


def test_decompose_already_diagonal():
    fr = decompose(np.diag([-1.0, 3.0]))
    assert np.allclose(fr.lambdas, [-1.0, 3.0])
    assert np.allclose(fr.L, np.eye(2))
    assert np.allclose(fr.R, np.eye(2))


def test_decompose_defective_matrix():
    with pytest.raises(NotStrictlyHyperbolic):
        decompose(np.array([[0.0, 1.0], [0.0, 0.0]]))


def test_decompose_complex_pair():
    with pytest.raises(NotStrictlyHyperbolic):
        decompose(np.array([[0.0, 1.0], [-1.0, 0.0]]))


def test_decompose_characteristic_bound():
    with pytest.raises(Characteristic):
        decompose(np.diag([0.5, 2.0]), c_min=1.0)


def test_frames_constant_along_profile(jinxin, jinxin_profile):
    frames = frame_along_profile(jinxin, jinxin_profile)
    assert frames.min_abs_lambda == pytest.approx(2.0, abs=1e-12)
    assert frames.min_gap == pytest.approx(4.0, abs=1e-12)
    assert np.max(np.abs(frames.R - frames.R[0])) == 0.0
    assert frames.lipschitz == 0.0


def test_constant_field_shares_one_frame(jinxin, jinxin_profile):
    frames = frame_along_profile(jinxin, jinxin_profile)
    assert frames.constant
    for field in (frames.lambdas, frames.L, frames.R):
        assert field.strides[0] == 0 and not field.flags.writeable
    assert np.shares_memory(frames.L[0], frames.L[-1])
    assert np.shares_memory(frames.R[0], frames.R[-1])


@pytest.fixture(scope="module")
def vara_frames():
    model = vara_model()
    return frame_along_profile(model, solve_profile(model, X=20.0, n=401))


@pytest.mark.parametrize("case", ["constant", "vara"])
def test_to_diag_and_from_diag_match_einsum(case, request):
    if case == "constant":
        frames = frame_along_profile(request.getfixturevalue("jinxin"),
                                     request.getfixturevalue("jinxin_profile"))
    else:
        frames = request.getfixturevalue("vara_frames")
        assert not frames.constant
    V = np.random.default_rng(2).standard_normal(frames.lambdas.shape)
    for got, M in ((frames.to_diag(V), frames.L), (frames.from_diag(V), frames.R)):
        want = np.einsum("njk,nk->nj", M, V)
        assert got.shape == want.shape
        assert np.max(np.abs(got - want)) <= 1e-15 * np.max(np.abs(M)) * np.max(np.abs(V))
    assert np.max(np.abs(frames.from_diag(frames.to_diag(V)) - V)) <= 1e-12


def test_conjugate_diag_is_the_diagonal_of_the_kron_product(jinxin, jinxin_profile):
    frames = frame_along_profile(jinxin, jinxin_profile)
    Q = np.random.default_rng(3).standard_normal((len(frames.grid), 2, 2))
    full = (Q.reshape(len(Q), 4) @ frames.kron).reshape(-1, 2, 2)
    got = frames.conjugate_diag(Q)  # family-major, (N, n)
    assert got.shape == (2, len(Q)) and got.flags.c_contiguous
    assert np.array_equal(got, np.diagonal(full, axis1=1, axis2=2).T)
    want = np.einsum("ja,nab,bj->jn", frames.L[0], Q, frames.R[0])
    assert np.max(np.abs(got - want)) <= 1e-14 * np.max(np.abs(Q))


@pytest.mark.parametrize("n", [7, 1001, 4001])
def test_family_major_products_keep_the_node_major_bits(jinxin, jinxin_profile, n):
    # the constant-A moc step reads L0 U^T and kron_diag^T Q^T; they must give
    # the bits of the node-major products U L0^T and Q kron_diag
    frames = frame_along_profile(jinxin, jinxin_profile)
    rng = np.random.default_rng(n)
    for scale in (1e-8, 1e-2, 1.0, 1e3):
        U = scale * rng.standard_normal((n, 2))
        Q = scale * rng.standard_normal((n, 2, 2))
        Phi = frames.diag_rows(U)
        assert Phi.flags.c_contiguous
        assert np.array_equal(Phi, frames.to_diag(U).T)
        kron_diag = np.ascontiguousarray(frames.kron[:, ::3])  # as the node-major step read it
        assert np.array_equal(frames.conjugate_diag(Q), (Q.reshape(n, 4) @ kron_diag).T)


def test_frames_reconstruct_A(jinxin, jinxin_profile):
    frames = frame_along_profile(jinxin, jinxin_profile)
    A = jinxin.A_at(jinxin_profile.values)
    lam = frames.lambdas[:, None, :] * np.eye(2)[None]
    recon = np.matmul(np.matmul(frames.R, lam), frames.L)
    assert np.max(np.abs(recon - A)) <= 1e-9


def test_sign_continuation_restores_alignment():
    n = 11
    base = decompose(np.array([[0.0, 1.0], [4.0, 0.0]]))
    lam = np.tile(base.lambdas, (n, 1))
    L = np.tile(base.L, (n, 1, 1))
    R = np.tile(base.R, (n, 1, 1))
    R[5][:, 0] *= -1.0  # adversarial flip of one eigenvector
    L[5][0, :] *= -1.0
    _continue_signs(lam, L, R)
    dots = np.einsum("nkj,nkj->nj", R[1:], R[:-1])
    assert np.all(dots > 0.0)
    assert np.max(np.abs(np.matmul(L, R) - np.eye(2))) <= 1e-12


def _continue_signs_loop(lambdas, L, R):
    """Node-by-node sign continuation, kept as the reference for the vectorised one."""
    n, N = lambdas.shape
    for i in range(1, n):
        dots = np.einsum("kj,kj->j", R[i], R[i - 1])
        flip = dots < 0
        if np.any(flip):
            R[i][:, flip] = -R[i][:, flip]
            L[i][flip, :] = -L[i][flip, :]


def test_sign_continuation_matches_node_loop():
    rng = np.random.default_rng(5)
    n = 400
    theta = np.linspace(0.0, 3.0, n)
    R = np.empty((n, 2, 2))
    R[:, 0, 0], R[:, 1, 0] = np.cos(theta), np.sin(theta)
    R[:, 0, 1], R[:, 1, 1] = -np.sin(2 * theta), np.cos(2 * theta)
    R *= rng.choice([-1.0, 1.0], size=(n, 1, 2))  # random column flips
    R[200, :, 0] = [-R[199, 1, 0], R[199, 0, 0]]  # exactly zero inner product
    L = np.linalg.inv(R)
    lam = np.tile([-1.0, 1.0], (n, 1))
    assert np.einsum("k,k->", R[200, :, 0], R[199, :, 0]) == 0.0

    L_ref, R_ref = L.copy(), R.copy()
    _continue_signs_loop(lam, L_ref, R_ref)
    _continue_signs(lam, L, R)
    assert R.tobytes() == R_ref.tobytes()
    assert L.tobytes() == L_ref.tobytes()


def _endstate_splits(model):
    """``source_split`` at U- and U+ from one ``decompose`` each."""
    return [source_split(decompose(model.A_at(U)), model.Q_at(U))
            for U in (model.U_minus, model.U_plus)]


def test_source_split_endstate_values(jinxin):
    # independent oracle: raw numpy eigendecomposition of A and L Q R product
    A = np.array([[0.0, 1.0], [4.0, 0.0]])
    for u, E_expect in ((1.0, (-0.75, -0.25)), (-1.0, (-0.25, -0.75))):
        Q = np.array([[0.0, 0.0], [u, -1.0]])  # f'(u) = u at eps = 1
        w, V = np.linalg.eig(A)
        idx = np.argsort(w)
        R = V[:, idx]
        M = np.linalg.inv(R) @ Q @ R
        assert np.allclose(np.diag(M), E_expect, atol=1e-12)

    sm, sp = _endstate_splits(jinxin)
    assert np.allclose(np.diag(sm.E), (-0.75, -0.25), atol=1e-12)
    assert np.allclose(np.diag(sp.E), (-0.25, -0.75), atol=1e-12)
    assert sorted(np.round(np.abs([sm.F[0, 1], sm.F[1, 0]]), 12).tolist()) == [0.25, 0.75]
    assert sorted(np.round(np.abs([sp.F[0, 1], sp.F[1, 0]]), 12).tolist()) == [0.25, 0.75]


def test_source_split_zero_offdiagonal_when_Q_commutes():
    fr = decompose(np.array([[0.0, 1.0], [4.0, 0.0]]))
    Q = fr.R @ np.diag([-1.0, -2.0]) @ fr.L  # diagonal in the eigenbasis
    split = source_split(fr, Q)
    assert np.max(np.abs(split.F)) <= 1e-12
    assert np.allclose(np.diag(split.E), [-1.0, -2.0])


def test_theta_solves_commutator(jinxin):
    fr = decompose(jinxin.A_at(jinxin.U_minus))
    lam = np.diag(fr.lambdas)
    for split in _endstate_splits(jinxin):
        Theta = theta_matrix(fr, split.F)
        resid = Theta @ lam - lam @ Theta - split.F
        assert np.max(np.abs(resid)) <= 1e-12 * (1.0 + np.max(np.abs(split.F)))
        assert np.all(np.diag(Theta) == 0.0)
        assert sorted(np.round(np.abs(
            [Theta[0, 1], Theta[1, 0]]), 12).tolist()) == [0.0625, 0.1875]


def test_theta_zero_for_zero_F():
    fr = decompose(np.array([[0.0, 1.0], [4.0, 0.0]]))
    assert np.max(np.abs(theta_matrix(fr, np.zeros((2, 2))))) == 0.0


def test_theta_random_offdiagonal_property():
    fr = decompose(np.array([[0.0, 1.0], [4.0, 0.0]]))
    lam = np.diag(fr.lambdas)
    rng = np.random.default_rng(11)
    for _ in range(100):
        F = rng.normal(size=(2, 2))
        np.fill_diagonal(F, 0.0)
        Th = theta_matrix(fr, F)
        resid = Th @ lam - lam @ Th - F
        assert np.max(np.abs(resid)) <= 1e-12 * (1.0 + np.max(np.abs(F)))


def test_theta_gap_guard():
    fr = decompose(np.diag([1.0, 1.0 + 1e-7]))
    with pytest.raises(GapTooSmall):
        theta_matrix(fr, np.array([[0.0, 1.0], [1.0, 0.0]]))


def test_damping_rate_jinxin(jinxin):
    dr = damping_rate(jinxin)
    assert dr.theta_E == pytest.approx(0.125, abs=1e-12)
    assert dr.theta_E_signed == pytest.approx(-0.125, abs=1e-12)
    values = sorted(np.concatenate([dr.E_minus, dr.E_plus]).tolist())
    assert np.allclose(values, [-0.75, -0.75, -0.25, -0.25], atol=1e-12)


def test_damping_rate_identity_source():
    m = build_custom(
        "iso", 2, [[1.0, 0.0], [0.0, -1.0]],
        [Poly.variable(2, 0).scaled(-1.0), Poly.variable(2, 1).scaled(-1.0)],
        U_minus=[0.0, 0.0], U_plus=[0.0, 0.0],
        state_box=([-1.0, -1.0], [1.0, 1.0]))
    assert damping_rate(m).theta_E == pytest.approx(0.5)


def test_damping_rate_supercharacteristic_fails():
    m = build_jinxin(a=0.5, eps=1.0, flux=[0, 0, 0.5], u_minus=1.0, u_plus=-1.0)
    with pytest.raises(NotDissipative):
        damping_rate(m)
    # closed form: the unstable diagonal entry equals (|f'| - a)/(2 a eps) = 0.5
    sm, _ = _endstate_splits(m)
    assert np.max(np.diag(sm.E)) == pytest.approx(0.5, abs=1e-12)


def test_profile_source_field_commutator_everywhere(jinxin, jinxin_profile):
    sf = profile_source_field(jinxin, jinxin_profile)
    lam = sf.frames.lambdas
    comm = (sf.Theta * lam[:, None, :] - lam[:, :, None] * sf.Theta) - sf.F_tilde
    scale = 1.0 + np.max(np.abs(sf.F_tilde))
    assert np.max(np.abs(comm)) <= 1e-12 * scale
    # state-independent A: no transport contribution
    assert np.max(np.abs(sf.transport)) == 0.0


def test_biorthogonality_along_profile(jinxin, jinxin_profile):
    frames = frame_along_profile(jinxin, jinxin_profile)
    prod = np.matmul(frames.L, frames.R)
    assert np.max(np.abs(prod - np.eye(2))) <= 1e-10


def test_state_dependent_frames_continuous():
    # A(U) = [[u1, 1], [1, -u1]]: eigenvalues +-sqrt(1 + u1^2), smooth frames
    A = [[Poly.variable(2, 0), 1.0], [1.0, Poly.variable(2, 0).scaled(-1.0)]]
    m = build_custom("varA", 2, A, [0.0, 0.0],
                     state_box=([-1.0, -1.0], [1.0, 1.0]))
    grid = np.linspace(-1.0, 1.0, 181)
    states = np.stack([np.linspace(-0.9, 0.9, 181), np.zeros(181)], axis=1)
    frames = frames_at_states(m, grid, states)
    dots = np.einsum("nkj,nkj->nj", frames.R[1:], frames.R[:-1])
    assert np.all(dots > 0.0)
    assert frames.lipschitz <= 2.0  # smooth frame on a well-separated spectrum
    lam = frames.lambdas[:, None, :] * np.eye(2)[None]
    recon = np.matmul(np.matmul(frames.R, lam), frames.L)
    assert np.max(np.abs(recon - m.A_at(states))) <= 1e-9


# --- closed-form 2x2 eigenframes -------------------------------------------------

def _real_spectrum_2x2(rng, n, lam):
    """Stacks V diag(lam) V^{-1} with unit eigenvectors at least 0.3 rad apart."""
    phi = rng.uniform(0.0, np.pi, n)
    psi = phi + rng.uniform(0.3, np.pi - 0.3, n)
    V = np.stack([np.stack([np.cos(phi), np.cos(psi)], axis=1),
                  np.stack([np.sin(phi), np.sin(psi)], axis=1)], axis=1)
    return V @ (lam[:, :, None] * np.eye(2)) @ np.linalg.inv(V)


def _closed_form_cases():
    rng = np.random.default_rng(17)
    n = 400
    lam = np.sort(rng.uniform(-5.0, 5.0, (n, 2)), axis=1)
    lam[:, 1] += 0.05
    general = _real_spectrum_2x2(rng, n, lam)
    lower = np.zeros((n, 2, 2))  # b = 0
    lower[:, 0, 0], lower[:, 1, 1] = lam[:, 1], lam[:, 0]
    lower[:, 1, 0] = rng.uniform(-10.0, 10.0, n)
    diagonal = lam[:, ::-1, None] * np.eye(2)
    near = lam.copy()  # one speed within 1e-9 of zero
    near[:, 0] = rng.uniform(-1e-9, 1e-9, n)
    near[:, 1] = np.abs(near[:, 1]) + 0.5
    near_char = _real_spectrum_2x2(rng, n, near)
    upper = lam[:, :, None] * np.eye(2)  # strongly non-normal: |b| >> gap
    upper[:, 0, 1] = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(3.0, 6.0, n)
    scale = 10.0 ** rng.uniform(-5.0, 5.0, n)  # badly scaled: D B D^{-1}
    scaled = general.copy()
    scaled[:, 0, 1] *= scale
    scaled[:, 1, 0] /= scale
    return {"general": general, "b=0": lower, "diagonal": diagonal,
            "near-characteristic": near_char, "non-normal": upper, "scaled": scaled}


@pytest.mark.parametrize("case", list(_closed_form_cases()))
def test_closed_form_2x2_matches_lapack(case):
    A = _closed_form_cases()[case]
    lam, L, R = _decompose_2x2(A, 0.0)
    lam_ref, L_ref, R_ref = _decompose_batch(A, 0.0)

    def rel(got, want):
        axes = tuple(range(1, want.ndim))
        return np.max(np.max(np.abs(got - want), axis=axes) / np.max(np.abs(want), axis=axes))

    assert rel(lam, lam_ref) <= 1e-12
    assert rel(R, R_ref) <= 1e-12
    assert rel(L, L_ref) <= 1e-12
    assert np.max(np.abs(L @ R - np.eye(2))) <= 1e-14
    # same sign convention: the largest entry of every right eigenvector is +1
    lead = np.take_along_axis(R, np.argmax(np.abs(R), axis=1)[:, None, :], axis=1)
    assert np.all(lead == 1.0)
    assert np.array_equal(np.argmax(np.abs(R), axis=1), np.argmax(np.abs(R_ref), axis=1))


@pytest.mark.parametrize("bad, error, message", [
    ([[1.0, 2.0], [-1.0, 3.0]], NotStrictlyHyperbolic, "complex eigenvalues"),
    ([[2.0, 1.0], [0.0, 2.0]], NotStrictlyHyperbolic, "eigenvalue gap below"),
    ([[0.5, 1.0], [0.0, 3.0]], Characteristic, "min [|]lambda[|] = 0.5 below bound 1"),
])
def test_closed_form_2x2_errors_name_x(bad, error, message):
    A = np.tile(np.diag([-2.0, 3.0]), (6, 1, 1))
    A[4] = bad
    grid = np.linspace(0.0, 1.25, 6)
    for decompose_stack in (_decompose_2x2, _decompose_batch):
        with pytest.raises(error, match=f"^{message}.* at x = 1$"):
            decompose_stack(A, 1.0, grid)


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_closed_form_2x2_refuses_non_finite_matrices(bad):
    A = np.tile(np.diag([-2.0, 3.0]), (3, 1, 1))
    A[1, 1, 0] = bad
    for decompose_stack in (_decompose_2x2, _decompose_batch):
        with pytest.raises(np.linalg.LinAlgError, match="infs or NaNs"):
            decompose_stack(A, 0.0)


def _sign_fix_by_argmax(R):
    """Reference sign convention: each column divided by its np.argmax entry."""
    out = R.copy()
    for j in range(R.shape[-1]):
        col = out[..., :, j]
        idx = np.argmax(np.abs(col), axis=-1)
        out[..., :, j] = col / np.take_along_axis(col, idx[..., None], axis=-1)
    return out


@pytest.mark.parametrize("N", [1, 2, 3, 4])
def test_short_axis_reductions_match_numpy(N):
    rng = np.random.default_rng(N)
    R = rng.normal(size=(301, N, N))
    R[::3, -1, :] = -R[::3, 0, :]  # ties of equal magnitude: the first entry leads
    R[::5] = np.sign(R[::5])       # every entry of these columns ties at 1
    fixed = R.copy()
    _sign_fix(fixed)
    assert np.array_equal(fixed, _sign_fix_by_argmax(R))
    rows = np.abs(R).reshape(len(R), -1)
    rows[7, -1] = np.nan
    assert np.array_equal(_row_max(rows), np.max(rows, axis=1), equal_nan=True)


def test_two_eigenvalue_order_matches_argsort():
    rng = np.random.default_rng(12)
    A = rng.normal(size=(400, 2, 2))
    w = np.linalg.eigvals(A)
    assert np.any(w.imag != 0.0) and np.any(w.imag == 0.0)  # complex pairs and real rows
    w[::7, 1] = w[::7, 0].real           # ties
    w[3::7] = [0.0, -0.0]                # ties of signed zeros
    w[5::7] = [-0.0, 0.0]
    lam, order, pair, coalesced = _spectrum(A, w)
    want = np.argsort(w.real, axis=1)
    assert order.dtype == want.dtype and np.array_equal(order, want)
    want_lam = np.take_along_axis(w.real, want, axis=1)
    assert np.array_equal(lam, want_lam)
    assert np.array_equal(np.signbit(lam), np.signbit(want_lam))
    scale = 1.0 + np.max(np.abs(A).reshape(len(A), -1), axis=1)
    assert np.array_equal(coalesced, np.diff(want_lam, axis=1)[:, 0] < 1e-10 * scale)
    assert np.array_equal(pair, np.max(np.abs(w.imag), axis=1) > 1e-10 * scale)


def test_state_dependent_3x3_frames_stay_lapack():
    u = Poly.variable(3, 0)
    A = [[u, 1.0, 0.0], [0.5, 2.0, u.scaled(0.5)], [0.0, 0.3, u.scaled(-1.0)]]
    m = build_custom("varA3", 3, A, [0.0, 0.0, 0.0],
                     state_box=([-1.0] * 3, [1.0] * 3))
    assert not m.A_is_constant
    grid = np.linspace(-1.0, 1.0, 121)
    states = np.zeros((121, 3))
    states[:, 0] = np.linspace(-0.9, 0.9, 121)
    frames = frames_at_states(m, grid, states)
    lam, L, R = _decompose_batch(m.A_at(states), 0.0, grid)
    _continue_signs(lam, L, R)
    for got, want in ((frames.lambdas, lam), (frames.L, L), (frames.R, R)):
        assert got.tobytes() == want.tobytes()


def _varA3_model():
    u = Poly.variable(3, 0)
    A = [[u, 1.0, 0.0], [0.5, 2.0, u.scaled(0.5)], [0.0, 0.3, u.scaled(-1.0)]]
    q = [u.scaled(-1.0), Poly.variable(3, 1).scaled(-2.0), Poly.variable(3, 2).scaled(-0.5)]
    return build_custom("varA3", 3, A, q, U_minus=[0.0] * 3, U_plus=[0.0] * 3,
                        state_box=([-1.0] * 3, [1.0] * 3))


@pytest.mark.parametrize("name", ["jinxin", "varA", "supercharacteristic", "varA3"])
def test_endstate_diagonals_match_per_endstate_decompose(name, jinxin):
    model = {"jinxin": jinxin, "varA": vara_model(),
             "supercharacteristic": build_jinxin(a=0.5, eps=1.0, flux=[0, 0, 0.5],
                                                 u_minus=1.0, u_plus=-1.0),
             "varA3": _varA3_model()}[name]
    lam, E = endstate_diagonals(model)
    for k, U in enumerate((model.U_minus, model.U_plus)):
        fr = decompose(model.A_at(U))
        assert lam[k].tobytes() == fr.lambdas.tobytes()
        assert E[k].tobytes() == np.diag(source_split(fr, model.Q_at(U)).E).tobytes()


def test_endstate_diagonals_refuse_a_non_hyperbolic_endstate():
    # A = [[0, 1], [u, 0]]: eigenvalues +-sqrt(u), complex at U+ (u = -1)
    u = Poly.variable(2, 0)
    m = build_custom("loses-hyperbolicity", 2, [[0.0, 1.0], [u, 0.0]],
                     [0.0, Poly.variable(2, 1).scaled(-1.0)],
                     U_minus=[1.0, 0.0], U_plus=[-1.0, 0.0])
    with pytest.raises(NotStrictlyHyperbolic, match="at U[+]"):
        endstate_diagonals(m)


def test_source_diagonals_nan_rows_where_not_strictly_hyperbolic():
    u = Poly.variable(2, 0)
    m = build_custom("loses-hyperbolicity", 2, [[0.0, 1.0], [u, 0.0]],
                     [0.0, Poly.variable(2, 1).scaled(-1.0)],
                     state_box=([-1.0, -1.0], [3.0, 1.0]))
    states = np.array([[-1.0, 0.0], [0.0, 0.5], [1.0, 0.0], [4.0, 0.2]])
    lam, E = source_diagonals(m, states)
    assert np.array_equal(np.isnan(lam), [[True, True], [True, True],
                                          [False, False], [False, False]])
    assert np.array_equal(np.isnan(E), np.isnan(lam))
    assert np.allclose(lam[2:], [[-1.0, 1.0], [-2.0, 2.0]], rtol=0.0, atol=1e-14)
    assert np.allclose(E[2:], -0.5, rtol=0.0, atol=1e-14)  # L Q R = -(1/2) [[1, -1], [-1, 1]]
