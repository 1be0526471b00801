"""Characteristic tracing, the H exponent, and the no-damping radius."""

from __future__ import annotations

import dataclasses
import warnings
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from conftest import (anti_damped_core_model, diagonal_vars, duhamel_forcing, duhamel_residual,
                      profile_source, scalar_model, synthetic_trajectory, vara_model)
from relaxdamp import characteristics, damping_rate, dynamics, eigenframe
from relaxdamp.characteristics import (
    CharPaths,
    _c_emp,
    accumulate_H,
    no_damping_radius,
    scan_trajectory_damping,
    trace_many,
    verify_H_bound,
)
from relaxdamp.damping_verifier import feasibility_table, slaving_check
from relaxdamp.dynamics import PerturbationSpec, ShiftSpec, _cubic_lagrange, evolve, interior_max
from relaxdamp.eigenframe import _decompose_batch
from relaxdamp.errors import EpsilonTooLarge, NotStrictlyHyperbolic
from relaxdamp.poly import Poly
from relaxdamp.profile import constant_profile, solve_profile
from relaxdamp.model import build_custom


@pytest.fixture(scope="module")
def jinxin_run(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    return evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=20.0, backend="moc", dx=0.02, n_out=50)


@pytest.fixture(scope="module")
def decay_run():
    model = scalar_model(speed=2.0, decay=0.25)
    prof = constant_profile(model, [0.0], X=40.0, n=2001)
    pert = PerturbationSpec(kind="zero")
    traj = evolve(model, prof, pert, ShiftSpec(kind="zero"), T=20.0,
                  backend="moc", dx=0.04, n_out=50)
    return model, prof, traj


def test_trace_straight_line(decay_run):
    _, _, traj = decay_run
    p = trace_many(traj, 0, [-5.0])
    assert p.positions.shape == (len(p.times), 1)
    expect = -5.0 + 2.0 * p.times
    assert np.max(np.abs(p.positions[:, 0] - expect)) <= 1e-12


def test_trace_at_constant_A_interpolates_no_field(jinxin_run, monkeypatch):
    calls = []
    monkeypatch.setattr(characteristics._FieldInterp, "at",
                        lambda self, *args: calls.append(1))
    sinusoid = ShiftSpec("sinusoid", amplitude=0.01, frequency=0.05)
    traj = dataclasses.replace(jinxin_run, shift=sinusoid)
    for j in (0, 1):
        lam = float(traj.frames[0].lambdas[0, j])
        assert lam == pytest.approx(-2.0 if j == 0 else 2.0, rel=1e-14)
        p = trace_many(traj, j, [1.0])
        assert calls == []
        assert p.velocities[:, 0].tolist() == [lam - sinusoid.delta_dot(s) for s in p.times]


def test_trace_constant_shift_rate(decay_run):
    model, prof, _ = decay_run
    traj = evolve(model, prof, PerturbationSpec(kind="zero"),
                  ShiftSpec(kind="linear", rate=0.5), T=10.0,
                  backend="moc", dx=0.04, n_out=20)
    p = trace_many(traj, 0, [0.0])
    expect = (2.0 - 0.5) * p.times
    assert np.max(np.abs(p.positions[:, 0] - expect)) <= 1e-12


def test_constant_damping_H_is_linear(decay_run):
    _, _, traj = decay_run
    p = trace_many(traj, 0, [-30.0])
    H = accumulate_H(p, traj)
    assert H is p.H and H.shape == p.positions.shape
    assert np.max(np.abs(H[:, 0] + 0.25 * p.times)) <= 1e-10


def test_tracer_refinement_order():
    # manufactured velocity field: lambda depends on a smooth synthetic state
    A = [[Poly.constant(1, 2.0) + Poly.variable(1, 0)]]
    model = build_custom("varspeed", 1, A, [0.0], state_box=([-1.0], [1.0]))
    prof = constant_profile(model, [0.0], X=40.0, n=2001)

    def field(t, x):
        return (0.5 * np.sin(0.3 * x) * np.exp(-0.05 * t))[:, None]

    traj = synthetic_trajectory(model, prof, field, T=8.0, n_out=16)
    ref = trace_many(traj, 0, [-20.0], n_sub=64).positions[-1, 0]
    errs = []
    for n_sub in (2, 4, 8):
        p = trace_many(traj, 0, [-20.0], n_sub=n_sub)
        errs.append(abs(p.positions[-1, 0] - ref))
    order1 = np.log2(errs[0] / errs[1])
    order2 = np.log2(errs[1] / errs[2])
    assert min(order1, order2) >= 1.8


def test_exit_time_bound(jinxin, jinxin_run):
    radius = 10.0
    eps_d = 0.0
    bound = 2.0 * radius / (2.0 - eps_d)
    texit = trace_many(jinxin_run, (0, 1), np.linspace(-radius, radius, 7)).exit_times(radius)
    assert texit.shape == (14,) and not np.isnan(texit).any()
    assert np.all(texit <= bound + 0.5)  # sampling slack of one sub-step


def test_uniform_damping_bound_slack(decay_run):
    # field damps at 0.25 everywhere; theta_E = 0.125 leaves the bound slack
    _, _, traj = decay_run
    paths = trace_many(traj, 0, np.linspace(-10, 10, 5))
    accumulate_H(paths, traj)
    rep = verify_H_bound(paths, theta_E=0.125)
    assert rep.C_emp_overall <= 1e-10


def test_not_bounded_when_rate_exceeds_damping(decay_run):
    # claiming twice the actual damping rate makes H + theta t grow linearly
    _, _, traj = decay_run
    paths = trace_many(traj, 0, np.linspace(-10, 10, 5))
    accumulate_H(paths, traj)
    rep = verify_H_bound(paths, theta_E=0.5, compare_horizon=10.0)
    assert rep.unbounded.startswith("C_emp grows from ")
    assert rep.unbounded.endswith(
        "across horizons; theta_E = 0.5 exceeds the damping the field provides")
    assert rep.C_emp_overall > rep.C_emp_half


def _record(times, family, H):
    """A ``CharPaths`` on ``times`` with one path per entry of ``family``,
    each parked at x = 0, and the exponents ``H`` (sample, path)."""
    zeros = np.zeros((len(times), len(family)))
    return CharPaths(family=np.asarray(family), x0=zeros[0], times=times, positions=zeros,
                     velocities=zeros, grid_half_width=1.0, H=H)


def _select(paths, columns):
    """The paths ``columns`` of a record, in that order, as a record."""
    return dataclasses.replace(
        paths, family=paths.family[columns], x0=paths.x0[columns],
        positions=paths.positions[:, columns], velocities=paths.velocities[:, columns],
        H=None if paths.H is None else paths.H[:, columns])


def _nan_H_paths(families=(0, 0)):
    """Two paths on t = 0..4: H = -0.2 t, and H = 0.5 t turning NaN after t = 2."""
    t = np.linspace(0.0, 4.0, 5)
    H_nan = 0.5 * t
    H_nan[t > 2.0] = np.nan
    return _record(t, families, H=np.column_stack([-0.2 * t, H_nan]))


@pytest.mark.parametrize("families, named", [((0, 0), "family 1"), ((1, 0), "family 1")])
@pytest.mark.parametrize("reverse", [False, True])
def test_nan_H_is_unbounded_in_either_order(families, named, reverse):
    # Python's max keeps or drops a NaN by the order of the paths, and the
    # growth test is false for NaN: neither may decide the verdict
    paths = _nan_H_paths(families)
    if reverse:
        paths = _select(paths, [1, 0])
    rep = verify_H_bound(paths, theta_E=0.1, compare_horizon=2.0)
    assert rep.unbounded == f"C_emp is not finite on 1 of the 2 paths ({named})"
    assert np.isnan(rep.C_emp_overall) and np.isnan(rep.C_emp[0])
    assert rep.C_emp_half == pytest.approx(1.2)  # the NaN starts after t = 2
    if families[0] != families[1]:
        assert rep.C_emp[1] == 0.0  # the good path's own family stays finite
    rep = verify_H_bound(paths, theta_E=0.1)  # no second horizon: flagged as well
    assert rep.unbounded == f"C_emp is not finite on 1 of the 2 paths ({named})"


def _scalar_c_emp(times, H, theta_E, t_max=None):
    """The empirical constant of one path as a scalar formula: max over
    sampled pairs s <= t of H(t) - H(s) + theta_E (t - s)."""
    mask = slice(None) if t_max is None else times <= t_max + 1e-12
    g = H[mask] + theta_E * times[mask]
    return float(np.max(g - np.minimum.accumulate(g)))


@pytest.mark.parametrize("reverse", [False, True])
@pytest.mark.parametrize("t_max", [None, 2.0, 3.5])
def test_stacked_c_emp_matches_per_path_formula(jinxin_run, reverse, t_max):
    # the NaN paths in either column order, and paths of a real run
    nan_paths = _nan_H_paths()
    if reverse:
        nan_paths = _select(nan_paths, [1, 0])
    run_paths = trace_many(jinxin_run, (0, 1), np.linspace(-12.0, 12.0, 5))
    accumulate_H(run_paths, jinxin_run)
    for paths in (nan_paths, run_paths):
        for theta_E in (0.0, 0.1, 0.25):
            got = _c_emp(paths, theta_E, t_max)
            want = np.array([_scalar_c_emp(paths.times, H, theta_E, t_max)
                             for H in paths.H.T])
            assert got.shape == want.shape and got.tobytes() == want.tobytes()
    assert np.isnan(_c_emp(nan_paths, 0.1)).tolist() == [reverse, not reverse]


def _exit_times_by_path(paths, radius):
    """First sample time of each path with |X| > radius, one path and one
    sample at a time; NaN for a path that stays."""
    out = []
    for p in range(len(paths.family)):
        leaves = [k for k, x in enumerate(paths.positions[:, p].tolist()) if abs(x) > radius]
        out.append(float(paths.times[leaves[0]]) if leaves else np.nan)
    return np.array(out)


@pytest.mark.parametrize("run", ["jinxin_sinusoid_run", "varA_run"])
def test_exit_times_match_per_path_loop(run, request):
    # starts beyond both ends, at an edge, inside and NaN, at the grid
    # half-width and at radii inside it
    traj = request.getfixturevalue(run)
    X = float(traj.grid[-1])
    paths = trace_many(traj, range(traj.model.N), [-X - 3.0, -X + 0.2, -1.3, 0.0, 2.7,
                                                  X - 0.2, X + 3.0, np.nan])
    for radius in (None, X, 0.5 * X, 2.0, 0.0):
        got = paths.exit_times(radius)
        want = _exit_times_by_path(paths, X if radius is None else radius)
        assert np.array_equal(got, want, equal_nan=True)
    assert np.isnan(got).any() and np.isfinite(got).any()
    assert np.isnan(paths.exit_times()[np.isnan(paths.x0)]).all()


def test_H_bound_stable_across_horizons(jinxin, jinxin_profile, jinxin_run):
    dr = damping_rate(jinxin)
    paths = trace_many(jinxin_run, (0, 1), np.linspace(-10, 10, 10))
    accumulate_H(paths, jinxin_run)
    rep = verify_H_bound(paths, dr.theta_E, source=profile_source(jinxin, jinxin_profile),
                         compare_horizon=10.0)
    assert np.isfinite(rep.C_emp_overall)
    assert abs(rep.C_emp_overall - rep.C_emp_half) <= 0.05 * max(
        abs(rep.C_emp_half), 0.01)
    assert rep.unbounded is None
    # uniform damping beyond theta_E: the comparison bound is zero as well
    assert max(rep.C_theory.values()) <= 1e-12


def test_C_theory_of_an_anti_damped_core():
    # E_jj > 0 in the core, so the comparison bound is positive: the
    # trapezoid integral of the closed form's (E_jj + theta_E)_+ over the
    # slowest speed min |lambda| = 2
    model = anti_damped_core_model()
    prof = solve_profile(model, X=40.0, n=4001)
    source = profile_source(model, prof)
    u = prof.values[:, 0]
    closed = np.stack([-(2.0 + u) / 4.0, -(2.0 - u) / 4.0], axis=1) \
        + 0.75 * (1.0 - u ** 2)[:, None]
    assert np.max(np.abs(source.E_diag - closed)) <= 1e-12
    assert np.max(closed) == pytest.approx(0.2708, abs=1e-4)
    theta_E = damping_rate(model).theta_E
    paths = _record(np.linspace(0.0, 1.0, 5), (0, 1), H=np.zeros((5, 2)))
    rep = verify_H_bound(paths, theta_E, source=source)
    for j in (0, 1):
        want = np.trapezoid(np.maximum(closed[:, j] + theta_E, 0.0), prof.grid) / 2.0
        assert rep.C_theory[j] == pytest.approx(want, rel=1e-12)
        assert rep.C_theory[j] == pytest.approx(1.8652, abs=1e-4)


def test_no_damping_radius_jinxin(jinxin, jinxin_profile, jinxin_run):
    radius = no_damping_radius(jinxin, jinxin_profile, eps_budget=1e-2,
                               theta_E=damping_rate(jinxin).theta_E,
                               source=profile_source(jinxin, jinxin_profile))
    assert radius.R == 0.0
    assert radius.C_lip == pytest.approx(0.25, rel=1e-6)
    assert radius.C_tail == 0.0
    worst = scan_trajectory_damping(jinxin_run, radius.R)
    assert worst <= -radius.theta_E


def test_no_damping_radius_constant_field():
    model = scalar_model(speed=2.0, decay=0.25)  # E = -2 theta_E everywhere
    prof = constant_profile(model, [0.0], X=20.0, n=201)
    radius = no_damping_radius(model, prof, eps_budget=1e-3,
                               theta_E=damping_rate(model).theta_E,
                               source=profile_source(model, prof))
    assert radius.R == 0.0
    assert radius.C_lip == pytest.approx(0.0, abs=1e-12)


def _hyperbolicity_loss_case():
    """A = [[0, 1], [u, 0]] with eigenvalues +-sqrt(u) and u in [-1, 3]: the
    state-box lattice has complex (u < 0) and coalesced (u = 0) rows.  The
    source q = (0, -v (1 + u^2/4)) makes E_jj depend on the state."""
    q2 = [[-1.0, [0, 1]], [-0.25, [2, 1]]]
    model = build_custom("loses-hyperbolicity", 2, [[0.0, 1.0], [Poly.variable(2, 0), 0.0]],
                         [0.0, q2], state_box=([-1.0, -1.0], [3.0, 1.0]))
    return model, constant_profile(model, [1.0, 0.0], X=10.0, n=101)


def _lattice_oracle(model):
    """E_jj on the 9^N state-box lattice by one single-matrix decomposition and
    diag(L Q R) per point (NaN where A is not strictly hyperbolic), the error message kinds
    met, and the Lipschitz constant of E over the lattice."""
    lo, hi = model.state_box
    axes = [np.linspace(lo[k], hi[k], 9) for k in range(model.N)]
    E = np.full((9,) * model.N + (model.N,), np.nan)
    kinds = set()
    for idx in np.ndindex(*E.shape[:-1]):
        U = np.array([axes[k][i] for k, i in enumerate(idx)])
        try:
            _, L, R = _decompose_batch(model.A_at(U)[None], 0.0)
        except NotStrictlyHyperbolic as exc:
            kinds.add(str(exc).split(" ")[0])
            continue
        E[idx] = np.diag(L[0] @ model.Q_at(U) @ R[0])
    C_lip = max(float(np.nanmax(np.abs(np.diff(E, axis=k) / (axes[k][1] - axes[k][0]))))
                for k in range(model.N))
    return E, kinds, C_lip


def test_no_damping_radius_skips_non_hyperbolic_lattice_point(monkeypatch):
    model, prof = _hyperbolicity_loss_case()
    E_oracle, kinds, C_lip = _lattice_oracle(model)
    assert kinds == {"complex", "eigenvalue"}  # complex pairs and a coalescence
    source = profile_source(model, prof)
    seen = []

    def recorded(model, states):
        seen.append(eigenframe.source_diagonals(model, states)[1])
        return None, seen[-1]

    monkeypatch.setattr(characteristics, "source_diagonals", recorded)
    radius = no_damping_radius(model, prof, eps_budget=1e-4, theta_E=0.1, source=source)
    assert len(seen) == 1
    assert seen[0].reshape(E_oracle.shape).tobytes() == E_oracle.tobytes()
    assert radius.C_lip == C_lip > 0.0
    assert radius.R == 0.0


def test_no_damping_radius_propagates_unrelated_errors(monkeypatch):
    model, prof = _hyperbolicity_loss_case()
    source = profile_source(model, prof)

    def broken(A):
        raise ValueError("broken lattice point")

    monkeypatch.setattr(np.linalg, "eig", broken)  # the lattice's batched query
    with pytest.raises(ValueError, match="broken lattice point"):
        no_damping_radius(model, prof, eps_budget=1e-4, theta_E=0.1, source=source)


def _varA3_case():
    u = Poly.variable(3, 0)
    A = [[u, 1.0, 0.0], [0.5, 2.0, u.scaled(0.5)], [0.0, 0.3, u.scaled(-1.0)]]
    q = [u.scaled(-1.0), Poly.variable(3, 1).scaled(-2.0), Poly.variable(3, 2).scaled(-0.5)]
    model = build_custom("varA3", 3, A, q, state_box=([-0.5] * 3, [0.5] * 3))
    return model, constant_profile(model, [0.0] * 3, X=10.0, n=101)


@pytest.mark.parametrize("case", ["jinxin", "varA", "varA3"])
def test_no_damping_radius_makes_one_eig_call(case, jinxin, jinxin_profile, monkeypatch):
    # 9^N lattice points (81 at N = 2, 729 at N = 3) in one batched decomposition
    if case == "jinxin":
        model, prof = jinxin, jinxin_profile
    elif case == "varA":
        model = vara_model()
        prof = solve_profile(model, X=20.0, n=401)
    else:
        model, prof = _varA3_case()
    source = profile_source(model, prof)
    calls = []
    eig = np.linalg.eig

    def counted(A):
        calls.append(len(A))
        return eig(A)

    monkeypatch.setattr(np.linalg, "eig", counted)
    no_damping_radius(model, prof, eps_budget=1e-4, theta_E=0.1, source=source)
    assert calls == [9 ** model.N]


def test_epsilon_too_large(jinxin, jinxin_profile):
    with pytest.raises(EpsilonTooLarge):
        no_damping_radius(jinxin, jinxin_profile, eps_budget=10.0,
                          theta_E=damping_rate(jinxin).theta_E,
                          source=profile_source(jinxin, jinxin_profile))


def test_duhamel_residual_builds_one_stepper(jinxin, jinxin_profile, monkeypatch):
    built = []
    original = dynamics.Stepper.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(dynamics.Stepper, "__init__", counted)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0)
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=2.0, backend="moc", dx=0.04, n_out=4)
    for j, x0 in ((0, 2.0), (1, -3.0)):
        duhamel_residual(traj, trace_many(traj, j, [x0]))
    # the evolution's own, not one more for the trajectory or per output time and path
    assert len(built) == 1


def test_duhamel_consistency(jinxin_run):
    p = trace_many(jinxin_run, 1, [-30.0])
    accumulate_H(p, jinxin_run)
    worst = duhamel_residual(jinxin_run, p)
    assert worst.shape == (1,) and worst[0] <= 1e-4


def _duhamel_by_path(traj, paths, p):
    """The worst Duhamel mismatch of path p as one loop over its output
    times, with the family's Phi and G fields on their own; it stops at the
    first output time by which the path has left the grid."""
    j = paths.family[p]
    Phi, G = [], []
    for i in range(traj.n_times):
        F, forcing = duhamel_forcing(traj, i)
        Phi.append(F[j])
        G.append(forcing[j])
    times, x, H = paths.times, paths.positions[:, p], paths.H[:, p]
    Phi = characteristics._FieldInterp(traj, Phi)
    G_path = characteristics._FieldInterp(traj, G).eval(times, x)
    n_sub = (len(times) - 1) // (traj.n_times - 1)
    phi0 = Phi.eval(0.0, paths.x0[p])
    worst = 0.0
    for m in range(traj.n_times):
        k = m * n_sub
        if np.any(np.abs(x[:k + 1]) > paths.grid_half_width):
            break
        integral = np.trapezoid(np.exp(H[k] - H[:k + 1]) * G_path[:k + 1],
                                times[:k + 1]) if k else 0.0
        worst = max(worst, abs(phi0 * np.exp(H[k]) + integral - Phi.eval(times[k], x[k])))
    return worst


@pytest.mark.parametrize("run", ["jinxin_run", "varA_run"])
def test_stacked_duhamel_residual_matches_per_path_loop(run, request):
    # paths of both families that stay inside, that leave the grid, and that
    # start beyond it; the stacked trapezoid sums in another order, so the
    # two agree to rounding of the reconstructed field, not bit for bit
    traj = request.getfixturevalue(run)
    X = float(traj.grid[-1])
    paths = trace_many(traj, (0, 1), [-X - 1.0, -X + 0.5, -2.0, 0.0, 3.0, X - 0.5, np.nan])
    worst = duhamel_residual(traj, paths)
    assert paths.H is not None and worst.shape == (14,)
    # a NaN start reads NaN, where a loop over Python's max would read 0
    assert np.isnan(worst).tolist() == [False] * 6 + [True] + [False] * 6 + [True]
    want = np.array([_duhamel_by_path(traj, paths, p) for p in range(14)])
    finite = np.isfinite(paths.x0)
    assert np.isfinite(paths.exit_times()).any() and (want > 0.0).any()
    assert np.allclose(worst[finite], want[finite], rtol=0.0, atol=1e-14)


# --- array field evaluator -------------------------------------------------------

def _pointwise_eval(times, grid, fields, s, x):
    """One (s, x) sample through a single-point evaluator: cubic Lagrange in
    space on each bracketing output row, flat beyond the grid, then linear in
    time; NaN at a NaN position.  The array evaluator must reproduce it bit
    for bit."""
    if np.isnan(x):
        return np.nan
    m = int(np.searchsorted(times, s, side="right")) - 1
    m = max(0, min(m, len(times) - 2))
    w = (s - times[m]) / (times[m + 1] - times[m])
    w = min(max(w, 0.0), 1.0)
    dx = float(grid[-1] - grid[0]) / (len(grid) - 1)
    rows = []
    for f in (fields[m], fields[m + 1]):
        n = len(f)
        pad = np.concatenate([[f[0], f[0]], f, [f[-1], f[-1]]])
        c = (np.array([x]) - float(grid[0])) / dx
        i = np.floor(c).astype(int)
        t = c - i
        idx = np.clip(i, -2, n + 1) + 2
        fm1, f0, f1, f2 = (pad[np.clip(idx + k, 0, n + 3)] for k in (-1, 0, 1, 2))
        wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
        w0 = (t * t - 1.0) * (t - 2.0) / 2.0
        w1 = -t * (t + 1.0) * (t - 2.0) / 2.0
        w2 = t * (t * t - 1.0) / 6.0
        rows.append(wm1 * fm1 + w0 * f0 + w1 * f1 + w2 * f2)
    return ((1.0 - w) * rows[0] + w * rows[1])[0]


@pytest.fixture(scope="module")
def varA_run():
    model = vara_model()
    prof = solve_profile(model, X=20.0, n=801)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0, center=0.3)
    return evolve(model, prof, pert, ShiftSpec(kind="zero"), T=1.0,
                  backend="moc", dx=0.05, n_out=4)


@pytest.mark.parametrize("run", ["jinxin_run", "varA_run"])
def test_array_eval_matches_pointwise(run, request):
    traj = request.getfixturevalue(run)
    times, grid = traj.times, traj.grid
    X = float(grid[-1])
    s = np.concatenate([times, 0.5 * (times[1:] + times[:-1]),
                        times[:-1] + 0.3 * np.diff(times)])
    x = np.concatenate([[-X - 5.0, -X - 0.013, -X, X, X + 0.013, X + 5.0],
                        np.random.default_rng(3).uniform(-X, X, 9)])
    for j in range(traj.model.N):
        for columns in ([traj.frames[i].lambdas[:, j] for i in range(traj.n_times)],
                        [traj.source_field(i).E_diag[:, j] for i in range(traj.n_times)]):
            got = characteristics._FieldInterp(traj, columns).eval(s[:, None], x[None, :])
            fields = np.stack(columns)
            want = np.array([[_pointwise_eval(times, grid, fields, si, xi) for xi in x]
                             for si in s])
            assert got.shape == want.shape
            assert np.array_equal(got, want)


def test_H_increments_beyond_grid_use_endstate_source(jinxin_run):
    E_minus, E_plus = jinxin_run.endstate_E_diag
    X = float(jinxin_run.grid[-1])
    seen = set()
    paths = trace_many(jinxin_run, (0, 1), [-30.0, 30.0])
    s = paths.times
    for j, x, H in zip(paths.family, paths.positions.T, accumulate_H(paths, jinxin_run).T):
        for k in range(1, len(s)):
            for side, E in ((-1.0, E_minus[j]), (1.0, E_plus[j])):
                if side * x[k - 1] > X and side * x[k] > X:
                    seen.add(side)
                    assert H[k] == H[k - 1] + 0.5 * (E + E) * (s[k] - s[k - 1])
    assert seen == {-1.0, 1.0}


def test_accumulate_H_evaluates_the_field_in_one_batch(jinxin_run, monkeypatch):
    calls = []

    def counted(t, *nodes):
        calls.append(np.shape(nodes[0]))
        return _cubic_lagrange(t, *nodes)

    paths = trace_many(jinxin_run, (0, 1), np.linspace(-10.0, 10.0, 7))
    monkeypatch.setattr(characteristics, "_cubic_lagrange", counted)
    for batch in (paths, _select(paths, slice(7)), _select(paths, slice(3, 9))):
        calls.clear()
        accumulate_H(batch, jinxin_run)
        shape = (2, len(batch.times), len(batch.family))
        assert shape[1] > 100
        assert calls == [shape]  # one call, both output rows, for every path


def _per_path_H(paths, p, traj):
    """H of path p on its own: the family's field read along this path
    alone, then one cumulative sum.  The batched accumulation must reproduce
    it bit for bit."""
    j = paths.family[p]
    E = characteristics._FieldInterp(traj, [traj.source_field(i).E_diag[:, j]
                                            for i in range(traj.n_times)])
    E_minus, E_plus = traj.endstate_E_diag
    X, x = paths.grid_half_width, paths.positions[:, p]
    vals = np.where(x < -X, E_minus[j], np.where(x > X, E_plus[j], E.eval(paths.times, x)))
    return np.concatenate([[0.0], np.cumsum(
        0.5 * (vals[1:] + vals[:-1]) * np.diff(paths.times))])


@pytest.mark.parametrize("run", ["jinxin_run", "varA_run", "anti_damped_moc"])
def test_batched_H_matches_per_path_H(run, request):
    # paths of every family in one call, in any order, against each path on
    # its own and against one call per family
    traj = request.getfixturevalue(run)
    X = float(traj.grid[-1])
    starts = np.concatenate([[-X + 0.5, X - 0.5], np.linspace(-0.6 * X, 0.6 * X, 9)])
    paths = trace_many(traj, range(traj.model.N), starts)
    H = accumulate_H(paths, traj)
    assert H is paths.H and H.shape == (len(paths.times), traj.model.N * len(starts))
    for p in range(H.shape[1]):
        assert np.array_equal(H[:, p], _per_path_H(paths, p, traj))
    for j in range(traj.model.N):
        columns = slice(j * len(starts), (j + 1) * len(starts))
        assert np.array_equal(accumulate_H(trace_many(traj, j, starts), traj), H[:, columns])
    order = np.random.default_rng(5).permutation(H.shape[1])  # families interleaved
    assert np.array_equal(accumulate_H(_select(paths, order), traj), H[:, order])


def _anti_damped_run(backend):
    """A short run about the anti-damped-core profile."""
    model = anti_damped_core_model()
    prof = solve_profile(model, X=20.0, n=801)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0, center=0.3)
    return evolve(model, prof, pert, ShiftSpec(kind="zero"), T=1.0, backend=backend,
                  dx=0.05, n_out=4)


@pytest.fixture(scope="module")
def anti_damped_moc():
    return _anti_damped_run("moc")


@pytest.fixture(scope="module")
def anti_damped_reference():
    return _anti_damped_run("reference")


@pytest.mark.parametrize("run", ["anti_damped_moc", "anti_damped_reference", "varA_run"])
def test_source_series_readers_match_each_source_field(run, request):
    # the readers of the trajectory's one source pass give the bits of a
    # recomputation from source_field(i) at every output time, on E fields
    # that vary along the grid (and are positive in the anti-damped core)
    traj = request.getfixturevalue(run)
    fields = [traj.source_field(i) for i in range(traj.n_times)]
    if run == "varA_run":
        assert np.ptp(fields[0].E_diag[:, 0]) > 0.4
    else:
        assert np.max(fields[0].E_diag) > 0.2
    X = float(traj.grid[-1])
    for j in range(traj.model.N):
        paths = trace_many(traj, j, np.linspace(-0.6 * X, 0.6 * X, 7))
        accumulate_H(paths, traj)
        for p in range(7):
            assert np.array_equal(paths.H[:, p], _per_path_H(paths, p, traj))
    for R in (0.0, 2.0, 0.5 * X):
        mask = np.abs(traj.grid) >= R
        want = max(float(np.max(sf.E_diag[mask])) for sf in fields)
        assert scan_trajectory_damping(traj, R) == want
    sups = np.array([[interior_max(F) for F in (dv.Phi, dv.PsiTilde, dv.UpsilonTilde)]
                     for dv in (diagonal_vars(traj, i, sf) for i, sf in enumerate(fields))]).T
    assert np.min(sups) > 0.0
    theta_grid = np.linspace(0.01, 0.3, 15)
    forcing = sups[0] + np.abs(traj.shift.delta_dot(traj.times))
    tables = slaving_check(traj, theta_grid, C_cap=np.inf)
    for label, series in zip(("psi_tilde", "upsilon_tilde"), sups[1:]):
        want = feasibility_table(traj.times, series, forcing, theta_grid, np.inf)
        assert np.array_equal(tables[label].series, want.series)
        assert np.array_equal(tables[label].C_min, want.C_min)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(data=st.data())
def test_scan_slices_match_the_mask_bit_for_bit(data):
    # |x| >= R read as two searchsorted slices against one boolean gather, at
    # R on a node, between nodes, at 0 and beyond the grid, with NaN in E
    n_t, n, N = (data.draw(st.integers(lo, hi)) for lo, hi in ((1, 4), (1, 25), (1, 3)))
    X = data.draw(st.sampled_from([1.0, 7.3, 40.0]))
    grid = np.linspace(-X, X, n)
    E = data.draw(arrays(np.float64, (n_t, n, N), elements=st.one_of(
        st.sampled_from([-0.5, -0.0, 0.0, np.nan, -np.inf]), st.floats(-3.0, 3.0))))
    R = data.draw(st.one_of(st.sampled_from(np.abs(grid).tolist() + [0.0]),
                            st.floats(0.0, 1.2 * X)))
    traj = SimpleNamespace(grid=grid, source_series=SimpleNamespace(E_diag=E))
    inside = E[:, np.abs(grid) >= R]
    if not inside.size:
        with pytest.raises(ValueError):
            scan_trajectory_damping(traj, R)
        return
    want, got = float(np.max(inside)), scan_trajectory_damping(traj, R)
    assert np.array_equal(got, want, equal_nan=True)
    zeros = np.signbit(inside[inside == 0.0])
    if want != 0.0 or zeros.all() or not zeros.any():
        # a zero sup attained by both +0 and -0 has no defined sign
        assert np.signbit(got) == np.signbit(want)


# --- the batched tracer against a scalar-time recurrence -------------------------

def _scalar_rk2(traj, j, x0, n_sub):
    """One family-j characteristic by the RK2 recurrence, one start and one
    scalar time at a time: each speed is lambda_j - ddelta(s), lambda_j read
    through ``_pointwise_eval`` unless the frames are constant.  The batched
    tracer must reproduce it bit for bit."""
    times = traj.times
    if traj.frames[0].constant:
        lam_j = float(traj.frames[0].lambdas[0, j])

        def velocity(s, x):
            return lam_j - traj.shift.delta_dot(s)
    else:
        lam = np.stack([traj.frames[i].lambdas[:, j] for i in range(traj.n_times)])

        def velocity(s, x):
            return _pointwise_eval(times, traj.grid, lam, s, x) - traj.shift.delta_dot(s)

    ts, xs = [float(times[0])], [x0]
    vs = [velocity(ts[0], x0)]
    for m in range(len(times) - 1):
        h = (times[m + 1] - times[m]) / n_sub
        for _ in range(n_sub):
            s, x, v1 = ts[-1], xs[-1], vs[-1]
            v2 = velocity(s + 0.5 * h, x + 0.5 * h * v1)
            ts.append(s + h)
            xs.append(x + h * v2)
            vs.append(velocity(ts[-1], xs[-1]))
    return np.array(ts), np.array(xs, dtype=float), np.array(vs, dtype=float)


@pytest.fixture(scope="module")
def jinxin_sinusoid_run(jinxin_run):
    sinusoid = ShiftSpec("sinusoid", amplitude=0.01, frequency=0.05)
    return dataclasses.replace(jinxin_run, shift=sinusoid)


@pytest.mark.parametrize("run,n_sub", [("varA_run", 4), ("varA_run", 3),
                                       ("jinxin_sinusoid_run", 4), ("anti_damped_moc", 2)])
def test_batched_trace_matches_scalar_recurrence(run, n_sub, request):
    # per-node speeds (varA), constant frames under a sinusoid shift, and the
    # anti-damped core; starts beyond both grid ends, at an edge so the path
    # leaves the grid, inside, and NaN, whose path stays NaN
    traj = request.getfixturevalue(run)
    X = float(traj.grid[-1])
    starts = [-X - 3.0, -X + 0.2, -1.3, 0.0, 2.7, X - 0.2, X + 3.0, np.nan]
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # a NaN start reads NaN, and warns of nothing
        paths = trace_many(traj, range(traj.model.N), starts, n_sub=n_sub)
        singles = [trace_many(traj, j, starts, n_sub=n_sub) for j in range(traj.model.N)]
        scalar = [_scalar_rk2(traj, j, x0, n_sub) for j, x0 in zip(paths.family, paths.x0)]
    assert paths.family.tolist() == [j for j in range(traj.model.N) for _ in starts]
    assert np.array_equal(paths.x0, np.tile(starts, traj.model.N), equal_nan=True)
    # views of the tracer's (sample, family, start) arrays, not copies
    for field in (paths.positions, paths.velocities):
        assert field.base.shape == (len(paths.times), traj.model.N, len(starts))
    for p, (ts, xs, vs) in enumerate(scalar):
        assert np.array_equal(paths.times, ts)
        assert np.array_equal(paths.positions[:, p], xs, equal_nan=True)
        assert np.array_equal(paths.velocities[:, p], vs, equal_nan=True)
    assert np.isnan(paths.positions[:, np.isnan(paths.x0)]).all()
    edge = np.abs(paths.x0) == X - 0.2
    assert np.isfinite(paths.exit_times()[edge]).any()  # some edge start leaves the grid
    for j, single in enumerate(singles):
        columns = slice(j * len(starts), (j + 1) * len(starts))
        assert np.array_equal(single.family, paths.family[columns])
        assert np.array_equal(single.times, paths.times)
        for name in ("positions", "velocities"):
            assert np.array_equal(getattr(single, name), getattr(paths, name)[:, columns],
                                  equal_nan=True)
