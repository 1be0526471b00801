"""Perturbation dynamics: initial data, stepping backends, diagonal variables."""

from __future__ import annotations

import math

import numpy as np
import pytest

from conftest import scalar_model
from relaxdamp.characteristics import accumulate_H, duhamel_residual, trace
from relaxdamp import dynamics
from relaxdamp.dynamics import (
    CFL_LIMIT,
    PerturbationSpec,
    ShiftSpec,
    Stepper,
    diagonal_vars,
    evolve,
    fd4_derivative,
    grid_step,
    make_initial,
)
from relaxdamp.eigenframe import transformed_source
from relaxdamp.errors import BlowUp, BudgetExceeded, CFLViolation, InvalidParam
from relaxdamp.model import ModelSpec, build_custom
from relaxdamp.profile import constant_profile, solve_profile


# --- shift and perturbation specs -------------------------------------------

def test_shift_specs_start_at_zero():
    for spec in (ShiftSpec("zero"), ShiftSpec("linear", rate=2e-3),
                 ShiftSpec("sinusoid", amplitude=0.01, frequency=0.05)):
        assert float(spec.delta(0.0)) == 0.0
        t = np.linspace(0.0, 50.0, 333)
        assert np.max(np.abs(spec.delta_dot(t))) <= spec.eps_delta + 1e-15


def test_sinusoid_derivative_bound():
    spec = ShiftSpec("sinusoid", amplitude=0.0159154943, frequency=0.05)
    assert spec.eps_delta == pytest.approx(5e-3, rel=1e-6)


@pytest.mark.parametrize("spec", [ShiftSpec("zero"), ShiftSpec("linear", rate=2e-3),
                                  ShiftSpec("sinusoid", amplitude=0.01, frequency=0.05)])
def test_delta_dot_float_for_float_and_array_for_array(spec):
    t = np.linspace(0.0, 7.0, 12).reshape(3, 4)
    arr = spec.delta_dot(t)
    assert isinstance(arr, np.ndarray) and arr.shape == (3, 4)
    for ti, want in zip(t.ravel().tolist(), arr.ravel()):
        got = spec.delta_dot(ti)
        assert type(got) is float and got == pytest.approx(want, rel=1e-15, abs=1e-18)
        # bit for bit what a 0-d array gives
        assert got == float(spec.delta_dot(np.asarray(ti)))


def test_unknown_shift_kind():
    with pytest.raises(InvalidParam):
        ShiftSpec("quadratic")


def test_gaussian_initial_peak(jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0, center=0.0)
    snap = make_initial(jinxin_profile, pert)
    i0 = len(snap.grid) // 2
    # default direction is the relaxing (last) component
    assert snap.U[i0, 1] == pytest.approx(1e-2)
    assert np.max(np.abs(snap.U[:, 0])) == 0.0
    assert np.max(np.abs(snap.U)) == pytest.approx(1e-2)
    # analytic derivative ties to the fourth-order differenced field
    W_fd = fd4_derivative(snap.U, snap.grid[1] - snap.grid[0],
                          snap.b_left, snap.b_right)
    assert np.max(np.abs(W_fd - snap.W)) <= 1e-7


def test_offset_initial_endpoints(jinxin_profile):
    pert = PerturbationSpec(kind="offset", d_minus=(1e-3, 0.0), d_plus=(0.0, 0.0),
                            blend_width=2.0)
    snap = make_initial(jinxin_profile, pert)
    assert np.allclose(snap.U[0], [1e-3, 0.0], atol=1e-12)
    assert np.allclose(snap.U[-1], [0.0, 0.0], atol=1e-12)
    assert np.allclose(snap.b_left, [1e-3, 0.0])


def test_zero_initial(jinxin, jinxin_profile):
    snap = make_initial(jinxin_profile, PerturbationSpec(kind="zero"))
    assert np.max(np.abs(snap.U)) == 0.0
    sf = transformed_source(jinxin, snap.grid, jinxin_profile.eval(snap.grid) + snap.U)
    dv = diagonal_vars(snap, sf.frames, sf.Theta)
    for field in (dv.Phi, dv.Psi, dv.PsiTilde, dv.Upsilon, dv.UpsilonTilde):
        assert np.max(np.abs(field)) == 0.0


def test_budget_exceeded(jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=0.5, width=2.0)
    with pytest.raises(BudgetExceeded) as err:
        make_initial(jinxin_profile, pert, budget=0.02)
    assert err.value.measured == pytest.approx(0.5)


def test_shift_difference_perturbation(jinxin_profile):
    pert = PerturbationSpec(kind="shift_difference", h=0.05)
    snap = make_initial(jinxin_profile, pert)
    x = snap.grid
    expect = -np.tanh((x + 0.05) / 8.0) + np.tanh(x / 8.0)
    assert np.max(np.abs(snap.U[:, 0] - expect)) <= 1e-9


# --- equilibrium and guards --------------------------------------------------

@pytest.mark.parametrize("backend", ["reference", "moc"])
def test_zero_perturbation_exact_equilibrium(jinxin, jinxin_profile, backend):
    traj = evolve(jinxin, jinxin_profile, PerturbationSpec(kind="zero"),
                  ShiftSpec(kind="zero"), T=2.0, backend=backend,
                  dx=0.02, n_out=4)
    assert np.max(np.abs(traj.states)) == 0.0


def test_cfl_violation(jinxin, jinxin_profile):
    snap = make_initial(jinxin_profile, PerturbationSpec(kind="zero"))
    with pytest.raises(CFLViolation):
        Stepper(jinxin, jinxin_profile, snap.grid, ShiftSpec(kind="zero")) \
            .step_reference(snap, dt=0.05)  # speed 2, dx 0.02 -> CFL 5


def test_moc_and_reference_cfl_limit_at_the_same_dt(jinxin, jinxin_profile):
    # speeds +-2 - 0.3: the limit is set by |-2.3|, one speed per family at constant A
    shift = ShiftSpec(kind="linear", rate=0.3)
    snap = make_initial(jinxin_profile, PerturbationSpec(kind="zero"))
    stepper = Stepper(jinxin, jinxin_profile, snap.grid, shift)
    dt_limit = CFL_LIMIT * stepper.dx / 2.3
    for backend in ("moc", "reference"):
        stepper.step(snap, dt_limit * (1.0 - 1e-9), backend)
    messages = set()
    for backend in ("moc", "reference"):
        with pytest.raises(CFLViolation) as err:
            stepper.step(snap, dt_limit * (1.0 + 1e-9), backend)
        messages.add(str(err.value))
    assert len(messages) == 1
    message = messages.pop()
    assert "t = 0 " in message and "family 1" in message  # the speed -2.3


def test_cfl_violation_names_the_fastest_node(varA):
    # speeds +-sqrt(4 + 0.2 u) about u = 0 are fastest at the peak of a u bump
    model, _ = varA
    prof = constant_profile(model, [0.0, 0.0], X=10.0, n=501)
    bump = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0, center=2.0,
                            direction=(1.0, 0.0))
    snap = make_initial(prof, bump)
    for backend in ("moc", "reference"):
        with pytest.raises(CFLViolation, match=r"at t = 0 \(x = 2, family [12]\)$"):
            Stepper(model, prof, snap.grid, ShiftSpec(kind="zero")).step(snap, 0.05, backend)


def test_evolve_differences_W_once_per_output_time(jinxin, jinxin_profile, monkeypatch):
    calls = []

    def counted(*args, **kwargs):
        calls.append(1)
        return fd4_derivative(*args, **kwargs)

    monkeypatch.setattr(dynamics, "fd4_derivative", counted)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0)
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"), T=1.0,
                  backend="moc", dx=0.04, n_out=4)
    assert round(1.0 / traj.dt) > 4 * 10
    assert len(calls) == 4  # the budget check at each output time after t = 0


def test_budget_violation_time_matches_W_formed_every_step():
    # u_t + 2 u_x = +0.5 u grows e^{t/2}: C^1 = 1e-2 at t = 0 crosses 1.5e-2 near t = 0.81
    model = scalar_model(speed=2.0, decay=-0.5)
    prof = constant_profile(model, [0.0], X=20.0, n=1001)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0, direction=(1.0,))
    T, n_out, budget = 2.0, 20, 1.5e-2
    traj = evolve(model, prof, pert, ShiftSpec(kind="zero"), T=T, backend="moc",
                  dx=0.04, n_out=n_out, budget=budget)

    # the same steps with W formed after every one, checked at output times
    snap = make_initial(prof, pert, traj.grid, budget)
    stepper = Stepper(model, prof, traj.grid, ShiftSpec(kind="zero"), budget)
    per_out = round(T / (n_out * traj.dt))
    violation = None
    for m in range(1, n_out + 1):
        for k in range(per_out):
            snap.t = (m - 1 + k / per_out) * (T / n_out)
            snap = stepper.step_moc(snap, traj.dt)
            W = fd4_derivative(snap.U, stepper.dx, snap.b_left, snap.b_right)
        snap.t = m * (T / n_out)
        if violation is None and max(np.max(np.abs(snap.U)), np.max(np.abs(W))) > budget:
            violation = snap.t
    assert violation is not None and 0.8 < violation < 1.0
    assert traj.budget_violation_time == violation


def test_blowup_guard(jinxin, jinxin_profile):
    snap = make_initial(jinxin_profile, PerturbationSpec(kind="zero"))
    snap.U[:, 0] = 0.5  # way beyond 10x budget
    with pytest.raises(BlowUp):
        Stepper(jinxin, jinxin_profile, snap.grid, ShiftSpec(kind="zero"),
                budget=0.02).step_reference(snap, dt=0.004)


@pytest.mark.parametrize("backend", ["reference", "moc"])
def test_blowup_guard_catches_a_nan(backend, jinxin, jinxin_profile):
    # NaN > limit is False: a guard written as amp > limit let this step on
    snap = make_initial(jinxin_profile, _GAUSS)
    snap.U[2000, 1] = np.nan
    with pytest.raises(BlowUp, match="nan"):
        Stepper(jinxin, jinxin_profile, snap.grid, ShiftSpec(kind="zero"),
                budget=0.02).step(snap, 0.004, backend)
    with pytest.raises(BudgetExceeded):
        make_initial(jinxin_profile, PerturbationSpec(kind="gaussian", amplitude=np.nan))


# --- state-dependent A ---------------------------------------------------------

@pytest.fixture(scope="module")
def varA():
    """Jin-Xin with A_21 = 4 + 0.2 u, q = (0, u^2/2 - v), endstates (+-1, 0.5)."""
    model = build_custom(
        "jinxin-varA", 2, [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
        [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
        U_minus=[1.0, 0.5], U_plus=[-1.0, 0.5])
    return model, solve_profile(model, X=20.0, n=801)


@pytest.mark.parametrize("backend", ["reference", "moc"])
def test_state_dependent_A_equilibrium_and_duhamel(varA, backend):
    model, prof = varA
    zero = evolve(model, prof, PerturbationSpec(kind="zero"), ShiftSpec(kind="zero"),
                  T=0.5, backend=backend, dx=0.05, n_out=2)
    assert np.max(np.abs(zero.states)) == 0.0

    pert = PerturbationSpec(kind="offset", d_minus=(2e-3, 0.0), d_plus=(-2e-3, 0.0))
    traj = evolve(model, prof, pert, ShiftSpec(kind="zero"), T=1.0,
                  backend=backend, dx=0.05, n_out=4)
    p = trace(traj, 0, x0=0.0)
    accumulate_H([p], traj)
    assert duhamel_residual(traj, p) <= 1e-5


def test_state_dependent_2x2_evolve_calls_no_lapack_per_step(varA, monkeypatch):
    model, prof = varA
    calls = {"eig": 0, "inv": 0}

    def counted(name):
        fn = getattr(np.linalg, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    for name in calls:
        monkeypatch.setattr(np.linalg, name, counted(name))
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0)
    traj = evolve(model, prof, pert, ShiftSpec(kind="zero"), T=0.5, backend="moc",
                  dx=0.05, n_out=2)
    assert round(traj.times[-1] / traj.dt) >= 40
    assert calls["eig"] <= 2 and calls["inv"] <= 2, calls


# --- uniform-speed moc stencil ---------------------------------------------------

@pytest.fixture(scope="module")
def a2_models():
    """The varA-moc model with A21 = 4.0 (constant A, stencil branch) and with
    A21 = 4 + 0 u (same dynamics, per-node branch), plus their profile."""
    q = [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]]
    ends = dict(U_minus=[1.0, 0.5], U_plus=[-1.0, 0.5])
    const = build_custom("jinxin-a2", 2, [[0.0, 1.0], [4.0, 0.0]], q, **ends)
    per_node = build_custom(
        "jinxin-a2-zero-u", 2, [[0.0, 1.0], [[[4.0, [0, 0]], [0.0, [1, 0]]], 0.0]],
        q, **ends)
    assert const.A_is_constant and not per_node.A_is_constant
    return const, per_node, solve_profile(const, X=20.0, n=1001)


_GAUSS = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0, center=0.3)


def test_moc_stencil_matches_per_node_branch(a2_models):
    const, per_node, prof = a2_models
    grid = np.linspace(-20.0, 20.0, 1001)
    snap = make_initial(prof, _GAUSS, grid)
    one = [Stepper(m, prof, grid, ShiftSpec(kind="zero")).step_moc(snap, 0.009)
           for m in (const, per_node)]
    assert np.max(np.abs(one[0].U - one[1].U)) <= 1e-14

    runs = [evolve(m, prof, _GAUSS, ShiftSpec(kind="zero"), T=2.0, backend="moc",
                   dx=0.04, n_out=4, X=20.0) for m in (const, per_node)]
    assert runs[0].dt == runs[1].dt and round(2.0 / runs[0].dt) == 224
    assert np.max(np.abs(runs[0].states - runs[1].states)) <= 1e-12


def test_moc_stencil_skips_interpolation_calls(a2_models, monkeypatch):
    import relaxdamp.dynamics as dyn

    const, per_node, prof = a2_models
    grid = np.linspace(-20.0, 20.0, 1001)
    snap = make_initial(prof, _GAUSS, grid)
    calls = {"cubic": 0, "linear": 0}

    def counted(name, fn):
        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)
        return wrapper

    monkeypatch.setattr(dyn, "_cubic_interp", counted("cubic", dyn._cubic_interp))
    monkeypatch.setattr(dyn, "_linear_interp", counted("linear", dyn._linear_interp))
    Stepper(const, prof, grid, ShiftSpec(kind="zero")).step_moc(snap, 0.009)
    assert calls == {"cubic": 0, "linear": 0}
    Stepper(per_node, prof, grid, ShiftSpec(kind="zero")).step_moc(snap, 0.009)
    assert calls["cubic"] > 0 and calls["linear"] > 0


# --- one step's evaluations and the boundary rows ---------------------------------

_SINUSOID = ShiftSpec("sinusoid", amplitude=0.01, frequency=0.05)
_OFFSET = PerturbationSpec(kind="offset", d_minus=(2e-3, 1e-3), d_plus=(-2e-3, 5e-4))


def _counter(monkeypatch, calls, owner, name):
    """Count the calls of ``owner.name`` into ``calls[name]``."""
    original = getattr(owner, name)

    def counted(*args, **kwargs):
        calls[name] += 1
        return original(*args, **kwargs)
    monkeypatch.setattr(owner, name, counted)


def test_constant_A_steps_form_only_what_they_read(jinxin, jinxin_profile, monkeypatch):
    snap = make_initial(jinxin_profile, _GAUSS)
    snap.t = 1.3  # ddelta != 0
    calls = dict.fromkeys(("q_at", "Q_at", "transformed_source", "frames_at_states",
                           "_check_cfl", "_foot_stencil"), 0)
    for name in ("q_at", "Q_at"):
        _counter(monkeypatch, calls, ModelSpec, name)
    for name in ("transformed_source", "frames_at_states", "_foot_stencil"):
        _counter(monkeypatch, calls, dynamics, name)
    _counter(monkeypatch, calls, Stepper, "_check_cfl")
    stepper = Stepper(jinxin, jinxin_profile, snap.grid, _SINUSOID)
    # the speeds, their CFL check and the moc stencils are formed once per
    # (dt, ddelta): a second step at the same pair forms none of them again
    for backend, first, again in (
            ("moc", {"q_at": 3, "Q_at": 1, "_check_cfl": 1, "_foot_stencil": 1},
             {"q_at": 3, "Q_at": 1}),
            ("reference", {"q_at": 4, "_check_cfl": 1}, {"q_at": 4})):
        stepper._speeds = None
        for want in (first, again):
            calls.update(dict.fromkeys(calls, 0))
            stepper.step(snap, 0.005, backend)
            assert calls == {**dict.fromkeys(calls, 0), **want}, backend


# --- the family-fused constant-A moc step ---------------------------------------

def _shift_cubic(f, s, left, right):
    """Cubic Lagrange interpolation at x_k + s dx of every node, -1 <= s < 1."""
    n, m = len(f), math.floor(s)
    pad = np.concatenate([[left, left], f, [right, right]])
    fm1, f0, f1, f2 = (pad[m + k:m + k + n] for k in range(1, 5))
    t = s - m
    wm1 = -t * (t - 1.0) * (t - 2.0) / 6.0
    w0 = (t * t - 1.0) * (t - 2.0) / 2.0
    w1 = -t * (t + 1.0) * (t - 2.0) / 2.0
    w2 = t * (t * t - 1.0) / 6.0
    return wm1 * fm1 + w0 * f0 + w1 * f1 + w2 * f2


def _shift_linear(f, s, left, right):
    """Linear interpolation at x_k + s dx of every node, -1 <= s < 1."""
    n, m = len(f), math.floor(s)
    pad = np.concatenate([[left], f, [right]])
    t = s - m
    return (1.0 - t) * pad[m + 1:m + 1 + n] + t * pad[m + 2:m + 2 + n]


def _per_family_constant_A_step(stepper, snap, dt):
    """The constant-A moc step as it was written family by family: node-major
    fields, one edge-padded copy and one fixed stencil per family and field,
    and the boundary rows as a stacked explicit midpoint."""
    model, frames, n = stepper.model, stepper.frames0, len(snap.U)
    L0T, R0T = np.ascontiguousarray(frames.L[0].T), np.ascontiguousarray(frames.R[0].T)
    kron_diag = np.ascontiguousarray(frames.kron[:, ::model.N + 1])
    c = frames.lambdas[0] - stepper.shift.delta_dot(snap.t)
    Ut = stepper.Ubar + snap.U
    E = model.Q_at(Ut).reshape(n, -1) @ kron_diag
    Phi = snap.U @ L0T
    G = stepper.source(Ut, snap.t) @ L0T - E * Phi
    phi_bl, phi_br = frames.L[0] @ snap.b_left, frames.L[-1] @ snap.b_right
    Phi_new = np.empty(Phi.T.shape)
    for j, (phi, e, g) in enumerate(zip(Phi.T, E.T, G.T)):
        s = -float(c[j]) * dt / stepper.dx
        Phif = _shift_cubic(phi, s, phi_bl[j], phi_br[j])
        Ef = _shift_linear(e, s, e[0], e[-1])
        Gm = _shift_linear(g, 0.5 * s, g[0], g[-1])
        h = 0.5 * dt * (Ef + e)
        Phi_new[j] = np.exp(h) * Phif + dt * np.exp(0.5 * h) * Gm
    U_new = Phi_new.T @ R0T
    about = stepper.about_boundary
    V = np.stack([snap.U[0], snap.U[-1], snap.b_left, snap.b_right])
    k1 = stepper.source(about.U + V, snap.t, about)
    rows = V + dt * stepper.source(about.U + (V + 0.5 * dt * k1), snap.t + 0.5 * dt, about)
    U_new[0], U_new[-1] = rows[0], rows[1]
    return dynamics.Snapshot(t=snap.t + dt, grid=snap.grid, U=U_new,
                             b_left=rows[2], b_right=rows[3])


def _mixed_speed_3x3():
    """Constant-A N = 3 model with family speeds of both signs and a nonlinear,
    coupled source about the equilibrium U = 0."""
    A = [[0.5, 1.0, 0.0], [0.2, -1.0, 0.3], [0.0, 0.4, 1.5]]
    q = [[[-1.0, [1, 0, 0]], [0.2, [0, 1, 0]]],
         [[-0.5, [0, 1, 0]], [0.3, [2, 0, 0]]],
         [[-0.8, [0, 0, 1]], [0.1, [0, 1, 0]], [0.4, [1, 0, 1]]]]
    return build_custom("mixed3", 3, A, q, U_minus=[0.0] * 3, U_plus=[0.0] * 3,
                        state_box=([-1.0] * 3, [1.0] * 3))


@pytest.mark.parametrize("case", ["jinxin-zero", "jinxin-sinusoid", "mixed3-zero",
                                  "mixed3-linear"])
def test_family_fused_step_matches_per_family_step_bit_for_bit(case, jinxin,
                                                               jinxin_profile):
    if case.startswith("jinxin"):
        model, prof, pert = jinxin, jinxin_profile, _OFFSET
    else:
        model = _mixed_speed_3x3()
        prof = constant_profile(model, [0.0] * 3, X=10.0, n=501)
        pert = PerturbationSpec(kind="offset", d_minus=(2e-3, -1e-3, 5e-4),
                                d_plus=(-1e-3, 1e-3, 2e-3))
    shift = {"zero": ShiftSpec(kind="zero"), "sinusoid": _SINUSOID,
             "linear": ShiftSpec(kind="linear", rate=0.3)}[case.split("-")[1]]
    stepper = Stepper(model, prof, prof.grid, shift)
    s = -(stepper.frames0.lambdas[0] - shift.delta_dot(0.0))
    if model.N == 3:  # stencil rows at different pad offsets
        assert np.min(s) < 0.0 < np.max(s)
    dt = 0.8 * stepper.dx / float(np.max(np.abs(s)) + shift.eps_delta)
    new = old = make_initial(prof, pert)
    for k in range(120):
        new.t = old.t = k * dt
        new, old = stepper.step_moc(new, dt), _per_family_constant_A_step(stepper, old, dt)
        for a, b in ((new.U, old.U), (new.b_left, old.b_left), (new.b_right, old.b_right)):
            assert a.tobytes() == b.tobytes(), (case, k)
    assert np.max(np.abs(new.U)) > 1e-4  # the data did not leave the grid


@pytest.mark.parametrize("shift, stencils", [(ShiftSpec(kind="zero"), "one"),
                                             (_SINUSOID, "every step")])
def test_stencil_weights_and_cfl_check_formed_once_per_zero_shift_run(
        shift, stencils, jinxin, jinxin_profile, monkeypatch):
    calls = {"_check_cfl": 0, "_foot_stencil": 0}
    _counter(monkeypatch, calls, Stepper, "_check_cfl")
    _counter(monkeypatch, calls, dynamics, "_foot_stencil")
    traj = evolve(jinxin, jinxin_profile, _GAUSS, shift, T=1.0, backend="moc",
                  dx=0.02, n_out=4)
    steps = round(1.0 / traj.dt)
    assert steps >= 100
    want = 1 if stencils == "one" else steps
    assert calls == {"_check_cfl": want, "_foot_stencil": want}


def _separate_boundary_updates(model, prof, grid, shift, snap, dt):
    """Edge rows and boundary states as two separate explicit midpoints: the
    edge rows by the perturbation-form source, the boundary states by
    b' = q(base + b) - q(base)."""
    rows = [0, -1]
    Ubar, Ubar_x = prof.eval(grid)[rows], prof.eval_d1(grid)[rows]

    def source(U, t):
        Ut = Ubar + U
        S = model.q_at(Ut) - model.q_at(Ubar)
        if not model.A_is_constant:
            dA = model.A_at(Ut) - model.A_at(Ubar)
            S -= np.einsum("nij,nj->ni", dA, Ubar_x)
        dd = float(shift.delta_dot(t))
        if dd != 0.0:
            S = S + dd * Ubar_x
        return S

    U = snap.U[rows]
    k1 = source(U, snap.t)
    edges = U + dt * source(U + 0.5 * dt * k1, snap.t + 0.5 * dt)
    base = np.stack([model.U_minus, model.U_plus])
    q_base = model.q_at(base)
    b = np.stack([snap.b_left, snap.b_right])
    k1 = model.q_at(base + b) - q_base
    k2 = model.q_at(base + (b + 0.5 * dt * k1)) - q_base
    return np.vstack([edges, b + dt * k2])


@pytest.mark.parametrize("case", ["jinxin", "varA"])
def test_stacked_boundary_midpoint_matches_separate_updates(case, jinxin, jinxin_profile,
                                                            varA):
    model, prof, dt = (jinxin, jinxin_profile, 0.005) if case == "jinxin" else (*varA, 0.01)
    snap = make_initial(prof, _OFFSET)
    snap.t = 1.3
    assert model.A_is_constant == (case == "jinxin")
    stepper = Stepper(model, prof, snap.grid, _SINUSOID)
    want = _separate_boundary_updates(model, prof, snap.grid, _SINUSOID, snap, dt)
    assert np.max(np.abs(want[2:] - want[:2])) > 0.0  # boundary states differ from edges
    assert np.array_equal(stepper._advance_boundary(snap, dt), want)
    for backend in ("moc", "reference"):
        new = stepper.step(snap, dt, backend)
        got = np.vstack([new.U[0], new.U[-1], new.b_left, new.b_right])
        assert np.array_equal(got, want), backend


# --- backend accuracy ---------------------------------------------------------

def test_per_node_foot_cells_carry_no_index_drift(a2_models):
    # zero speed puts every foot on its own node, which must read back exactly;
    # cells formed as (x - x0) / (grid[1] - grid[0]) drift off the far nodes
    _, per_node, prof = a2_models
    grid = np.linspace(-20.0, 20.0, 1001)
    assert np.max(np.abs((grid - grid[0]) / grid_step(grid) - np.arange(1001))) <= 1e-12
    stepper = Stepper(per_node, prof, grid, ShiftSpec(kind="zero"))
    rng = np.random.default_rng(5)
    Phi, E, G = (rng.standard_normal((1001, 2)) for _ in range(3))
    for j in range(2):
        Phif, Ef, Gm = stepper._foot_values(np.zeros(1001), 0.01, Phi[:, j], E[:, j],
                                            G[:, j], Phi[0, j], Phi[-1, j])
        assert np.array_equal(Phif, Phi[:, j])
        assert np.array_equal(Ef, E[:, j])
        assert np.array_equal(Gm, G[:, j])


def test_moc_matches_advection_decay_closed_form():
    model = scalar_model(speed=2.0, decay=0.25)
    prof = constant_profile(model, [0.0], X=40.0, n=4001)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(1.0,))
    traj = evolve(model, prof, pert, ShiftSpec(kind="zero"), T=1.0,
                  backend="moc", dx=0.02, n_out=5)
    x = traj.grid
    worst = 0.0
    for i, t in enumerate(traj.times):
        exact = 1e-2 * np.exp(-0.5 * ((x - 2.0 * t) / 2.0) ** 2) * np.exp(-0.25 * t)
        worst = max(worst, np.max(np.abs(traj.states[i][:, 0] - exact)))
    assert worst <= 1e-6


def test_reference_first_order_self_convergence(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))

    def run(dx):
        return evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                      T=2.0, backend="reference", dx=dx, n_out=4)

    t1, t2, t4 = run(0.08), run(0.04), run(0.02)
    d1 = np.max(np.abs(t1.states - t2.states[:, ::2]))
    d2 = np.max(np.abs(t2.states - t4.states[:, ::2]))
    order = np.log2(d1 / d2)
    assert order >= 0.9


def test_cross_backend_agreement_improves(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))

    def diff(dx):
        a = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                   T=2.0, backend="moc", dx=dx, n_out=4)
        b = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                   T=2.0, backend="reference", dx=dx, n_out=4)
        return np.max(np.abs(a.states - b.states))

    d_coarse, d_fine = diff(0.08), diff(0.04)
    assert d_fine < d_coarse


def test_frame_shift_covariance(jinxin, jinxin_profile):
    r = 2e-3
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    base = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=5.0, backend="moc", dx=0.02, n_out=5, cfl=0.18)
    shifted = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="linear", rate=r),
                     T=5.0, backend="moc", dx=0.02, n_out=5, cfl=0.18)
    # U_shift(t, x - r t) + Ubar(x - r t) - Ubar(x) should equal U_base(t, x)
    from scipy.interpolate import CubicSpline

    worst = 0.0
    x = base.grid
    inner = np.abs(x) <= 35.0
    for i, t in enumerate(base.times):
        xs = x - r * t
        interp = CubicSpline(x, shifted.states[i], axis=0)
        recon = interp(xs) + jinxin_profile.eval(xs) - jinxin_profile.eval(x)
        worst = max(worst, np.max(np.abs(recon[inner] - base.states[i][inner])))
    assert worst <= 1e-6


def test_sinusoid_shift_bounded_run(jinxin, jinxin_profile):
    shift = ShiftSpec("sinusoid", amplitude=5e-3 / (2 * np.pi * 0.05), frequency=0.05)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    traj = evolve(jinxin, jinxin_profile, pert, shift, T=10.0, backend="moc",
                  dx=0.04, n_out=10)
    c1 = max(np.max(np.abs(traj.states)), 0.0)
    assert c1 <= 10 * 1e-2
    assert traj.cfl_observed <= 0.9


# --- diagonal variables -------------------------------------------------------

def test_diagonal_vars_roundtrip(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0)
    snap = make_initial(jinxin_profile, pert)
    from relaxdamp.eigenframe import transformed_source

    Ut = jinxin_profile.eval(snap.grid) + snap.U
    sf = transformed_source(jinxin, snap.grid, Ut)
    dv = diagonal_vars(snap, sf.frames, sf.Theta)
    # reconstruction U = R Phi and W = R Psi round-trip
    U_back = np.einsum("nkj,nj->nk", sf.frames.R, dv.Phi)
    W_back = np.einsum("nkj,nj->nk", sf.frames.R, dv.Psi)
    assert np.max(np.abs(U_back - snap.U)) <= 1e-12
    assert np.max(np.abs(W_back - snap.W)) <= 1e-12
    # conjugation identity holds by construction (modulo reassociation rounding)
    resid = dv.PsiTilde - dv.Psi - np.einsum("njk,nk->nj", sf.Theta, dv.Phi)
    assert np.max(np.abs(resid)) <= 1e-15
    resid2 = dv.UpsilonTilde - dv.Upsilon - np.einsum("njk,nk->nj", sf.Theta, dv.Psi)
    assert np.max(np.abs(resid2)) <= 1e-15


def test_diagonal_vars_spot_value(jinxin, jinxin_profile):
    # Phi = L U at a node where U = (1e-2, 0), frames at the perturbed state
    pert = PerturbationSpec(kind="zero")
    snap = make_initial(jinxin_profile, pert)
    i0 = len(snap.grid) // 2
    snap.U[i0] = [1e-2, 0.0]
    from relaxdamp.eigenframe import frames_at_states

    Ut = jinxin_profile.eval(snap.grid) + snap.U
    frames = frames_at_states(jinxin, snap.grid, Ut)
    Phi = np.einsum("njk,nk->nj", frames.L, snap.U)
    expected = frames.L[i0] @ np.array([1e-2, 0.0])
    assert np.allclose(Phi[i0], expected)
    # magnitudes agree with the biorthonormal frame scaled to unit max entry
    assert np.allclose(np.abs(Phi[i0]), [1e-2, 1e-2], atol=1e-15)


def test_fd4_padding_matches_tiled_boundary_rows():
    rng = np.random.default_rng(4)
    F, left, right = rng.standard_normal((50, 3)), rng.standard_normal(3), rng.standard_normal(3)
    pad = np.concatenate([np.tile(left, (2, 1)), F, np.tile(right, (2, 1))], axis=0)
    want = (-pad[4:] + 8.0 * pad[3:-1] - 8.0 * pad[1:-3] + pad[:-4]) / (12.0 * 0.1)
    assert np.array_equal(fd4_derivative(F, 0.1, left, right), want)


def test_trajectory_snapshot_consistency(jinxin, jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0,
                            direction=(0.0, 1.0))
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=1.0, backend="moc", dx=0.04, n_out=2)
    snap = traj.snapshot(2)
    assert snap.t == pytest.approx(1.0)
    W_fd = fd4_derivative(snap.U, traj.dx, snap.b_left, snap.b_right)
    assert np.array_equal(snap.W, W_fd)
    assert traj.budget_violation_time is None
