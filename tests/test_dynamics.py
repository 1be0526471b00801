"""Perturbation dynamics: initial data, stepping backends, diagonal variables."""

from __future__ import annotations

import dataclasses
import math

import numpy as np
import pytest

from conftest import diagonal_vars, duhamel_residual, scalar_model, vara3_model, vara_model
from relaxdamp.characteristics import accumulate_H, trace_many
from relaxdamp import dynamics
from relaxdamp.damping_verifier import norm_series
from relaxdamp.dynamics import (
    CFL_LIMIT,
    EDGE_TRIM,
    NORM_KINDS,
    PerturbationSpec,
    ShiftSpec,
    Stepper,
    evolve,
    fd4_derivative,
    grid_step,
    interior_max,
    make_initial,
)
from relaxdamp import eigenframe
from relaxdamp.eigenframe import FrameField, frames_at_states, transformed_source
from relaxdamp.errors import BlowUp, BudgetExceeded, CFLViolation, InvalidParam
from relaxdamp.model import ModelSpec, build_custom, build_jinxin
from relaxdamp.poly import node_matmul
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
    W0 = pert.sample(jinxin_profile, snap.grid)[1]
    assert np.max(np.abs(W_fd - W0)) <= 1e-7


@pytest.mark.parametrize("direction", [(1.0,), (0.0, 0.0, 1.0)])
def test_gaussian_direction_needs_one_entry_per_component(jinxin_profile, direction):
    # a short direction must not broadcast, into the conserved component too
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-3, direction=direction)
    with pytest.raises(InvalidParam, match="direction"):
        make_initial(jinxin_profile, pert)


def _tail_width(ratio, reach):
    """Width of a gaussian whose value at distance ``reach`` from its center is
    ``ratio`` of its amplitude."""
    return reach / math.sqrt(-2.0 * math.log(ratio))


@pytest.mark.parametrize("center", [0.0, 3.0, -3.0])
def test_gaussian_tail_at_the_grid_ends_is_bounded(jinxin_profile, center):
    # the boundary states of a gaussian are zero, so a tail that has not
    # decayed at +-X would start the run with a jump at the domain edge
    reach = 40.0 - abs(center)  # to the grid end nearer the center
    for ratio in (0.9e-3, 1.1e-3):
        pert = PerturbationSpec(kind="gaussian", amplitude=-5e-3,
                                width=_tail_width(ratio, reach), center=center)
        if ratio < dynamics.GAUSSIAN_TAIL_MAX:
            snap = make_initial(jinxin_profile, pert)
            tail = np.max(np.abs(snap.U[[0, -1]]))
            assert 0.85e-3 < tail / 5e-3 < dynamics.GAUSSIAN_TAIL_MAX
            continue
        with pytest.raises(InvalidParam,
                           match=r"^gaussian tail at the grid ends x = -40, 40 is 0\.0011 "):
            make_initial(jinxin_profile, pert)


def test_wide_gaussian_fails_the_run_instead_of_jumping(jinxin, jinxin_profile):
    # width 30 at X = 40: U(+-X) is 41% of the amplitude
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=30.0)
    with pytest.raises(InvalidParam, match="0.411 of its amplitude"):
        evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"), T=0.1, n_out=1)


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
    assert np.max(np.abs(np.concatenate([snap.b_left, snap.b_right]))) == 0.0
    # the zero state stays zero, and so do its diagonal variables and norms
    traj = evolve(jinxin, jinxin_profile, PerturbationSpec(kind="zero"), ShiftSpec(kind="zero"),
                  T=0.2, dx=0.08, n_out=1)
    sups = traj.source_series
    for series in (sups.phi, sups.psi_tilde, sups.upsilon_tilde):
        assert np.max(series) == 0.0
    for kind in NORM_KINDS:
        assert np.max(norm_series(traj, kind)) == 0.0


def test_budget_exceeded(jinxin_profile):
    pert = PerturbationSpec(kind="gaussian", amplitude=0.5, width=2.0)
    with pytest.raises(BudgetExceeded) as err:
        make_initial(jinxin_profile, pert, budget=0.02)
    assert err.value.measured == pytest.approx(0.5)


def test_budget_reads_the_analytic_slope(jinxin_profile):
    # |U0| = 0.015 is inside the budget; the analytic slope A / (w sqrt(e)) is not
    pert = PerturbationSpec(kind="gaussian", amplitude=0.015, width=0.2)
    with pytest.raises(BudgetExceeded) as err:
        make_initial(jinxin_profile, pert, budget=0.02)
    W0 = pert.sample(jinxin_profile, jinxin_profile.grid)[1]
    assert err.value.measured == np.max(np.abs(W0))
    assert err.value.measured == pytest.approx(0.015 / (0.2 * math.sqrt(math.e)), rel=1e-3)


@pytest.mark.parametrize("dx, nodes", [(30.0, 4), (100.0, 2)])
def test_evolve_refuses_a_grid_without_trimmed_interior(jinxin, jinxin_profile, dx, nodes):
    # at X = 40 these leave fewer than 2 EDGE_TRIM + 1 nodes: no interior node
    # survives the edge trim of the norms
    assert nodes < 2 * EDGE_TRIM + 1
    with pytest.raises(InvalidParam, match=f"^dx = {dx:g} leaves {nodes} grid nodes "):
        evolve(jinxin, jinxin_profile, PerturbationSpec(kind="zero"), ShiftSpec(kind="zero"),
               T=0.1, dx=dx, n_out=1)


def test_evolve_runs_on_the_smallest_trimmable_grid(jinxin, jinxin_profile):
    traj = evolve(jinxin, jinxin_profile, PerturbationSpec(kind="zero"), ShiftSpec(kind="zero"),
                  T=0.1, dx=20.0, n_out=1)
    assert len(traj.grid) == 2 * EDGE_TRIM + 1
    assert np.max(norm_series(traj, "c2")) == 0.0


@pytest.mark.parametrize("backend", ["moc", "reference"])
def test_evolve_frees_the_moc_row_buffers(backend, jinxin, jinxin_profile):
    # verify reads the trajectory's stepper but never steps it
    traj = evolve(jinxin, jinxin_profile, _GAUSS, ShiftSpec(kind="zero"), T=0.1,
                  backend=backend, dx=0.04, n_out=1)
    assert "_rows" not in vars(traj.stepper)
    assert traj.stepper._rows.Y.shape[1] == len(traj.grid) + 2  # remade on a later step


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
    # the W stack, row 0 included, which the budget check reads after t = 0
    assert len(calls) == 5
    assert traj.W.shape == traj.states.shape
    assert len(calls) == 5


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
    p = trace_many(traj, 0, [0.0])
    accumulate_H(p, traj)
    assert duhamel_residual(traj, p)[0] <= 1e-5


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
    # one A(U) per step at the grid's states, which the frames and the source
    # share, and one for the frames of the final time
    n = int(round(2.0 * prof.half_width / 0.05)) + 1
    grid_A = []
    A_at = ModelSpec.A_at

    def counted_A_at(self, U):
        if len(U) == n:
            grid_A.append(1)
        return A_at(self, U)

    monkeypatch.setattr(ModelSpec, "A_at", counted_A_at)
    pert = PerturbationSpec(kind="gaussian", amplitude=1e-2, width=2.0)
    traj = evolve(model, prof, pert, ShiftSpec(kind="zero"), T=0.5, backend="moc",
                  dx=0.05, n_out=2)
    steps = round(traj.times[-1] / traj.dt)
    assert steps >= 40 and len(traj.grid) == n
    assert calls["eig"] <= 2 and calls["inv"] <= 2, calls
    assert len(grid_A) == steps + 1
    # the frames evolve handed over, one per output time, are those of the
    # stored states
    assert len(traj.frames) == traj.n_times
    for i in range(traj.n_times):
        fresh = frames_at_states(model, traj.grid, traj.perturbed_states(i))
        for got, want in zip((traj.frames[i].lambdas, traj.frames[i].L, traj.frames[i].R),
                             (fresh.lambdas, fresh.L, fresh.R)):
            assert got.tobytes() == want.tobytes(), i


def test_state_dependent_reference_step_reuses_the_frames_A(varA, monkeypatch):
    # the midpoint's first source takes A at Ubar + U from the frames decomposed
    # from it and evaluates only the two boundary states: the same bits as
    # evaluating A on every padded row
    model, prof = varA
    stepper = Stepper(model, prof, prof.grid, _SINUSOID)
    snap = make_initial(prof, _OFFSET)
    snap.t = 0.7
    frames = stepper._frames(stepper.Ubar + snap.U)
    assert frames.A is not None and len(prof.grid) == 801
    sizes = []
    A_at = ModelSpec.A_at

    def counted_A_at(self, U):
        sizes.append(len(U))
        return A_at(self, U)

    monkeypatch.setattr(ModelSpec, "A_at", counted_A_at)
    full = stepper.step_reference(snap, 0.01, dataclasses.replace(frames, A=None))
    assert sizes == [803, 803]
    sizes.clear()
    lean = stepper.step_reference(snap, 0.01)
    assert sizes == [801, 2, 803]
    for a, b in ((lean.U, full.U), (lean.b_left, full.b_left), (lean.b_right, full.b_right)):
        assert a.tobytes() == b.tobytes()
    assert np.max(np.abs(lean.U - snap.U)) > 0.0


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
                   dx=0.04, n_out=4) for m in (const, per_node)]
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


def _count_step_calls(monkeypatch, calls, sizes):
    """Count the calls named in ``calls`` (Stepper, dynamics, FrameField and
    ModelSpec.Q_at targets), and append the rows of every q and every A
    evaluation to ``sizes["q_at"]`` and ``sizes["A_at"]``."""
    owners = {"Q_at": ModelSpec, "to_diag": FrameField, "from_diag": FrameField}
    for name in calls:
        if name not in ("q_at", "A_at"):
            owner = owners.get(name, Stepper if hasattr(Stepper, name) else dynamics)
            _counter(monkeypatch, calls, owner, name)
    q_at, A_at = ModelSpec.q_at, ModelSpec.A_at

    def counted_q_at(self, U, out=None):
        calls["q_at"] += 1
        sizes["q_at"].append(len(U))
        return q_at(self, U, out)

    def counted_A_at(self, U):
        calls["A_at"] += 1
        sizes["A_at"].append(len(U))
        return A_at(self, U)
    monkeypatch.setattr(ModelSpec, "q_at", counted_q_at)
    monkeypatch.setattr(ModelSpec, "A_at", counted_A_at)


# Every step opens with one source pass over the n + 2 padded rows; its one
# other source call is the second stage of a midpoint: over the four edge
# rows (moc, through ``_advance_boundary``) or all n + 2 rows (reference).
_MIDPOINT = {"source": 2, "_ode_node_update": 1}


def test_constant_A_steps_form_only_what_they_read(jinxin, jinxin_profile, monkeypatch):
    snap = make_initial(jinxin_profile, _GAUSS)
    snap.t = 1.3  # ddelta != 0
    calls = dict.fromkeys(("q_at", "A_at", "Q_at", "transformed_source", "frames_at_states",
                           "_check_cfl", "_foot_stencil", "to_diag", "from_diag",
                           "source", "_ode_node_update", "_advance_boundary"), 0)
    sizes = {"q_at": [], "A_at": []}
    _count_step_calls(monkeypatch, calls, sizes)
    stepper = Stepper(jinxin, jinxin_profile, snap.grid, _SINUSOID)
    n = len(snap.grid)
    # the speeds, their CFL check and the moc stencils are formed once per
    # (dt, ddelta): a second step at the same pair forms none of them again.
    # The moc step forms Q not at all; the reference step diagonalizes its
    # differences once and transforms back once
    for backend, first, again, rows in (
            ("moc", {"_check_cfl": 1, "_foot_stencil": 1, "from_diag": 1,
                     "_advance_boundary": 1},
             {"from_diag": 1, "_advance_boundary": 1}, [n + 2, 4]),
            ("reference", {"_check_cfl": 1, "to_diag": 1, "from_diag": 1},
             {"to_diag": 1, "from_diag": 1}, [n + 2, n + 2])):
        stepper._speeds = None
        for want in (first, again):
            calls.update(dict.fromkeys(calls, 0))
            sizes["q_at"].clear()
            stepper.step(snap, 0.005, backend)
            assert calls == {**dict.fromkeys(calls, 0), **want, **_MIDPOINT, "q_at": 2}, backend
            assert sizes["q_at"] == rows, backend


@pytest.mark.parametrize("given", [False, True])
def test_state_dependent_steps_form_only_what_they_read(given, varA, monkeypatch):
    # A once at the nodes (the frames, which the source pass reads), once at
    # the two boundary states, and once more in the second midpoint stage
    model, prof = varA
    stepper = Stepper(model, prof, prof.grid, _SINUSOID)
    snap = make_initial(prof, _OFFSET)
    snap.t = 0.7
    n = len(prof.grid)
    frames = stepper._frames(stepper.Ubar + snap.U) if given else None
    calls = dict.fromkeys(("q_at", "A_at", "Q_at", "frames_at_states",
                           "source_diagonal_and_transport", "_node_feet", "source",
                           "_ode_node_update", "_advance_boundary"), 0)
    sizes = {"q_at": [], "A_at": []}
    _count_step_calls(monkeypatch, calls, sizes)
    decomposed = 0 if given else 1
    for backend, want, rows, A_rows in (
            ("moc", {"frames_at_states": decomposed, "source_diagonal_and_transport": 1,
                     "Q_at": 1, "_node_feet": 1, "_advance_boundary": 1, "A_at": 3 - given},
             [n + 2, 4], [n, 2, 4]),
            ("reference", {"frames_at_states": decomposed, "A_at": 3 - given},
             [n + 2, n + 2], [n, 2, n + 2])):
        calls.update(dict.fromkeys(calls, 0))
        sizes["q_at"].clear()
        sizes["A_at"].clear()
        stepper.step(snap, 0.01, backend, frames)
        assert calls == {**dict.fromkeys(calls, 0), **want, **_MIDPOINT, "q_at": 2}, backend
        assert sizes["q_at"] == rows, backend
        assert sizes["A_at"] == A_rows[given:], backend


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


def _shift_linear(f, s, left, right, weights=None):
    """Linear interpolation at x_k + s dx of every node, -1 <= s < 1: the
    weights (1 - t, t) of the two nodes about each foot, or ``weights``."""
    n, m = len(f), math.floor(s)
    pad = np.concatenate([[left], f, [right]])
    t = s - m
    w0, w1 = (1.0 - t, t) if weights is None else weights
    return w0 * pad[m + 1:m + 1 + n] + w1 * pad[m + 2:m + 2 + n]


def _per_family_constant_A_step(stepper, snap, dt):
    """The constant-A moc step as it was written before the row product:
    node-major fields, E as diag(L0 Q R0) from the flattened Q and the
    diagonal columns of ``FrameField.kron``, one edge-padded copy and one
    fixed stencil per family and field, two exps (exp(h) and exp(h / 2)),
    and the boundary rows as a whole stacked explicit midpoint."""
    model, frames, n = stepper.model, stepper.frames0, len(snap.U)
    L0T, R0T = np.ascontiguousarray(frames.L[0].T), np.ascontiguousarray(frames.R[0].T)
    kron_diag = np.ascontiguousarray(frames.kron[:, ::model.N + 1])
    c = frames.lambdas[0] - stepper.shift.delta_dot(snap.t)
    Ut = stepper.Ubar + snap.U
    E = model.Q_at(Ut).reshape(n, -1) @ kron_diag
    Phi = snap.U @ L0T
    G = stepper.source(Ut, snap.t, _profile_rows(stepper)) @ L0T - E * Phi
    phi_bl, phi_br = frames.L[0] @ snap.b_left, frames.L[-1] @ snap.b_right
    Phi_new = np.empty(Phi.T.shape)
    for j, (phi, e, g) in enumerate(zip(Phi.T, E.T, G.T)):
        s = -float(c[j]) * dt / stepper.dx
        Phif = _shift_cubic(phi, s, phi_bl[j], phi_br[j])
        Ef = _shift_linear(e, s, e[0], e[-1])
        Gm = _shift_linear(g, 0.5 * s, g[0], g[-1])
        h = 0.5 * dt * (Ef + e)
        Phi_new[j] = np.exp(h) * Phif + dt * np.exp(0.5 * h) * Gm
    return _with_boundary_rows(stepper, snap, dt, Phi_new.T @ R0T)


def _per_family_row_step(stepper, snap, dt):
    """The constant-A moc step in its own order of operations, family by
    family: S and [Phi; G; E] from the stepper's row product, then one
    edge-padded copy and one fixed stencil per family and field, E at the
    node and dt / 4 folded into the foot weights, dt into the midpoint
    weights, one exp, and the boundary rows' midpoint started from S."""
    c = stepper.frames0.lambdas[0] - stepper.shift.delta_dot(snap.t)
    _, S = stepper._rows.evaluate(stepper, snap)
    S, (Phi, G, E) = S.copy(), stepper._rows.P.copy()
    n = len(snap.U)
    Phi_new = np.empty((len(Phi), n))
    for j, (phi, g, e) in enumerate(zip(Phi, G[:, 1:-1], E[:, 1:-1])):
        s = -float(c[j]) * dt / stepper.dx
        m = math.floor(s)
        t, half = s - m, 0.5 * s
        t_mid = half - math.floor(half)
        node = 1.0 if m == 0 else 0.0  # the node's own column in the foot's cell
        quarter = 0.25 * dt
        Phif = _shift_cubic(phi[1:-1], s, phi[0], phi[-1])
        h = _shift_linear(e, s, e[0], e[-1],
                          (quarter * ((1.0 - t) + node), quarter * (t + (1.0 - node))))
        Gm = _shift_linear(g, s, g[0], g[-1], (dt * (1.0 - t_mid), dt * t_mid))
        ex = np.exp(h)
        Phi_new[j] = ex * (ex * Phif + Gm)
    k1 = S[:, [1, n, 0, n + 1]].T
    return _with_boundary_rows(stepper, snap, dt, stepper.frames0.from_diag(Phi_new.T), k1)


def _profile_rows(stepper):
    """The rows a node's perturbation is taken about: the profile at every node."""
    return stepper.about.rows(slice(1, -1))


def _with_boundary_rows(stepper, snap, dt, U_new, k1=None):
    """The snapshot one step on, its edge rows and boundary states from one
    stacked four-row explicit midpoint of the source; ``k1``, when given, is
    its first stage."""
    about = stepper.about_boundary
    V = np.stack([snap.U[0], snap.U[-1], snap.b_left, snap.b_right])
    if k1 is None:
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


def _fused_case(case, jinxin, jinxin_profile):
    """(stepper, dt, initial snapshot) of a family-fused step case: a
    Jin-Xin or mixed3 model with offset data, at a step of 0.8 CFL."""
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
    if model.N == 3:  # stencil rows at different pad offsets, the node in either column
        assert np.min(s) < 0.0 < np.max(s)
    dt = 0.8 * stepper.dx / float(np.max(np.abs(s)) + shift.eps_delta)
    return stepper, dt, make_initial(prof, pert)


_FUSED_CASES = ["jinxin-zero", "jinxin-sinusoid", "mixed3-zero", "mixed3-linear"]


@pytest.mark.parametrize("case", _FUSED_CASES)
def test_family_fused_step_matches_per_family_step_bit_for_bit(case, jinxin,
                                                               jinxin_profile):
    stepper, dt, start = _fused_case(case, jinxin, jinxin_profile)
    new = old = start
    for k in range(120):
        new.t = old.t = k * dt
        new, old = stepper.step_moc(new, dt), _per_family_row_step(stepper, old, dt)
        for a, b in ((new.U, old.U), (new.b_left, old.b_left), (new.b_right, old.b_right)):
            assert a.tobytes() == b.tobytes(), (case, k)
    assert np.max(np.abs(new.U)) > 1e-4  # the data did not leave the grid


# Per step the row step and the two-exp Q kron step differ only in rounding:
# E as a sum over Q's terms against one over Q's entries, e^2 against exp(h),
# the factor e against exp(h / 2), and the order of a few sums: a few units
# in the last place of each value, 8 eps per step at most.  The scheme does
# not amplify (the interpolation weights sum to 1 and the exponents are
# negative), so after 120 steps the gap stays below 120 * 8 eps of max |U|.
_ROUNDING_PER_STEP = 8.0 * np.finfo(float).eps


@pytest.mark.parametrize("case", _FUSED_CASES)
def test_row_step_matches_two_exp_kron_step_to_rounding(case, jinxin, jinxin_profile):
    stepper, dt, start = _fused_case(case, jinxin, jinxin_profile)
    new = old = start
    for k in range(120):
        new.t = old.t = k * dt
        new, old = stepper.step_moc(new, dt), _per_family_constant_A_step(stepper, old, dt)
        scale = max(np.max(np.abs(old.U)), np.max(np.abs(old.b_left)),
                    np.max(np.abs(old.b_right)))
        for a, b in ((new.U, old.U), (new.b_left, old.b_left), (new.b_right, old.b_right)):
            assert np.max(np.abs(a - b)) <= (k + 1) * _ROUNDING_PER_STEP * scale, (case, k)
    assert not np.array_equal(new.U, old.U)  # two orders of operations, not one


def _cubic_flux_jinxin():
    """Jin-Xin with f(u) = u^3 / 3 - u: Q_21 = u^2 - 1, a monomial of degree 2."""
    return build_jinxin(a=2.0, eps=1.0, flux=[0.0, -1.0, 0.0, 1.0 / 3.0],
                        u_minus=0.5, u_plus=-0.5)


@pytest.mark.parametrize("case", ["jinxin", "cubic-flux", "mixed3"])
def test_row_product_gives_the_source_and_the_diagonal_of_the_kron_product(
        case, jinxin, jinxin_profile):
    if case == "jinxin":
        model, prof = jinxin, jinxin_profile
    else:
        model = _cubic_flux_jinxin() if case == "cubic-flux" else _mixed_speed_3x3()
        prof = constant_profile(model, [0.0] * model.N, X=10.0, n=501)
    stepper = Stepper(model, prof, prof.grid, _SINUSOID)
    if case == "cubic-flux":
        assert stepper._rows.monomials == [(2, 0)]
    N, n = model.N, len(prof.grid)
    frames, about = stepper.frames0, stepper.about
    rng = np.random.default_rng(3)
    snap = dynamics.Snapshot(t=1.3, grid=prof.grid, U=1e-2 * rng.standard_normal((n, N)),
                             b_left=1e-2 * rng.standard_normal(N),
                             b_right=1e-2 * rng.standard_normal(N))
    V_rows, S = (f.copy() for f in stepper._rows.evaluate(stepper, snap))
    Phi, G, E = stepper._rows.P.copy()
    V = np.vstack([snap.b_left, snap.U, snap.b_right])
    assert V_rows.tobytes() == V.T.tobytes()
    Ut = about.U + V
    # S is Stepper.source's sum in every column, the four boundary rows included
    assert S.T.tobytes() == stepper.source(Ut, snap.t, about).tobytes()
    assert np.max(np.abs(Phi - frames.L[0] @ V.T)) <= 1e-15 * np.max(np.abs(V))
    Q = model.Q_at(Ut)
    want = np.einsum("ja,nab,bj->jn", frames.L[0], Q, frames.R[0])
    kron = np.diagonal((Q.reshape(n + 2, N * N) @ frames.kron).reshape(-1, N, N),
                       axis1=1, axis2=2).T
    tol = 1e-14 * np.max(np.abs(Q))
    assert np.max(np.abs(E - want)) <= tol and np.max(np.abs(E - kron)) <= tol
    LS = frames.L[0] @ S
    assert np.max(np.abs(G - (LS - E * Phi))) <= 1e-14 * np.max(np.abs(LS))
    # zero data and no shift: the source and the diagonal fields are exactly zero
    still = Stepper(model, prof, prof.grid, ShiftSpec(kind="zero"))
    zero = dynamics.Snapshot(t=0.0, grid=prof.grid, U=np.zeros((n, N)),
                             b_left=np.zeros(N), b_right=np.zeros(N))
    _, S0 = still._rows.evaluate(still, zero)
    assert not np.any(S0) and not np.any(still._rows.P[:2])


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


def _separate_reference_step(stepper, snap, dt):
    """The reference step as it was written: its own explicit midpoint over
    the n nodes, then the edge rows and boundary states replaced by the
    stacked four-row midpoint."""
    U, t = snap.U, snap.t
    Ut = stepper.Ubar + U
    frames = stepper._frames(Ut)
    c = frames.lambdas - stepper.shift.delta_dot(t)
    if frames.constant:
        c = c[0]
    pad = np.concatenate([snap.b_left[None], U, snap.b_right[None]])
    D = (pad[1:] - pad[:-1]) / stepper.dx
    phi_m, phi_p = frames.to_diag(D[:-1]), frames.to_diag(D[1:])
    adv = frames.from_diag(c * np.where(c > 0.0, phi_m, phi_p))
    adv[0] = 0.0
    adv[-1] = 0.0
    about = _profile_rows(stepper)
    U_half = U + 0.5 * dt * (-adv + stepper.source(Ut, t, about))
    U_new = U - dt * adv + dt * stepper.source(stepper.Ubar + U_half, t + 0.5 * dt, about)
    return _with_boundary_rows(stepper, snap, dt, U_new)


def _linear_at(f, cells, left, right):
    """Linear interpolation of one field (n,) at cell positions, flat beyond the grid."""
    n = len(f)
    i = np.floor(cells).astype(int)
    t = cells - i
    pad = np.concatenate([[left], f, [right]])
    out = (1.0 - t) * pad[np.clip(i + 1, 0, n)] + t * pad[np.clip(i + 2, 1, n + 1)]
    out[cells < -1.0] = left
    out[cells > n] = right
    return out


def _cubic_at(pad, cells):
    """Cubic Lagrange interpolation of one field edge-padded by two nodes
    (n + 4,) at cell positions, each stencil read clamped into the pad."""
    n = len(pad) - 4
    i = np.floor(cells).astype(int)
    idx = np.clip(i, -2, n + 1) + 2
    return dynamics._cubic_lagrange(cells - i, *(pad[np.clip(idx + k, 0, n + 3)]
                                                 for k in (-1, 0, 1, 2)))


def _per_family_node_step(stepper, snap, dt):
    """The state-dependent moc step as it was written: each family's foot
    traced and each of its fields padded and interpolated on its own."""
    Ut = stepper.Ubar + snap.U
    frames = stepper._frames(Ut)
    sf = transformed_source(stepper.model, Ut, frames)
    E = sf.E_diag.T
    Phi = frames.diag_rows(snap.U)
    G = frames.diag_rows(stepper.source(Ut, snap.t, _profile_rows(stepper), frames.A))
    G -= E * Phi
    G += node_matmul(sf.transport, Phi.T).T
    return _per_family_feet_update(stepper, snap, dt, frames, Phi, E, G)


def _one_exp_update(dt, Phif, Ef, E, Gm):
    """The moc step's Duhamel update: e (e Phif + dt Gm), e = exp(dt (Ef + E) / 4)."""
    e = np.exp(0.25 * dt * (Ef + E))
    return e * (e * Phif + dt * Gm)


def _two_exp_update(dt, Phif, Ef, E, Gm):
    """The state-dependent moc step's Duhamel update as it was written before
    it shared the constant-frame one: exp(h) Phif + dt exp(h / 2) Gm with
    h = dt (Ef + E) / 2."""
    h = 0.5 * dt * (Ef + E)
    return np.exp(h) * Phif + dt * np.exp(0.5 * h) * Gm


def _per_family_feet_update(stepper, snap, dt, frames, Phi, E, G, update=_one_exp_update):
    """The per-node moc update from family-major Phi, E and G: each family's
    foot traced and each of its fields padded and interpolated on its own,
    then the Duhamel ``update``."""
    model, dx, n = stepper.model, stepper.dx, len(snap.U)
    c = frames.lambdas - stepper.shift.delta_dot(snap.t)
    phi_bl, phi_br = frames.L[0] @ snap.b_left, frames.L[-1] @ snap.b_right
    Phif, Ef, Gm = (np.empty(Phi.shape) for _ in range(3))
    k = np.arange(n, dtype=float)
    for j in range(model.N):
        cj = c[:, j]
        c_mid = _linear_at(cj, k - 0.5 * (cj * dt / dx), cj[0], cj[-1])
        foot = k - c_mid * dt / dx
        Ef[j] = _linear_at(E[j], foot, E[j, 0], E[j, -1])
        Gm[j] = _linear_at(G[j], 0.5 * (k + foot), G[j, 0], G[j, -1])
        Phif[j] = _cubic_at(
            np.concatenate([[phi_bl[j]] * 2, Phi[j], [phi_br[j]] * 2]), foot)
    Phi_new = update(dt, Phif, Ef, E, Gm)
    return _with_boundary_rows(stepper, snap, dt, frames.from_diag(Phi_new.T))


def _cumsum_flip_parity(steps):
    """Sign-continuation parity by counting: the negative steps since the
    last one not strictly signed, odd or even (cumsum, then % 2)."""
    n = len(steps) + 1
    neg = np.zeros((n,) + steps.shape[1:], dtype=np.int64)
    neg[1:] = np.cumsum(steps < 0, axis=0)
    restart = np.zeros(neg.shape, dtype=np.int64)
    rows = np.arange(1, n).reshape((-1,) + (1,) * (steps.ndim - 1))
    restart[1:] = np.where((steps < 0) | (steps > 0), 0, rows)
    restart = np.maximum.accumulate(restart, axis=0)
    return (neg - np.take_along_axis(neg, restart, axis=0)) % 2 == 1


def _node_step_with_full_source(stepper, snap, dt, update=_one_exp_update):
    """The state-dependent moc step with the eigen side formed in full: the
    sign flips counted by cumsum and applied by np.negative(where=), the
    whole transformed source L Q R - Lambda L dR/dx with dR/dx from
    np.gradient at the grid spacing, and the source's dA term from a second
    A(Ut).  Per-node products are full ``node_matmul`` products, the step's
    kernel."""
    model, grid = stepper.model, stepper.grid
    Ut = stepper.Ubar + snap.U
    decompose = eigenframe._decompose_2x2 if model.N == 2 else eigenframe._decompose_batch
    lam, L, R = decompose(model.A_at(Ut), 0.0, grid)
    flip = _cumsum_flip_parity(
        np.diagonal(node_matmul(R[1:].swapaxes(1, 2), R[:-1]), axis1=1, axis2=2))
    np.negative(R, out=R, where=flip[:, None, :])
    np.negative(L, out=L, where=flip[:, :, None])
    frames = FrameField(grid=grid, lambdas=lam, L=L, R=R)
    M = node_matmul(node_matmul(L, model.Q_at(Ut)), R)
    T = -lam[:, :, None] * node_matmul(L, np.gradient(R, grid[1] - grid[0], axis=0))
    M = M + T
    eye = np.eye(model.N, dtype=bool)
    E = M[:, eye].T
    M[:, eye] = 0.0  # F_tilde
    Phi = frames.to_diag(snap.U).T
    G = frames.to_diag(stepper.source(Ut, snap.t, _profile_rows(stepper))).T
    G -= E * Phi
    G += node_matmul(T, Phi.T).T
    return _per_family_feet_update(stepper, snap, dt, frames, Phi, E, G, update)


def _node_case(case, varA):
    """(stepper, dt, initial snapshot) of a state-dependent moc step case with
    a linear shift: varA decomposes in closed form, varA3 (N = 3) with LAPACK."""
    if case == "varA":
        model, prof = varA
        pert = _OFFSET
    else:
        model = vara3_model()
        prof = constant_profile(model, [0.0] * 3, X=10.0, n=501)
        pert = PerturbationSpec(kind="offset", d_minus=(2e-3, -1e-3, 5e-4),
                                d_plus=(-1e-3, 1e-3, 2e-3))
    shift = ShiftSpec(kind="linear", rate=0.3)
    stepper = Stepper(model, prof, prof.grid, shift)
    assert stepper.frames0 is None and shift.delta_dot(0.0) != 0.0
    speed = float(np.max(np.abs(stepper._frames(stepper.Ubar).lambdas))) + shift.eps_delta
    return stepper, 0.7 * stepper.dx / speed, make_initial(prof, pert)


@pytest.mark.parametrize("case", ["varA", "varA3"])
def test_lean_node_step_matches_full_source_step_bit_for_bit(case, varA):
    stepper, dt, start = _node_case(case, varA)
    new = old = start
    for k in range(60):
        new.t = old.t = k * dt
        # every other step begins from frames formed outside it, as evolve hands them
        frames = stepper._frames(stepper.Ubar + new.U) if k % 2 else None
        new, old = stepper.step_moc(new, dt, frames), _node_step_with_full_source(stepper, old, dt)
        for a, b in ((new.U, old.U), (new.b_left, old.b_left), (new.b_right, old.b_right)):
            assert a.tobytes() == b.tobytes(), (case, k)
    assert np.max(np.abs(new.U)) > 1e-4


@pytest.mark.parametrize("case", ["varA", "varA3"])
def test_node_step_matches_two_exp_update_to_rounding(case, varA):
    # one exp, e^2 against exp(h) and e against exp(h / 2), as for constant
    # frames: the same rounding bound per step
    stepper, dt, start = _node_case(case, varA)
    new = old = start
    for k in range(60):
        new.t = old.t = k * dt
        new = stepper.step_moc(new, dt)
        old = _node_step_with_full_source(stepper, old, dt, _two_exp_update)
        scale = max(np.max(np.abs(old.U)), np.max(np.abs(old.b_left)),
                    np.max(np.abs(old.b_right)))
        for a, b in ((new.U, old.U), (new.b_left, old.b_left), (new.b_right, old.b_right)):
            assert np.max(np.abs(a - b)) <= (k + 1) * _ROUNDING_PER_STEP * scale, (case, k)
    assert not np.array_equal(new.U, old.U)


@pytest.mark.parametrize("backend", ["moc", "reference"])
def test_state_dependent_steps_call_no_einsum(backend, monkeypatch):
    # every per-node contraction of the step is a node_matmul / node_dot over
    # component columns, whose sums do not depend on einsum's order or layout
    model = vara_model()
    prof = solve_profile(model, X=20.0, n=201)
    stepper = Stepper(model, prof, prof.grid, ShiftSpec(kind="linear", rate=0.3))
    snap = make_initial(prof, PerturbationSpec(kind="gaussian", amplitude=1e-3, width=1.0))
    calls = []
    einsum = np.einsum

    def counted(*args, **kwargs):
        calls.append(args[0])
        return einsum(*args, **kwargs)

    monkeypatch.setattr(np, "einsum", counted)
    for frames in (None, stepper._frames(stepper.Ubar + snap.U)):  # formed inside, and given
        snap = stepper.step(snap, 0.2 * stepper.dx, backend, frames)
    assert calls == []


def _diagonal_3x3():
    """Constant diagonal A with speeds of both signs and a linear relaxation
    that couples the families, about the equilibrium U = 0."""
    A = [[0.4, 0.0, 0.0], [0.0, -0.6, 0.0], [0.0, 0.0, -1.6]]
    q = [[[-1.0, [1, 0, 0]], [0.2, [0, 1, 0]]],
         [[-0.5, [0, 1, 0]]],
         [[-0.8, [0, 0, 1]], [0.1, [1, 0, 0]]]]
    return build_custom("diag3", 3, A, q, U_minus=[0.0] * 3, U_plus=[0.0] * 3,
                        state_box=([-1.0] * 3, [1.0] * 3))


@pytest.mark.parametrize("backend", ["reference", "moc"])
@pytest.mark.parametrize("shift", ["zero", "sinusoid"])
@pytest.mark.parametrize("case", ["jinxin", "varA", "varA3", "diag3", "scalar"])
def test_padded_row_steps_match_separate_steps_bit_for_bit(case, shift, backend, jinxin,
                                                           jinxin_profile, varA):
    if case in ("jinxin", "varA"):
        model, prof = (jinxin, jinxin_profile) if case == "jinxin" else varA
        pert = _OFFSET
    else:
        model = {"varA3": vara3_model, "diag3": _diagonal_3x3, "scalar": scalar_model}[case]()
        assert model.A_is_constant == (case != "varA3")
        prof = constant_profile(model, [0.0] * model.N, X=10.0, n=501)
        pert = PerturbationSpec(kind="offset", d_minus=(2e-3, -1e-3, 5e-4)[:model.N],
                                d_plus=(-1e-3, 1e-3, 2e-3)[:model.N])
    shift = ShiftSpec(kind="zero") if shift == "zero" else _SINUSOID
    stepper = Stepper(model, prof, prof.grid, shift)
    if backend == "reference":
        old_step = _separate_reference_step
    else:
        old_step = _per_family_row_step if model.A_is_constant else _per_family_node_step
    speed = float(np.max(np.abs(stepper._frames(stepper.Ubar).lambdas))) + shift.eps_delta
    dt = 0.7 * stepper.dx / speed
    new = old = start = make_initial(prof, pert)
    for k in range(120):
        new.t = old.t = k * dt
        new, old = stepper.step(new, dt, backend), old_step(stepper, old, dt)
        for a, b in ((new.U, old.U), (new.b_left, old.b_left), (new.b_right, old.b_right)):
            assert a.tobytes() == b.tobytes(), (case, k)
    for b, b0 in ((new.b_left, start.b_left), (new.b_right, start.b_right)):
        assert np.max(np.abs(b - b0)) > 1e-5  # the boundary states moved


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
    V = np.vstack([snap.b_left, snap.U, snap.b_right])
    S = stepper.source(stepper.about.U + V, snap.t, stepper.about)
    assert np.array_equal(stepper._advance_boundary(V, S, snap.t, dt), want)
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
    Phi, E, G = (rng.standard_normal((2, 1001)) for _ in range(3))
    feet = stepper._node_feet(np.zeros((1001, 2)), 0.01, Phi, E, G, Phi[:, 0], Phi[:, -1])
    for got, want in zip(feet, (Phi, E, G)):
        assert np.array_equal(got, want)


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
    traj = evolve(jinxin, jinxin_profile, pert, ShiftSpec(kind="zero"),
                  T=0.5, backend="moc", dx=0.04, n_out=1)
    for i in range(traj.n_times):
        sf = traj.source_field(i)
        dv = diagonal_vars(traj, i, sf)
        # reconstruction U = R Phi and W = R Psi round-trip
        U_back = np.einsum("nkj,nj->nk", sf.frames.R, dv.Phi)
        W_back = np.einsum("nkj,nj->nk", sf.frames.R, dv.Psi)
        assert np.max(np.abs(U_back - traj.states[i])) <= 1e-12
        assert np.max(np.abs(W_back - traj.W[i])) <= 1e-12
        # conjugation identity holds by construction (modulo reassociation rounding)
        resid = dv.PsiTilde - dv.Psi - np.einsum("njk,nk->nj", sf.Theta, dv.Phi)
        assert np.max(np.abs(resid)) <= 1e-15
        resid2 = dv.UpsilonTilde - dv.Upsilon - np.einsum("njk,nk->nj", sf.Theta, dv.Psi)
        assert np.max(np.abs(resid2)) <= 1e-15
        # the source pass keeps the interior sups of these same fields
        sups = traj.source_series
        assert [sups.phi[i], sups.psi_tilde[i], sups.upsilon_tilde[i]] == [
            interior_max(F) for F in (dv.Phi, dv.PsiTilde, dv.UpsilonTilde)]


def test_diagonal_vars_spot_value(jinxin, jinxin_profile):
    # Phi = L U at a node where U = (1e-2, 0), frames at the perturbed state
    pert = PerturbationSpec(kind="zero")
    snap = make_initial(jinxin_profile, pert)
    i0 = len(snap.grid) // 2
    snap.U[i0] = [1e-2, 0.0]
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
    assert traj.times[2] == pytest.approx(1.0)
    W_fd = fd4_derivative(traj.states[2], traj.dx, traj.b_left[2], traj.b_right[2])
    assert np.array_equal(traj.W[2], W_fd)
    zero = np.zeros(2)
    assert np.array_equal(traj.Y_at(2), fd4_derivative(W_fd, traj.dx, zero, zero))
    assert traj.budget_violation_time is None
