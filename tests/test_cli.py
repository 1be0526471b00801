"""Config parsing, pipeline artifacts, exit codes, determinism."""

from __future__ import annotations

import dataclasses
import json
import os
import subprocess
import sys
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from relaxdamp import characteristics, cli, config, dynamics, eigenframe
from relaxdamp import damping_verifier as dv
from relaxdamp.cli import (
    EXIT_CERTIFICATION,
    EXIT_CONFIG,
    EXIT_ERROR,
    EXIT_OK,
    main,
    run,
    write_csv,
)
from relaxdamp.config import config_from_dict, parse_config
from relaxdamp.errors import ParseError, ValidationError

TINY = {
    "dynamics": {
        "T": 4.0,
        "n_out": 8,
        "dx": 0.04,
        "perturbation": {"kind": "gaussian", "amplitude": 0.01, "width": 2.0,
                         "direction": [0.0, 1.0]},
    },
    "profile": {"n": 2001},
    "verify": {"n_paths": 4, "theta_grid": {"start": 0.01, "stop": 0.3, "num": 8}},
}


def write_config(tmp_path, payload, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


def test_minimal_config_gets_defaults(tmp_path):
    cfg = parse_config(write_config(tmp_path, {"model": {"kind": "jinxin"}}))
    assert cfg.model_cfg["a"] == 2.0
    assert cfg.dynamics_cfg["T"] == 80.0
    assert cfg.verify_cfg["C_cap"] == 1000.0
    assert cfg.seed == 1234


def test_negative_eps_cites_key_path(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_config(write_config(tmp_path, {"model": {"eps": -1}}))
    assert err.value.key_path == "model.eps"


def test_unknown_key_rejected(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_config(write_config(tmp_path, {"modle": {}}))
    assert "modle" in str(err.value)


def test_nested_unknown_key_rejected(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_config(write_config(tmp_path, {"dynamics": {"dt": 0.1}}))
    assert err.value.key_path == "dynamics.dt"


def test_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json", encoding="utf-8")
    with pytest.raises(ParseError):
        parse_config(path)


def test_cfl_range(tmp_path):
    with pytest.raises(ValidationError) as err:
        parse_config(write_config(tmp_path, {"dynamics": {"cfl": 0.95}}))
    assert err.value.key_path == "dynamics.cfl"


def test_profile_stage_artifacts(tmp_path):
    cfg = config_from_dict({"profile": {"n": 1001}})
    code = run("profile", cfg, out_dir=str(tmp_path))
    assert code == EXIT_OK
    csv = (tmp_path / "profile.csv").read_text().splitlines()
    assert csv[0] == "x,U_1,U_2,dU_1,dU_2"
    assert len(csv) == 1002
    meta = json.loads((tmp_path / "profile.json").read_text())
    assert meta["residual"] <= 1e-10
    assert meta["decay_fits"]["plus_0"]["rate"] == pytest.approx(0.25, rel=0.02)
    assert not any(fit["is_lower_bound"] for fit in meta["decay_fits"].values())


def test_check_stage_default_passes(tmp_path):
    cfg = config_from_dict({"profile": {"n": 1001}})
    code = run("check", cfg, out_dir=str(tmp_path))
    assert code == EXIT_OK
    data = json.loads((tmp_path / "assumptions.json").read_text())
    assert data["certified"] is True
    assert data["theta_E"] == pytest.approx(0.125, abs=1e-12)
    assert data["theta_E_signed"] == pytest.approx(-0.125, abs=1e-12)
    assert (tmp_path / "frames.csv").exists()
    assert (tmp_path / "spectrum.csv").exists()


def test_check_supercharacteristic_exit_code(tmp_path):
    cfg = config_from_dict({"model": {"a": 0.5}, "profile": {"n": 1001}})
    code = run("check", cfg, out_dir=str(tmp_path))
    assert code == EXIT_CERTIFICATION
    data = json.loads((tmp_path / "assumptions.json").read_text())
    assert data["certified"] is False
    cert = data["assumption3_dissipativity"]["certificate"]
    assert cert["passed"] is False
    assert cert["witness_xi"] is not None


def test_check_refuses_lower_bound_decay_rates(tmp_path):
    # at eps = 0.01 every tail is under the noise floor inside X = 10: the
    # six rates are only lower bounds (about 6-7, where the exact rate is 25)
    cfg = config_from_dict({"model": {"eps": 0.01},
                            "profile": {"X": 10, "n": 4001, "method": "exact"}})
    assert run("profile", cfg, out_dir=str(tmp_path)) == EXIT_OK
    fits = json.loads((tmp_path / "profile.json").read_text())["decay_fits"]
    assert len(fits) == 6 and all(fit["is_lower_bound"] for fit in fits.values())
    assert run("check", cfg, out_dir=str(tmp_path)) == EXIT_CERTIFICATION
    data = json.loads((tmp_path / "assumptions.json").read_text())
    a1 = data["assumption1_profile"]
    assert a1["certified"] is False and data["certified"] is False
    assert all(rate > 0 for rate in a1["decay_rates"].values())
    assert data["assumption2_hyperbolicity"]["certified"] is True
    assert data["assumption3_dissipativity"]["certified"] is True


def test_crash_writes_error_json(tmp_path):
    # swapped endstates: shooting has no unstable direction -> module error
    cfg = config_from_dict({"model": {"u_minus": -1.0, "u_plus": 1.0},
                            "profile": {"n": 501, "X": 10.0}})
    code = run("profile", cfg, out_dir=str(tmp_path))
    assert code == EXIT_ERROR
    err = json.loads((tmp_path / "error.json").read_text())
    assert err["type"] == "NoUnstableDirection"
    assert err["stage"] == "profile"
    _assert_raised_at(err, "relaxdamp.profile", "NoUnstableDirection")
    # a chain names the stage that failed, and where in relaxdamp it was raised
    small = {"profile": {"n": 501, "X": 10.0}, "dynamics": {"T": 0.4, "n_out": 2}}
    too_large = {"perturbation": {"kind": "gaussian", "amplitude": 0.5, "width": 2.0}}
    for given, stage, kind, module in (
            ({**small, "dynamics": {**small["dynamics"], **too_large}}, "evolve",
             "BudgetExceeded", "relaxdamp.dynamics"),
            ({**small, "model": {"eps": 0.05}, "profile": {"n": 4001, "X": 10.0}},
             "verify", "InvalidParam", "relaxdamp.profile")):
        out = tmp_path / stage
        assert run("all", config_from_dict(given), out_dir=str(out)) == EXIT_ERROR
        err = json.loads((out / "error.json").read_text())
        assert (err["kind"], err["stage"], err["type"]) == ("error", stage, kind)
        _assert_raised_at(err, module, kind)


def _assert_raised_at(err, module, kind):
    """``where`` is module:function:line of the raise statement of ``kind``."""
    name, function, line = err["where"].split(":")
    assert name == module
    source = Path(sys.modules[module].__file__).read_text().splitlines()
    raise_line = int(line)
    assert f"raise {kind}(" in source[raise_line - 1]
    defs = [text for text in source[:raise_line] if text.lstrip().startswith("def ")]
    assert defs[-1].lstrip().startswith(f"def {function}(")


def test_evolve_and_verify_stages(tmp_path):
    cfg = config_from_dict(TINY)
    assert run("evolve", cfg, out_dir=str(tmp_path)) == EXIT_OK
    norms = (tmp_path / "norms.csv").read_text().splitlines()
    assert norms[0] == "t,c0,c1,c2,l2,h2,abs_ddelta"
    assert len(norms) == 10  # header + n_out + 1

    assert run("verify", cfg, out_dir=str(tmp_path)) == EXIT_OK
    damping = json.loads((tmp_path / "damping.json").read_text())
    assert damping["certification_failures"] == []
    for kind in ("c0", "c1", "c2", "l2", "h2"):
        assert damping["norm_tables"][kind]["theta_max"] is not None
    for table in [*damping["norm_tables"].values(), *damping["slaving"].values()]:
        assert table["saturated"] is True  # the top rate 0.3 is feasible
    hb = json.loads((tmp_path / "h_bound.json").read_text())
    assert hb["bounded"] is True
    assert (tmp_path / "characteristics.csv").exists()
    assert (tmp_path / "energies.csv").exists()


@pytest.mark.parametrize("perturbation, kinds", [
    (TINY["dynamics"]["perturbation"], dynamics.NORM_KINDS),
    ({"kind": "offset", "d_minus": [1e-3, 0.0], "d_plus": [0.0, 0.0]}, ("c0", "c1", "c2")),
], ids=["gaussian", "offset"])
def test_verify_certifies_every_norm_kind(tmp_path, perturbation, kinds):
    # offset data leaves damping.json's L^2/H^2 tables out, not norms.csv's columns
    dynamics_cfg = {**TINY["dynamics"], "T": 1.0, "n_out": 4, "perturbation": perturbation}
    cfg = config_from_dict({**TINY, "dynamics": dynamics_cfg})
    assert run("all", cfg, out_dir=str(tmp_path)) == EXIT_OK
    damping = json.loads((tmp_path / "damping.json").read_text())
    assert sorted(damping["norm_tables"]) == sorted(kinds)
    header = (tmp_path / "norms.csv").read_text().splitlines()[0]
    assert header == ",".join(["t", *dynamics.NORM_KINDS, "abs_ddelta"])


@pytest.mark.parametrize("key, value", [("K", 1), ("include_l2", False)])
def test_verify_option_that_drops_norm_tables_exits_2(tmp_path, capsys, key, value):
    with pytest.raises(ValidationError) as err:
        config_from_dict({"verify": {key: value}})
    assert err.value.key_path == f"verify.{key}"
    path = write_config(tmp_path, {"verify": {key: value}})
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip() == f"config error: unknown key verify.{key}"
    assert not out.exists()


def test_readme_configuration_block_is_the_default_config():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("\n## Configuration\n", 1)[1]
    block = section.split("```json\n", 1)[1].split("```", 1)[0]
    assert json.loads(block) == config._default_config()


def test_config_sections_are_their_records():
    default = config._default_config()["dynamics"]
    for section, record in (("perturbation", dynamics.PerturbationSpec),
                            ("shift", dynamics.ShiftSpec)):
        assert set(default[section]) == {f.name for f in dataclasses.fields(record)}


@pytest.mark.parametrize("section, own", [
    ({"kind": "gaussian", "amplitude": 0.005, "width": 1.5, "center": 0.5,
      "direction": [0.3, -0.7]},
     dict(kind="gaussian", amplitude=0.005, width=1.5, center=0.5, direction=(0.3, -0.7))),
    ({"kind": "offset", "d_minus": [1e-3, 0.0], "d_plus": [-1e-3, 2e-4], "blend_width": 3.0},
     dict(kind="offset", d_minus=(1e-3, 0.0), d_plus=(-1e-3, 2e-4), blend_width=3.0)),
    ({"kind": "shift_difference", "h": 0.01}, dict(kind="shift_difference", h=0.01)),
], ids=["gaussian", "offset", "shift_difference"])
def test_perturbation_section_samples_as_its_kinds_fields(section, own):
    # the section also carries the other kinds' defaults; sample reads only its own
    cfg = config_from_dict({"profile": {"n": 501, "X": 10.0, "method": "exact"},
                            "dynamics": {"perturbation": section}})
    grid = cfg.profile.grid
    got = cfg.build_perturbation().sample(cfg.profile, grid)
    want = dynamics.PerturbationSpec(**own).sample(cfg.profile, grid)
    for g, w in zip(got, want, strict=True):
        assert g.shape == w.shape and g.tobytes() == w.tobytes()


def test_verify_on_coarser_grid_than_profile(tmp_path):
    # dynamics dx != profile spacing: weights must follow the trajectory grid
    cfg = config_from_dict({
        "dynamics": {"T": 2.0, "n_out": 4, "dx": 0.08,
                     "perturbation": {"kind": "gaussian", "amplitude": 0.01,
                                      "width": 2.0, "direction": [0.0, 1.0]}},
        "profile": {"n": 2001},
        "verify": {"n_paths": 4, "theta_grid": {"start": 0.01, "stop": 0.3,
                                                "num": 8}},
    })
    assert run("verify", cfg, out_dir=str(tmp_path)) == EXIT_OK


def test_verify_empty_feasible_exit_code(tmp_path):
    cfg = config_from_dict({
        "dynamics": {"T": 2.0, "n_out": 4, "dx": 0.08,
                     "perturbation": {"kind": "gaussian", "amplitude": 0.01,
                                      "width": 2.0, "direction": [0.0, 1.0]}},
        "profile": {"n": 2001},
        "verify": {"n_paths": 4, "C_cap": 1e-9,
                   "theta_grid": {"start": 0.01, "stop": 0.3, "num": 8}},
    })
    assert run("verify", cfg, out_dir=str(tmp_path)) == EXIT_CERTIFICATION
    damping = json.loads((tmp_path / "damping.json").read_text())
    assert damping["certification_failures"] == [
        *(f"damping {kind}: no feasible rate under C_cap"
          for kind in ("c0", "c1", "c2", "l2", "h2")),
        "slaving: no feasible slaved rate for psi_tilde, upsilon_tilde",
    ]
    assert damping["norm_tables"]["c0"]["theta_max"] is None
    assert json.loads((tmp_path / "h_bound.json").read_text())["bounded"] is True
    for table in [*damping["norm_tables"].values(), *damping["slaving"].values()]:
        assert table["saturated"] is False


ANTI_DAMPED_CORE = {
    "kind": "custom", "name": "anti-damped-core", "N": 2,
    "A": [[0.0, 1.0], [4.0, 0.0]],
    "q": [0.0, [[1.25, [2, 0]], [0.5, [0, 1]], [-0.75, [0, 0]], [-1.5, [2, 1]]]],
    "U_minus": [1.0, 0.5], "U_plus": [-1.0, 0.5],
}


def test_verify_unbounded_H_exits_3(tmp_path):
    # conftest.anti_damped_core_model: the core's anti-damping outweighs
    # theta_E = 1/8 along the characteristics, so C_emp keeps growing
    cfg = config_from_dict({
        "model": ANTI_DAMPED_CORE,
        "profile": {"X": 20.0, "n": 2001},
        "dynamics": {"T": 4.0, "n_out": 8, "dx": 0.04},
        "verify": {"n_paths": 6, "theta_grid": {"start": 0.01, "stop": 0.3, "num": 8}},
    })
    assert run("verify", cfg, out_dir=str(tmp_path)) == EXIT_CERTIFICATION
    h_bound = json.loads((tmp_path / "h_bound.json").read_text())
    message = ("C_emp grows from 0.6232 to 1.358 across horizons; theta_E = "
               f"{h_bound['theta_E']!r} exceeds the damping the field provides")
    assert h_bound["bounded"] is False
    assert h_bound["theta_E"] == pytest.approx(0.125, abs=1e-12)
    assert h_bound["error"] == message
    # the constants behind the verdict are written on both branches
    assert {"C_emp", "C_emp_overall", "C_emp_half_horizon", "C_theory"} <= set(h_bound)
    assert (f"from {h_bound['C_emp_half_horizon']:.4g} to {h_bound['C_emp_overall']:.4g} "
            in message)
    assert h_bound["C_emp_overall"] == max(h_bound["C_emp"].values())
    damping = json.loads((tmp_path / "damping.json").read_text())
    assert damping["certification_failures"] == [f"H-bound: {message}"]


@pytest.mark.parametrize("which", [0, -1])
def test_verify_nan_H_exits_3(tmp_path, monkeypatch, which):
    # one path's H turns NaN half way: the H-bound must fail, whichever path it is
    accumulate_H = characteristics.accumulate_H

    def nan_tail(paths, traj):
        H = accumulate_H(paths, traj)
        paths.H[:, which] = np.where(paths.times > 0.5 * paths.times[-1], np.nan,
                                     paths.H[:, which])
        return H

    monkeypatch.setattr(characteristics, "accumulate_H", nan_tail)
    assert run("verify", config_from_dict(TINY), out_dir=str(tmp_path)) == EXIT_CERTIFICATION
    n_paths = 2 * TINY["verify"]["n_paths"]
    family = 1 if which == 0 else 2
    message = f"C_emp is not finite on 1 of the {n_paths} paths (family {family})"
    h_bound = json.loads((tmp_path / "h_bound.json").read_text())
    assert h_bound["bounded"] is False and h_bound["error"] == message
    assert np.isnan(h_bound["C_emp_overall"]) and np.isfinite(h_bound["C_emp_half_horizon"])
    damping = json.loads((tmp_path / "damping.json").read_text())
    assert damping["certification_failures"] == [f"H-bound: {message}"]


@pytest.mark.parametrize("which", [0, -1])
def test_nan_weight_reaches_damping_json(tmp_path, monkeypatch, which):
    # a NaN residual or weight of either family is written, in any family order
    weight_fn = dv.weight_fn

    def nan_family(*args, **kwargs):
        weights = weight_fn(*args, **kwargs)
        weights.ode_residual[which] = np.nan
        weights.values[which, 3] = np.nan
        return weights

    monkeypatch.setattr(dv, "weight_fn", nan_family)
    run("verify", config_from_dict(TINY), out_dir=str(tmp_path))
    weights = json.loads((tmp_path / "damping.json").read_text())["weights"]
    assert np.isnan(weights["ode_residual"]) and np.isnan(weights["min_alpha"])


@pytest.mark.parametrize("which", [0, 1])
def test_nan_weighted_energy_exits_3(tmp_path, monkeypatch, which):
    # a NaN weight makes one family's energies NaN: its ratio and the slack
    # constant are NaN, not null and not the other family's finite slack,
    # and the run fails certification naming the family
    weight_fn = dv.weight_fn

    def nan_weight(*args, **kwargs):
        weights = weight_fn(*args, **kwargs)
        weights.values[which, 3] = np.nan
        return weights

    monkeypatch.setattr(dv, "weight_fn", nan_weight)
    assert run("all", config_from_dict(TINY), out_dir=str(tmp_path)) == EXIT_CERTIFICATION
    damping = json.loads((tmp_path / "damping.json").read_text())
    energy = damping["weighted_energy"]
    assert np.isnan(energy["initial"][which]) and np.isnan(energy["final"][which])
    assert np.isnan(energy["ratio"][which]) and np.isfinite(energy["ratio"][1 - which])
    assert np.isnan(energy["slack_constant"])
    assert damping["certification_failures"] == [
        f"weighted energy: non-finite energy for family {which + 1}"]


def test_verify_zero_perturbation_has_no_energy_ratio(tmp_path):
    # every family starts (and stays) at zero energy, and every table is degenerate
    cfg = config_from_dict({
        "dynamics": {"T": 2.0, "n_out": 4, "dx": 0.08, "perturbation": {"kind": "zero"}},
        "profile": {"n": 2001},
        "verify": {"n_paths": 4, "theta_grid": {"start": 0.01, "stop": 0.3, "num": 8}},
    })
    assert run("verify", cfg, out_dir=str(tmp_path)) == EXIT_OK
    damping = json.loads((tmp_path / "damping.json").read_text())
    assert damping["weighted_energy"]["ratio"] == [None, None]
    for table in [*damping["norm_tables"].values(), *damping["slaving"].values()]:
        assert table["degenerate"] is True
        assert "saturated" not in table


def test_all_deterministic(tmp_path):
    cfg = config_from_dict(TINY)
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run("all", cfg, out_dir=str(out1)) == EXIT_OK
    assert run("all", cfg, out_dir=str(out2)) == EXIT_OK
    for name in ("profile.json", "assumptions.json", "damping.json",
                 "h_bound.json"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()
    for name in ("profile.csv", "frames.csv", "norms.csv", "energies.csv",
                 "characteristics.csv", "trajectory.csv", "spectrum.csv"):
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes()


@pytest.fixture
def call_counts(monkeypatch):
    """Count the profile solves, evolutions and damping-rate extractions a run makes."""
    counts = {"solve_profile": 0, "evolve": 0, "damping_rate": 0}
    for name in counts:
        def counted(*args, _name=name, _original=getattr(config, name), **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)
        for module in (config, eigenframe):
            if hasattr(module, name):
                monkeypatch.setattr(module, name, counted)
    return counts


def test_all_solves_profile_and_evolves_once(tmp_path, call_counts):
    cfg = config_from_dict(TINY)
    assert run("all", cfg, out_dir=str(tmp_path / "first")) == EXIT_OK
    assert call_counts == {"solve_profile": 1, "evolve": 1, "damping_rate": 1}
    # a second run on the same Config recomputes instead of sharing results
    assert run("all", cfg, out_dir=str(tmp_path / "second")) == EXIT_OK
    assert call_counts == {"solve_profile": 2, "evolve": 2, "damping_rate": 2}


# The benchmark's shooting-profile Jin-Xin and varA runs, and its reference
# run with a sinusoid shift and dense output, at a shorter horizon.
JINXIN_MOC = {
    "profile": {"X": 40.0, "n": 4001, "method": "shooting"},
    "dynamics": {"backend": "moc", "T": 3.2, "n_out": 8, "dx": 0.02,
                 "shift": {"kind": "zero"}},
}
VARA_MOC = {
    "model": {"kind": "custom", "name": "jinxin-varA", "N": 2,
              "A": [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
              "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
              "U_minus": [1.0, 0.5], "U_plus": [-1.0, 0.5]},
    "profile": {"X": 20.0, "n": 2001, "method": "shooting"},
    "dynamics": {"backend": "moc", "T": 0.6, "n_out": 3, "dx": 0.04,
                 "shift": {"kind": "zero"}},
}

JINXIN_DENSE_REF = {
    "profile": {"X": 40.0, "n": 4001, "method": "shooting"},
    "spectral": {"n_xi": 2000},
    "dynamics": {"backend": "reference", "T": 0.8, "n_out": 10, "dx": 0.02,
                 "shift": {"kind": "sinusoid", "amplitude": 5e-3 / (2.0 * np.pi * 0.05),
                           "frequency": 0.05}},
    "verify": {"n_paths": 20, "theta_grid": {"start": 0.01, "stop": 0.3, "num": 120}},
}


def _all_twice_gives_the_same_bytes(cfg, tmp_path):
    """Run ``all`` twice on cfg and compare all 11 artifacts byte by byte."""
    out1, out2 = tmp_path / "run1", tmp_path / "run2"
    assert run("all", cfg, out_dir=str(out1)) == EXIT_OK
    assert run("all", cfg, out_dir=str(out2)) == EXIT_OK
    names = sorted(path.name for path in out1.iterdir())
    assert len(names) == 11
    assert names == sorted(path.name for path in out2.iterdir())
    for name in names:
        assert (out1 / name).read_bytes() == (out2 / name).read_bytes(), name


def test_reference_backend_with_sinusoid_shift_all_is_deterministic(tmp_path):
    _all_twice_gives_the_same_bytes(config_from_dict(JINXIN_DENSE_REF), tmp_path)


def test_all_builds_one_stepper(tmp_path, monkeypatch):
    built = []
    original = dynamics.Stepper.__init__

    def counted(self, *args, **kwargs):
        built.append(1)
        original(self, *args, **kwargs)

    monkeypatch.setattr(dynamics.Stepper, "__init__", counted)
    assert run("all", config_from_dict(JINXIN_MOC), out_dir=str(tmp_path)) == EXIT_OK
    # evolve's stepper also serves the verify stage's trajectory
    assert len(built) == 1


def test_all_loads_no_scipy(tmp_path):
    configs = []
    for name, payload in (("default", {}), ("varA", VARA_MOC)):
        configs.append((str(write_config(tmp_path, payload, f"{name}.json")),
                        str(tmp_path / name)))
    script = (
        "import sys\n"
        "from relaxdamp import cli, config\n"
        f"for path, out in {configs!r}:\n"
        "    assert cli.run('all', config.parse_config(path), out) == cli.EXIT_OK, path\n"
        "print(sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.')))\n"
    )
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        [src] + [p for p in [os.environ.get("PYTHONPATH")] if p]))
    done = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, timeout=600)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def _count_calls(monkeypatch, name, modules):
    """Count the calls of the function ``name`` made through ``modules``, which
    all hold the same one."""
    calls = []
    original = getattr(modules[0], name)

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    for module in modules:
        monkeypatch.setattr(module, name, counted)
    return calls


def test_all_builds_the_profile_source_once(tmp_path, monkeypatch):
    # the config builds the profile's source; no other module can
    calls = _count_calls(monkeypatch, "transformed_source", [config])
    assert run("all", config_from_dict(TINY), out_dir=str(tmp_path)) == EXIT_OK
    assert len(calls) == 1


def test_check_decomposes_the_profile_once(tmp_path, monkeypatch):
    calls = _count_calls(monkeypatch, "frames_at_states", [eigenframe, config, dynamics])
    assert run("check", config_from_dict(TINY), out_dir=str(tmp_path)) == EXIT_OK
    assert len(calls) == 1  # shared by the hyperbolicity scan and the profile source


def test_each_output_time_is_read_once(tmp_path, monkeypatch):
    fd4 = _count_calls(monkeypatch, "fd4_derivative", [dynamics])
    sources = _count_calls(monkeypatch, "transformed_source", [config, dynamics])
    frames = _count_calls(monkeypatch, "frames_at_states", [eigenframe, config, dynamics])
    n_times = TINY["dynamics"]["n_out"] + 1
    # evolve writes the norms: U_x (the W stack) and U_xx once per output
    # time, and no transformed source
    assert run("evolve", config_from_dict(TINY), out_dir=str(tmp_path / "evolve")) == EXIT_OK
    assert (len(fd4), len(sources), len(frames)) == (2 * n_times, 0, 1)
    for calls in (fd4, sources, frames):
        calls.clear()
    # all adds the source pass: one transformed source per output time, each
    # reading U_xx again, and the profile's source; the constant A is
    # decomposed for the profile and for the Stepper only
    assert run("all", config_from_dict(TINY), out_dir=str(tmp_path / "all")) == EXIT_OK
    assert (len(fd4), len(sources), len(frames)) == (3 * n_times, n_times + 1, 2)


def test_state_dependent_output_frames_come_from_the_evolution(tmp_path, monkeypatch):
    sources = _count_calls(monkeypatch, "transformed_source", [config, dynamics])
    frames = _count_calls(monkeypatch, "frames_at_states", [eigenframe, config, dynamics])
    steps = []
    step = dynamics.Stepper.step

    def counted_step(self, *args, **kwargs):
        steps.append(1)
        return step(self, *args, **kwargs)

    monkeypatch.setattr(dynamics.Stepper, "step", counted_step)
    n_times = VARA["dynamics"]["n_out"] + 1
    # one decomposition per step: the first step after each output time
    # begins from the frames evolve formed there, and no transformed source
    assert run("evolve", config_from_dict(VARA), out_dir=str(tmp_path / "evolve")) == EXIT_OK
    assert len(steps) > n_times
    assert (len(frames), len(sources)) == (len(steps), 0)
    for calls in (steps, sources, frames):
        calls.clear()
    # all adds the profile's frames and the final time's, and one transformed
    # source per output time plus the profile's
    assert run("all", config_from_dict(VARA), out_dir=str(tmp_path / "all")) == EXIT_OK
    assert (len(frames), len(sources)) == (len(steps) + 2, n_times + 1)


def test_verify_alone_runs_its_own_evolution(tmp_path, call_counts):
    assert run("verify", config_from_dict(TINY), out_dir=str(tmp_path)) == EXIT_OK
    assert call_counts == {"solve_profile": 1, "evolve": 1, "damping_rate": 1}


def test_all_matches_separate_stages(tmp_path):
    chained, separate = tmp_path / "all", tmp_path / "separate"
    assert run("all", config_from_dict(TINY), out_dir=str(chained)) == EXIT_OK
    for subcommand in ("profile", "check", "evolve", "verify"):
        assert run(subcommand, config_from_dict(TINY),
                   out_dir=str(separate)) == EXIT_OK
    names = sorted(path.name for path in chained.iterdir())
    assert len(names) == 11
    assert names == sorted(path.name for path in separate.iterdir())
    for name in names:
        assert (chained / name).read_bytes() == (separate / name).read_bytes(), name


VARA = {
    "model": {
        "kind": "custom",
        "name": "jinxin-varA",
        "N": 2,
        "A": [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
        "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
        "U_minus": [1.0, 0.5],
        "U_plus": [-1.0, 0.5],
    },
    "profile": {"X": 20.0, "n": 1001},
    "dynamics": {
        "T": 0.6,
        "n_out": 3,
        "dx": 0.04,
        "perturbation": {"kind": "gaussian", "amplitude": 0.01, "width": 2.0,
                         "center": 0.3},
    },
    "verify": {"n_paths": 4, "theta_grid": {"start": 0.01, "stop": 0.3, "num": 8}},
}


@pytest.mark.parametrize("payload", [TINY, VARA], ids=["tiny", "varA"])
def test_all_traces_every_family_in_one_pass(tmp_path, monkeypatch, payload):
    calls = {"trace_many": [], "accumulate_H": [], "verify_H_bound": []}
    for name in calls:
        def counted(*args, _name=name, _original=getattr(characteristics, name), **kwargs):
            calls[_name].append(args)
            return _original(*args, **kwargs)
        monkeypatch.setattr(characteristics, name, counted)
    assert run("all", config_from_dict(payload), out_dir=str(tmp_path)) == EXIT_OK
    assert [len(args) for args in calls.values()] == [1, 1, 1]
    n_paths = payload["verify"]["n_paths"]
    paths = calls["accumulate_H"][0][0]
    assert paths is calls["verify_H_bound"][0][0]  # one record from tracer to H-bound
    assert paths.family.tolist() == [j for j in (0, 1) for _ in range(n_paths)]
    assert paths.H.shape == (len(paths.times), 2 * n_paths)
    rows = (tmp_path / "characteristics.csv").read_text().splitlines()
    n_sub = config_from_dict(payload).verify_cfg["n_sub"]
    assert len(rows) == 1 + 2 * n_paths * len(paths.times[::n_sub])
    j, x0, s, X, H = rows[-1].split(",")
    assert j == "2" and float(x0) == paths.x0[-1] and float(s) == paths.times[-1]
    assert float(X) == paths.positions[-1, -1] and float(H) == paths.H[-1, -1]


@pytest.mark.parametrize("backend", ["moc", "reference"])
def test_state_dependent_A_all_is_deterministic(tmp_path, backend):
    payload = json.loads(json.dumps(VARA))
    payload["dynamics"]["backend"] = backend
    _all_twice_gives_the_same_bytes(config_from_dict(payload), tmp_path)


def test_custom_model_config(tmp_path):
    # the Jin-Xin system spelled out as polynomial entries
    custom = {
        "model": {
            "kind": "custom",
            "name": "jinxin-by-hand",
            "N": 2,
            "A": [[0.0, 1.0], [4.0, 0.0]],
            "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
            "U_minus": [1.0, 0.5],
            "U_plus": [-1.0, 0.5],
        },
        "profile": {"n": 1001},
    }
    cfg = config_from_dict(custom)
    code = run("profile", cfg, out_dir=str(tmp_path))
    assert code == EXIT_OK
    meta = json.loads((tmp_path / "profile.json").read_text())
    assert meta["decay_fits"]["plus_0"]["rate"] == pytest.approx(0.25, rel=0.02)
    with pytest.raises(ValidationError) as err:
        config_from_dict({"model": {"kind": "custom", "N": 2,
                                    "A": [[0.0]], "q": [0.0, 0.0],
                                    "extra": 1}})
    assert err.value.key_path == "model.extra"


def test_main_exit_codes(tmp_path):
    good = write_config(tmp_path, {"profile": {"n": 501, "X": 10.0}}, "good.json")
    bad = write_config(tmp_path, {"model": {"eps": -1}}, "bad.json")
    assert main(["profile", "--config", str(good),
                 "--out", str(tmp_path / "o1")]) == EXIT_OK
    assert main(["check", "--config", str(bad),
                 "--out", str(tmp_path / "o2")]) == EXIT_CONFIG
    assert main(["check", "--config", str(tmp_path / "missing.json"),
                 "--out", str(tmp_path / "o3")]) == EXIT_CONFIG


_JINXIN_BY_HAND = {"kind": "custom", "N": 2, "A": [[0.0, 1.0], [4.0, 0.0]],
                   "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
                   "U_minus": [1.0, 0.5], "U_plus": [-1.0, 0.5]}
_OFFSET_SECTION = {"kind": "offset", "d_minus": [1e-3, 0.0], "d_plus": [-1e-3, 0.0]}


@pytest.mark.parametrize("payload, key_path", [
    ({"model": {"kind": "jinxin", "flux": [0.0, "x", 0.5]}}, "model.flux"),
    ({"model": {"kind": "jinxin", "flux": [0.0, None, 0.5]}}, "model.flux"),
    ({"model": {**_JINXIN_BY_HAND, "A": [[0.0, 1.0], ["z", 0.0]]}}, "model.A[1][0]"),
    ({"model": {**_JINXIN_BY_HAND, "q": [0.0, [[0.5, [2]]]]}}, "model.q[1]"),
    ({"model": {**_JINXIN_BY_HAND, "U_minus": [1.0]}}, "model.U_minus"),
    ({"dynamics": {"dx": 30.0}}, "dynamics.dx"),  # 4 nodes on [-40, 40]
    ({"dynamics": {"perturbation": {"center": "x"}}}, "dynamics.perturbation.center"),
    ({"dynamics": {"perturbation": {"kind": "shift_difference", "h": "x"}}},
     "dynamics.perturbation.h"),
    ({"dynamics": {"shift": {"kind": "sinusoid", "frequency": None}}},
     "dynamics.shift.frequency"),
    ({"dynamics": {"perturbation": {"blend_width": 0.0}}}, "dynamics.perturbation.blend_width"),
    # every field of the section reaches the record, read by its kind or not
    ({"dynamics": {"perturbation": {**_OFFSET_SECTION, "width": "x", "h": None}}},
     "dynamics.perturbation.width"),
    ({"dynamics": {"perturbation": {**_OFFSET_SECTION, "h": None}}}, "dynamics.perturbation.h"),
    ({"dynamics": {"perturbation": {"kind": "zero", "amplitude": "x"}}},
     "dynamics.perturbation.amplitude"),
    ({"dynamics": {"perturbation": {"d_plus": [1e-3]}}}, "dynamics.perturbation.d_plus"),
    ({"dynamics": {"perturbation": {"kind": "shift_difference", "direction": "x"}}},
     "dynamics.perturbation.direction"),
])
def test_malformed_config_exits_2_at_its_key(tmp_path, capsys, payload, key_path):
    path = write_config(tmp_path, payload)
    assert main(["all", "--config", str(path), "--out", str(tmp_path / "out")]) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip().endswith(f" at {key_path}")


@pytest.mark.parametrize("payload, key_path", [
    ({"dynamics": {"shift": {"kind": "linear", "rate": float("nan")}}}, "dynamics.shift.rate"),
    ({"dynamics": {"T": float("inf")}}, "dynamics.T"),
    ({"model": {"kind": "jinxin", "u_minus": float("inf")}}, "model.u_minus"),
    ({"dynamics": {"perturbation": {"center": float("nan")}}}, "dynamics.perturbation.center"),
    ({"model": {"kind": "jinxin", "a": 10 ** 400}}, "model.a"),
    ({"model": {**_JINXIN_BY_HAND, "U_minus": [float("nan"), 0.5]}}, "model.U_minus"),
    ({"model": {**_JINXIN_BY_HAND, "A": [[0.0, 1.0], [[[-float("inf"), [0, 0]]], 0.0]]}},
     "model.A[1][0]"),
], ids=["nan-rate", "inf-T", "inf-endstate", "nan-center", "huge-int", "nan-vector",
        "inf-coefficient"])
def test_non_finite_number_exits_2_at_its_key(tmp_path, capsys, payload, key_path):
    # Python's json reads NaN, Infinity and integers beyond the float range;
    # each is refused at its key before any stage runs
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip().endswith(f" at {key_path}")
    assert not out.exists()


_DIAGONAL_3 = {"kind": "custom", "N": 3, "A": [[-1.0, 0.0, 0.0], [0.0, 1.0, 0.0],
                                               [0.0, 0.0, 2.0]],
               "q": [0.0, 0.0, 0.0], "U_minus": [0.0] * 3, "U_plus": [0.0] * 3}


@pytest.mark.parametrize("model", [{"kind": "jinxin"}, _JINXIN_BY_HAND, _DIAGONAL_3],
                         ids=["jinxin", "custom2", "custom3"])
@pytest.mark.parametrize("key", ["direction", "d_minus", "d_plus"])
def test_state_vector_of_the_wrong_length_exits_2(tmp_path, capsys, model, key):
    # a perturbation vector must have the model's N entries (2 for jinxin);
    # one of the wrong length is refused at its key, before any stage runs
    n = model.get("N", 2)
    kind = "gaussian" if key == "direction" else "offset"
    right = {"kind": kind, "direction": [1.0] + [0.0] * (n - 1),
             "d_minus": [1e-3] * n, "d_plus": [-1e-3] * n}
    config_from_dict({"model": model, "dynamics": {"perturbation": right}})
    for length in (n - 1, n + 1):
        wrong = {**right, key: [1e-3] * length}
        path = write_config(tmp_path, {"model": model, "dynamics": {"perturbation": wrong}})
        out = tmp_path / f"out{length}"
        assert main(["all", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
        err = capsys.readouterr().err.rstrip()
        assert err.endswith(f"must be a list of {n} numbers at dynamics.perturbation.{key}"
                            if key == "direction" else
                            f"needs {key} as a list of {n} numbers "
                            f"at dynamics.perturbation.{key}")
        assert not out.exists()


_VARA = {"kind": "custom", "name": "jinxin-varA", "N": 2,
         "A": [[0.0, 1.0], [[[4.0, [0, 0]], [0.2, [1, 0]]], 0.0]],
         "q": [0.0, [[0.5, [2, 0]], [-1.0, [0, 1]]]],
         "U_minus": [1.0, 0.5], "U_plus": [-1.0, 0.5]}


@pytest.mark.parametrize("box, message", [
    ([[2.0, 2.0], [-2.0, -1.0]], "state_box needs lo < hi in every component"),
    ([[-2.0, 0.5], [2.0, 0.5]], "state_box needs lo < hi in every component"),
    ([[5.0, 5.0], [6.0, 6.0]], "state_box must contain U_minus"),
    ([[-2.0, 0.0], [0.5, 1.0]], "state_box must contain U_minus"),
    ([[-0.5, 0.0], [2.0, 1.0]], "state_box must contain U_plus"),
], ids=["reversed", "flat", "disjoint", "misses-minus", "misses-plus"])
def test_state_box_that_is_empty_or_misses_an_endstate_exits_2(tmp_path, capsys, box,
                                                               message):
    # a reversed box disarms the shot's divergence guard, and a box away
    # from the endstates takes C_lip on states the run never visits
    path = write_config(tmp_path, {"model": {**_VARA, "state_box": box}})
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip().endswith(f"{message} at model.state_box")
    assert not out.exists()


def test_padded_and_touching_state_boxes_pass():
    # the default padded box, given explicitly, and a box whose faces hold
    # the endstates are both admissible
    from relaxdamp.model import _padded_box

    lo, hi = _padded_box([_VARA["U_minus"], _VARA["U_plus"]])
    for box in ([lo.tolist(), hi.tolist()], [[-1.0, 0.0], [1.0, 1.0]]):
        cfg = config_from_dict({"model": {**_VARA, "state_box": box}})
        assert cfg.model.state_box[0].tolist() == box[0]
    default = config_from_dict({"model": _VARA}).model.state_box
    assert default[0].tolist() == lo.tolist() and default[1].tolist() == hi.tolist()
    jinxin = config_from_dict({}).model
    assert jinxin.in_box(jinxin.U_minus) and jinxin.in_box(jinxin.U_plus)


@pytest.mark.parametrize("payload, key_path", [
    ({"verify": {"C_alpha": 5.0}}, "verify.C_alpha"),
    ({"verify": {"c_alpha": 0.5}}, "verify.c_alpha"),
    ({"model": {**_VARA, "Q": [[0.0, 0.0], [0.0, 0.0]]}}, "model.Q"),
], ids=["C_alpha", "c_alpha", "Q"])
def test_what_the_run_derives_is_not_an_option(tmp_path, capsys, payload, key_path):
    # the weight constants come from the profile's tail fits and Q from q
    with pytest.raises(ValidationError) as err:
        config_from_dict(payload)
    assert err.value.key_path == key_path
    path = write_config(tmp_path, payload)
    out = tmp_path / "out"
    assert main(["all", "--config", str(path), "--out", str(out)]) == EXIT_CONFIG
    assert capsys.readouterr().err.rstrip() == f"config error: unknown key {key_path}"
    assert not out.exists()


def test_csv_floats_have_full_precision(tmp_path):
    cfg = config_from_dict({"profile": {"n": 501, "X": 10.0, "method": "exact"}})
    run("profile", cfg, out_dir=str(tmp_path))
    line = (tmp_path / "profile.csv").read_text().splitlines()[10]
    x, u1 = line.split(",")[:2]
    # 17 significant digits survive the round-trip exactly
    assert float(u1) == -np.tanh(float(x) / 8.0)
    assert len(u1.replace("-", "").replace(".", "").lstrip("0")) >= 16


def _fmt(value) -> str:
    """One value as a CSV column writes it: %d for an integer, %.17g for a
    float, %s for anything else."""
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        return f"{float(value):.17g}"
    return str(value)


def test_csv_float_table_matches_value_by_value_formatting(tmp_path):
    rng = np.random.default_rng(8)
    # two whole blocks and a partial one
    shape = (2 * (cli.CSV_BLOCK // 4) + 5, 4)
    table = rng.standard_normal(shape) * 10.0 ** rng.integers(-300, 300, shape)
    table[0] = [0.0, -0.0, np.inf, np.nan]
    table[1] = [1.0, -3.0, 1e17, 5e-324]
    write_csv(tmp_path / "fast.csv", ["a", "b", "c", "d"], [*table.T])
    want = "a,b,c,d\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in table)
    assert (tmp_path / "fast.csv").read_text() == want


def test_csv_mixed_columns_match_value_by_value_formatting(tmp_path):
    rng = np.random.default_rng(9)
    floats = [0.0, -0.0, np.inf, -np.inf, np.nan, 1e17, 5e-324, 0.1,
              *(rng.standard_normal(60) * 10.0 ** rng.integers(-300, 300, 60))]
    rows = [("minus" if k % 2 else "plus", x, k, np.float64(-x), np.int64(-k))
            for k, x in enumerate(floats)]
    write_csv(tmp_path / "t.csv", ["s", "x", "k", "y", "m"],
              [np.array(column) for column in zip(*rows)])
    want = "s,x,k,y,m\n" + "".join(",".join(_fmt(v) for v in row) + "\n" for row in rows)
    assert (tmp_path / "t.csv").read_text() == want


def test_csv_text_columns_take_any_width(tmp_path):
    # str cells longer than a float cell, non-ASCII text, and 64-bit integers
    words = np.array(["", "a b", "ü" * 30, "x" * 40])
    ints = np.array([0, -1, 2 ** 63 - 1, -2 ** 63])
    write_csv(tmp_path / "t.csv", ["w", "i", "f"], [words, ints, np.full(4, 0.5)])
    want = "w,i,f\n" + "".join(f"{w},{i},0.5\n" for w, i in zip(words.tolist(), ints.tolist()))
    assert (tmp_path / "t.csv").read_text(encoding="utf-8") == want


def test_csv_refuses_a_column_that_is_not_float_integer_or_str(tmp_path):
    with pytest.raises(TypeError, match="complex128"):
        write_csv(tmp_path / "t.csv", ["z"], [np.array([1j])])
    assert not list(tmp_path.iterdir())


def test_failed_write_leaves_no_temporary_file(tmp_path, monkeypatch):
    # a write that raises midway or at the rename: the artifact keeps its old bytes
    path = tmp_path / "norms.csv"
    path.write_bytes(b"old\n")

    def write_then_fail(self, data):
        Path.write_text(self, "partial")
        raise OSError("disk full")

    with monkeypatch.context() as patch:
        patch.setattr(Path, "write_bytes", write_then_fail)
        with pytest.raises(OSError, match="disk full"):
            write_csv(path, ["t"], [np.arange(3.0)])
    with monkeypatch.context() as patch:
        patch.setattr(os, "replace", mock.Mock(side_effect=OSError("rename failed")))
        with pytest.raises(OSError, match="rename failed"):
            cli.write_json(path, {"a": 1})
    assert [p.name for p in tmp_path.iterdir()] == ["norms.csv"]
    assert path.read_bytes() == b"old\n"


_CSV_FLOATS = st.one_of(st.sampled_from([0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1e17]),
                       st.floats())


def _rows_one_by_one(header, rows, template):
    return "\n".join([",".join(header), *(template % tuple(row) for row in rows)]) + "\n"


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(data=st.data(), block=st.sampled_from([1, 3, 8, cli.CSV_BLOCK]))
def test_csv_blocks_match_per_row_formatting(tmp_path_factory, data, block):
    # 0 rows, whole blocks and a partial last block, for float tables and
    # for str, float and integer columns, against Python's % row by row
    path = tmp_path_factory.mktemp("csv") / "t.csv"
    n_rows = data.draw(st.integers(0, 3 * block + 2) if block < 10 else st.integers(0, 20))
    table = data.draw(arrays(np.float64, (n_rows, data.draw(st.integers(1, 4))),
                             elements=_CSV_FLOATS))
    header = [f"c{k}" for k in range(table.shape[1])]
    rows = [(data.draw(st.sampled_from(["minus", "plus", "a b"])), x, k, np.int64(-k))
            for k, x in enumerate(data.draw(st.lists(_CSV_FLOATS, max_size=n_rows)))]
    columns = [np.array([row[c] for row in rows], dtype=dtype)
               for c, dtype in enumerate([str, np.float64, np.int64, np.int64])]
    with mock.patch.object(cli, "CSV_BLOCK", block):
        write_csv(path, header, [*table.T])
        assert path.read_text() == _rows_one_by_one(
            header, table.tolist(), ",".join(["%.17g"] * table.shape[1]))
        write_csv(path, ["s", "x", "k", "m"], columns)
        assert path.read_text() == _rows_one_by_one(["s", "x", "k", "m"], rows,
                                                    "%s,%.17g,%d,%d")


def _jsonable_by_leaf(obj):
    """The recursive conversion, one Python conversion per leaf."""
    if isinstance(obj, dict):
        return {str(k): _jsonable_by_leaf(v) for k, v in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_jsonable_by_leaf(v) for v in obj]
    if isinstance(obj, np.ndarray):
        return [_jsonable_by_leaf(v) for v in obj.tolist()]
    if isinstance(obj, (np.bool_, bool)):
        return bool(obj)
    if isinstance(obj, (np.integer, int)):
        return int(obj)
    if isinstance(obj, (np.floating, float)):
        return float(obj)
    return obj


_shapes = st.tuples(st.integers(0, 4)) | st.tuples(st.integers(0, 3), st.integers(0, 3))
_json_leaves = st.one_of(
    arrays(np.float64, _shapes, elements=_CSV_FLOATS),
    arrays(np.float32, _shapes, elements=st.floats(width=32)),
    arrays(np.bool_, _shapes), arrays(np.int64, _shapes), arrays(np.uint8, _shapes),
    arrays(np.object_, _shapes, elements=st.sampled_from(
        [None, "s", 1.5, True, np.int64(3), np.bool_(False), np.float64(-0.0)])),
    st.floats(), st.booleans(), st.integers(-10, 10), st.none(), st.text(max_size=3),
    st.builds(np.float64, st.floats()), st.builds(np.bool_, st.booleans()),
    st.builds(np.int64, st.integers(-10, 10)))


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(st.recursive(_json_leaves, lambda inner: st.lists(inner, max_size=3)
                    | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=12))
def test_jsonable_matches_leaf_by_leaf_conversion(obj):
    # write_json's indent=2 takes json's Python encoder, no indent its C encoder
    for indent in (None, 2):
        got = json.dumps(obj, default=cli._json_default, sort_keys=True, indent=indent)
        assert got == json.dumps(_jsonable_by_leaf(obj), sort_keys=True, indent=indent)


def test_spectrum_csv_rows_match_value_by_value_formatting(tmp_path, monkeypatch):
    from relaxdamp import spectral_stability

    certs = []
    certify = spectral_stability.dissipativity_certificate

    def spy(*args, **kwargs):
        certs.append(certify(*args, **kwargs))
        return certs[-1]

    monkeypatch.setattr(spectral_stability, "dissipativity_certificate", spy)
    assert run("check", config_from_dict({"profile": {"n": 501, "X": 10.0}}),
               out_dir=str(tmp_path)) == EXIT_OK
    lines = ["side,xi,j,re_mu,im_mu"]
    for side in ("minus", "plus"):
        scan = certs[0].scans[side]
        for m, xi in enumerate(scan.xi_grid):
            for j, mu in enumerate(scan.spectra[m]):
                lines.append(",".join(_fmt(v) for v in (side, xi, j + 1, mu.real, mu.imag)))
    assert (tmp_path / "spectrum.csv").read_text() == "\n".join(lines) + "\n"


def test_non_dissipative_verify_still_exits_3(tmp_path, call_counts):
    # NotDissipative is not cached on the Config: check records it, verify raises it
    cfg = config_from_dict({
        "model": {"a": 0.5}, "profile": {"n": 1001},
        "dynamics": {**TINY["dynamics"], "T": 0.4, "n_out": 2},
        "verify": TINY["verify"]})
    assert run("all", cfg, out_dir=str(tmp_path)) == EXIT_CERTIFICATION
    assert call_counts == {"solve_profile": 1, "evolve": 1, "damping_rate": 2}
    check = json.loads((tmp_path / "assumptions.json").read_text())
    assert check["theta_E"] is None and "not_dissipative" in check
    assert json.loads((tmp_path / "error.json").read_text())["type"] == "NotDissipative"
