"""Configuration-driven pipeline runner.

Subcommands chain the verification stages and write their artifacts as
key-sorted JSON and CSV, atomically (temp file + rename; a failed write
removes the temp file), so identical configs reproduce byte-identical
reports.  A CSV cell has the bytes of Python's ``%``: ``%.17g`` for a
float, ``%d`` for an integer, ``%s`` for a str.  ``g17.cells`` forms the
float cells of a block of rows in one numpy pass.

Exit codes: 0 success, 1 module error (serialized to error.json), 2 config
error, 3 assumptions or damping estimates failed certification.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import characteristics as chars
from . import damping_verifier as dv
from . import dynamics as dyn
from . import eigenframe as ef
from . import g17
from . import spectral_stability as spec
from .config import Config, parse_config
from .errors import CertificationError, ConfigError, NotDissipative, RelaxDampError
from .model import validate_model
from .profile import residual

EXIT_OK = 0
EXIT_ERROR = 1
EXIT_CONFIG = 2
EXIT_CERTIFICATION = 3

# float cells per block of CSV rows: the formatting temporaries of a block
# (about 400 bytes a cell) stay under 1 MB
CSV_BLOCK = 2048


# --- artifact writers -------------------------------------------------------

def _atomic_write(path: Path, data: bytes) -> None:
    """Write ``data`` to a temporary file next to ``path`` and rename it onto
    ``path``; on failure the temporary file is removed and ``path`` keeps
    what it held."""
    tmp = path.with_name(path.name + f".tmp-{os.getpid()}")
    try:
        tmp.write_bytes(data)
        os.replace(tmp, path)
    except BaseException:
        tmp.unlink(missing_ok=True)
        raise


def _text_cells(column: np.ndarray) -> np.ndarray:
    """The ``%d`` cells of an integer column or the ``%s`` cells of a str
    column as NUL-padded byte rows, (rows, width); each distinct value is
    formatted once."""
    spec = {"i": "%d", "u": "%d", "U": "%s"}.get(column.dtype.kind)
    if spec is None:
        raise TypeError(f"a CSV column is float, integer or str, not {column.dtype}")
    values, inverse = np.unique(column, return_inverse=True)
    text = np.array([(spec % value).encode() for value in values.tolist()], dtype=np.bytes_)
    text = text[inverse]
    return text.view(np.uint8).reshape(len(text), text.dtype.itemsize)


def write_csv(path: Path, header: list[str], columns) -> None:
    """Write ``columns``, one 1-D array per name of ``header``, as CSV rows:
    float cells as ``%.17g``, integer cells as ``%d`` and str cells as
    ``%s``, each with the bytes of Python's ``%``.

    Rows go in blocks of about ``CSV_BLOCK`` float cells, and one
    ``g17.cells`` call formats every float cell of a block.  Each cell is a
    NUL-padded byte row whose last byte becomes its separator (``,``, or a
    newline after the last column), and one compress of the padding gives
    the block's text.
    """
    columns = [np.asarray(column) for column in columns]
    floats = [j for j, column in enumerate(columns) if column.dtype.kind == "f"]
    texts = {j: _text_cells(column) for j, column in enumerate(columns) if j not in floats}
    width = max([g17.WIDTH, *(text.shape[1] + 1 for text in texts.values())])
    separators = np.full(len(columns), ord(","), dtype=np.uint8)
    separators[-1] = ord("\n")
    step = max(1, CSV_BLOCK // max(len(floats), 1))
    parts = [(",".join(header) + "\n").encode()]
    for start in range(0, len(columns[0]), step):
        rows = slice(start, start + step)
        cells = g17.cells(np.stack([columns[j][rows] for j in floats], axis=1)) if floats else None
        block = cells
        if texts:
            block = np.zeros((len(columns[0][rows]), len(columns), width), dtype=np.uint8)
            if floats:
                block[:, floats, :g17.WIDTH] = cells
            for j, text in texts.items():
                block[:, j, :text.shape[1]] = text[rows]
        block[:, :, -1] = separators
        parts.append(block[block != 0].tobytes())
    _atomic_write(path, b"".join(parts))


def _json_default(obj):
    """Python values of the numpy arrays and scalars that ``json`` does not
    encode itself (an np.float64 is a float, and needs none)."""
    if isinstance(obj, (np.ndarray, np.generic)):
        return obj.tolist()
    raise TypeError(f"{type(obj).__name__} is not JSON serializable")


def write_json(path: Path, payload: dict) -> None:
    text = json.dumps(payload, default=_json_default, sort_keys=True, indent=2)
    _atomic_write(path, (text + "\n").encode())


# --- pipeline stages --------------------------------------------------------

def stage_profile(cfg: Config, out: Path) -> int:
    model, prof = cfg.model, cfg.profile
    N = model.N
    header = ["x"] + [f"U_{k+1}" for k in range(N)] + [f"dU_{k+1}" for k in range(N)]
    write_csv(out / "profile.csv", header, [prof.grid, *prof.values.T, *prof.d1.T])
    write_json(out / "profile.json", {
        "endstates": {"U_minus": model.U_minus, "U_plus": model.U_plus},
        "endstate_gap": prof.endstate_gap,
        "residual": residual(prof, model),
        "decay_fits": {
            f"{side}_{k}": {
                "amplitude": fit.amplitude,
                "rate": fit.rate,
                "envelope_factor": fit.envelope_factor,
                "is_lower_bound": fit.is_lower_bound,
            }
            for (side, k), fit in sorted(prof.decay_fits.items())
        },
    })
    return EXIT_OK


def stage_check(cfg: Config, out: Path) -> int:
    model, prof = cfg.model, cfg.profile
    sc = cfg.raw["spectral"]

    report = validate_model(model, n_samples=100, seed=cfg.raw["seed"])
    assumptions: dict = {
        "model_validation": {
            "max_rel_jacobian_error": report.max_rel_jacobian_error,
            "n_samples": report.n_samples,
        },
    }

    res = residual(prof, model)
    fits = {f"{side}_{k}": prof.decay_fits[(side, k)]
            for side in ("minus", "plus") for k in range(3)}
    rates = {name: fit.rate for name, fit in fits.items()}
    tail_bound = max(fit.amplitude * np.exp(-fit.rate * prof.half_width)
                     for fit in (fits["minus_0"], fits["plus_0"]))
    a1_ok = (res <= 1e-8 * (1.0 + float(np.max(np.abs(prof.values))))
             and all(fit.rate > 0 and not fit.is_lower_bound for fit in fits.values())
             and prof.endstate_gap <= max(1e-6, 2.0 * tail_bound))
    assumptions["assumption1_profile"] = {
        "residual": res,
        "endstate_gap": prof.endstate_gap,
        "decay_rates": rates,
        "certified": bool(a1_ok),
    }

    hyp = spec.hyperbolicity_scan(cfg.profile_frames, c_min=sc["c_min"])
    assumptions["assumption2_hyperbolicity"] = {
        "min_abs_lambda": hyp.min_abs_lambda,
        "min_gap": hyp.min_gap,
        "c_min": hyp.c_min,
        "certified": bool(hyp.passed),
    }

    cert = spec.dissipativity_certificate(model, xi_max=sc["xi_max"],
                                          n_xi=sc["n_xi"],
                                          margin=sc["margin"],
                                          xi_min=sc["xi_min"])
    a3: dict = {
        "certificate": {
            "passed": cert.passed,
            "margin": cert.margin,
            "threshold_C": cert.threshold,
            "achieved_c": cert.achieved,
            "witness_xi": cert.witness_xi,
            "witness_re": cert.witness_re,
            "witness_side": cert.witness_side,
        },
    }
    try:
        dr = cfg.damping
        theta_payload = {
            "theta_E": dr.theta_E,
            "theta_E_signed": dr.theta_E_signed,
            "E_minus": dr.E_minus,
            "E_plus": dr.E_plus,
        }
        xi_base = 10.0 * float(np.max(np.abs(ef.endstate_diagonals(model)[0])))
        expansions = {
            side: spec.expansion_check(model, side,
                                       [xi_base, 2 * xi_base, 4 * xi_base, 8 * xi_base])
            for side in ("minus", "plus")
        }
        a3["expansion"] = {
            side: {"remainder_constant": e.remainder_constant,
                   "E_diag": e.E_diag}
            for side, e in expansions.items()
        }
        dissipative = True
    except NotDissipative as exc:
        theta_payload = {"theta_E": None, "not_dissipative": str(exc)}
        dissipative = False
    a3["certified"] = bool(cert.passed and dissipative)
    assumptions["assumption3_dissipativity"] = a3
    assumptions.update(theta_payload)
    all_ok = a1_ok and hyp.passed and a3["certified"]
    assumptions["certified"] = bool(all_ok)

    sf = cfg.profile_source
    N = model.N
    header = (["x"] + [f"lambda_{j+1}" for j in range(N)]
              + [f"E_{j+1}{j+1}" for j in range(N)] + ["normF", "normTheta"])
    write_csv(out / "frames.csv", header, [
        prof.grid, *sf.frames.lambdas.T, *sf.E_diag.T,
        np.max(np.abs(sf.F_tilde), axis=(1, 2)), np.max(np.abs(sf.Theta), axis=(1, 2))])

    scans = [cert.scans[side] for side in ("minus", "plus")]
    mu = np.concatenate([scan.spectra.ravel() for scan in scans])
    write_csv(out / "spectrum.csv", ["side", "xi", "j", "re_mu", "im_mu"], [
        np.repeat(["minus", "plus"], [scan.spectra.size for scan in scans]),
        np.concatenate([np.repeat(scan.xi_grid, N) for scan in scans]),
        np.tile(np.arange(1, N + 1), len(mu) // N), mu.real, mu.imag])
    write_json(out / "assumptions.json", assumptions)
    return EXIT_OK if all_ok else EXIT_CERTIFICATION


def _write_trajectory(cfg: Config, traj: dyn.Trajectory, out: Path) -> None:
    dc = cfg.raw["dynamics"]
    sx, st = dc["trajectory_stride_x"], dc["trajectory_stride_t"]
    N = traj.model.N
    header = (["t", "x"] + [f"U_{k+1}" for k in range(N)]
              + [f"Phi_{k+1}" for k in range(N)] + [f"Psi_{k+1}" for k in range(N)])
    x = traj.grid[::sx]
    blocks = []
    for i in range(0, traj.n_times, st):
        U = traj.states[i]
        Phi, Psi = (traj.frames[i].to_diag(F) for F in (U, traj.W[i]))
        blocks.append(np.column_stack([np.full(len(x), traj.times[i]), x, U[::sx],
                                       Phi[::sx], Psi[::sx]]))
    write_csv(out / "trajectory.csv", header, [*np.vstack(blocks).T])

    write_csv(out / "norms.csv", ["t", *dyn.NORM_KINDS, "abs_ddelta"], [
        traj.times, *(dv.norm_series(traj, k) for k in dyn.NORM_KINDS),
        np.abs(traj.shift.delta_dot(traj.times))])


def stage_evolve(cfg: Config, out: Path) -> int:
    _write_trajectory(cfg, cfg.trajectory, out)
    return EXIT_OK


def stage_verify(cfg: Config, out: Path) -> int:
    model, prof, traj = cfg.model, cfg.profile, cfg.trajectory
    vc = cfg.raw["verify"]
    theta_grid = cfg.theta_grid()
    dr = cfg.damping
    shift = traj.shift

    radius = chars.no_damping_radius(model, prof, eps_budget=traj.budget,
                                     theta_E=dr.theta_E, source=cfg.profile_source)
    span = max(2.0 * radius.R, 10.0)
    starts = np.linspace(-span, span, vc["n_paths"])
    paths = chars.trace_many(traj, range(model.N), starts, n_sub=vc["n_sub"])
    chars.accumulate_H(paths, traj)

    hb = chars.verify_H_bound(
        paths, dr.theta_E, source=cfg.profile_source,
        eps_delta=shift.eps_delta, compare_horizon=float(traj.times[-1]) / 2.0,
        growth_tol=vc["growth_tol"])
    hb_payload = {
        "theta_E": dr.theta_E,
        "C_emp": {str(j): v for j, v in hb.C_emp.items()},
        "C_emp_overall": hb.C_emp_overall,
        "C_emp_half_horizon": hb.C_emp_half,
        "C_theory": {str(j): v for j, v in hb.C_theory.items()},
        "bounded": hb.unbounded is None,
    }
    if hb.unbounded is not None:
        hb_payload["error"] = hb.unbounded

    c_nonchar = traj.frames[0].min_abs_lambda
    exit_bound = 2.0 * radius.R / max(c_nonchar - shift.eps_delta, 1e-12)
    hb_payload.update({
        "no_damping_radius": {
            "R": radius.R, "C_tail": radius.C_tail,
            "theta_tilde": radius.theta_tilde, "C_lip": radius.C_lip,
            "eps_budget": radius.eps_budget,
        },
        "exit_time_bound": exit_bound,
        "damping_scan_beyond_R": chars.scan_trajectory_damping(traj, radius.R),
    })
    write_json(out / "h_bound.json", hb_payload)

    out_rows = slice(None, None, vc["n_sub"])  # the samples at output times
    n_out, n_paths = paths.positions[out_rows].shape
    write_csv(out / "characteristics.csv", ["j", "x0", "s", "X", "H"], [
        np.repeat(paths.family + 1.0, n_out), np.repeat(paths.x0, n_out),
        np.tile(paths.times[out_rows], n_paths), paths.positions[out_rows].T.ravel(),
        paths.H[out_rows].T.ravel()])

    # the L^2/H^2 estimate is for localised data: offset data certifies C^K_b only
    localised = traj.perturbation.kind != "offset"
    kinds = [kind for kind in dyn.NORM_KINDS if localised or kind.startswith("c")]
    tables = {kind: dv.fit_damping(traj, kind, theta_grid, C_cap=vc["C_cap"])
              for kind in kinds}
    slaving = dv.slaving_check(traj, theta_grid, C_cap=vc["C_cap"])
    certification_failures = [] if hb.unbounded is None else [f"H-bound: {hb.unbounded}"]
    certification_failures += [f"damping {kind}: no feasible rate under C_cap"
                               for kind, tab in tables.items() if tab.theta_max is None]
    unslaved = [label for label, tab in slaving.items() if tab.theta_max is None]
    if unslaved:
        certification_failures.append(
            f"slaving: no feasible slaved rate for {', '.join(unslaved)}")

    Ca, ca = dv.default_weight_constants(prof)
    weights = dv.weight_fn(model, prof, Ca, ca, grid=traj.grid)
    energies = dv.weighted_energy_series(traj, weights, dr.theta_E)
    certification_failures += [f"weighted energy: non-finite energy for family {j + 1}"
                               for j in np.flatnonzero(~np.isfinite(energies.energies).all(0))]

    def table_payload(tab):
        payload = {
            "theta_grid": tab.theta_grid,
            "C_min": tab.C_min,
            "C_cap": tab.C_cap,
            "degenerate": tab.degenerate,
            "feasible": tab.feasible,
            "theta_max": tab.theta_max,
        }
        if not tab.degenerate:
            payload["saturated"] = tab.saturated
        return payload

    write_json(out / "damping.json", {
        "norm_tables": {k: table_payload(t) for k, t in tables.items()},
        "slaving": {k: table_payload(t) for k, t in slaving.items()},
        "weights": {
            "C_alpha": Ca, "c_alpha": ca,
            "ode_residual": np.max(weights.ode_residual),
            "min_alpha": np.min(weights.values),
        },
        "weighted_energy": {
            "initial": energies.energies[0],
            "final": energies.energies[-1],
            "ratio": energies.ratio,
            "target_ratio": float(np.exp(-dr.theta_E * traj.times[-1])),
            "slack_constant": energies.slack_constant,
        },
        "certification_failures": certification_failures,
    })

    write_csv(out / "energies.csv",
              ["t"] + [f"e_{j+1}" for j in range(model.N)]
              + [f"de_{j+1}" for j in range(model.N)],
              [energies.times, *energies.energies.T, *energies.rates.T])

    return EXIT_CERTIFICATION if certification_failures else EXIT_OK


# (error.json kind, exception class, exit code), matched in this order
_ERROR_KINDS = (("config", ConfigError, EXIT_CONFIG),
                ("certification", CertificationError, EXIT_CERTIFICATION),
                ("error", RelaxDampError, EXIT_ERROR),
                ("crash", Exception, EXIT_ERROR))


def _raised_at(exc: BaseException) -> str:
    """``module:function:line`` of the innermost relaxdamp frame that ``exc``
    passed through, where it was raised or, from a library, called."""
    where = ""
    tb = exc.__traceback__
    while tb is not None:
        module = tb.tb_frame.f_globals.get("__name__", "")
        if module.split(".")[0] == "relaxdamp":
            where = f"{module}:{tb.tb_frame.f_code.co_name}:{tb.tb_lineno}"
        tb = tb.tb_next
    return where


STAGES = {
    "profile": [stage_profile],
    "check": [stage_check],
    "evolve": [stage_evolve],
    "verify": [stage_verify],
    "all": [stage_profile, stage_check, stage_evolve, stage_verify],
}


def run(subcommand: str, cfg: Config, out_dir: str | None = None) -> int:
    """Execute one subcommand; returns the process exit code.

    The stages share results computed on a fresh copy of ``cfg``, so no two
    calls share them.  An exception goes to ``error.json`` with its kind,
    the stage it left (profile, check, evolve or verify), where in relaxdamp
    it was raised (``_raised_at``), type and message.
    """
    cfg = dataclasses.replace(cfg)
    out = Path(out_dir if out_dir is not None else cfg.raw["output_dir"])
    out.mkdir(parents=True, exist_ok=True)
    code, name = EXIT_OK, None
    try:
        for stage in STAGES[subcommand]:
            name = stage.__name__.removeprefix("stage_")
            stage_code = stage(cfg, out)
            code = max(code, stage_code)
            if stage_code not in (EXIT_OK, EXIT_CERTIFICATION):
                break
    except Exception as exc:  # noqa: BLE001 - serialized for CI triage
        kind, exit_code = next((kind, code) for kind, cls, code in _ERROR_KINDS
                               if isinstance(exc, cls))
        write_json(out / "error.json", {"kind": kind, "stage": name, "where": _raised_at(exc),
                                        "type": type(exc).__name__, "message": str(exc)})
        return exit_code
    return code


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="relaxdamp",
        description="Verification pipeline for relaxation shock profile damping estimates",
    )
    parser.add_argument("subcommand", choices=sorted(STAGES))
    parser.add_argument("--config", required=True, help="path to the JSON config")
    parser.add_argument("--out", default=None, help="output directory override")
    args = parser.parse_args(argv)
    try:
        cfg = parse_config(args.config)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    return run(args.subcommand, cfg, args.out)


if __name__ == "__main__":
    sys.exit(main())
