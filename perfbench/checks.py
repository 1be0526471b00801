"""Correctness gate applied to the artifacts of every benchmark chain.

A chain passes when every stage exits 0, ``assumptions.json`` is certified,
``damping.json`` lists no certification failures, the key science values
match ``reference.json``, and the sha256 of the science artifacts equals
that of the first chain run on the same config.

θ_max, ``C_emp_overall`` and the profile residual do not depend on the seed
and are pinned as value ± tolerance.  The weighted-energy ratio depends on
the perturbation's centre and amplitude, so the reference tabulates it on a
grid and interpolates: cubic in the centre, and quadratic in 1/amplitude,
which is exact for linear dynamics, where the final energy is a quadratic in
the amplitude with the forcing held fixed.
"""

from __future__ import annotations

import bisect
import hashlib
import json
from pathlib import Path

REFERENCE_FILE = Path(__file__).with_name("reference.json")
RATIO = "weighted_energy_ratio"


def science_digest(out: Path) -> str:
    """sha256 over the names and bytes of every artifact the chain wrote."""
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        if path.name == "error.json":
            continue
        digest.update(path.name.encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def science_values(out: Path) -> dict[str, float]:
    """The values the reference pins, under flat names."""
    damping = json.loads((out / "damping.json").read_text())
    h_bound = json.loads((out / "h_bound.json").read_text())
    profile = json.loads((out / "profile.json").read_text())
    values = {f"theta_max.{k}": t["theta_max"]
              for k, t in damping["norm_tables"].items()}
    values.update({f"slaving.theta_max.{k}": t["theta_max"]
                   for k, t in damping["slaving"].items()})
    values["C_emp_overall"] = h_bound.get("C_emp_overall")
    values["profile_residual"] = profile["residual"]
    for j, ratio in enumerate(damping["weighted_energy"]["ratio"], start=1):
        values[f"{RATIO}.{j}"] = ratio
    return values


def load_reference(workload: str) -> dict:
    return json.loads(REFERENCE_FILE.read_text())[workload]


def _lagrange(xs, ys, x: float) -> float:
    total = 0.0
    for i, (xi, yi) in enumerate(zip(xs, ys)):
        weight = 1.0
        for j, xj in enumerate(xs):
            if j != i:
                weight *= (x - xj) / (xi - xj)
        total += weight * yi
    return total


def expected_ratios(table: dict, center: float, amplitude: float) -> list[float]:
    """Interpolate the tabulated weighted-energy ratios at one perturbation."""
    centers = table["centers"]
    first = min(max(bisect.bisect(centers, center) - 2, 0), len(centers) - 4)
    near = range(first, first + 4)
    inverse = [1.0 / a for a in table["amplitudes"]]
    out = []
    for j in range(len(table["values"][0][0])):
        at_centers = [_lagrange(inverse, [row[j] for row in table["values"][i]],
                                1.0 / amplitude) for i in near]
        out.append(_lagrange([centers[i] for i in near], at_centers, center))
    return out


def expected_values(reference: dict, perturbation: dict) -> dict[str, dict]:
    """Reference value and absolute tolerance per science value."""
    expected = dict(reference["fixed"])
    table = reference[RATIO]
    ratios = expected_ratios(table, perturbation["center"], perturbation["amplitude"])
    for j, value in enumerate(ratios, start=1):
        expected[f"{RATIO}.{j}"] = {"value": value,
                                    "tol": table["rel_tol"] * abs(value)}
    return expected


def problems(out: Path, codes: list[int], expected: dict[str, dict]) -> list[str]:
    """Every reason the chain's artifacts fail the gate; empty when it passes."""
    found = [f"stage {i} exited {code}" for i, code in enumerate(codes) if code != 0]
    if found:
        return found
    if not json.loads((out / "assumptions.json").read_text())["certified"]:
        found.append("assumptions.json is not certified")
    failures = json.loads((out / "damping.json").read_text())["certification_failures"]
    if failures:
        found.append(f"certification failures: {failures}")
    values = science_values(out)
    for key, ref in sorted(expected.items()):
        got = values.get(key)
        if got is None or abs(got - ref["value"]) > ref["tol"]:
            found.append(f"{key} = {got}, reference {ref['value']} +- {ref['tol']}")
    extra = sorted(set(values) - set(expected))
    if extra:
        found.append(f"values without a reference: {', '.join(extra)}")
    return found
