"""Compare the artifacts of two relaxdamp output directories.

    python tests/artifacts.py OLD_DIR NEW_DIR

Every file of either directory is compared.  For each CSV column and each
JSON leaf (list entries grouped under their key path) the report gives the
largest absolute and the largest relative deviation and the row or list
index where each occurs.  The verdict fields (``VERDICT_KEYS``, at any depth
of a JSON file) must match exactly; any difference there is listed apart.
A digest of each directory, sha256 over every file's name and bytes, shows
byte identity at a glance.  Exits 0 when the two directories are byte
identical, else 1; a reader that closes the pipe early (``| head``) ends it
quietly with 1.

    python tests/artifacts.py --golden

rewrites every digest under ``tests/golden/`` from a fresh ``run("all")``
of the config next to it (``<name>.config.json`` -> ``<name>.digest.json``).
A digest (``digest_artifacts``) holds the exit code, every JSON leaf, and per
CSV column its max |.|, the row of that max and the l2 norm; ``compare_digests``
checks a fresh digest against a committed one.

    PYTHONPATH=<checkout>/src python tests/artifacts.py --run OUT_DIR

runs every ``tests/golden`` config through ``run("all")`` into
``OUT_DIR/<name>`` with the relaxdamp on the path, so two checkouts are
compared by one ``--run`` from each and this script on each pair of
``<name>`` directories.  Exits with the largest exit code of the runs.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import sys
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

VERDICT_KEYS = ("certified", "certification_failures", "bounded", "theta_max", "saturated")
GOLDEN = Path(__file__).resolve().parent / "golden"


@dataclass
class FieldDeviation:
    """Worst deviations of one CSV column or JSON key path of one file; ``*_at``
    is the CSV data row (from 0) or the JSON list index, None for a scalar."""

    file: str
    field: str
    max_abs: float = 0.0
    abs_at: str | None = None
    max_rel: float = 0.0
    rel_at: str | None = None

    def add(self, a, b, at: str | None) -> None:
        dev_abs, dev_rel = _deviation(a, b)
        if dev_abs > self.max_abs:
            self.max_abs, self.abs_at = dev_abs, at
        if dev_rel > self.max_rel:
            self.max_rel, self.rel_at = dev_rel, at


@dataclass
class Comparison:
    digests: tuple[str, str]
    identical_files: dict = field(default_factory=dict)   # name -> bytes equal
    fields: list = field(default_factory=list)            # FieldDeviation per column / leaf
    verdicts: list = field(default_factory=list)          # "file: path: a != b"
    structure: list = field(default_factory=list)         # missing files, keys, rows

    @property
    def identical(self) -> bool:
        return self.digests[0] == self.digests[1]

    @property
    def deviating(self) -> list:
        return [f for f in self.fields if f.max_abs > 0.0 or f.max_rel > 0.0]

    @property
    def max_abs(self) -> float:
        return max((f.max_abs for f in self.fields), default=0.0)

    @property
    def max_rel(self) -> float:
        return max((f.max_rel for f in self.fields), default=0.0)

    def lines(self) -> list[str]:
        out = [f"digests {self.digests[0]} {self.digests[1]}",
               f"largest deviation: abs {self.max_abs:.3g}, rel {self.max_rel:.3g}"]
        out += [f"{name}: {'identical' if same else 'differs'}"
                for name, same in sorted(self.identical_files.items())]
        out += [f"{f.file} {f.field}: abs {f.max_abs:.3g} at {f.abs_at}, "
                f"rel {f.max_rel:.3g} at {f.rel_at}" for f in self.deviating]
        out += [f"verdict {v}" for v in self.verdicts]
        out += [f"structure {s}" for s in self.structure]
        return out


def digest(directory) -> str:
    """sha256 over the name and bytes of every file of ``directory``, by name."""
    h = hashlib.sha256()
    for path in sorted(p for p in Path(directory).iterdir() if p.is_file()):
        h.update(path.name.encode() + b"\0")
        h.update(path.read_bytes())
    return h.hexdigest()


def _deviation(a, b) -> tuple[float, float]:
    """(absolute, relative) deviation of two leaves or cells: numbers by value,
    NaN equal to NaN; anything else is 0 when equal and inf when not."""
    if _is_number(a) and _is_number(b):
        a, b = float(a), float(b)
        if a == b or (math.isnan(a) and math.isnan(b)):
            return 0.0, 0.0
        d = abs(a - b)
        if math.isnan(d):
            return math.inf, math.inf
        return d, d / max(abs(a), abs(b))
    return (0.0, 0.0) if a == b else (math.inf, math.inf)


def _is_number(v) -> bool:
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def _cell(text: str):
    try:
        return float(text)
    except ValueError:
        return text


def _compare_csv(name: str, a: str, b: str, report: Comparison) -> None:
    rows_a = [line.split(",") for line in a.splitlines()]
    rows_b = [line.split(",") for line in b.splitlines()]
    if rows_a[:1] != rows_b[:1]:
        report.structure.append(f"{name}: headers {rows_a[:1]} != {rows_b[:1]}")
        return
    if len(rows_a) != len(rows_b):
        report.structure.append(f"{name}: {len(rows_a) - 1} != {len(rows_b) - 1} rows")
    columns = [FieldDeviation(name, col) for col in rows_a[0]]
    for r, (ra, rb) in enumerate(zip(rows_a[1:], rows_b[1:])):
        if len(ra) != len(rb):
            report.structure.append(f"{name}: row {r} has {len(ra)} != {len(rb)} cells")
            continue
        for col, x, y in zip(columns, ra, rb):
            col.add(_cell(x), _cell(y), str(r))
    report.fields += columns


def _compare_json(name: str, a, b, report: Comparison) -> None:
    fields: dict[str, FieldDeviation] = {}

    def walk(x, y, path: str, index: list[str]) -> None:
        if path.rsplit(".", 1)[-1] in VERDICT_KEYS and x != y:
            report.verdicts.append(f"{name}: {path}: {x!r} != {y!r}")
        if isinstance(x, dict) and isinstance(y, dict):
            for key in sorted(set(x) | set(y)):
                sub = f"{path}.{key}" if path else key
                if key in x and key in y:
                    walk(x[key], y[key], sub, index)
                else:
                    report.structure.append(f"{name}: {sub} only in {'new' if key in y else 'old'}")
            return
        if isinstance(x, list) and isinstance(y, list):
            if len(x) != len(y):
                report.structure.append(f"{name}: {path} has {len(x)} != {len(y)} entries")
            for i, (u, v) in enumerate(zip(x, y)):
                walk(u, v, path, index + [str(i)])
            return
        if path not in fields:
            fields[path] = FieldDeviation(name, path)
        fields[path].add(x, y, ",".join(index) if index else None)

    walk(a, b, "", [])
    report.fields += fields.values()


def compare_dirs(old, new) -> Comparison:
    """Compare every artifact of the output directories ``old`` and ``new``."""
    old, new = Path(old), Path(new)
    report = Comparison(digests=(digest(old), digest(new)))
    names_old = {p.name for p in old.iterdir() if p.is_file()}
    names_new = {p.name for p in new.iterdir() if p.is_file()}
    for name in sorted(names_old ^ names_new):
        report.structure.append(f"{name} only in {'new' if name in names_new else 'old'}")
    for name in sorted(names_old & names_new):
        a, b = (old / name).read_bytes(), (new / name).read_bytes()
        report.identical_files[name] = a == b
        if name.endswith(".csv"):
            _compare_csv(name, a.decode(), b.decode(), report)
        elif name.endswith(".json"):
            _compare_json(name, json.loads(a), json.loads(b), report)
    return report


def _column_digest(cells: list[str]) -> dict:
    """max |.|, its first row and the l2 norm of a numeric column; the sha256
    of the text of any other column."""
    try:
        a = np.abs(np.array([float(c) for c in cells]))
    except ValueError:
        return {"sha256": hashlib.sha256("\n".join(cells).encode()).hexdigest()}
    return {"max_abs": float(np.max(a)), "argmax": int(np.argmax(a)),
            "l2": float(np.sqrt(np.sum(a * a)))}


def digest_artifacts(directory, exit_code: int) -> dict:
    """The exit code, every JSON leaf, and a ``_column_digest`` of every CSV
    column of the artifacts in ``directory``."""
    out = {"exit_code": exit_code, "json": {}, "csv": {}}
    for path in sorted(Path(directory).iterdir()):
        if path.suffix == ".json":
            out["json"][path.name] = json.loads(path.read_text())
        elif path.suffix == ".csv":
            header, *rows = (line.split(",") for line in path.read_text().splitlines())
            out["csv"][path.name] = {"rows": len(rows), "columns": {
                name: _column_digest([row[c] for row in rows])
                for c, name in enumerate(header)}}
    return out


def compare_digests(golden: dict, fresh: dict, rel_tol: float = 1e-12) -> list[str]:
    """Where ``fresh`` departs from ``golden``, through the leaf-by-leaf JSON
    comparison: any verdict field (``VERDICT_KEYS``) or structure difference,
    and every key path whose relative deviation exceeds ``rel_tol`` (a
    non-number that differs deviates by inf).  Empty when the two agree."""
    report = Comparison(digests=("golden", "fresh"))
    _compare_json("digest", golden, fresh, report)
    return [f"verdict {v}" for v in report.verdicts] + report.structure + [
        f"{f.field}: rel {f.max_rel:.3g} at {f.rel_at}"
        for f in report.fields if f.max_rel > rel_tol]


def run_digest(config: dict) -> dict:
    """Digest of a fresh ``run("all")`` of ``config`` in a temporary directory."""
    # imported here: comparing two directories needs no relaxdamp on the path
    from relaxdamp.cli import run
    from relaxdamp.config import config_from_dict

    with tempfile.TemporaryDirectory() as out:
        code = run("all", config_from_dict(config), out_dir=out)
        return digest_artifacts(out, code)


def _golden_configs():
    """(name, config) of every ``tests/golden`` case, by name."""
    for path in sorted(GOLDEN.glob("*.config.json")):
        yield path.name.removesuffix(".config.json"), json.loads(path.read_text())


def run_golden(out_dir) -> int:
    """``run("all")`` of every golden config into ``out_dir/<name>``; the
    largest exit code."""
    from relaxdamp.cli import run
    from relaxdamp.config import config_from_dict

    code = 0
    for name, config in _golden_configs():
        out = Path(out_dir) / name
        code = max(code, run("all", config_from_dict(config), out_dir=str(out)))
        print(f"ran {name} into {out}")
    return code


def write_golden() -> None:
    for name, config in _golden_configs():
        target = GOLDEN / f"{name}.digest.json"
        target.write_text(json.dumps(run_digest(config), sort_keys=True, indent=1) + "\n")
        print(f"wrote {target.name}")


def main(argv=None) -> int:
    args = sys.argv[1:] if argv is None else argv
    if args == ["--golden"]:
        write_golden()
        return 0
    if len(args) == 2 and args[0] == "--run":
        return run_golden(args[1])
    if len(args) != 2:
        print(__doc__.strip().splitlines()[2].strip(), file=sys.stderr)
        return 2
    report = compare_dirs(*args)
    print("\n".join(report.lines()))
    return 0 if report.identical else 1


if __name__ == "__main__":
    try:
        code = main()
        sys.stdout.flush()  # a closed pipe shows here, not at interpreter exit
    except BrokenPipeError:  # the reader (``| head``) stopped reading: stop quietly
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)
