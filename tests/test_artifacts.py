"""The artifact comparison of ``tests/artifacts.py``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys

import artifacts
import pytest
from artifacts import compare_digests, compare_dirs, digest_artifacts, main

from relaxdamp.cli import EXIT_OK, run
from relaxdamp.config import config_from_dict

SMALL = {"profile": {"n": 501, "X": 10.0}, "dynamics": {"T": 0.4, "n_out": 2, "dx": 0.04},
         "verify": {"n_paths": 4, "theta_grid": {"start": 0.01, "stop": 0.3, "num": 8}}}


@pytest.fixture(scope="module")
def two_runs(tmp_path_factory):
    outs = [tmp_path_factory.mktemp(name) for name in ("old", "new")]
    for out in outs:
        assert run("all", config_from_dict(SMALL), out_dir=str(out)) == EXIT_OK
    return outs


def _edit_json(path, edit):
    payload = json.loads(path.read_text())
    edit(payload)
    path.write_text(json.dumps(payload, sort_keys=True, indent=2) + "\n")


def test_two_runs_deviate_nowhere(two_runs):
    report = compare_dirs(*two_runs)
    assert report.identical and main([str(d) for d in two_runs]) == 0
    assert len(report.identical_files) == 11 and all(report.identical_files.values())
    assert report.max_abs == report.max_rel == 0.0
    assert report.deviating == report.verdicts == report.structure == []


def test_changed_cell_and_leaf_are_located(two_runs, tmp_path):
    old, new = two_runs[0], tmp_path / "new"
    shutil.copytree(two_runs[1], new)
    lines = (new / "norms.csv").read_text().splitlines()
    cells = lines[2].split(",")
    c1 = float(cells[2])
    cells[2] = repr(c1 * (1.0 + 1e-6))
    lines[2] = ",".join(cells)
    (new / "norms.csv").write_text("\n".join(lines) + "\n")
    initial = json.loads((new / "damping.json").read_text())["weighted_energy"]["initial"]

    def bump(payload):
        payload["weighted_energy"]["initial"][1] += 0.5

    _edit_json(new / "damping.json", bump)

    report = compare_dirs(old, new)
    assert not report.identical and main([str(old), str(new)]) == 1
    assert report.verdicts == report.structure == []
    assert {name for name, same in report.identical_files.items() if not same} == {
        "norms.csv", "damping.json"}
    by_place = {(f.file, f.field): f for f in report.deviating}
    assert set(by_place) == {("norms.csv", "c1"), ("damping.json", "weighted_energy.initial")}
    cell = by_place["norms.csv", "c1"]
    assert cell.abs_at == cell.rel_at == "1"  # the second data row
    assert cell.max_abs == pytest.approx(1e-6 * c1) and cell.max_rel == pytest.approx(1e-6)
    leaf = by_place["damping.json", "weighted_energy.initial"]
    assert leaf.abs_at == leaf.rel_at == "1"
    assert leaf.max_abs == pytest.approx(0.5)
    assert leaf.max_rel == pytest.approx(0.5 / (initial[1] + 0.5))


def test_changed_verdict_is_flagged(two_runs, tmp_path):
    new = tmp_path / "new"
    shutil.copytree(two_runs[1], new)

    def unbound(payload):
        payload["bounded"] = False

    _edit_json(new / "h_bound.json", unbound)
    report = compare_dirs(two_runs[0], new)
    assert report.verdicts == ["h_bound.json: bounded: True != False"]
    assert [(f.file, f.field) for f in report.deviating] == [("h_bound.json", "bounded")]


def test_digest_holds_every_leaf_and_column(two_runs):
    d = digest_artifacts(two_runs[0], EXIT_OK)
    assert d["exit_code"] == EXIT_OK
    assert len(d["json"]) + len(d["csv"]) == 11
    assert d["json"]["h_bound.json"] == json.loads((two_runs[0] / "h_bound.json").read_text())
    norms = d["csv"]["norms.csv"]
    rows = [line.split(",") for line in (two_runs[0] / "norms.csv").read_text().splitlines()]
    t = [float(r[0]) for r in rows[1:]]
    assert norms["rows"] == len(t) and list(norms["columns"]) == rows[0]
    assert norms["columns"]["t"] == {"max_abs": max(t), "argmax": t.index(max(t)),
                                     "l2": pytest.approx(sum(v * v for v in t) ** 0.5,
                                                         rel=1e-15)}
    assert set(d["csv"]["spectrum.csv"]["columns"]["side"]) == {"sha256"}
    assert compare_digests(d, digest_artifacts(two_runs[1], EXIT_OK)) == []


def test_digest_comparison_tolerates_rounding_but_not_verdicts(two_runs):
    golden = digest_artifacts(two_runs[0], EXIT_OK)

    def edited(edit):
        fresh = json.loads(json.dumps(golden))
        edit(fresh)
        return compare_digests(golden, fresh)

    def scale(factor):
        def edit(d):
            d["csv"]["norms.csv"]["columns"]["c1"]["l2"] *= factor
        return edit

    assert edited(scale(1.0 + 1e-13)) == []
    assert edited(scale(1.0 + 1e-11)) == ["csv.norms.csv.columns.c1.l2: rel 1e-11 at None"]

    def theta(d):
        d["json"]["damping.json"]["norm_tables"]["c0"]["theta_max"] *= 1.0 + 1e-15

    assert edited(theta)[0].startswith(
        "verdict digest: json.damping.json.norm_tables.c0.theta_max: 0.3")

    def exit_code(d):
        d["exit_code"] = 3

    assert edited(exit_code) == ["exit_code: rel 1 at None"]

    def flag(d):
        d["json"]["profile.json"]["decay_fits"]["plus_0"]["is_lower_bound"] = True

    assert edited(flag) == [
        "json.profile.json.decay_fits.plus_0.is_lower_bound: rel inf at None"]

    def drop(d):
        del d["json"]["profile.json"]["decay_fits"]["plus_0"]["is_lower_bound"]

    assert edited(drop) == [
        "digest: json.profile.json.decay_fits.plus_0.is_lower_bound only in old"]


def test_run_writes_every_golden_config_into_its_own_directory(two_runs, tmp_path,
                                                                monkeypatch, capsys):
    golden = tmp_path / "golden"
    golden.mkdir()
    (golden / "small.config.json").write_text(json.dumps(SMALL))
    monkeypatch.setattr(artifacts, "GOLDEN", golden)
    out = tmp_path / "out"
    assert main(["--run", str(out)]) == EXIT_OK
    assert capsys.readouterr().out == f"ran small into {out / 'small'}\n"
    assert [p.name for p in out.iterdir()] == ["small"]
    assert main([str(two_runs[0]), str(out / "small")]) == 0  # byte identical


def test_a_reader_that_closes_the_pipe_ends_the_report_quietly(two_runs):
    # ``python tests/artifacts.py A B | head`` closes stdout before the
    # report is written: exit 1 with nothing on stderr, not a traceback
    proc = subprocess.Popen([sys.executable, artifacts.__file__, *map(str, two_runs)],
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE)
    proc.stdout.close()
    err = proc.stderr.read()
    proc.stderr.close()
    assert proc.wait(timeout=60) == 1 and err == b""
