"""Fresh runs against the committed digests under ``tests/golden/``.

Each ``<name>.config.json`` there is run through ``run("all")``; its digest
(``artifacts.digest_artifacts``: exit code, every JSON leaf, and per CSV
column max |.|, its row and the l2 norm) must match ``<name>.digest.json``,
verdict fields exactly and numbers within relative 1e-12.  A change that
moves artifact numbers on purpose regenerates the digests with
``PYTHONPATH=src python tests/artifacts.py --golden`` and says which keys
moved and why.  The same runs must write every CSV number as ``%.17g``
(``artifacts.misformatted_cells``), which the digests cannot see.
"""

from __future__ import annotations

import json

import pytest
from artifacts import GOLDEN, compare_digests, digest_artifacts, misformatted_cells

from relaxdamp.cli import run
from relaxdamp.config import config_from_dict

CASES = sorted(path.name.removesuffix(".config.json") for path in GOLDEN.glob("*.config.json"))


@pytest.fixture(scope="module")
def fresh_run(tmp_path_factory):
    """(output directory, exit code) of a golden case's ``run("all")``, run
    once per case for every test of this module."""
    runs: dict = {}

    def get(name: str):
        if name not in runs:
            out = tmp_path_factory.mktemp(name)
            config = json.loads((GOLDEN / f"{name}.config.json").read_text())
            runs[name] = out, run("all", config_from_dict(config), out_dir=str(out))
        return runs[name]

    return get


def test_every_case_has_a_digest():
    assert CASES == ["default-T8", "jinxin-dense-ref", "jinxin-moc", "jinxin-moving-T8",
                     "varA-moc"]
    assert all((GOLDEN / f"{name}.digest.json").is_file() for name in CASES)


@pytest.mark.parametrize("name", CASES)
def test_fresh_run_matches_golden_digest(name, fresh_run):
    golden = json.loads((GOLDEN / f"{name}.digest.json").read_text())
    fresh = digest_artifacts(*fresh_run(name))
    assert golden["exit_code"] == fresh["exit_code"] == 0
    assert compare_digests(golden, fresh) == []


@pytest.mark.parametrize("name", CASES)
def test_every_csv_number_is_written_as_percent_17g(name, fresh_run):
    assert misformatted_cells(fresh_run(name)[0]) == []
