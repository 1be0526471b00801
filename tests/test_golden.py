"""Fresh runs against the committed digests under ``tests/golden/``.

Each ``<name>.config.json`` there is run through ``run("all")``; its digest
(``artifacts.digest_artifacts``: exit code, every JSON leaf, and per CSV
column max |.|, its row and the l2 norm) must match ``<name>.digest.json``,
verdict fields exactly and numbers within relative 1e-12.  A change that
moves artifact numbers on purpose regenerates the digests with
``PYTHONPATH=src python tests/artifacts.py --golden`` and says which keys
moved and why.
"""

from __future__ import annotations

import json

import pytest
from artifacts import GOLDEN, compare_digests, run_digest

CASES = sorted(path.name.removesuffix(".config.json") for path in GOLDEN.glob("*.config.json"))


def test_every_case_has_a_digest():
    assert CASES == ["default-T8", "jinxin-dense-ref", "jinxin-moc", "jinxin-moving-T8",
                     "varA-moc"]
    assert all((GOLDEN / f"{name}.digest.json").is_file() for name in CASES)


@pytest.mark.parametrize("name", CASES)
def test_fresh_run_matches_golden_digest(name):
    golden = json.loads((GOLDEN / f"{name}.digest.json").read_text())
    fresh = run_digest(json.loads((GOLDEN / f"{name}.config.json").read_text()))
    assert golden["exit_code"] == fresh["exit_code"] == 0
    assert compare_digests(golden, fresh) == []
