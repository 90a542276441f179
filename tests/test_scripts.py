"""The maintenance scripts under ``scripts/`` run against the package."""

import runpy
from pathlib import Path

import pytest

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def test_derive_isometry_reproduces_the_frozen_table(capsys):
    # the script solves the degree-3 constraints with sympy, from the
    # package's own coproduct and pairing, and then verifies the frozen table
    pytest.importorskip("sympy")
    runpy.run_path(str(SCRIPTS / "derive_isometry.py"), run_name="__main__")
    last = capsys.readouterr().out.strip().splitlines()[-1]
    assert last.startswith("frozen 'derived' table verified")
