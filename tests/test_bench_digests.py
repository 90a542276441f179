"""CLI output stays byte-identical to the benchmark's recorded digests.

The ``suites`` and ``special`` workloads of ``perfbench`` run on their tiny
operands and at full size, through
:func:`dposet.cli.run`; each stdout must hash to the digest that
``perfbench/data/expected.json`` records for it.  The file is only read;
``perfbench/record.py`` re-records it.
"""

import hashlib
import importlib
import json
from pathlib import Path

import pytest

from dposet.cli import run

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


@pytest.fixture
def workloads(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    return importlib.import_module("workloads")


def _wrong_outputs(workloads, capsys, workload, seed, size):
    """The invocations whose exit code or stdout digest differs from the record."""
    expected = json.loads((workloads.DATA / "expected.json").read_text())[size][workload]
    wrong = []
    for inv in workloads.invocations(workload, seed, tiny=size == "tiny"):
        assert inv.check == "digest", inv.id
        code = run(list(inv.argv))
        out = capsys.readouterr().out
        if code != inv.exit_code or hashlib.sha256(out.encode()).hexdigest() != expected[inv.id]:
            wrong.append(inv.id)
    return wrong


# The ``suites`` invocations do not depend on the seed, so one seed covers
# them; ``special`` draws its operands from the seed.
@pytest.mark.parametrize(
    ("workload", "seed"), [("suites", 0), ("special", 0), ("special", 11)]
)
def test_tiny_outputs_match_the_recorded_digests(workloads, capsys, workload, seed):
    assert _wrong_outputs(workloads, capsys, workload, seed, "tiny") == []


def test_full_size_suite_reports_match_the_recorded_digests(workloads, capsys):
    """Every suite report at its benchmark degree (5, or 4 for
    ``dendriform-coalgebra`` and ``theta-dupdend``), ``tuples_checked``
    included, and both isometry tables."""
    invocations = workloads.invocations("suites", 0, tiny=False)
    assert len(invocations) == 10
    assert _wrong_outputs(workloads, capsys, "suites", 0, "full") == []


@pytest.mark.parametrize("seed", [0, 11])
def test_full_size_special_outputs_match_the_recorded_digests(workloads, capsys, seed):
    """The benchmark's own ``special`` invocations on the development and
    the held-out operand sets: 150-term ``op``/``theta``/``pair`` operands
    of sp 5, ``upsilon``, and ``gram``/``kernel`` of sp 4."""
    invocations = workloads.invocations("special", seed, tiny=False)
    assert len(invocations) == 8
    assert _wrong_outputs(workloads, capsys, "special", seed, "full") == []
