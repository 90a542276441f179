"""Smoke test of the benchmark harness on tiny operands.

    python3 -m pytest -q perfbench/test_smoke.py

Each workload's invocation list runs at degree <= 3 on the smallest Gram
forms with every output check active, and one traced pass reports every
per-layer metric.  It catches harness breakage without a full run.
"""

import json
import sys

import pytest

import checks
import run
import workloads

run.use_sources()
BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("workload", workloads.NAMES)
def test_tiny_workload_passes_its_checks(workload):
    meta, result = run.measure(workload, seed=3, seconds=0, traced=False, tiny=True)
    assert result["failed"] == 0 and result["correct"]
    assert result["attempted"] == len(workloads.invocations(workload, 3, tiny=True))
    assert [m["name"] for m in BENCHMARK["end_to_end"]] == list(result["metrics"])
    assert all(result["metrics"][name]["value"] > 0 for name in result["metrics"])
    assert meta["passes"] == 1 and not meta["traced"]


def test_traced_pass_reports_every_layer_metric():
    _, result = run.measure("special", seed=3, seconds=0, traced=True, tiny=True)
    assert result["correct"]
    metrics = result["metrics"]
    assert [m["name"] for m in BENCHMARK["per_layer"]] == list(metrics)
    units = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert all(metrics[name]["unit"] == units[name] for name in metrics)
    # compose is called through the name algebra copied from poset_core, so a
    # nonzero count shows the copied bindings are wrapped too.
    for name in (
        "algebra.LinComb.builds",
        "algebra.pairing_basis.calls",
        "morphisms._extensions.words",
        "linalg.mat_inverse.cells",
        "poset_core.enumerate_family.elements",
        "poset_core.nwarrow.calls",
        "cli.self_s",
    ):
        assert metrics[name]["value"] > 0, name


def test_seed_picks_an_operand_set():
    def argvs(seed):
        return [inv.argv for inv in workloads.invocations("special", seed, tiny=True)]

    assert argvs(1) == argvs(1 + workloads.SEED_POOL)
    assert argvs(1) != argvs(2)


def _outcome(stdout, code=0):
    return run.Outcome(code, stdout, {}, None)


def test_wrong_digest_or_exit_code_fails():
    inv = workloads.Invocation("x", ("gram",))
    good = _outcome("out\n")
    run.check(inv, good, {"x": run.digest("out\n")}, set())
    assert good.failure is None
    wrong = _outcome("other\n")
    run.check(inv, wrong, {"x": run.digest("out\n")}, set())
    assert wrong.failure
    code = _outcome("out\n", code=2)
    run.check(inv, code, {"x": run.digest("out\n")}, set())
    assert code.failure


def _certificate(transform, blocks, block_matrix, matrix):
    return json.dumps(
        {
            "kind": "certificate",
            "matrix": matrix,
            "transform": transform,
            "blocks": blocks,
            "block_matrix": block_matrix,
        }
    )


def test_certificate_check():
    A = [[0, 1], [1, 2]]
    T = [[1, 0], [-1, 1]]
    H = [[0, 1], [1, 0]]
    assert checks.check_certificate(A, _certificate(T, ["hyperbolic"], H, A)) is None
    assert checks.check_certificate(A, _certificate([[1, 0], [0, 1]], ["hyperbolic"], H, A))
    assert checks.check_certificate(A, _certificate(T, ["plus_one", "minus_one"], H, A))
    assert checks.det([[2, 1], [1, 1]]) == 1
    assert checks.det([[0, 1, 0], [1, 0, 0], [0, 0, 3]]) == -3


def test_isometry_check():
    A = [[1, 0], [0, 1]]
    B = [[-1, 0], [0, 1]]
    good = {"kind": "matrix", "rows": [["1*I", "0"], ["0", "1"]]}
    bad = {"kind": "matrix", "rows": [["1", "0"], ["0", "1"]]}
    assert checks.check_isometry(A, B, json.dumps(good)) is None
    assert checks.check_isometry(A, B, json.dumps(bad))
    assert checks.parse_gauss("-1/2-3/4*I") == (-0.5, -0.75)
    assert checks.parse_gauss("25/2*I") == (0, 12.5)


if __name__ == "__main__":
    sys.exit(pytest.main(["-q", __file__]))
