"""Benchmark of the ``dposet`` CLI: each verb in a fresh interpreter, every
output checked.

    python3 perfbench/run.py --workload suites --seed 1 --seconds 40 --trace 0

The load is a closed loop with one client: one child interpreter at a time,
each started after the previous one has ended.  A fresh interpreter is what a
CLI user pays, and it empties every ``lru_cache`` between verbs.

``--trace 0`` repeats the workload's invocation list, in an order shuffled by
the seed, while another pass as long as the last still fits in ``--seconds``.
Each time is rescaled to a reference machine speed (see ``speed.py``), and
each end-to-end time is the sum over invocations of that invocation's median
over the passes:

* ``wall_s``: wall time inside ``dposet.cli.run(argv)``;
* ``cpu_s``: user+sys CPU time over the same intervals;
* ``setup_s``: time from spawning the interpreter to ``dposet.cli`` imported;
* ``peak_rss_mb``: largest max-RSS of any invocation;
* ``pass_ratio``: invocations that passed over invocations attempted.  An
  invocation fails on a wrong exit code, an output that fails its check, or
  the per-invocation timeout.

``--trace 1`` makes one untraced and one traced pass (``tracer.py``) and
reports the per-layer metrics, summed over the invocations.

The last stdout line is the result JSON; the line before it holds the run
metadata and, per invocation, the medians, the raw samples and their scales.
"""

import argparse
import hashlib
import json
import os
import random
import statistics
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import checks
import speed
import workloads
from child import MARKER

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CHILD = HERE / "child.py"
EXPECTED = workloads.DATA / "expected.json"
TIMEOUT_S = 90
TIMES = ("wall_s", "cpu_s", "setup_s")

@dataclass
class Outcome:
    """What one child reported, and why it failed (``None`` when it passed)."""

    code: int
    stdout: str
    report: dict
    failure: str


def run_child(argv, traced, timeout=TIMEOUT_S):
    """Run one CLI invocation in a fresh interpreter and wait for it to end."""
    spawned = speed.clock()
    try:
        proc = subprocess.run(
            [sys.executable, str(CHILD), repr(spawned), "1" if traced else "0", *argv],
            capture_output=True,
            text=True,
            timeout=timeout,
            cwd=ROOT,
        )
    except subprocess.TimeoutExpired:
        return Outcome(None, "", None, f"timed out after {timeout} s")
    head, _, last = proc.stderr.rstrip("\n").rpartition("\n")
    if not last.startswith(MARKER):
        return Outcome(proc.returncode, proc.stdout, None, "no report: " + proc.stderr[-2000:])
    failure = f"unexpected stderr: {head.strip()[-2000:]}" if head.strip() else None
    return Outcome(proc.returncode, proc.stdout, json.loads(last[len(MARKER) :]), failure)


def digest(text):
    return hashlib.sha256(text.encode()).hexdigest()


def check(inv, outcome, expected, verified):
    """Set ``outcome.failure`` when the invocation's output is wrong.

    ``verified`` holds the digests of certificate outputs already checked in
    this run, so each distinct output is checked by its equations once.
    """
    if outcome.failure:
        return
    if outcome.code != inv.exit_code:
        outcome.failure = f"exit code {outcome.code}, expected {inv.exit_code}"
        return
    sha = digest(outcome.stdout)
    if inv.check == "digest":
        want = expected.get(inv.id)
        if want is None:
            outcome.failure = "no recorded digest"
        elif sha != want:
            outcome.failure = "output differs from the recorded digest"
        return
    if sha in verified:
        return
    if inv.check == "certificate":
        outcome.failure = checks.check_certificate(inv.operand, outcome.stdout)
    else:
        outcome.failure = checks.check_isometry(*inv.operand, outcome.stdout)
    if outcome.failure is None:
        verified.add(sha)


def run_pass(invs, traced, expected, verified, log):
    """Run each invocation once, then check the outputs.  Each report gets
    ``scale`` from the speed probe over the child's lifetime; the checks wait
    until the pass is over so that they do not slow the probe down."""
    with speed.SpeedProbe() as probe:
        outcomes = [(inv, run_child(inv.argv, traced)) for inv in invs]
    for inv, outcome in outcomes:
        if outcome.report is not None:
            report = outcome.report
            report["scale"] = probe.scale(report["spawned"], report["end"])
        check(inv, outcome, expected, verified)
        if outcome.failure:
            print(f"FAIL {inv.id}: {outcome.failure}", file=log)
    return outcomes


def _medians(outcomes):
    """Per invocation id, the median of each timing over its passing runs."""
    samples = {}
    for inv, outcome in outcomes:
        if outcome.failure is None:
            samples.setdefault(inv.id, []).append(outcome.report)
    medians = {}
    for key, reports in samples.items():
        medians[key] = {
            name: statistics.median(r[name] * r["scale"] for r in reports)
            for name in TIMES
        }
        medians[key]["raw"] = {name: [r[name] for r in reports] for name in TIMES}
        medians[key]["scale"] = [r["scale"] for r in reports]
    return medians


def end_to_end(outcomes, medians):
    def total(name):
        return sum(m[name] for m in medians.values())

    rss = [o.report["peak_rss_mb"] for _, o in outcomes if o.report]
    passed = sum(1 for _, o in outcomes if o.failure is None)
    return {
        "wall_s": (total("wall_s"), "s"),
        "cpu_s": (total("cpu_s"), "s"),
        "setup_s": (total("setup_s"), "s"),
        "peak_rss_mb": (max(rss, default=0.0), "MB"),
        "pass_ratio": (passed / len(outcomes), "1"),
    }


def _merge_layers(outcomes):
    spans, counts, caches = {}, {}, {}
    for _, outcome in outcomes:
        layers = (outcome.report or {}).get("layers")
        if not layers:
            continue
        for name, (calls, self_s) in layers["spans"].items():
            acc = spans.setdefault(name, [0, 0.0])
            acc[0] += calls
            acc[1] += self_s
        for name, value in layers["counts"].items():
            counts[name] = counts.get(name, 0) + value
        for name, (hits, misses) in layers["caches"].items():
            acc = caches.setdefault(name, [0, 0])
            acc[0] += hits
            acc[1] += misses
    return spans, counts, caches


def per_layer(traced, untraced):
    """Per-layer metrics of a traced pass; ``untraced`` is a plain pass of the
    same invocations, for the tracing overhead."""
    spans, counts, caches = _merge_layers(traced)

    def calls(name):
        return (spans.get(name, [0, 0.0])[0], "count")

    def self_s(*names):
        return (sum(spans.get(n, [0, 0.0])[1] for n in names), "s")

    def module_s(module):
        return self_s(*(n for n in spans if n.startswith(module + ".")))

    def count(name):
        return (counts.get(name, 0), "count")

    def cache(name):
        hits, misses = caches.get(name, [0, 0])
        return hits, misses

    def ratio(num, den):
        return (num / den if den else 0.0, "1")

    picture_hits, picture_misses = cache("algebra._picture_count")
    coproduct_hits, coproduct_misses = cache("algebra._key_coproduct")
    ext_hits, ext_misses = cache("morphisms._extensions")
    terms_in = counts.get("algebra.LinComb.terms_in", 0)
    terms_out = counts.get("algebra.LinComb.terms_out", 0)
    wall_traced = sum(o.report["wall_s"] * o.report["scale"] for _, o in traced if o.report)
    wall_plain = sum(o.report["wall_s"] * o.report["scale"] for _, o in untraced if o.report)
    metrics = {
        "algebra.LinComb.builds": calls("algebra.LinComb"),
        "algebra.LinComb.terms_in": (terms_in, "count"),
        "algebra.LinComb.terms_out": (terms_out, "count"),
        "algebra.LinComb.merge_ratio": ratio(terms_out, terms_in),
        "algebra.LinComb.self_s": self_s("algebra.LinComb"),
        "algebra.pairing_basis.calls": calls("algebra.pairing_basis"),
        "algebra.pairing_basis.self_s": self_s("algebra.pairing_basis"),
        "algebra._picture_count.hits": (picture_hits, "count"),
        "algebra._picture_count.misses": (picture_misses, "count"),
        "algebra._picture_count.hit_ratio": ratio(
            picture_hits, picture_hits + picture_misses
        ),
        "algebra._key_coproduct.hits": (coproduct_hits, "count"),
        "algebra._key_coproduct.misses": (coproduct_misses, "count"),
        "algebra.lc_product.calls": calls("algebra.lc_product"),
        "algebra.lc_product.self_s": self_s("algebra.lc_product"),
        "algebra.gram_matrix.self_s": self_s("algebra.gram_matrix"),
        "algebra.self_s": module_s("algebra"),
        "morphisms._extensions.hits": (ext_hits, "count"),
        "morphisms._extensions.misses": (ext_misses, "count"),
        "morphisms._extensions.words": count("morphisms._extensions.words"),
        "morphisms.theta.self_s": self_s("morphisms.theta"),
        "morphisms.theta_hof_inverse.self_s": self_s("morphisms.theta_hof_inverse"),
        "morphisms.pairing_kernel_basis.self_s": self_s("morphisms.pairing_kernel_basis"),
        "morphisms.self_s": module_s("morphisms"),
        "linalg.rank_kernel.calls": calls("linalg.rank_kernel"),
        "linalg.rank_kernel.cells": count("linalg.rank_kernel.cells"),
        "linalg.rank_kernel.self_s": self_s("linalg.rank_kernel"),
        "linalg.mat_inverse.calls": calls("linalg.mat_inverse"),
        "linalg.mat_inverse.cells": count("linalg.mat_inverse.cells"),
        "linalg.mat_inverse.self_s": self_s("linalg.mat_inverse"),
        "linalg.congruence_diagonalize.self_s": self_s("linalg.congruence_diagonalize"),
        "linalg.build_isometry.self_s": self_s("linalg.build_isometry"),
        "linalg.det.self_s": self_s("linalg.det"),
        "linalg.mat_mul.self_s": self_s("linalg.mat_mul"),
        "linalg.verify_graded_isometry.self_s": self_s("linalg.verify_graded_isometry"),
        "linalg.self_s": module_s("linalg"),
        "poset_core.enumerate_family.calls": calls("poset_core.enumerate_family"),
        "poset_core.enumerate_family.elements": count("poset_core.enumerate_family.elements"),
        "poset_core.enumerate_family.self_s": self_s("poset_core.enumerate_family"),
        "poset_core._sp_masks.misses": (cache("poset_core._sp_masks")[1], "count"),
        "poset_core.compose.calls": calls("poset_core.compose"),
        "poset_core.restrict.calls": calls("poset_core.restrict"),
        "poset_core.ideals.calls": calls("poset_core.ideals"),
        "poset_core.nwarrow.calls": calls("poset_core.nwarrow"),
        "poset_core.kernels.self_s": self_s(
            "poset_core.compose",
            "poset_core.restrict",
            "poset_core.ideals",
            "poset_core.nwarrow",
        ),
        "poset_core.self_s": module_s("poset_core"),
        "fqsym.shuffle_product.calls": calls("fqsym.shuffle_product"),
        "fqsym.fq_nwarrow.calls": calls("fqsym.fq_nwarrow"),
        "fqsym.fq_dendriform_coproducts.calls": calls("fqsym.fq_dendriform_coproducts"),
        "fqsym.self_s": module_s("fqsym"),
        "dupdend.check_axioms.tuples": count("dupdend.check_axioms.tuples"),
        "dupdend.check_axioms.self_s": self_s("dupdend.check_axioms"),
        "dupdend.sp_nwarrow.self_s": self_s("dupdend.sp_nwarrow"),
        "dupdend.split_coproducts.self_s": self_s("dupdend.split_coproducts"),
        "dupdend.spf_prec.self_s": self_s("dupdend.spf_prec"),
        "dupdend.self_s": module_s("dupdend"),
        "cli.self_s": self_s("cli"),
        "trace.overhead": ratio(wall_traced - wall_plain, wall_plain),
    }
    return metrics


def git_commit():
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return None


def _cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return None


def metadata(workload, seed, seconds, traced, passes):
    return {
        "commit": git_commit(),
        "python": sys.version.split()[0],
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": _cpu_model(),
        "workload": workload,
        "seed": seed,
        "operand_set": seed % workloads.SEED_POOL,
        "seconds": seconds,
        "passes": passes,
        "timeout_s": TIMEOUT_S,
        "traced": traced,
    }


def use_sources():
    """Make the checkout's ``dposet`` importable, or exit when it is absent."""
    if not (SRC / "dposet" / "cli.py").is_file():
        sys.exit(f"error: no dposet sources under {SRC}")
    sys.path.insert(0, str(SRC))


def load_expected(tiny):
    return json.loads(EXPECTED.read_text())["tiny" if tiny else "full"]


def measure(workload, seed, seconds, traced, tiny=False, log=sys.stderr):
    """Run one benchmark run; returns (metadata, result)."""
    invs = workloads.invocations(workload, seed, tiny)
    expected = load_expected(tiny)[workload]
    rng = random.Random(seed)
    verified = set()
    if traced:
        untraced = run_pass(rng.sample(invs, len(invs)), False, expected, verified, log)
        traced_pass = run_pass(rng.sample(invs, len(invs)), True, expected, verified, log)
        outcomes = untraced + traced_pass
        metrics = per_layer(traced_pass, untraced)
        passes = 2
        medians = _medians(untraced)
    else:
        outcomes = []
        passes = 0
        start = speed.clock()
        while True:
            begun = speed.clock()
            outcomes += run_pass(rng.sample(invs, len(invs)), False, expected, verified, log)
            passes += 1
            now = speed.clock()
            if now - start + (now - begun) > seconds:
                break
        medians = _medians(outcomes)
        metrics = end_to_end(outcomes, medians)
    failed = sum(1 for _, o in outcomes if o.failure)
    meta = metadata(workload, seed, seconds, traced, passes)
    meta["per_invocation"] = medians
    result = {
        "correct": failed == 0,
        "attempted": len(outcomes),
        "failed": failed,
        "metrics": {
            name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()
        },
    }
    return meta, result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.NAMES)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    use_sources()
    meta, result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"meta": meta}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
