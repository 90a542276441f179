"""Record the benchmark's input Gram forms and expected output digests.

    python3 perfbench/record.py

Run at a commit whose outputs are trusted.  It writes ``data/gram_*.json``
with the ``gram`` verb's JSON output, then runs every invocation of every
workload once, full size and tiny, for every operand set of the seed pool,
and stores the sha256 of each output that is checked by digest in
``data/expected.json``.  Certificate outputs must pass their equation checks.
"""

import json
import sys

import run
import workloads

GRAMS = [("pp", 3), ("pf", 3), ("spf", 3), ("pp", 5), ("pf", 5), ("spf", 5)]


def _gram(family, degree):
    argv = ("gram", "--family", family, "--degree", str(degree), "--format", "json")
    outcome = run.run_child(argv, traced=False)
    if outcome.failure or outcome.code != 0:
        sys.exit(f"gram {family} {degree} failed: {outcome.failure}")
    return json.loads(outcome.stdout)["rows"]


def _record(workload, tiny):
    seeds = range(workloads.SEED_POOL) if workload == "special" else [0]
    digests = {}
    for seed in seeds:
        for inv in workloads.invocations(workload, seed, tiny):
            if inv.id in digests:
                continue
            outcome = run.run_child(inv.argv, traced=False)
            if inv.check == "digest":
                digests[inv.id] = run.digest(outcome.stdout)
            run.check(inv, outcome, digests, set())
            if outcome.failure:
                sys.exit(f"{workload} {inv.id}: {outcome.failure}")
    return digests


def main():
    run.use_sources()
    workloads.DATA.mkdir(exist_ok=True)
    for family, degree in GRAMS:
        rows = [[int(x) for x in row] for row in _gram(family, degree)]
        workloads.gram_file(family, degree).write_text(json.dumps(rows) + "\n")
    expected = {
        "commit": run.git_commit(),
        "seed_pool": workloads.SEED_POOL,
        "development_seed": workloads.DEVELOPMENT_SEED,
        "held_out_seed": workloads.HELD_OUT_SEED,
    }
    for size, tiny in (("tiny", True), ("full", False)):
        expected[size] = {name: _record(name, tiny) for name in workloads.NAMES}
        print(f"recorded {size}", file=sys.stderr)
    run.EXPECTED.write_text(json.dumps(expected, indent=1, sort_keys=True) + "\n")


if __name__ == "__main__":
    main()
