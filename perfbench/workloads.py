"""The benchmark's workloads: lists of CLI invocations and their output checks.

Every verb runs at a fixed degree, so a time moves continuously with the cost
of the code instead of jumping along a ladder of degrees.  ``tiny=True`` gives
the same invocation list on degree <= 3 operands and the smallest Gram forms,
for the smoke test.

* ``suites``: axiom suites and the isometry tables.  Many small combinations
  per basis tuple, so ``LinComb`` assembly and the poset kernels do most of
  the work; no exact linear algebra, enumeration only up to degree 5.
  ``dendriform-coalgebra`` and ``theta-dupdend`` run at degree 4: at degree
  5 they take 35-50 s each.
* ``special``: few large random combinations of special posets.  The ``op``
  verbs build their output by repeated addition, ``coproduct`` builds it
  once; special-by-special pairing, linear extensions, Fraction elimination
  and inversion.  No degree-6 enumeration, no integer congruence.
* ``plane``: plane-poset Gram forms, degree-6 enumeration and its memory,
  integer congruence and Gaussian-rational inversion.  Builds almost no
  ``LinComb``.  The matrix operands are the paper's Gram forms, stored under
  ``data/`` so the timed call measures only ``linalg``; random unimodular
  forms would make the congruence search's cost swing with the seed.
"""

import json
import random
from dataclasses import dataclass
from pathlib import Path

DATA = Path(__file__).resolve().parent / "data"

NAMES = ("suites", "special", "plane")

# --seed picks one of these operand sets (seed mod SEED_POOL); the expected
# output digests of every set are recorded in data/expected.json.
SEED_POOL = 16
DEVELOPMENT_SEED = 0
HELD_OUT_SEED = 11


@dataclass(frozen=True)
class Invocation:
    """One CLI call.  ``check`` is ``digest`` (sha256 of stdout recorded in
    data/expected.json), ``certificate`` (a diagonalize certificate of
    ``operand``) or ``isometry`` (S with S^T A S = B for ``operand`` = (A, B))."""

    id: str
    argv: tuple
    check: str = "digest"
    exit_code: int = 0
    operand: object = None


def gram_file(family, degree):
    return DATA / f"gram_{family}{degree}.json"


def load_gram(family, degree):
    return json.loads(gram_file(family, degree).read_text())


def _suites(tiny):
    top = 3 if tiny else 5
    full = (
        "duplicial",
        "dupdend-compat",
        "codendriform",
        "dendriform-hopf",
        "bidendriform",
        "lemma36-adjunction",
    )
    runs = [(suite, top) for suite in full]
    runs += [(suite, min(top, 4)) for suite in ("dendriform-coalgebra", "theta-dupdend")]
    invs = [
        Invocation(
            f"verify-{suite}",
            ("verify", "--suite", suite, "--max-degree", str(degree), "--format", "json"),
        )
        for suite, degree in runs
    ]
    invs += [
        Invocation(
            f"isometry-verify-{variant}",
            ("isometry", "verify", "--variant", variant, "--max-degree", "3"),
            exit_code=code,
        )
        for variant, code in (("derived", 0), ("printed", 2))
    ]
    return invs


def _combination(rng, basis, size):
    """``size`` distinct basis elements in canonical order, coefficients 1-9."""
    from dposet.poset_core import format_poset

    picks = sorted(rng.sample(range(len(basis)), size))
    return " + ".join(f"{rng.randint(1, 9)}*{format_poset(basis[i])}" for i in picks)


def _special(seed, tiny):
    from dposet.poset_core import enumerate_family

    small, large = (2, 3) if tiny else (4, 5)
    pair_terms, big_terms, upsilon_terms = (3, 10, 3) if tiny else (20, 150, 5)
    rng = random.Random(seed % SEED_POOL)
    small_basis = enumerate_family("sp", small)
    large_basis = enumerate_family("sp", large)
    a = _combination(rng, small_basis, pair_terms)
    b = _combination(rng, small_basis, pair_terms)
    c = _combination(rng, large_basis, big_terms)
    d = _combination(rng, large_basis, big_terms)
    e = _combination(rng, large_basis, upsilon_terms)
    tag = f"@{seed % SEED_POOL}"
    return [
        Invocation("op-nwarrow" + tag, ("op", "nwarrow", a, b)),
        Invocation("op-delta-prec" + tag, ("op", "delta-prec", c)),
        Invocation("op-coproduct" + tag, ("op", "coproduct", c)),
        Invocation("theta" + tag, ("theta", c)),
        Invocation("pair" + tag, ("pair", c, d)),
        Invocation("upsilon" + tag, ("upsilon", e)),
        Invocation("gram-sp", ("gram", "--family", "sp", "--degree", str(small))),
        Invocation("kernel-sp", ("kernel", "--family", "sp", "--degree", str(small))),
    ]


def _literal(matrix):
    return json.dumps(matrix, separators=(",", ":"))


def _plane(tiny):
    degree, enumeration = (3, 3) if tiny else (5, 6)
    pp = load_gram("pp", degree)
    pf = load_gram("pf", degree)
    spf = load_gram("spf", degree)
    return [
        Invocation("gram-pp", ("gram", "--family", "pp", "--degree", str(degree))),
        Invocation("gram-pf", ("gram", "--family", "pf", "--degree", str(enumeration))),
        Invocation(
            "diagonalize-pp",
            ("diagonalize", _literal(pp), "--format", "json"),
            check="certificate",
            operand=pp,
        ),
        Invocation(
            "isometry-build-pf-spf",
            ("isometry", "build", _literal(pf), _literal(spf), "--format", "json"),
            check="isometry",
            operand=(pf, spf),
        ),
    ]


def invocations(workload, seed, tiny=False):
    """The workload's invocation list for ``seed``; needs ``dposet`` importable."""
    if workload == "suites":
        return _suites(tiny)
    if workload == "special":
        return _special(seed, tiny)
    if workload == "plane":
        return _plane(tiny)
    raise ValueError(f"unknown workload: {workload}")
