"""Per-layer tracing of one CLI invocation, installed from outside ``dposet``.

``Tracer.install`` wraps the functions named in ``SPANS`` and ``LinComb``'s
constructor.  A wrapper is put on every attribute of every loaded ``dposet``
module that binds the original function, because ``from .poset_core import
compose`` copies the name into each importing module and patching only the
defining module would miss those calls.  Cache counts are read from the
original ``lru_cache`` objects, so the wrappers change no cache behaviour.

A span's self time is its duration minus the time of the traced spans it
encloses.  Spans are aggregated by name (calls, self seconds) instead of being
kept one by one: a degree-5 suite opens millions of them.
"""

import functools
import sys
import time

# Layer boundaries that open a span, by module.  A span is named
# ``module.function`` without the function's leading underscore.
SPANS = {
    "algebra": (
        "lc_product",
        "coproduct",
        "pairing",
        "pairing_basis",
        "gram_matrix",
        "tensor_of",
        "apply_slot",
        "antipode",
    ),
    "morphisms": (
        "theta",
        "theta_hof_inverse",
        "upsilon",
        "upsilon_by_rewriting",
        "pairing_kernel_basis",
        "linear_extensions",
        "phi",
        "psi",
        "bruhat_interval_check",
    ),
    "linalg": (
        "rank_kernel",
        "mat_inverse",
        "congruence_diagonalize",
        "build_isometry",
        "det",
        "mat_mul",
        "mat_transpose",
        "verify_graded_isometry",
        "plane_to_special_isometry",
    ),
    "poset_core": (
        "enumerate_family",
        "compose",
        "restrict",
        "ideals",
        "nwarrow",
        "classify",
        "canonical_form",
        "kappa",
        "b_plus",
    ),
    "fqsym": (
        "shuffle_product",
        "fq_coproduct",
        "fq_nwarrow",
        "fq_dendriform_coproducts",
        "fq_pairing",
        "weak_interval_down",
    ),
    "dupdend": (
        "check_axioms",
        "sp_nwarrow",
        "_split_coproducts",
        "spf_prec",
        "spf_succ",
        "prim_tot_basis",
    ),
}

# lru_cache objects whose cache_info() is reported, as (module, function).
CACHES = [
    ("algebra", "_picture_count"),
    ("algebra", "_key_coproduct"),
    ("morphisms", "_extensions"),
    ("poset_core", "_sp_masks"),
]


def _matrix_cells(args, result):
    rows = args[0]
    return len(rows) * (len(rows[0]) if rows else 0)


# Work counted at a span, as span name -> (counter name, count of one call).
COUNTERS = {
    "linalg.rank_kernel": ("linalg.rank_kernel.cells", _matrix_cells),
    "linalg.mat_inverse": ("linalg.mat_inverse.cells", _matrix_cells),
    "poset_core.enumerate_family": (
        "poset_core.enumerate_family.elements",
        lambda args, result: len(result),
    ),
    "dupdend.check_axioms": (
        "dupdend.check_axioms.tuples",
        lambda args, result: result["tuples_checked"],
    ),
}


class Tracer:
    """Aggregated spans, counters and cache counts of one process."""

    def __init__(self):
        self.spans = {}  # span name -> [calls, self seconds]
        self.counts = {}
        self._enclosed = [0.0]  # traced child time of each open span
        self._caches = {}

    def _span(self, name, fn, count=None):
        stat = self.spans.setdefault(name, [0, 0.0])
        enclosed = self._enclosed
        counts = self.counts
        clock = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            enclosed.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stat[0] += 1
                stat[1] += elapsed - enclosed.pop()
                enclosed[-1] += elapsed
            if count is not None:
                counts[count[0]] = counts.get(count[0], 0) + count[1](args, result)
            return result

        return wrapper

    def _counted_extensions(self, fn):
        """Count the words ``_extensions`` enumerates on its cache misses."""
        counts = self.counts
        counts["morphisms._extensions.words"] = 0

        @functools.wraps(fn)
        def wrapper(P):
            misses = fn.cache_info().misses
            words = fn(P)
            if fn.cache_info().misses != misses:
                counts["morphisms._extensions.words"] += len(words)
            return words

        return wrapper

    def _wrap_lincomb(self, LinComb):
        """Count builds and the terms that go in and come out of each one."""
        counts = self.counts
        counts["algebra.LinComb.terms_in"] = 0
        counts["algebra.LinComb.terms_out"] = 0
        original = LinComb.__init__

        def feed(items):
            for item in items:
                counts["algebra.LinComb.terms_in"] += 1
                yield item

        def __init__(self, terms=()):
            items = terms.items() if isinstance(terms, dict) else terms
            original(self, feed(items))
            counts["algebra.LinComb.terms_out"] += len(self._terms)

        LinComb.__init__ = self._span("algebra.LinComb", __init__)

    def install(self):
        """Wrap every binding of the traced functions in the loaded modules."""
        package = {
            name: module
            for name, module in sys.modules.items()
            if name == "dposet" or name.startswith("dposet.")
        }
        wrapped = {}
        for module, functions in SPANS.items():
            for function in functions:
                fn = getattr(package["dposet." + module], function)
                name = f"{module}.{function.lstrip('_')}"
                wrapped[id(fn)] = self._span(name, fn, COUNTERS.get(name))
        for module, function in CACHES:
            fn = getattr(package["dposet." + module], function)
            self._caches[f"{module}.{function}"] = fn
        extensions = self._caches["morphisms._extensions"]
        wrapped[id(extensions)] = self._counted_extensions(extensions)
        for module in package.values():
            for attr, value in list(vars(module).items()):
                if id(value) in wrapped:
                    setattr(module, attr, wrapped[id(value)])
        self._wrap_lincomb(package["dposet.algebra"].LinComb)

    def call(self, fn, *args):
        """Run ``fn`` as the root span ``cli``: its self time is the
        invocation's time outside every traced call."""
        return self._span("cli", fn)(*args)

    def report(self):
        caches = {}
        for name, fn in self._caches.items():
            info = fn.cache_info()
            caches[name] = [info.hits, info.misses]
        return {"spans": self.spans, "counts": self.counts, "caches": caches}
