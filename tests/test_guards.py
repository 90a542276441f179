"""Source guards: patterns that the package has removed and must not regrow."""

import ast
import importlib
import subprocess
import sys
from pathlib import Path

import dposet
from dposet import algebra, morphisms

SOURCES = sorted(Path(dposet.__file__).parent.glob("*.py"))
TRACER = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _leftmost(expr):
    while isinstance(expr, ast.BinOp) and isinstance(expr.op, (ast.Add, ast.Sub)):
        expr = expr.left
    return expr


class _LoopRebinding(ast.NodeVisitor):
    """Find ``x = x + ...`` and ``x = x - ...`` inside loops, by function."""

    def __init__(self):
        self.function = None
        self.loops = 0
        self.found = []

    def visit_FunctionDef(self, node):
        outer = (self.function, self.loops)
        self.function, self.loops = node.name, 0
        self.generic_visit(node)
        self.function, self.loops = outer

    visit_AsyncFunctionDef = visit_FunctionDef

    def visit_For(self, node):
        self.loops += 1
        self.generic_visit(node)
        self.loops -= 1

    visit_AsyncFor = visit_While = visit_For

    def visit_Assign(self, node):
        value = node.value
        if (
            self.loops
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and isinstance(value, ast.BinOp)
            and isinstance(value.op, (ast.Add, ast.Sub))
        ):
            left = _leftmost(value)
            if isinstance(left, ast.Name) and left.id == node.targets[0].id:
                self.found.append((self.function, node.lineno, ast.unparse(node)))
        self.generic_visit(node)


def _rebindings(source):
    finder = _LoopRebinding()
    finder.visit(ast.parse(source))
    return finder.found


def test_guard_finds_the_pattern():
    source = "def f(xs):\n    out = 0\n    for x in xs:\n        out = out - x * 2 + 1\n"
    assert [name for name, _, _ in _rebindings(source)] == ["f"]
    assert _rebindings("def f(xs):\n    out = 0\n    out = out + 1\n") == []


def test_no_sum_is_rebuilt_inside_a_loop():
    found = [
        f"{path.name}:{line} in {function}: {text}"
        for path in SOURCES
        for function, line, text in _rebindings(path.read_text())
    ]
    assert found == [], "accumulate into a list or LinComb.sum instead:\n" + "\n".join(found)


def _tracer_table(name):
    """The literal value of a module-level assignment in the bench tracer."""
    for node in ast.parse(TRACER.read_text()).body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"{name} not found in {TRACER}")


def test_every_name_the_bench_tracer_wraps_exists():
    missing = [
        f"{module}.{function}"
        for module, functions in _tracer_table("SPANS").items()
        for function in functions
        if not callable(getattr(importlib.import_module("dposet." + module), function, None))
    ]
    uncached = [
        f"{module}.{function}"
        for module, function in _tracer_table("CACHES")
        if not hasattr(getattr(importlib.import_module("dposet." + module), function, None), "cache_info")
    ]
    assert (missing, uncached) == ([], [])


# Caches keyed by a degree or by (family, degree) alone: a run names few keys,
# and a bound would only evict what is asked for again.
UNBOUNDED_CACHES = {
    "poset_core._natural_up": "keyed by the degree: one tuple of n masks",
    "poset_core._sp_masks": "keyed by (degree, heap): the special posets of one degree as masks",
}


def _module_caches():
    """``module.name`` -> function for every functools cache defined at module level."""
    found = {}
    for path in SOURCES:
        if path.stem == "__main__":
            continue
        module = importlib.import_module("dposet" if path.stem == "__init__" else f"dposet.{path.stem}")
        for name, value in vars(module).items():
            if hasattr(value, "cache_info") and value.__module__ == module.__name__:
                found[f"{path.stem}.{name}"] = value
    return found


def test_every_module_level_cache_is_bounded():
    caches = _module_caches()
    assert set(UNBOUNDED_CACHES) <= set(caches)
    unbounded = sorted(
        name
        for name, fn in caches.items()
        if fn.cache_info().maxsize is None and name not in UNBOUNDED_CACHES
    )
    assert unbounded == []


def _calls_to(source, name):
    """``(function, line)`` of every call of ``name`` or ``module.name``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for call in ast.walk(node):
                if isinstance(call, ast.Call):
                    callee = call.func
                    called = callee.id if isinstance(callee, ast.Name) else getattr(callee, "attr", None)
                    if called == name:
                        found.append((node.name, call.lineno))
    return found


def _dicts_with_key(source, key):
    """The function of every dict display with the constant key ``key``;
    a display in a nested function counts for the outer function too."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            for d in ast.walk(node):
                keys = d.keys if isinstance(d, ast.Dict) else ()
                if any(isinstance(k, ast.Constant) and k.value == key for k in keys):
                    found.append(node.name)
    return found


def test_violation_entries_are_built_by_one_collector():
    # the axiom suites and the graded-isometry check feed algebra._collect
    # their cases; a violation dict built anywhere else is a second driver
    found = [(path.name, f) for path in SOURCES for f in _dicts_with_key(path.read_text(), "expected")]
    assert found == [("algebra.py", "_collect")]


def test_guard_finds_inverse_calls():
    source = "def f(A):\n    return linalg.mat_inverse(A)\n\ndef g(A):\n    return mat_inverse(A)\n"
    assert _calls_to(source, "mat_inverse") == [("f", 2), ("g", 5)]


def test_no_function_in_the_package_inverts_a_matrix():
    # congruence and isometries are certified by unimodular steps and checked
    # products; a generic inverse is for callers and tests only
    found = [
        f"{path.name}:{line} in {function}"
        for path in SOURCES
        for function, line in _calls_to(path.read_text(), "mat_inverse")
    ]
    assert found == []


def test_linear_extensions_are_kept_in_one_table():
    # every reader goes through algebra._extensions; the bench tracer finds
    # it as morphisms._extensions and counts len() of an entry as words
    found = [
        (path.name, function)
        for path in SOURCES
        for function, _ in _calls_to(path.read_text(), "extension_words")
    ]
    assert found == [("algebra.py", "_extensions")]
    assert morphisms._extensions is algebra._extensions


# The one construction path of trusted values: posets from closed masks, and
# permutations from words known to list 1..n.  Every other builder goes
# through these, so no value skips a check or the table of derived posets.
OBJECT_NEW_ALLOWED = {("poset_core.py", "DoublePoset._from_masks"), ("fqsym.py", "Permutation._trusted")}


def _object_new_calls(source):
    """``(qualified function, line)`` of every call of ``object.__new__``."""
    found = []

    def visit(node, scope):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef)):
                visit(child, scope + [child.name])
                continue
            callee = child.func if isinstance(child, ast.Call) else None
            if (
                isinstance(callee, ast.Attribute)
                and callee.attr == "__new__"
                and isinstance(callee.value, ast.Name)
                and callee.value.id == "object"
            ):
                found.append((".".join(scope) or "<module>", child.lineno))
            visit(child, scope)

    visit(ast.parse(source), [])
    return found


def test_guard_finds_private_constructions():
    source = (
        "class P:\n    @classmethod\n    def make(cls):\n        return object.__new__(cls)\n\n"
        "def compose(P, Q):\n    out = object.__new__(SpecialPoset)\n    return out\n"
    )
    assert _object_new_calls(source) == [("P.make", 4), ("compose", 7)]


def test_values_are_built_on_one_path():
    calls = [(path.name, function, line) for path in SOURCES for function, line in _object_new_calls(path.read_text())]
    assert OBJECT_NEW_ALLOWED <= {(name, function) for name, function, _ in calls}
    found = [f"{name}:{line} in {function}" for name, function, line in calls if (name, function) not in OBJECT_NEW_ALLOWED]
    assert found == [], "build through DoublePoset._from_masks or Permutation._trusted:\n" + "\n".join(found)


def test_importing_the_cli_and_running_a_verb_loads_no_heavy_module():
    """Each of these would cost every verb start-up time: argparse alone
    brings gettext, and its first message lookup locale.  The child also
    runs one verb, stdout discarded, so a module imported on first use is
    caught too.  ``-S`` skips ``site``, whose ``.pth`` hooks may import
    ``typing`` themselves, and ``-B`` keeps the child from writing bytecode
    into the source tree."""
    heavy = ("argparse", "click", "dataclasses", "gettext", "inspect", "locale", "typing")
    child = (
        "import os, sys, dposet.cli\n"
        "out, sys.stdout = sys.stdout, open(os.devnull, 'w')\n"
        "code = dposet.cli.run(['theta', 'SP(1;)'])\n"
        "sys.stdout = out\n"
        "print(code, sorted(set(sys.argv[1:]) & set(sys.modules)))"
    )
    done = subprocess.run(
        [sys.executable, "-S", "-B", "-c", child, *heavy],
        capture_output=True,
        text=True,
        env={"PYTHONPATH": str(Path(dposet.__file__).resolve().parents[1])},
        timeout=120,
    )
    assert (done.returncode, done.stdout, done.stderr) == (0, "0 []\n", "")
