"""Command-line front end: enumeration, evaluation, verification, reports.

Every verb wraps exactly one library operation.  All numeric output is exact
(fractions and Gaussian rationals rendered as literals).  ``--format`` selects
plain text (one result per line), JSON (objects tagged with a ``kind`` field
matching the schemas shipped under :mod:`dposet.schemas`), or CSV.

``dposet --help`` lists every verb; ``dposet VERB --help`` lists the verb's
operands and options, with their choices and defaults.  An option reads
``--opt value`` or ``--opt=value`` anywhere among the operands, and the last
of a repeated option wins.  Before ``--`` an argument that starts with ``-``
is an option; after it every argument is an operand, so an operand such as
``-2*SP(1;)`` goes after ``--``.  The parser reads the verbs' own argument
specs, and builds usage and help text only to print them.

Exit codes: 0 on success and after ``--help``, 1 on a domain or usage error,
2 when a verification command finds violations.  A usage error (an unknown
verb or option, a bad choice or integer, a missing option, value or operand,
an operand too many) prints the verb's usage line and a ``dposet VERB:
error:`` line on stderr, a domain error the ``error:`` line alone.
Verification failures are printed as re-runnable command lines with the
offending elements in a trailing comment.
"""

import csv
import itertools
import json
import os
import re
import sys

from .algebra import (
    _join_terms,
    coproduct,
    format_lincomb,
    format_scalar,
    gram_matrix,
    lc_product,
    pairing,
    parse_lincomb,
)
from .dupdend import (
    AXIOM_SUITES,
    check_axioms,
    sp_dendriform_coproducts,
    sp_nwarrow,
    spf_prec,
    spf_succ,
    spp_dendriform_coproducts,
)
from .fqsym import Permutation, fq_nwarrow, parse_permutation
from .linalg import (
    ISOMETRY_VARIANTS,
    build_isometry,
    congruence_diagonalize,
    plane_to_special_isometry,
    verify_graded_isometry,
)
from .morphisms import (
    bruhat_interval_check,
    pairing_kernel_basis,
    phi as phi_map,
    psi as psi_map,
    theta as theta_map,
    upsilon as upsilon_map,
)
from .poset_core import Family, classify, enumerate_family, format_poset, parse_poset
from .series import _decoration_series, poincare_series

__all__ = ["main", "run"]


class VerificationFailure(Exception):
    """Raised after a verification report with violations has been printed."""


_FAMILY_CHOICES = tuple(f.value for f in Family)


# -- output ------------------------------------------------------------------------


def _write_lines(lines):
    """Write each of ``lines`` and a newline to stdout, 1,024 lines a write:
    a streamed output holds one batch of text at a time, and an unbuffered
    stdout (``PYTHONUNBUFFERED``) makes one system call per batch, not per
    line."""
    lines = iter(lines)
    write = sys.stdout.write
    while batch := list(itertools.islice(lines, 1024)):
        batch.append("")
        write("\n".join(batch))


def _write_csv(rows):
    csv.writer(sys.stdout, lineterminator="\n").writerows(rows)


def _emit(fmt, payload, text_lines, csv_rows):
    """Print one result in the chosen format.

    Each of ``payload`` (the JSON object), ``text_lines`` and ``csv_rows`` is
    a function of no arguments, and only the chosen format's is called.
    ``json`` builds the whole object and prints it at once; ``text`` and
    ``csv`` print each line or row as their iterable yields it, so a
    generator streams its rows instead of holding them all.
    """
    if fmt == "json":
        sys.stdout.write(json.dumps(payload(), indent=2) + "\n")
    elif fmt == "csv":
        _write_csv(csv_rows())
    else:
        _write_lines(text_lines())


def _emit_matrix(fmt, matrix, integral=False):
    """A square matrix of scalars; its JSON object is ``{"kind": "matrix",
    "rows": ...}`` with the cells as strings.

    Every format writes a row at a time.  JSON comes out byte for byte as
    ``json.dumps(payload, indent=2)`` prints it; a cell is quoted as is,
    since :func:`format_scalar` prints only digits, ``/``, ``+``, ``-``,
    ``*`` and ``I``.  An ``integral`` matrix (a Gram matrix) holds only
    ``int`` entries, which ``%d`` prints as :func:`format_scalar` does, so
    each of its text and JSON rows takes one ``%d`` template.
    """
    cell = str if integral else format_scalar

    def rows():
        return (list(map(cell, row)) for row in matrix)

    def joined(sep, quoted):
        """Each row's cells, each as ``quoted % cell``, joined by ``sep``."""
        if integral:
            template = sep.join([quoted % "%d"] * len(matrix))
            return (template % tuple(row) for row in matrix)
        return (sep.join([quoted % c for c in cells]) for cells in rows())

    if fmt == "csv":
        _write_csv(rows())
        return
    write = sys.stdout.write
    if fmt == "json":
        write('{\n  "kind": "matrix",\n  "rows": [')
        sep = "\n"
        for row in joined(",\n      ", '"%s"'):
            write(sep + "    [\n      " + row + "\n    ]")
            sep = ",\n"
        write("]\n}\n" if sep == "\n" else "\n  ]\n}\n")
    else:
        for row in joined(" ", "%s"):
            write(row + "\n")


def _emit_lincomb(fmt, value):
    """Text prints the literal alone; JSON and CSV format each key once."""

    def keyed():
        return [(key.literal(), coeff) for key, coeff in value.terms()]

    def payload():
        terms = keyed()
        return {
            "kind": "lincomb",
            "value": _join_terms(terms),
            "terms": [{"coefficient": format_scalar(c), "key": k} for k, c in terms],
        }

    _emit(
        fmt,
        payload,
        lambda: [format_lincomb(value)],
        lambda: [["coefficient", "key"], *([format_scalar(c), k] for k, c in keyed())],
    )


def _emit_elements(fmt, family, degree, items, literal):
    """The literals of ``items`` under ``literal``, made as they print in
    text and CSV."""

    def payload():
        elements = [literal(x) for x in items]
        return {
            "kind": "elements",
            "family": family,
            "degree": degree,
            "count": len(elements),
            "elements": elements,
        }

    _emit(
        fmt,
        payload,
        lambda: map(literal, items),
        lambda: itertools.chain([["literal"]], ([literal(x)] for x in items)),
    )


def _emit_value(fmt, kind, value, text):
    """One value: the JSON object ``{"kind": kind, "value": value}``, or
    ``text`` alone in text and CSV."""
    _emit(
        fmt,
        lambda: {"kind": kind, "value": value},
        lambda: [text],
        lambda: [["value"], [text]],
    )


def _matrix_argument(text):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"bad matrix literal: {exc}") from None
    if not (
        isinstance(data, list)
        and data
        and all(isinstance(row, list) for row in data)
        and all(isinstance(x, int) and not isinstance(x, bool) for row in data for x in row)
    ):
        raise ValueError("matrix must be a JSON array of integer rows")
    return [list(row) for row in data]


def _violation_lines(command, violations, keys):
    def show(value):
        return "[" + " | ".join(map(str, value)) + "]" if isinstance(value, list) else str(value)

    lines = [f"{command}  # " + " ".join(f"{k}={show(v[k])}" for k in keys) for v in violations]
    return lines + ["fail"]


def _violation_csv(violations, keys):
    def cell(value):
        return json.dumps(value) if isinstance(value, list) else str(value)

    return [list(keys), *([cell(v[k]) for k in keys] for v in violations)]


def _emit_report(fmt, payload, command, keys):
    """Print a verification report: ``pass``, or each violation as the
    re-runnable ``command`` and then a failure exit."""
    violations = payload["violations"]
    _emit(
        fmt,
        lambda: payload,
        lambda: _violation_lines(command, violations, keys) if violations else ["pass"],
        lambda: _violation_csv(violations, keys),
    )
    if violations:
        raise VerificationFailure(command)


# -- verbs -------------------------------------------------------------------------

# verb name -> (function, its arguments as (name, keywords) made by _argument)
_VERBS = {}

# verb group -> description; "" is ``dposet`` itself
_GROUPS = {
    "": "Exact computations with double posets, permutations, and pairings.",
    "isometry": "Isometries between integer pairing matrices.",
}


def _argument(name, **keywords):
    keywords.setdefault("dest", name.lstrip("-").replace("-", "_"))
    return name, keywords


_FORMAT = _argument(
    "--format", dest="fmt", choices=("text", "json", "csv"), default="text", help="output format"
)
_FAMILY = _argument("--family", required=True, choices=_FAMILY_CHOICES, help="poset family")
_DEGREE = _argument("--degree", required=True, type=int, help="degree of the basis")


def _verb(name, *arguments):
    """Register the decorated function as verb ``name``, called with the
    parsed ``arguments`` and ``--format`` as keywords.  Its docstring is the
    verb's help, and the first line its summary in the listing."""

    def register(fn):
        _VERBS[name] = (fn, (*arguments, _FORMAT))
        return fn

    return register


@_verb("enumerate", _FAMILY, _DEGREE)
def enumerate_cmd(family, degree, fmt):
    """List the canonical members of a family at one degree."""
    _emit_elements(fmt, family, degree, enumerate_family(family, degree), format_poset)


@_verb("classify", _argument("poset", help="double poset literal"))
def classify_cmd(poset, fmt):
    """Name every proper family containing a double poset."""
    P = parse_poset(poset)
    tags = classify(P)
    families = [f.value for f in Family if f in tags]
    _emit(
        fmt,
        lambda: {"kind": "classification", "poset": format_poset(P), "families": families},
        lambda: families,
        lambda: [["family"], *[[f] for f in families]],
    )


_OP_NAMES = ("product", "coproduct", "nwarrow", "prec", "succ", "delta-prec", "delta-succ")
_UNARY_OPS = {"coproduct", "delta-prec", "delta-succ"}


def _nwarrow(x, y):
    if all(isinstance(key, Permutation) for z in (x, y) for key, _ in z.items()):
        return fq_nwarrow(x, y)
    return sp_nwarrow(x, y)


@_verb(
    "op",
    _argument("name", choices=_OP_NAMES, help="operation"),
    _argument("operands", nargs="*", help="combination literals: one or two"),
    _argument(
        "--anchor",
        choices=("greatest", "least"),
        default="greatest",
        help="splitting vertex for delta-prec/delta-succ: the greatest secondary "
        "label (special-poset convention) or the least (plane convention)",
    ),
)
def op_cmd(name, operands, anchor, fmt):
    """Apply a product, coproduct, or half operation to combinations."""
    arity = 1 if name in _UNARY_OPS else 2
    if len(operands) != arity:
        raise ValueError(f"op {name} takes exactly {arity} operand(s)")
    combs = [parse_lincomb(text) for text in operands]
    if name == "product":
        out = lc_product(*combs)
    elif name == "coproduct":
        out = coproduct(combs[0])
    elif name == "nwarrow":
        out = _nwarrow(*combs)
    elif name == "prec":
        out = spf_prec(*combs)
    elif name == "succ":
        out = spf_succ(*combs)
    else:
        split = sp_dendriform_coproducts if anchor == "greatest" else spp_dendriform_coproducts
        out = split(combs[0])[0 if name == "delta-prec" else 1]
    _emit_lincomb(fmt, out)


@_verb(
    "pair",
    _argument("left", help="combination literal"),
    _argument("right", help="combination literal"),
)
def pair_cmd(left, right, fmt):
    """Pair two combinations; prints the exact scalar."""
    value = format_scalar(pairing(parse_lincomb(left), parse_lincomb(right)))
    _emit_value(fmt, "scalar", value, value)


@_verb("gram", _FAMILY, _DEGREE)
def gram_cmd(family, degree, fmt):
    """Pairing matrix of a family basis at one degree."""
    _emit_matrix(fmt, gram_matrix(family, degree), integral=True)


@_verb("kernel", _FAMILY, _DEGREE)
def kernel_cmd(family, degree, fmt):
    """Basis of the pairing radical of a family at one degree."""
    kernel = pairing_kernel_basis(family, degree)
    _emit_elements(fmt, family, degree, kernel, format_lincomb)


@_verb("theta", _argument("operand", help="combination of special posets"))
def theta_cmd(operand, fmt):
    """Sum of linear extensions of a special-poset combination."""
    _emit_lincomb(fmt, theta_map(parse_lincomb(operand)))


@_verb("upsilon", _argument("operand", help="combination of special posets"))
def upsilon_cmd(operand, fmt):
    """Projection onto heap-ordered forests along the kernel of theta."""
    _emit_lincomb(fmt, upsilon_map(parse_lincomb(operand)))


@_verb("phi", _argument("permutation", help="permutation literal"))
def phi_cmd(permutation, fmt):
    """Special plane poset attached to a permutation."""
    value = format_poset(phi_map(parse_permutation(permutation)))
    _emit_value(fmt, "literal", value, value)


@_verb("psi", _argument("poset", help="plane poset literal"))
def psi_cmd(poset, fmt):
    """Permutation attached to a plane poset."""
    value = psi_map(parse_poset(poset)).literal()
    _emit_value(fmt, "literal", value, value)


@_verb("bruhat-interval", _argument("poset", help="double poset literal"))
def bruhat_interval_cmd(poset, fmt):
    """Whether the linear extensions form a weak-order down-interval."""
    value = bruhat_interval_check(parse_poset(poset))
    _emit_value(fmt, "bool", value, "true" if value else "false")


_MATRIX_HELP = "JSON array of integer rows"


@_verb("diagonalize", _argument("matrix", help=_MATRIX_HELP))
def diagonalize_cmd(matrix, fmt):
    """Congruence certificate of a symmetric unimodular integer matrix."""
    cert = congruence_diagonalize(_matrix_argument(matrix))

    def join(rows):
        return " | ".join(" ".join(str(x) for x in row) for row in rows)

    _emit(
        fmt,
        lambda: {"kind": "certificate", **cert.as_dict()},
        lambda: [
            "blocks: " + " ".join(cert.blocks),
            "transform: " + join(cert.transform),
            "block-matrix: " + join(cert.block_matrix),
        ],
        lambda: [
            ["section", "row"],
            ["blocks", " ".join(cert.blocks)],
            *[["transform", " ".join(str(x) for x in row)] for row in cert.transform],
            *[["block_matrix", " ".join(str(x) for x in row)] for row in cert.block_matrix],
        ],
    )


@_verb(
    "isometry build",
    _argument("source_gram", help=_MATRIX_HELP),
    _argument("target_gram", help=_MATRIX_HELP),
)
def isometry_build_cmd(source_gram, target_gram, fmt):
    """Gaussian-rational S with S^T A S = B for unimodular symmetric A, B."""
    S = build_isometry(_matrix_argument(source_gram), _matrix_argument(target_gram))
    _emit_matrix(fmt, S)


_ISO_KEYS = ("check", "degree", "elements", "expected", "got")


@_verb(
    "isometry verify",
    _argument("--variant", choices=ISOMETRY_VARIANTS, default="derived", help="isometry table"),
    _argument("--max-degree", type=int, default=2, help="highest degree checked"),
)
def isometry_verify_cmd(variant, max_degree, fmt):
    """Check the plane-to-special isometry tables degree by degree."""
    spec = plane_to_special_isometry(max_degree=max_degree, variant=variant)
    report = verify_graded_isometry(spec, max_degree)
    command = f"dposet isometry verify --variant {variant} --max-degree {max_degree}"
    _emit_report(fmt, {"kind": "isometry_report", **report}, command, _ISO_KEYS)


@_verb(
    "decorations",
    _FAMILY,
    _argument("--order", type=int, default=5, help="truncation order"),
)
def decorations_cmd(family, order, fmt):
    """Generator counts of a family modeled as decorated plane forests."""
    poincare = poincare_series(family, order)
    counts = _decoration_series(poincare)
    decorations = [format_scalar(c) for c in counts.coefficients]
    _emit(
        fmt,
        lambda: {
            "kind": "series",
            "family": family,
            "order": order,
            "poincare": [format_scalar(c) for c in poincare.coefficients],
            "decorations": decorations,
        },
        lambda: [" ".join(decorations)],
        lambda: [["degree", "count"], *[[str(i), c] for i, c in enumerate(decorations)]],
    )


_SUITE_KEYS = ("axiom", "elements", "expected", "got")


@_verb(
    "verify",
    _argument("--suite", required=True, choices=AXIOM_SUITES, help="axiom suite"),
    _argument("--max-degree", type=int, default=4, help="highest total degree"),
)
def verify_cmd(suite, max_degree, fmt):
    """Run one axiom suite exhaustively through a total degree."""
    report = check_axioms(suite, max_degree=max_degree)
    command = f"dposet verify --suite {suite} --max-degree {max_degree}"
    payload = {"kind": "suite_report", "ok": not report["violations"], **report}
    _emit_report(fmt, payload, command, _SUITE_KEYS)


# -- parsing -----------------------------------------------------------------------


def _fail(name, message):
    """End the parse after a usage error in verb or group ``name``, with exit
    code 1: its usage line and ``dposet NAME: error: MESSAGE`` on stderr."""
    sys.stderr.write(f"usage: {_layout(name)[0]}\n{f'dposet {name}'.rstrip()}: error: {message}\n")
    raise SystemExit(1)


def _resolve(args):
    """The verb that ``args`` starts with, and the arguments after its name."""
    group = ""
    while True:
        if not args:
            _fail(group, "missing verb")
        head, args = args[0], args[1:]
        if head == "--help":
            sys.stdout.write(_layout(group)[1])
            raise SystemExit(0)
        name = f"{group} {head}".lstrip()
        if name in _VERBS:
            return name, args
        if not head or name not in _GROUPS:
            _fail(group, f"No such {'option' if head.startswith('-') else 'command'}: {head!r}")
        group = name


def _layout(name):
    """The usage line and the help of verb or verb group ``name`` ("" is
    ``dposet`` itself), laid out as argparse laid them out at 80 columns,
    the usage on one line; made only for ``--help`` or a usage error.  A
    group's help lists its verbs."""
    import textwrap

    prog = f"dposet {name}".rstrip()
    group = name in _GROUPS
    doc, arguments = (_GROUPS[name], ()) if group else (_VERBS[name][0].__doc__, _VERBS[name][1])
    usage, tail = [f"{prog} [--help]"], ["VERB [ARGS]..."] if group else []
    sections = {False: [], True: [("--help", "show this message and exit")]}  # operands, options
    for arg, keywords in arguments:
        option = arg.startswith("-")
        choices = keywords.get("choices")
        metavar = "{" + ",".join(choices) + "}" if choices else keywords["dest"].upper()
        shown = f"{arg} {metavar}" if option else metavar if choices else arg
        if option:
            usage.append(shown if keywords.get("required") else f"[{shown}]")
        else:
            tail.append(f"[{shown} ...]" if keywords.get("nargs") else shown)
        default = f" (default: {keywords['default']})" if "default" in keywords else ""
        sections[option].append((shown, keywords["help"] + default))
    usage = " ".join(usage + tail)
    text = f"usage: {usage}\n\n{doc}\n"
    # a row's text starts past the widest row or at column 24, below a wider row
    width = min(max(len(shown) for rows in sections.values() for shown, _ in rows), 20)
    indent = "\n" + " " * (width + 4)
    for title, rows in zip(("positional arguments", "options"), sections.values()):
        text += f"\n{title}:\n" if rows else ""
        for shown, line in rows:
            text += f"  {shown:<{width}}  " if len(shown) <= width else f"  {shown}{indent}"
            text += indent.join(textwrap.wrap(line, 74 - width)) + "\n"
    if group:
        verbs = {
            verb[len(name) :].strip(): fn.__doc__.partition("\n")[0]
            for verb, (fn, _) in _VERBS.items()
            if not name or verb.startswith(name + " ")
        }
        width = max(map(len, verbs))
        text += "\nverbs:\n" + "".join(f"  {v:<{width}}  {line}\n" for v, line in verbs.items())
        text += f"\n'{prog} VERB --help' lists a verb's operands and options.\n"
    return usage, text


def _parse(name, args):
    """The keyword arguments of verb ``name`` read from ``args`` in two passes.

    The first splits options from operands and refuses an unknown option.  An
    option takes the text after ``=``, or else the next argument unless that
    reads as an option (``-``, a negative number or a text with a space does
    not).  The second acts on the options in order (``--help`` prints the
    help) and fills the verb's operands in order, a ``nargs="*"`` one the rest.
    """
    arguments = _VERBS[name][1]
    options = {arg: keywords for arg, keywords in arguments if arg.startswith("-")}
    bound = {kw["dest"]: kw.get("default") for kw in options.values() if not kw.get("required")}

    def bind(arg, keywords, text):
        if text is None:
            _fail(name, f"argument {arg}: expected one argument")
        try:
            text = keywords.get("type", str)(text)
        except ValueError:  # only an int option's value can be refused here
            _fail(name, f"argument {arg}: invalid int value: {text!r}")
        if text not in keywords.get("choices", (text,)):
            listed = ", ".join(map(repr, keywords["choices"]))
            _fail(name, f"argument {arg}: invalid choice: {text!r} (choose from {listed})")
        bound[keywords["dest"]] = text

    given, operands = [], []
    args = iter(args)
    for arg in args:
        option, eq, text = arg.partition("=")
        if arg == "--":
            operands += args
        elif arg == "--help" or option in options:
            if not (eq or arg == "--help"):
                text = next(args, None)
                text = None if text and re.match(r"-(?!\d+$|\d*\.\d+$)[^ ]+$", text) else text
            given.append((option, text))
        elif arg.startswith("-") and arg != "-":
            _fail(name, f"No such option: {arg!r}")
        else:
            operands.append(arg)
    if "--" in operands:
        _fail(name, "'--' is not an operand")
    for option, text in given:
        if option == "--help":
            sys.stdout.write(_layout(name)[1])
            raise SystemExit(0)
        bind(option, options[option], text)
    missing = [arg for arg, kw in options.items() if kw["dest"] not in bound]
    for arg, keywords in (argument for argument in arguments if argument[0] not in options):
        if not operands and not (keywords.get("nargs") and all(m[0] == "-" for m in missing)):
            missing.append(arg)
        elif keywords.get("nargs"):
            bound[keywords["dest"]], operands = operands, []
        else:
            bind(arg, keywords, operands.pop(0))
    if missing:
        _fail(name, "the following arguments are required: " + ", ".join(missing))
    if operands:
        _fail(name, "unrecognized arguments: " + " ".join(operands))
    return bound


def run(argv=None):
    """Execute one CLI invocation and return its exit code."""
    try:
        name, args = _resolve(sys.argv[1:] if argv is None else list(argv))
        keywords = _parse(name, args)
    except SystemExit as exc:  # 0 after --help, 1 after a usage error
        return exc.code
    try:
        _VERBS[name][0](**keywords)
    except VerificationFailure:
        return 2
    except ValueError as exc:
        sys.stderr.write(f"error: {exc}\n")
        return 1
    return 0


def main():
    """Console entry point.  A reader that closes the pipe early (``| head``)
    ends the output quietly, with exit code 1."""
    try:
        code = run()
        sys.stdout.flush()
    except BrokenPipeError:
        # the interpreter flushes stdout once more at exit; give it a sink
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = 1
    sys.exit(code)


if __name__ == "__main__":
    main()
