"""Command-line front end: enumeration, evaluation, verification, reports.

Every verb wraps exactly one library operation.  All numeric output is exact
(fractions and Gaussian rationals rendered as literals).  ``--format`` selects
plain text (one result per line), JSON (objects tagged with a ``kind`` field
matching the schemas shipped under :mod:`dposet.schemas`), or CSV.

Exit codes: 0 on success, 1 on a domain or usage error, 2 when a verification
command finds violations.  Verification failures are printed as re-runnable
command lines with the offending elements in a trailing comment.
"""

import csv
import itertools
import json
import sys

import click

from .algebra import (
    _gram_cached,
    _join_terms,
    coproduct,
    format_lincomb,
    format_scalar,
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
from .series import decoration_counts, poincare_series

__all__ = ["main", "run"]


class VerificationFailure(Exception):
    """Raised after a verification report with violations has been printed."""


_FAMILY_CHOICES = tuple(f.value for f in Family)

_format_option = click.option(
    "--format",
    "fmt",
    type=click.Choice(["text", "json", "csv"]),
    default="text",
    show_default=True,
    help="Output format.",
)


def _emit(fmt, payload, text_lines, csv_rows):
    """Print one result in the chosen format.

    Each of ``payload`` (the JSON object), ``text_lines`` and ``csv_rows`` is
    a function of no arguments, and only the chosen format's is called.
    ``json`` builds the whole object and prints it at once; ``text`` and
    ``csv`` print each line or row as their iterable yields it, so a
    generator streams its rows instead of holding them all.
    """
    if fmt == "json":
        click.echo(json.dumps(payload(), indent=2))
    elif fmt == "csv":
        writer = csv.writer(sys.stdout, lineterminator="\n")
        for row in csv_rows():
            writer.writerow(row)
    else:
        for line in text_lines():
            click.echo(line)


def _emit_matrix(fmt, matrix, integral=False):
    """A square matrix of scalars.  An ``integral`` one (a Gram matrix) holds
    only ``int`` entries, which ``str`` and ``%d`` print as
    :func:`format_scalar` does; its text rows take one ``%d`` template
    each."""
    cell = str if integral else format_scalar

    def rows():
        return (list(map(cell, row)) for row in matrix)

    def lines():
        if integral:
            template = " ".join(["%d"] * len(matrix))
            return (template % tuple(row) for row in matrix)
        return (" ".join(row) for row in rows())

    _emit(fmt, lambda: {"kind": "matrix", "rows": list(rows())}, lines, rows)


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
        if isinstance(value, list):
            return "[" + " | ".join(str(x) for x in value) + "]"
        return str(value)

    lines = []
    for v in violations:
        detail = " ".join(f"{k}={show(v[k])}" for k in keys if k in v)
        lines.append(f"{command}  # {detail}")
    lines.append("fail")
    return lines


def _violation_csv(violations, keys):
    rows = [list(keys)]
    for v in violations:
        rows.append([json.dumps(v[k]) if isinstance(v.get(k), list) else str(v.get(k, "")) for k in keys])
    return rows


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


@click.group(name="dposet")
def cli():
    """Exact computations with double posets, permutations, and pairings."""


@cli.command(name="enumerate")
@click.option("--family", required=True, type=click.Choice(_FAMILY_CHOICES))
@click.option("--degree", required=True, type=int)
@_format_option
def enumerate_cmd(family, degree, fmt):
    """List the canonical members of a family at one degree."""
    _emit_elements(fmt, family, degree, enumerate_family(family, degree), format_poset)


@cli.command(name="classify")
@click.argument("poset")
@_format_option
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


@cli.command(name="op")
@click.argument("name", type=click.Choice(_OP_NAMES))
@click.argument("operands", nargs=-1)
@click.option(
    "--anchor",
    type=click.Choice(["greatest", "least"]),
    default="greatest",
    show_default=True,
    help="Splitting vertex for delta-prec/delta-succ: the greatest secondary "
    "label (special-poset convention) or the least (plane convention).",
)
@_format_option
def op_cmd(name, operands, anchor, fmt):
    """Apply a product, coproduct, or half operation to combinations."""
    arity = 1 if name in _UNARY_OPS else 2
    if len(operands) != arity:
        raise click.UsageError(f"op {name} takes exactly {arity} operand(s)")
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
        split = (
            sp_dendriform_coproducts if anchor == "greatest" else spp_dendriform_coproducts
        )
        out = split(combs[0])[0 if name == "delta-prec" else 1]
    _emit_lincomb(fmt, out)


@cli.command(name="pair")
@click.argument("left")
@click.argument("right")
@_format_option
def pair_cmd(left, right, fmt):
    """Pair two combinations; prints the exact scalar."""
    value = format_scalar(pairing(parse_lincomb(left), parse_lincomb(right)))
    _emit_value(fmt, "scalar", value, value)


@cli.command(name="gram")
@click.option("--family", required=True, type=click.Choice(_FAMILY_CHOICES))
@click.option("--degree", required=True, type=int)
@_format_option
def gram_cmd(family, degree, fmt):
    """Pairing matrix of a family basis at one degree."""
    _emit_matrix(fmt, _gram_cached(family, degree), integral=True)


@cli.command(name="kernel")
@click.option("--family", required=True, type=click.Choice(_FAMILY_CHOICES))
@click.option("--degree", required=True, type=int)
@_format_option
def kernel_cmd(family, degree, fmt):
    """Basis of the pairing radical of a family at one degree."""
    kernel = pairing_kernel_basis(family, degree)
    _emit_elements(fmt, family, degree, kernel, format_lincomb)


@cli.command(name="theta")
@click.argument("operand")
@_format_option
def theta_cmd(operand, fmt):
    """Sum of linear extensions of a special-poset combination."""
    _emit_lincomb(fmt, theta_map(parse_lincomb(operand)))


@cli.command(name="upsilon")
@click.argument("operand")
@_format_option
def upsilon_cmd(operand, fmt):
    """Projection onto heap-ordered forests along the kernel of theta."""
    _emit_lincomb(fmt, upsilon_map(parse_lincomb(operand)))


@cli.command(name="phi")
@click.argument("permutation")
@_format_option
def phi_cmd(permutation, fmt):
    """Special plane poset attached to a permutation."""
    value = format_poset(phi_map(parse_permutation(permutation)))
    _emit_value(fmt, "literal", value, value)


@cli.command(name="psi")
@click.argument("poset")
@_format_option
def psi_cmd(poset, fmt):
    """Permutation attached to a plane poset."""
    value = psi_map(parse_poset(poset)).literal()
    _emit_value(fmt, "literal", value, value)


@cli.command(name="bruhat-interval")
@click.argument("poset")
@_format_option
def bruhat_interval_cmd(poset, fmt):
    """Whether the linear extensions form a weak-order down-interval."""
    value = bruhat_interval_check(parse_poset(poset))
    _emit_value(fmt, "bool", value, "true" if value else "false")


@cli.command(name="diagonalize")
@click.argument("matrix")
@_format_option
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


@cli.group(name="isometry")
def isometry_group():
    """Isometries between integer pairing matrices."""


@isometry_group.command(name="build")
@click.argument("source_gram")
@click.argument("target_gram")
@_format_option
def isometry_build_cmd(source_gram, target_gram, fmt):
    """Gaussian-rational S with S^T A S = B for unimodular symmetric A, B."""
    S = build_isometry(_matrix_argument(source_gram), _matrix_argument(target_gram))
    _emit_matrix(fmt, S)


_ISO_KEYS = ("check", "degree", "elements", "expected", "got")


@isometry_group.command(name="verify")
@click.option(
    "--variant",
    type=click.Choice(ISOMETRY_VARIANTS),
    default="derived",
    show_default=True,
)
@click.option("--max-degree", type=int, default=2, show_default=True)
@_format_option
def isometry_verify_cmd(variant, max_degree, fmt):
    """Check the plane-to-special isometry tables degree by degree."""
    spec = plane_to_special_isometry(max_degree=max_degree, variant=variant)
    report = verify_graded_isometry(spec, max_degree)
    command = f"dposet isometry verify --variant {variant} --max-degree {max_degree}"
    _emit_report(fmt, {"kind": "isometry_report", **report}, command, _ISO_KEYS)


@cli.command(name="decorations")
@click.option("--family", required=True, type=click.Choice(_FAMILY_CHOICES))
@click.option("--order", type=int, default=5, show_default=True)
@_format_option
def decorations_cmd(family, order, fmt):
    """Generator counts of a family modeled as decorated plane forests."""
    counts = decoration_counts(family, order)
    poincare = poincare_series(family, order)
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


@cli.command(name="verify")
@click.option("--suite", required=True, type=click.Choice(AXIOM_SUITES))
@click.option("--max-degree", type=int, default=4, show_default=True)
@_format_option
def verify_cmd(suite, max_degree, fmt):
    """Run one axiom suite exhaustively through a total degree."""
    report = check_axioms(suite, max_degree=max_degree)
    command = f"dposet verify --suite {suite} --max-degree {max_degree}"
    payload = {"kind": "suite_report", "ok": not report["violations"], **report}
    _emit_report(fmt, payload, command, _SUITE_KEYS)


def run(argv=None):
    """Execute one CLI invocation and return its exit code."""
    try:
        cli.main(args=argv, prog_name="dposet", standalone_mode=False)
    except click.exceptions.Exit as exc:
        return exc.exit_code
    except click.UsageError as exc:
        exc.show()
        return 1
    except click.ClickException as exc:
        exc.show()
        return 1
    except VerificationFailure:
        return 2
    except ValueError as exc:
        click.echo(f"error: {exc}", err=True)
        return 1
    return 0


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
