"""Tests for the command-line front end: exit codes, output formats, schema
conformance, and round-trips of printed literals."""

import importlib.resources
import json

import jsonschema
import pytest

from dposet.algebra import parse_lincomb
from dposet.cli import run
from dposet.fqsym import parse_permutation
from dposet.poset_core import parse_poset


@pytest.fixture
def cli(capsys):
    def invoke(*argv):
        code = run(list(argv))
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return invoke


def validate_against_schema(payload):
    ref = importlib.resources.files("dposet") / "schemas" / f"{payload['kind']}.json"
    schema = json.loads(ref.read_text())
    jsonschema.validate(payload, schema)


# -- documented examples -----------------------------------------------------------


def test_enumerate_spp_degree_three(cli):
    code, out, err = cli("enumerate", "--family", "spp", "--degree", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 6
    assert lines[0] == "SP(3;)"


def test_theta_example(cli):
    code, out, err = cli("theta", "SP(3;1<3,2<3)")
    assert code == 0
    assert out.strip() == "123 + 213"


def test_verify_bidendriform_passes(cli):
    code, out, err = cli("verify", "--suite", "bidendriform", "--max-degree", "4")
    assert code == 0
    assert out.strip() == "pass"


# -- exit codes --------------------------------------------------------------------


def test_unknown_verb_is_usage_error(cli):
    code, out, err = cli("bogus")
    assert code == 1
    assert "No such command" in err


def test_bad_literal_is_domain_error(cli):
    code, out, err = cli("theta", "XX(2;)")
    assert code == 1
    assert err.startswith("error:")


def test_domain_error_from_library(cli):
    code, out, err = cli("theta", "PP(2; h: 1<2; r:)")
    assert code == 1
    assert "not a special poset" in err


def test_wrong_operand_count_is_usage_error(cli):
    code, out, err = cli("op", "product", "SP(1;)")
    assert code == 1
    assert "exactly 2 operand(s)" in err


def test_degree_cap_from_environment(cli, monkeypatch):
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "2")
    code, out, err = cli("enumerate", "--family", "sp", "--degree", "3")
    assert code == 1
    assert "degree too large" in err


@pytest.mark.parametrize("verb", ["gram", "kernel"])
@pytest.mark.parametrize(
    "degree, message",
    [("-1", "error: degree must be nonnegative\n"), ("7", "error: degree too large\n")],
)
def test_out_of_range_degree_is_domain_error(cli, monkeypatch, verb, degree, message):
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    code, out, err = cli(verb, "--family", "sp", "--degree", degree)
    assert code == 1
    assert out == ""
    assert err == message


def test_degree_cap_must_be_an_integer(cli, monkeypatch):
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "abc")
    code, out, err = cli("enumerate", "--family", "sp", "--degree", "3")
    assert code == 1
    assert err == "error: DPOSET_MAX_DEGREE must be an integer, not 'abc'\n"


@pytest.mark.parametrize(
    "argv, message",
    [
        (("theta", "1"), "not a special poset"),
        (("op", "delta-prec", "12"), "not a special poset"),
        (("op", "delta-succ", "12"), "not a special poset"),
        (("op", "delta-prec", "12", "--anchor", "least"), "not a special plane poset"),
        (("op", "prec", "1", "SP(1;)"), "not a special plane forest"),
        (("op", "nwarrow", "12", "SP(1;)"), "nwarrow needs special posets"),
    ],
)
def test_permutation_operands_are_domain_errors(cli, argv, message):
    code, out, err = cli(*argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


def test_verification_failure_exits_two(cli):
    code, out, err = cli("isometry", "verify", "--variant", "printed")
    assert code == 2
    # Counterexamples are printed as re-runnable command lines.
    assert out.splitlines()[0].startswith(
        "dposet isometry verify --variant printed"
    )
    assert "# check=coproduct" in out
    assert out.strip().endswith("fail")


def test_verification_success_exits_zero(cli):
    code, out, err = cli("isometry", "verify", "--variant", "derived")
    assert code == 0
    assert out.strip() == "pass"


# -- operations through the CLI ----------------------------------------------------


def test_op_product(cli):
    code, out, err = cli("op", "product", "SP(1;)", "SP(2; 2<1)")
    assert code == 0
    assert out.strip() == "SP(3; 3<2)"


def test_op_nwarrow_on_posets(cli):
    code, out, err = cli("op", "nwarrow", "SP(2; 1<2)", "SP(2;)")
    assert code == 0
    assert out.strip() == "SP(4; 1<2, 2<3, 2<4)"


def test_op_nwarrow_on_permutations(cli):
    code, out, err = cli("op", "nwarrow", "21", "1")
    assert code == 0
    assert out.strip() == "213 + 231"


def test_op_split_coproduct_anchor(cli):
    code, out, err = cli("op", "delta-prec", "--anchor", "least", "SP(2; 1<2)")
    assert code == 0
    assert out.strip() == "SP(1;) (x) SP(1;)"
    code, out, err = cli("op", "delta-prec", "--anchor", "greatest", "SP(2; 1<2)")
    assert code == 0
    assert out.strip() == "0"
    code, out, err = cli("op", "delta-succ", "--anchor", "greatest", "SP(2; 1<2)")
    assert code == 0
    assert out.strip() == "SP(1;) (x) SP(1;)"


def test_op_prec_on_forests(cli):
    code, out, err = cli("op", "prec", "SP(2;)", "SP(1;)")
    assert code == 0
    assert out.strip() == "SP(3; 1<2, 1<3) - SP(3; 1<2, 2<3) + SP(3; 2<3)"


def test_pair_and_gram(cli):
    code, out, err = cli("pair", "SP(2;)", "SP(2;)")
    assert (code, out.strip()) == (0, "2")
    code, out, err = cli("gram", "--family", "sp", "--degree", "2")
    assert code == 0
    assert out.splitlines() == ["2 1 1", "1 1 0", "1 0 1"]


def test_kernel(cli):
    code, out, err = cli("kernel", "--family", "sp", "--degree", "2")
    assert code == 0
    assert out.strip() == "-SP(2;) + SP(2; 1<2) + SP(2; 2<1)"


def test_phi_psi_bruhat(cli):
    code, out, err = cli("phi", "132")
    assert (code, out.strip()) == (0, "PP(3; h: 1<2, 1<3; r: 2<3)")
    code, out, err = cli("psi", "SP(3; 1<3, 2<3)")
    assert (code, out.strip()) == (0, "213")
    code, out, err = cli("bruhat-interval", "SP(3; 1<3, 2<3)")
    assert (code, out.strip()) == (0, "true")
    code, out, err = cli("bruhat-interval", "SP(3; 1<3, 3<2)")
    assert (code, out.strip()) == (0, "false")


def test_decorations_row(cli):
    code, out, err = cli("decorations", "--family", "hof")
    assert (code, out.strip()) == (0, "0 1 0 1 6 39")


def test_diagonalize_text(cli):
    code, out, err = cli("diagonalize", "[[2,1],[1,1]]")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "blocks: plus_one plus_one"
    assert lines[1].startswith("transform: ")
    assert lines[2].startswith("block-matrix: ")


def test_diagonalize_rejects_bad_matrix(cli):
    code, out, err = cli("diagonalize", "not-json")
    assert code == 1
    assert "bad matrix literal" in err
    code, out, err = cli("diagonalize", "[[1,0],[0,true]]")
    assert code == 1
    assert "integer rows" in err


def test_isometry_build_text(cli):
    code, out, err = cli("isometry", "build", "[[2,1],[1,1]]", "[[2,1],[1,1]]")
    assert code == 0
    assert out.splitlines() == ["1 0", "0 1"]


# -- formats -----------------------------------------------------------------------


def test_csv_outputs(cli):
    code, out, err = cli(
        "gram", "--family", "sp", "--degree", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["2,1,1", "1,1,0", "1,0,1"]
    code, out, err = cli(
        "enumerate", "--family", "spp", "--degree", "2", "--format", "csv"
    )
    assert code == 0
    assert out.splitlines() == ["literal", "SP(2;)", "SP(2; 1<2)"]


JSON_INVOCATIONS = (
    ("enumerate", "--family", "spp", "--degree", "3"),
    ("classify", "SP(2; 1<2)"),
    ("op", "coproduct", "SP(2; 1<2)"),
    ("pair", "SP(2;)", "SP(2;)"),
    ("gram", "--family", "pp", "--degree", "2"),
    ("kernel", "--family", "sp", "--degree", "2"),
    ("theta", "SP(3; 1<3, 2<3)"),
    ("upsilon", "SP(2; 2<1)"),
    ("phi", "132"),
    ("psi", "SP(3; 1<3, 2<3)"),
    ("bruhat-interval", "SP(3; 1<3, 2<3)"),
    ("diagonalize", "[[2,1],[1,1]]"),
    ("isometry", "build", "[[2,1],[1,1]]", "[[2,1],[1,1]]"),
    ("isometry", "verify", "--variant", "derived"),
    ("decorations", "--family", "spf", "--order", "4"),
    ("verify", "--suite", "duplicial", "--max-degree", "3"),
)


@pytest.mark.parametrize("argv", JSON_INVOCATIONS, ids=lambda a: " ".join(a[:2]))
def test_json_outputs_validate_against_schemas(cli, argv):
    code, out, err = cli(*argv, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    validate_against_schema(payload)


def test_json_failure_report_validates_too(cli):
    code, out, err = cli(
        "isometry", "verify", "--variant", "printed", "--format", "json"
    )
    assert code == 2
    payload = json.loads(out)
    assert payload["ok"] is False
    assert payload["violations"]
    validate_against_schema(payload)


# -- round-trips -------------------------------------------------------------------


def test_printed_posets_reparse(cli):
    for family in ("sp", "pp", "hof"):
        code, out, err = cli("enumerate", "--family", family, "--degree", "3")
        assert code == 0
        for line in out.strip().splitlines():
            assert parse_poset(line) is not None
            assert str(parse_poset(line).literal()) == line


def test_printed_lincombs_reparse(cli):
    code, out, err = cli("theta", "SP(3; 1<3, 2<3)")
    y = parse_lincomb(out.strip())
    assert y == parse_lincomb("123 + 213")
    code, out, err = cli("upsilon", "SP(3; 1<3, 2<3)")
    assert parse_lincomb(out.strip()) == parse_lincomb(
        "-SP(3; 1<2, 1<3) + SP(3; 1<2, 2<3) + SP(3; 1<3)"
    )


def test_printed_permutations_reparse(cli):
    code, out, err = cli("psi", "SP(3; 1<3, 2<3)")
    assert parse_permutation(out.strip()) == parse_permutation("213")
