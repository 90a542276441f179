"""Tests for the command-line front end: exit codes, output formats, schema
conformance, and round-trips of printed literals."""

import hashlib
import importlib.resources
import json
import os
import re
import shlex
import subprocess
import sys
import time
from collections import Counter
from functools import partial
from pathlib import Path

import jsonschema
import pytest

from dposet import algebra, dupdend, morphisms, poset_core
from dposet.algebra import parse_lincomb
from dposet.cli import run
from dposet.dupdend import check_axioms
from dposet.fqsym import parse_permutation
from dposet.linalg import plane_to_special_isometry, verify_graded_isometry
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


def test_python_dash_m_runs_the_cli():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        [sys.executable, "-m", "dposet", "theta", "SP(2; 1<2)"],
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert (done.returncode, done.stdout) == (0, "12\n")


def test_a_closed_pipe_ends_the_output_without_a_traceback():
    src = Path(__file__).resolve().parents[1] / "src"
    done = subprocess.run(
        f"{shlex.quote(sys.executable)} -m dposet enumerate --family sp --degree 5 | head -1",
        shell=True,
        capture_output=True,
        text=True,
        env={**os.environ, "PYTHONPATH": str(src)},
        timeout=120,
    )
    assert (done.stdout, done.stderr) == ("SP(5;)\n", "")


def test_verify_bidendriform_passes(cli):
    code, out, err = cli("verify", "--suite", "bidendriform", "--max-degree", "4")
    assert code == 0
    assert out.strip() == "pass"


# -- exit codes --------------------------------------------------------------------


def test_unknown_verb_is_usage_error(cli):
    code, out, err = cli("bogus")
    assert code == 1
    assert "No such command" in err


@pytest.mark.parametrize(
    "argv, prog, message",
    [
        (("bogus",), "dposet", "No such command: 'bogus'"),
        (("isometry", "bogus"), "dposet isometry", "No such command: 'bogus'"),
        ((), "dposet", "missing verb"),
        (("isometry",), "dposet isometry", "missing verb"),
        (
            ("enumerate", "--family", "sp", "--degree", "3", "--bogus", "1"),
            "dposet enumerate",
            "No such option: '--bogus'",
        ),
        (("theta", "-2*SP(1;)"), "dposet theta", "No such option: '-2*SP(1;)'"),
        (
            ("enumerate", "--family", "xx", "--degree", "3"),
            "dposet enumerate",
            "argument --family: invalid choice: 'xx' (choose from 'dp', 'sp', 'hop', 'of', 'hof',"
            " 'spp', 'swnp', 'spf', 'pp', 'wnp', 'pf')",
        ),
        (
            ("theta", "SP(1;)", "--format", "xml"),
            "dposet theta",
            "argument --format: invalid choice: 'xml' (choose from 'text', 'json', 'csv')",
        ),
        (
            ("op", "bogus", "SP(1;)"),
            "dposet op",
            "argument name: invalid choice: 'bogus' (choose from 'product', 'coproduct', 'nwarrow',"
            " 'prec', 'succ', 'delta-prec', 'delta-succ')",
        ),
        (
            ("enumerate", "--family", "sp", "--degree", "x"),
            "dposet enumerate",
            "argument --degree: invalid int value: 'x'",
        ),
        (
            ("enumerate", "--family", "sp", "--degree="),
            "dposet enumerate",
            "argument --degree: invalid int value: ''",
        ),
        (("theta", "SP(1;)", "--format"), "dposet theta", "argument --format: expected one argument"),
        (("gram", "--family", "sp"), "dposet gram", "the following arguments are required: --degree"),
        (("theta",), "dposet theta", "the following arguments are required: operand"),
        (("theta", "SP(1;)", "SP(1;)"), "dposet theta", "unrecognized arguments: SP(1;)"),
        (
            ("enumerate", "--family", "sp", "--degree", "3", "extra"),
            "dposet enumerate",
            "unrecognized arguments: extra",
        ),
        (("op", "product", "--", "SP(1;)", "--", "SP(1;)"), "dposet op", "'--' is not an operand"),
        # an option's value that reads as an option is no value, a negative
        # number is one; a missing first operand makes the "*" one missing
        # too; an unknown option is refused before --help acts
        (
            ("enumerate", "--family", "sp", "--degree", "--family"),
            "dposet enumerate",
            "argument --degree: expected one argument",
        ),
        (
            ("theta", "SP(1;)", "--format", "-1"),
            "dposet theta",
            "argument --format: invalid choice: '-1' (choose from 'text', 'json', 'csv')",
        ),
        (("op",), "dposet op", "the following arguments are required: name, operands"),
        (("enumerate", "--help", "--bogus"), "dposet enumerate", "No such option: '--bogus'"),
        # domain errors, which print the error line alone: a wrong operand
        # count of op, and --help where it is an operand
        (("op", "product", "SP(1;)"), None, "op product takes exactly 2 operand(s)"),
        (("theta", "--", "--help"), None, "bad lincomb term: 'help'"),
    ],
)
def test_usage_errors_exit_one_with_an_error_line(cli, argv, prog, message):
    """A usage error prints two lines on stderr: the usage, then the error."""
    code, out, err = cli(*argv)
    assert (code, out) == (1, "")
    if prog is None:
        assert err == f"error: {message}\n"
    else:
        usage, error = err.splitlines()
        assert usage.startswith(f"usage: {prog} [--help] ")
        assert error == f"{prog}: error: {message}"


def test_help_after_other_options_prints_the_help(cli):
    code, out, err = cli("enumerate", "--family", "sp", "--degree", "3", "--help")
    assert (code, err) == (0, "")
    assert out.startswith("usage: dposet enumerate [--help] --family ")
    assert "\noptions:\n  --help  " in out


# sha256 (first 16 hex digits) of each help below its usage line, recorded
# from the argparse front end, which wrapped long usage lines
HELP_BODIES = {
    "": "c199a2061a7efe28",
    "isometry": "0eb74aba5b7b2d9d",
    "enumerate": "dbfc24fb9ef5b15b",
    "classify": "1732a8a47ae35fb2",
    "op": "cc6cf73fd0bc5398",
    "pair": "4c804f66cbab6858",
    "gram": "4690989712dac899",
    "kernel": "2641b2849fe554a5",
    "theta": "a32eb2985694af6a",
    "upsilon": "a2740e6cf38b5ba9",
    "phi": "eb4f5e6908d7be96",
    "psi": "4a06eab0b2ff3b8e",
    "bruhat-interval": "8a93b9cfb89a0880",
    "diagonalize": "19ff9f479baea504",
    "isometry build": "b3bdce9e0748ec2a",
    "isometry verify": "6dc829135644bcdd",
    "decorations": "22492702f9d53dd8",
    "verify": "fd88573266a1cdec",
}


@pytest.mark.parametrize("name", HELP_BODIES)
def test_help_below_the_usage_line_is_pinned(cli, name):
    code, out, err = cli(*name.split(), "--help")
    usage, body = out.split("\n\n", 1)
    assert (code, err, usage.count("\n")) == (0, "", 0)
    assert hashlib.sha256(body.encode()).hexdigest()[:16] == HELP_BODIES[name]


# every verb and the options it lists besides --format and --help
VERB_OPTIONS = {
    "enumerate": ("--family", "--degree"),
    "classify": (),
    "op": ("--anchor",),
    "pair": (),
    "gram": ("--family", "--degree"),
    "kernel": ("--family", "--degree"),
    "theta": (),
    "upsilon": (),
    "phi": (),
    "psi": (),
    "bruhat-interval": (),
    "diagonalize": (),
    "isometry build": (),
    "isometry verify": ("--variant", "--max-degree"),
    "decorations": ("--family", "--order"),
    "verify": ("--suite", "--max-degree"),
}


def _listed_verbs(out):
    return re.findall(r"^  (\S+(?: \S+)?)  +[A-Z]", out.partition("verbs:")[2], re.M)


def test_help_lists_every_verb(cli):
    code, out, err = cli("--help")
    assert (code, err) == (0, "")
    assert _listed_verbs(out) == list(VERB_OPTIONS)
    code, out, err = cli("isometry", "--help")
    assert (code, err) == (0, "")
    assert _listed_verbs(out) == ["build", "verify"]


@pytest.mark.parametrize("verb", VERB_OPTIONS)
def test_verb_help_lists_every_option(cli, verb):
    code, out, err = cli(*verb.split(), "--help")
    assert (code, err) == (0, "")
    assert out.startswith(f"usage: dposet {verb} ")
    for option in (*VERB_OPTIONS[verb], "--format", "--help"):
        assert f"  {option}" in out


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


@pytest.mark.parametrize(
    "argv, message",
    [
        (("decorations", "--family", "sp", "--order", "-1"), "order must be nonnegative"),
        (("verify", "--suite", "duplicial", "--max-degree", "-2"), "max_degree must be positive"),
        (("isometry", "verify", "--max-degree", "-2"), "max_degree must be positive"),
        (("isometry", "verify", "--max-degree", "0"), "max_degree must be positive"),
        (("isometry", "verify", "--max-degree", "4"), "isometry tables stop at degree 3"),
    ],
)
def test_negative_bounds_are_domain_errors(cli, argv, message):
    code, out, err = cli(*argv)
    assert code == 1
    assert out == ""
    assert err == f"error: {message}\n"


@pytest.mark.parametrize(
    "argv, literal",
    [
        (("theta", "1/0*SP(1;)"), "1/0"),
        (("pair", "SP(1;)", "0/0*SP(1;)"), "0/0"),
        (("op", "product", "1/0I*SP(1;)", "SP(1;)"), "1/0I"),
    ],
)
def test_zero_denominators_are_domain_errors(cli, argv, literal):
    code, out, err = cli(*argv)
    assert code == 1
    assert out == ""
    assert err == f"error: bad scalar literal: {literal!r}\n"


def test_degree_cap_must_be_an_integer(cli, monkeypatch):
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "abc")
    code, out, err = cli("enumerate", "--family", "sp", "--degree", "3")
    assert code == 1
    assert err == "error: DPOSET_MAX_DEGREE must be an integer, not 'abc'\n"


def test_upsilon_refuses_a_degree_past_the_cap(cli, monkeypatch):
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    code, out, err = cli("upsilon", "SP(7; 2<1, 3<4)")
    assert code == 1
    assert out == ""
    assert err == "error: degree too large\n"


def test_upsilon_refuses_the_degree_before_building_theta(cli, monkeypatch):
    def no_extensions(P):
        raise AssertionError("theta's image was built")

    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    for module in (algebra, morphisms):
        monkeypatch.setattr(module, "_extensions", no_extensions)
    for operand, message in (
        ("SP(7;)", "degree too large"),
        ("SP(1;) + SP(7;)", "degree too large"),
        ("DP(7; o1:; o2:)", "not a special poset"),
    ):
        assert cli("upsilon", operand) == (1, "", f"error: {message}\n")


@pytest.mark.parametrize("suite", dupdend.AXIOM_SUITES)
def test_a_suite_refuses_a_top_grade_past_the_cap_before_any_tuple(cli, monkeypatch, suite):
    # the pair and triple suites enumerate only grades below the top one;
    # every suite enumerates through algebra._graded
    def no_tuple(*args):
        raise AssertionError("a tuple was checked")

    monkeypatch.setenv("DPOSET_MAX_DEGREE", "3")
    monkeypatch.setattr(dupdend, "theta", no_tuple)
    monkeypatch.setattr(dupdend, "sp_dendriform_coproducts", no_tuple)
    monkeypatch.setattr(dupdend, "enumerate_family", no_tuple)
    monkeypatch.setattr(algebra, "enumerate_family", no_tuple)
    argv = ("verify", "--suite", suite, "--max-degree", "4")
    assert cli(*argv) == (1, "", "error: degree too large\n")


def test_upsilon_reads_the_degree_cap_as_an_integer(cli, monkeypatch):
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "abc")
    code, out, err = cli("upsilon", "SP(2; 2<1)")
    assert code == 1
    assert out == ""
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


def test_psi_on_a_long_chain_literal(cli):
    # psi's cost must follow the degree, not 2^degree.
    n = 64
    chain = ", ".join(f"{a}<{a + 1}" for a in range(1, n))
    code, out, err = cli("psi", f"SP({n}; {chain})")
    assert (code, out.strip(), err) == (0, "[" + ",".join(map(str, range(1, n + 1))) + "]", "")


def test_bruhat_interval_of_a_twelve_chain_walks_no_permutations(cli):
    # the chain's one extension is tested alone, not against the 12! permutations
    chain = ", ".join(f"{a}<{a + 1}" for a in range(1, 12))
    start = time.perf_counter()
    code, out, err = cli("bruhat-interval", f"SP(12; {chain})")
    assert time.perf_counter() - start < 1
    assert (code, out, err) == (0, "true\n", "")


# 1,200 labels, past the 1,000 frames of Python's default recursion limit
LONG_CHAIN = "SP(1200; " + ", ".join(f"{a}<{a + 1}" for a in range(1, 1200)) + ")"


@pytest.mark.parametrize(
    "argv, out",
    [
        (("theta", LONG_CHAIN), "[" + ",".join(map(str, range(1, 1201))) + "]\n"),
        (("bruhat-interval", LONG_CHAIN), "true\n"),
        (("pair", LONG_CHAIN, LONG_CHAIN), "1\n"),
    ],
    ids=["theta", "bruhat-interval", "pair"],
)
def test_a_chain_longer_than_the_recursion_limit_has_its_one_extension(cli, argv, out):
    assert cli(*argv) == (0, out, "")


def test_a_plane_pair_past_the_cap_is_refused_before_the_picture_search(cli, monkeypatch):
    # the search recurses once per label and may try all n! bijections, so a
    # pair past the cap is refused before it, with no traceback
    chain = ", ".join(f"{a}<{a + 1}" for a in range(1, 1200))
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    assert cli("pair", f"PP(1200; h: {chain}; r:)", f"PP(1200; h:; r: {chain})") == (
        1,
        "",
        "error: degree too large\n",
    )


def test_a_plane_pair_is_answered_up_to_the_cap(cli, monkeypatch):
    chain = "1<2, 2<3, 3<4, 4<5, 5<6, 6<7"
    argv = ("pair", f"PP(7; h: {chain}; r:)", f"PP(7; h:; r: {chain})")
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    assert cli(*argv) == (1, "", "error: degree too large\n")
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "7")
    assert cli(*argv) == (0, "1\n", "")


@pytest.mark.parametrize(
    "argv", [("theta", "SP(5;)"), ("bruhat-interval", "SP(5;)"), ("pair", "SP(5;)", "SP(1;)")]
)
def test_more_linear_extensions_than_the_cap_allows_are_refused(cli, monkeypatch, argv):
    # the antichain of 5 has 5! = 120 extension words, past the 3! = 6 of the cap
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "3")
    algebra._extensions.cache_clear()
    assert cli(*argv) == (1, "", "error: too many linear extensions\n")


@pytest.mark.parametrize(
    "argv", [("theta", "SP(5;)"), ("bruhat-interval", "SP(5;)"), ("pair", "SP(5;)", "SP(1;)")]
)
def test_a_table_entry_made_under_a_higher_cap_is_refused(cli, monkeypatch, argv):
    # the table keeps the antichain's 120 words from the default cap; a later
    # run under the cap 3 reads them and must refuse them all the same
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    assert cli("theta", "SP(5;)")[0] == 0
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "3")
    assert cli(*argv) == (1, "", "error: too many linear extensions\n")


def test_a_shuffle_past_the_word_budget_is_refused_before_its_first_word(cli, monkeypatch):
    # 13 + 13 letters shuffle in C(26, 13) = 10,400,600 ways, past 6! = 720
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    word = "[" + ",".join(map(str, range(1, 14))) + "]"
    start = time.perf_counter()
    assert cli("op", "product", word, word) == (1, "", "error: too many shuffles\n")
    assert time.perf_counter() - start < 1
    # 6 + 5 letters shuffle in C(11, 5) = 462 ways, within the budget
    code, out, err = cli("op", "product", "123456", "12345")
    assert (code, err) == (0, "")
    assert len(out.split(" + ")) == 462


def test_a_negative_cap_allows_one_linear_extension(cli, monkeypatch):
    monkeypatch.setenv("DPOSET_MAX_DEGREE", "-1")
    algebra._extensions.cache_clear()
    assert cli("theta", "SP(2; 1<2)") == (0, "12\n", "")
    assert cli("theta", "SP(2;)") == (1, "", "error: too many linear extensions\n")


@pytest.mark.parametrize(
    "argv, size",
    [
        (("gram", "--family", "dp", "--degree", "4"), 47961),
        (("kernel", "--family", "of", "--degree", "6"), 16807),
    ],
)
def test_a_basis_too_large_for_a_gram_matrix_is_refused(cli, argv, size):
    code, out, err = cli(*argv)
    assert (code, out, err) == (1, "", f"error: basis too large for a Gram matrix: {size} elements\n")


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


GOLDEN = json.loads((Path(__file__).resolve().parent / "data" / "cli_golden.json").read_text())


@pytest.mark.parametrize(
    "case", GOLDEN["outputs"], ids=lambda c: " ".join(c["argv"][:2] + c["argv"][-1:])
)
def test_outputs_match_the_recorded_digests(cli, case):
    """JSON, CSV and text outputs of small operands hash as recorded; each
    format is built on its own, and all three must stay byte-identical."""
    code, out, err = cli(*case["argv"])
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]


@pytest.mark.parametrize(
    "case",
    GOLDEN["invocations"],
    ids=lambda c: " ".join(c["argv"])[:60] or "no arguments",
)
def test_invocations_keep_their_recorded_exit_codes_and_outputs(cli, monkeypatch, case):
    """Every verb in every format, and the edge cases of the argument syntax
    (negative bounds, operands that start with ``-`` before and after ``--``,
    ``--opt=value``, repeated options, usage errors), recorded under the
    earlier click front end.  A ``--help`` case keeps its exit code alone:
    the help text is the new front end's own."""
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    code, out, err = cli(*case["argv"])
    assert code == case["exit"]
    if "sha256" in case:
        assert hashlib.sha256(out.encode()).hexdigest() == case["sha256"]
    if code == 1:
        assert "error:" in err and "Traceback" not in err
    else:
        assert err == ""


def _enumeration_requests(monkeypatch):
    """A counter of ``enumerate_family`` requests by (family, degree), spied
    on in every module that binds the function, as the bench tracer wraps it;
    a plane family's request of its special family counts too."""
    requests = Counter()
    enumerate_family = poset_core.enumerate_family

    def spy(family, n):
        requests[poset_core.Family(family).value, n] += 1
        return enumerate_family(family, n)

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "dposet" and getattr(module, "enumerate_family", None) is enumerate_family:
            monkeypatch.setattr(module, "enumerate_family", spy)
    return requests


ONE_ENUMERATION_RUNS = [
    *(
        pytest.param(partial(run, c["argv"]), id=" ".join(c["argv"])[:60] or "no arguments")
        for c in GOLDEN["outputs"] + GOLDEN["invocations"]
    ),
    *(pytest.param(partial(check_axioms, suite, 4), id=f"{suite} 4") for suite in dupdend.AXIOM_SUITES),
    pytest.param(lambda: verify_graded_isometry(plane_to_special_isometry(3), 3), id="isometry 3"),
]


@pytest.mark.parametrize("runner", ONE_ENUMERATION_RUNS)
def test_a_run_enumerates_each_family_and_degree_once(monkeypatch, capsys, runner):
    # a check reads every tuple from one _graded call per family, and the
    # decorations verb its two series from one Poincare series
    monkeypatch.delenv("DPOSET_MAX_DEGREE", raising=False)
    requests = _enumeration_requests(monkeypatch)
    runner()
    capsys.readouterr()
    assert {key: count for key, count in requests.items() if count > 1} == {}


def test_recorded_digests_cover_every_format_of_the_listed_verbs():
    verbs = {(c["argv"][0], c["argv"][-1]) for c in GOLDEN["outputs"]}
    for verb in ("op", "theta", "pair", "gram", "kernel", "enumerate", "diagonalize", "isometry"):
        assert {(verb, f) for f in ("json", "csv", "text")} <= verbs


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
