"""Every outside input turns into a result or a ValueError, never a crash.

The parsers see arbitrary text, including text drawn from their own
alphabets so that it often gets past the first token.  ``reconstruct`` on the
command line exits 0, 1 or 2 for any file and never succeeds below n = 1;
``degrees``, ``descents``, ``graph``, ``distribution``, ``sample`` and
``expect`` exit 0 or 2 for any argument text.
Integer tokens are ASCII digits with an optional sign, and a declared degree
above ``MAX_DEGREE`` is refused before anything n-sized is allocated.
"""
import contextlib
import io
import json

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bruhat_degrees.bruhat import StrongDescentSet
from bruhat_degrees.cli import main
from bruhat_degrees.graphs import LabeledGraph
from bruhat_degrees.perm import MAX_DEGREE, parse_permutation

CHARS = st.characters(blacklist_categories=("Cs",))
TEXT = st.one_of(
    st.text(CHARS, max_size=40),
    st.text("t(),0123456789- []", max_size=40),
    st.text('{}[]":,0123456789-.nrmembersedgtu ', max_size=60),
)
# JSON objects with the expected keys and small integers, so the field and
# member checks run; the degree n also takes values far beyond the size cap,
# which must be refused before any n-sized allocation
SMALL = st.integers(-3, 12)
DEGREE = st.one_of(SMALL, st.integers(MAX_DEGREE - 2, MAX_DEGREE + 2), st.integers(min_value=0))
JSON_VALUES = st.recursive(
    st.one_of(st.none(), st.booleans(), SMALL, st.floats(allow_nan=False), st.text(max_size=3)),
    lambda inner: st.lists(inner, max_size=4), max_leaves=12)
DESCENT_JSON = st.fixed_dictionaries(
    {"n": st.one_of(DEGREE, JSON_VALUES), "r": st.one_of(SMALL, JSON_VALUES),
     "members": st.one_of(st.lists(st.lists(SMALL, max_size=3), max_size=6), JSON_VALUES)})


def _parses_or_value_error(parse, text):
    try:
        parse(text)
    except ValueError:
        pass


@settings(max_examples=200, deadline=None)
@given(TEXT)
def test_parse_permutation(text):
    _parses_or_value_error(parse_permutation, text)


@settings(max_examples=200, deadline=None)
@given(DEGREE, SMALL, TEXT)
def test_descent_set_from_text(n, r, text):
    _parses_or_value_error(lambda t: StrongDescentSet.from_text(n, r, t), text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(TEXT, DESCENT_JSON.map(json.dumps)))
def test_descent_set_from_json(text):
    _parses_or_value_error(StrongDescentSet.from_json, text)


@settings(max_examples=200, deadline=None)
@given(st.one_of(TEXT, DESCENT_JSON.map(
    lambda d: json.dumps({"n": d["n"], "edges": d["members"]}))))
def test_graph_from_json(text):
    _parses_or_value_error(LabeledGraph.from_json, text)


def _run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def set_file(tmp_path_factory):
    return tmp_path_factory.mktemp("reconstruct") / "set.txt"


@settings(max_examples=200, deadline=None)
@given(n=st.sampled_from([-2, 0, 1, 3]),
       text=st.one_of(TEXT, DESCENT_JSON.map(json.dumps)))
def test_reconstruct_cli_exit_codes(set_file, n, text):
    set_file.write_text(text, encoding="utf-8")
    code, out, err = _run(["reconstruct", str(n), str(set_file)])
    assert code in (0, 1, 2)
    if n < 1:
        assert code != 0
    if code:
        assert out == "" and err.count("\n") == 1


@pytest.mark.parametrize("text, bad", [
    ("2 1_0 3 4 5 6 7 8 9 1", "1_0"), ("\u0662 \u0661", "\u0662"), ("\uff12 \uff11", "\uff12")])
def test_integer_tokens_are_ascii_digits(text, bad):
    assert _run(["degrees", text]) == (2, "", f"error: invalid value {bad!r}\n")


@pytest.mark.parametrize("token", ["1_0", "\u0662", "\uff12"])
def test_descent_tokens_are_ascii_digits(token):
    with pytest.raises(ValueError) as err:
        StrongDescentSet.from_text(12, 1, f"t(1,{token})")
    assert str(err.value) == f"bad transposition token {f't(1,{token})'!r}"


def test_degree_cap_checked_before_allocation(set_file):
    huge = 10 ** 20
    with pytest.raises(ValueError, match="exceeds the cap"):
        LabeledGraph.from_json(json.dumps({"n": huge, "edges": []}))
    with pytest.raises(ValueError, match="exceeds the cap"):
        StrongDescentSet(MAX_DEGREE + 1, 1, ())
    set_file.write_text("", encoding="utf-8")
    assert _run(["reconstruct", str(huge), str(set_file)]) == (
        2, "", f"error: degree n={huge} exceeds the cap {MAX_DEGREE}\n")
    assert _run(["reconstruct", "3", str(set_file)]) == (0, "[1,2,3]\n", "")


# The remaining commands on arbitrary argument text.  Values go in as
# --flag=value and positionals after --, so that text such as -h reaches the
# program instead of reading as an option.  n stays small and --jobs and
# --limit are not drawn, since a large n or limit asks sample for an n-wide
# matrix per draw, expect for seconds of exact arithmetic and distribution
# for n! permutations.
def mostly(valid, other=TEXT):
    """valid three draws in four, other the rest, so that most examples get
    past argparse to the program."""
    return st.integers(0, 3).flatmap(lambda i: other if i == 0 else valid)


def choice(*valid):
    return mostly(st.sampled_from(valid))


NO_DIGITS = st.text(st.characters(blacklist_categories=("Cs", "Nd")), max_size=10)
SIZE = mostly(st.integers(-3, 12).map(str), NO_DIGITS)
PERM = mostly(st.integers(1, 9).flatmap(lambda n: st.permutations(range(1, n + 1)))
              .map(lambda values: " ".join(map(str, values))))
ORDER = mostly(SMALL.map(str))


def _run_exit(argv):
    """Run the CLI on argv: main returns 0, or 2 with one stderr line and no
    stdout, or argparse exits with 2.  Anything raised fails the test."""
    try:
        code, out, err = _run(argv)
    except SystemExit as exc:
        assert exc.code == 2
        return
    assert code in (0, 2)
    if code:
        assert out == "" and err.count("\n") == 1


@settings(max_examples=100, deadline=None)
@given(PERM, st.booleans())
def test_degrees_cli(perm, listed):
    _run_exit(["degrees", *(["--list"] if listed else []), "--", perm])


@settings(max_examples=100, deadline=None)
@given(PERM, ORDER, choice("text", "json"))
def test_descents_cli(perm, r, fmt):
    _run_exit(["descents", f"--r={r}", f"--format={fmt}", "--", perm])


@settings(max_examples=100, deadline=None)
@given(PERM, choice("descent", "total", "rth"), ORDER, choice("dot", "json"))
def test_graph_cli(perm, kind, r, fmt):
    _run_exit(["graph", f"--kind={kind}", f"--r={r}", f"--format={fmt}", "--", perm])


@settings(max_examples=100, deadline=None)
@given(SIZE, choice("down", "total", "rth"), st.one_of(st.none(), ORDER))
def test_distribution_cli(n, stat, r):
    _run_exit(["distribution", f"--stat={stat}", *([] if r is None else [f"--r={r}"]),
               "--", n])


@settings(max_examples=100, deadline=None)
@given(SIZE, choice("down", "total", "rth"), st.one_of(st.none(), ORDER),
       st.integers(-2, 200), st.integers(-2, 5))
def test_sample_cli(n, stat, r, samples, seed):
    _run_exit(["sample", f"--stat={stat}", *([] if r is None else [f"--r={r}"]),
               f"--samples={samples}", f"--seed={seed}", "--", n])


@settings(max_examples=100, deadline=None)
@given(SIZE, st.booleans())
def test_expect_cli(n, as_float):
    _run_exit(["expect", *(["--float"] if as_float else []), "--", n])
