"""Fuzzing of the input parsers and the CLI: fail closed on any text.

Inputs are built from a token alphabet of digits, 'e', signs, '/', '*',
'#', whitespace, a '# dimension 7' header, 'nan', '1e5', an exponent
'e999999999' far beyond linalg.MAX_EXPONENT and non-ASCII digits
(Arabic-Indic, fullwidth and a superscript, which is a digit to
str.isdigit but not to int).  The invariants: the parsers return a value or
raise ValueError, and the CLI exits 0, 1 or 2 with no traceback on stderr.

Tokens are grouped into whitespace-separated fields of at most four tokens.
The solving commands draw each option value from a small set of valid,
extreme and malformed values; '1e200' is finite, but 8 a^2 is not, and
the domains (1, 1e200) and (1e-300, 3e-300) give a grid spacing h whose h^2
overflows or underflows.  The
--grid and --points values stay small so each solve is cheap.
"""

import contextlib
import io
import os
import tempfile

from hypothesis import given, settings
from hypothesis import strategies as st

from g2torsion.cli import main
from g2torsion.forms import parse_form
from g2torsion.liegroup import parse_algebra

TOKENS = (list("0123456789") + ["e", "+", "-", "/", "*", "#", "nan", "1e5",
                                "e999999999", "# dimension 7", "١", "٧",
                                "７", "²"])
SPACES = st.sampled_from([" ", "  ", "\t"])

field = st.lists(st.sampled_from(TOKENS), min_size=1, max_size=4).map("".join)


@st.composite
def line(draw, max_fields=5):
    fields = draw(st.lists(field, min_size=0, max_size=max_fields))
    return "".join(draw(SPACES) + f for f in fields)


texts = st.lists(line(), min_size=0, max_size=4).map("\n".join)


@given(texts)
def test_parse_form_returns_or_raises_value_error(text):
    try:
        parse_form(text, 7)
    except ValueError:
        pass


@given(texts)
def test_parse_algebra_returns_or_raises_value_error(text):
    try:
        parse_algebra(text, 7)
    except ValueError:
        pass


def run_cli(argv):
    """Exit code and stderr of one in-process CLI call; argparse's
    SystemExit counts as its exit code."""
    err = io.StringIO()
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(err):
        try:
            code = main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, err.getvalue()


@settings(max_examples=30)
@given(st.sampled_from(["decompose", "group-report"]), texts)
def test_cli_file_commands_fail_closed(command, text):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "input.txt")
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
        code, err = run_cli([command, path, "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=30)
@given(line(max_fields=2))
def test_cli_values_mu_fails_closed(text):
    code, err = run_cli(["values", f"--mu={text}", "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


# a rational argument: a fuzzed field or a well-formed value
rational_arg = st.one_of(field, st.sampled_from(
    ["0", "1", "6", "-8", "7", "5/7", "-1/2", "1e5", "123456789/7"]))


@settings(max_examples=30, deadline=None)
@given(rational_arg, rational_arg, rational_arg, st.none() | rational_arg)
def test_cli_lemma_fails_closed(m1, m2, m3, mu):
    argv = ["lemma", f"--m1={m1}", f"--m2={m2}", f"--m3={m3}"]
    if mu is not None:
        argv.append(f"--mu={mu}")
    code, err = run_cli(argv + ["--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


@settings(max_examples=30, deadline=None)
@given(rational_arg, rational_arg)
def test_cli_det_e2_fails_closed(b, mu):
    code, err = run_cli(["det-e2", f"--b={b}", f"--mu={mu}", "--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err


A_VALUES = st.sampled_from(["0", "0.25", "0.45", "0.5", "1", "5", "1e200",
                            "1e-300", "-1", "nan"])
TOLS = st.sampled_from(["1e-6", "1e-3", "1", "1e200", "1e-300", "0", "inf", "x"])
DOMAINS = st.sampled_from([("1", "2"), ("0.5", "1"), ("1e-300", "1"),
                           ("1", "1e200"), ("1e-300", "3e-300"), ("2", "1"),
                           ("0", "1"), ("1", "nan")])
GRIDS = st.sampled_from(["4", "7", "40", "3"])
POINTS = st.sampled_from(["1", "2", "0"])
SEEDS = st.sampled_from(["0", "3", "7", "-1"])


@st.composite
def solve_options(draw):
    """argv options of kahler/theorem1: --a and --grid always, the others
    present or absent; --grid is given so that no solve runs on the default
    400 intervals."""
    argv = [f"--a={draw(A_VALUES)}", f"--grid={draw(GRIDS)}"]
    for name, values in (("--points", POINTS), ("--seed", SEEDS),
                         ("--tol", TOLS)):
        if draw(st.booleans()):
            argv.append(f"{name}={draw(values)}")
    if draw(st.booleans()):
        argv += ["--domain", *draw(DOMAINS)]
    return argv


@settings(max_examples=80, deadline=None)
@given(st.sampled_from(["kahler", "theorem1"]), solve_options())
def test_cli_solving_commands_fail_closed(command, options):
    code, err = run_cli([command] + options + ["--format", "json"])
    assert code in (0, 1, 2)
    assert "Traceback" not in err
