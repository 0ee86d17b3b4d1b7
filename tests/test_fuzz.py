"""Fuzzing of the input parsers and the CLI: fail closed on any text.

Inputs are built from a token alphabet of digits, 'e', signs, '/', '*',
'#', whitespace, a '# dimension 7' header, 'nan', '1e5', an exponent
'e999999999' far beyond linalg.MAX_EXPONENT and non-ASCII digits
(Arabic-Indic, fullwidth and a superscript, which is a digit to
str.isdigit but not to int).  The invariants: the parsers return a value or
raise ValueError, and the CLI exits 0, 1 or 2 with no traceback on stderr.

Tokens are grouped into whitespace-separated fields of at most four tokens.
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
