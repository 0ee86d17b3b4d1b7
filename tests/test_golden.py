"""Golden payloads: the JSON output of every subcommand on fixed inputs.

Exact subcommands must reproduce their golden stdout byte for byte together
with their exit code, both as JSON (``<name>.json``) and as ``--format text``
(``<name>.txt``), whose line order follows each payload's key order.  ``kahler`` and ``theorem1`` print residuals at
rounding level, whose leading digits depend on the BLAS build, so their
payloads are compared on keys, exit code and non-numeric values, with
numeric fields equal within a relative 1e-9 or absolute 1e-12.

Inputs are written into a scratch directory that becomes the working
directory, so the ``input`` field of a payload is the bare file name.

To regenerate the golden files (only when a payload is meant to change):

    G2TORSION_REGEN_GOLDEN=1 python -m pytest tests/test_golden.py
"""

import json
import math
import os
from pathlib import Path

import pytest

from g2torsion.cli import main

GOLDEN = Path(__file__).parent / "golden"
REGEN = os.environ.get("G2TORSION_REGEN_GOLDEN") == "1"

INPUTS = {
    # r4_su2(-7): [e1, e2] = -7 e7 cyclically on the slots (1, 2, 7)
    "bundled.alg": "# dimension 7\n1 2 7 -7\n1 7 2 7\n2 7 1 -7\n",
    # the same algebra on the slots (1, 2, 3), which are not associative
    "misplaced.alg": "# dimension 7\n1 2 3 -7\n1 3 2 7\n2 3 1 -7\n",
    "abelian.alg": "# dimension 7\n",
    # format_form syntax, with pieces in all three summands
    "mixed.form": "+1*e123 -3/2*e127 +2*e145 +1/3*e567\n-1*e246 +5/7*e347\n",
}

#: (golden name, argv, exit code) for the exact subcommands
EXACT = [
    ("selftest", ["selftest"], 0),
    ("kernels", ["kernels"], 0),
    ("group_report_bundled", ["group-report", "bundled.alg"], 0),
    ("group_report_misplaced", ["group-report", "misplaced.alg"], 1),
    ("group_report_abelian", ["group-report", "abelian.alg"], 0),
    ("group_report_placement",
     ["group-report", "misplaced.alg", "--placement", "1,2,7,4,5,6,3"], 0),
    ("lemma_admissible", ["lemma", "--m1", "6", "--m2", "-8", "--m3", "6"], 0),
    ("lemma_admissible_mu",
     ["lemma", "--m1", "6", "--m2", "-8", "--m3", "6", "--mu", "7"], 0),
    ("lemma_generic", ["lemma", "--m1", "1", "--m2", "2", "--m3", "3"], 0),
    ("lemma_generic_mu",
     ["lemma", "--m1", "1", "--m2", "2", "--m3", "3", "--mu", "3/2"], 0),
    ("lemma_fractional",
     ["lemma", "--m1=-1/2", "--m2", "7/3", "--m3", "0"], 0),
    ("lemma_fractional_mu",
     ["lemma", "--m1=-1/2", "--m2", "7/3", "--m3", "0", "--mu", "0"], 0),
    ("values_mu_7", ["values", "--mu", "7"], 0),
    ("values_mu_3_2", ["values", "--mu", "3/2"], 0),
    ("values_mu_0", ["values", "--mu", "0"], 0),
    ("det_e2_b5_mu7", ["det-e2", "--b", "5", "--mu", "7"], 0),
    ("det_e2_b0_mu7", ["det-e2", "--b", "0", "--mu", "7"], 0),
    ("det_e2_b1_mu7", ["det-e2", "--b", "1", "--mu", "7"], 0),
    ("decompose_mixed", ["decompose", "mixed.form"], 0),
]

#: (golden name, argv, exit code) for the float subcommands
NUMERIC = [
    ("kahler_seed_3",
     ["kahler", "--seed", "3", "--points", "4", "--grid", "200"], 0),
    ("theorem1_seed_5",
     ["theorem1", "--seed", "5", "--points", "4", "--grid", "200"], 0),
    ("theorem1_a045_grid800",
     ["theorem1", "--a", "0.45", "--grid", "800", "--points", "10"], 0),
    ("kahler_a005_grid1600",
     ["kahler", "--a", "0.05", "--grid", "1600", "--points", "40"], 0),
    # the boundary value problem folds: exit 1 with a passed: false payload
    ("theorem1_diverged_a09", ["theorem1", "--a", "0.9"], 1),
]


@pytest.fixture
def workdir(tmp_path, monkeypatch):
    for name, text in INPUTS.items():
        (tmp_path / name).write_text(text)
    monkeypatch.chdir(tmp_path)
    return tmp_path


def _run(capsys, argv, fmt="json"):
    code = main(argv + ["--format", fmt])
    return code, capsys.readouterr().out


def _golden(name, out, suffix="json"):
    path = GOLDEN / f"{name}.{suffix}"
    if REGEN:
        GOLDEN.mkdir(exist_ok=True)
        path.write_bytes(out.encode())
    return path.read_bytes().decode()


@pytest.mark.parametrize("name, argv, want_code", EXACT,
                         ids=[case[0] for case in EXACT])
def test_exact_payload_is_byte_identical(workdir, capsys, name, argv, want_code):
    code, out = _run(capsys, argv)
    assert code == want_code
    assert out == _golden(name, out)


@pytest.mark.parametrize("name, argv, want_code", EXACT,
                         ids=[case[0] for case in EXACT])
def test_exact_text_output_is_byte_identical(workdir, capsys, name, argv,
                                             want_code):
    code, out = _run(capsys, argv, "text")
    assert code == want_code
    assert out == _golden(name, out, "txt")


def _number(x):
    if isinstance(x, str):
        try:
            return float(x)
        except ValueError:
            return None
    return None


def _assert_close(got, want, where):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), where
        for key in want:
            _assert_close(got[key], want[key], f"{where}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), where
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{where}[{i}]")
    elif _number(want) is not None:
        assert _number(got) is not None, where
        assert math.isclose(_number(got), _number(want),
                            rel_tol=1e-9, abs_tol=1e-12), (where, got, want)
    else:
        assert got == want, where


@pytest.mark.parametrize("name, argv, want_code", NUMERIC,
                         ids=[case[0] for case in NUMERIC])
def test_numeric_payload_matches_within_tolerance(workdir, capsys, name, argv,
                                                  want_code):
    code, out = _run(capsys, argv)
    assert code == want_code
    _assert_close(json.loads(out), json.loads(_golden(name, out)), name)
