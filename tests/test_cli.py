"""Command-line interface: exit codes, diagnostics, and stable JSON output.

Exit convention: 0 verified, 1 a verification failed, 2 usage error
(including malformed input files, reported with line/column positions).
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path

import pytest

from g2torsion.cli import main

OMEGA3 = "+1*e127 +1*e135 -1*e146 -1*e236 -1*e245 +1*e347 +1*e567\n"
BUNDLED_ALG = "# dimension 7\n1 2 7 -7\n1 7 2 7\n2 7 1 -7\n"
MISPLACED_ALG = "# dimension 7\n1 2 3 -7\n1 3 2 7\n2 3 1 -7\n"
SRC = str(Path(__file__).resolve().parents[1] / "src")


def run_json(capsys, argv):
    code = main(argv + ["--format", "json"])
    out = capsys.readouterr().out
    return code, json.loads(out)


# ------------------------------------------------------------ decompose


def test_decompose_calibration_form(tmp_path, capsys):
    f = tmp_path / "w3.form"
    f.write_text(OMEGA3)
    code, payload = run_json(capsys, ["decompose", str(f)])
    assert code == 0
    assert payload["components"]["1"] == {
        "127": "1", "135": "1", "146": "-1", "236": "-1",
        "245": "-1", "347": "1", "567": "1"}
    assert payload["components"]["7"] == {}
    assert payload["components"]["27"] == {}
    assert payload["norms2"] == {"1": "7", "7": "0", "27": "0"}
    assert payload["recomposes"] is True


def test_decompose_reports_position_of_bad_token(tmp_path, capsys):
    f = tmp_path / "bad.form"
    f.write_text("+1*e127\n+oops*e135\n")
    code = main(["decompose", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err and "column" in err


def test_decompose_rejects_wrong_degree(tmp_path, capsys):
    f = tmp_path / "two.form"
    f.write_text("+1*e12\n")
    assert main(["decompose", str(f)]) == 2


@pytest.mark.parametrize("command, text, message", [
    ("decompose", "e18 + e81\n", "index (1, 8) out of range for R^7"),
    ("decompose", "0*e19\n", "index (1, 9) out of range for R^7"),
    ("decompose", "e128 - e128\n", "index (1, 2, 8) out of range for R^7"),
    ("group-report", "# dimension 7\n1 2 9 0\n", "bracket target 9 out of range"),
])
def test_out_of_range_index_with_zero_coefficient_is_usage_error(
        tmp_path, capsys, command, text, message):
    f = tmp_path / "input.txt"
    f.write_text(text)
    assert main([command, str(f)]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


def test_decompose_readme_example_with_detached_signs(tmp_path, capsys):
    f = tmp_path / "readme.form"
    f.write_text("# the standard calibration 3-form\n"
                 "+ e127 + e135 - e146 - e236 - e245 + e347 + e567\n")
    code, payload = run_json(capsys, ["decompose", str(f)])
    assert code == 0
    assert payload["components"]["1"] == {
        "127": "1", "135": "1", "146": "-1", "236": "-1",
        "245": "-1", "347": "1", "567": "1"}


def test_missing_file_is_usage_error(capsys):
    assert main(["decompose", "/nonexistent/nowhere.form"]) == 2


# ------------------------------------------------------------ lemma/values


def test_lemma_admissible_roots(capsys):
    code, payload = run_json(
        capsys, ["lemma", "--m1", "6", "--m2", "-8", "--m3", "6", "--mu", "7"])
    assert code == 0
    assert payload["dimension"] == 9
    assert payload["a"] == "-5"
    assert payload["b"] == "-2"
    assert payload["c"] == "0"
    assert payload["formulas_match"] is True
    assert payload["roots_admissible"] is True
    assert payload["passed"] is True


def test_lemma_without_scale_skips_admissibility(capsys):
    code, payload = run_json(
        capsys, ["lemma", "--m1", "1", "--m2", "2", "--m3", "3"])
    assert code == 0
    assert payload["dimension"] == 9
    assert "roots_admissible" not in payload or payload["roots_admissible"] is None


def test_values_enumeration(capsys):
    code, payload = run_json(capsys, ["values", "--mu", "7"])
    assert code == 0
    assert payload["fibers"] == {"-7/2": 1, "0": 3, "7/2": 3, "7": 1}
    assert len(payload["assignments"]) == 8
    assert payload["passed"] is True


def test_values_zero_scale(capsys):
    code, payload = run_json(capsys, ["values", "--mu", "0"])
    assert code == 0
    assert payload["fibers"] == {"0": 8}


def test_values_rejects_zero_denominator(capsys):
    with pytest.raises(SystemExit):
        main(["values", "--mu", "1/0"])


def test_values_rejects_huge_exponent_promptly(capsys):
    start = time.perf_counter()
    with pytest.raises(SystemExit) as exc:
        main(["values", "--mu=1e999999999"])
    assert exc.value.code == 2
    assert "decimal exponent in '1e999999999' exceeds" in capsys.readouterr().err
    assert time.perf_counter() - start < 1.0


# ------------------------------------------------------------ kernels/det


def test_kernels_chain(capsys):
    code, payload = run_json(capsys, ["kernels"])
    assert code == 0
    assert payload["dims"] == {"1": 27, "2": 20, "3": 14, "4": 9}
    assert payload["passed"] is True


def test_det_e2_generic_and_zero(capsys):
    code, payload = run_json(capsys, ["det-e2", "--b", "1", "--mu", "7"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["det4"] == payload["closed_form"]

    code, payload = run_json(capsys, ["det-e2", "--b", "5", "--mu", "7"])
    assert code == 0
    assert payload["closed_form"] == "0"


def test_det_e2_huge_scale_exits_without_traceback(capsys):
    # a float square root of the 400-digit target overflows
    code, payload = run_json(capsys, ["det-e2", "--b", "0", "--mu", "1" + "0" * 200])
    assert code in (0, 1)
    assert payload["command"] == "det-e2"


def test_det_e2_finds_exact_square_beyond_float_precision(capsys):
    # b = 5 mu / 7 makes the quadric target exactly mu^2
    mu = 10**20 + 39
    code, payload = run_json(capsys, ["det-e2", "--b", f"{5 * mu}/7", "--mu", str(mu)])
    assert code == 0
    assert payload["member"] == [str(mu), "0", "0", "0"]
    assert payload["cross_checked"] is True
    assert payload["det4"] == payload["closed_form"]


# ------------------------------------------------------------ group-report


def test_group_report_bundled(tmp_path, capsys):
    f = tmp_path / "bundled.alg"
    f.write_text(BUNDLED_ALG)
    code, payload = run_json(capsys, ["group-report", str(f)])
    assert code == 0
    assert payload["mu"] == "7"
    assert payload["torsion"] == {"127": "7"}
    assert payload["parallel_spinor_dim"] == 8
    assert payload["reconstruction_literal"] is False
    assert payload["reconstruction_overcount"] == {"127": "14"}
    assert payload["passed"] is True


def test_group_report_misplaced_fails_with_witness(tmp_path, capsys):
    f = tmp_path / "mis.alg"
    f.write_text(MISPLACED_ALG)
    code, payload = run_json(capsys, ["group-report", str(f)])
    assert code == 1
    assert payload["cocalibrated"] is False
    assert payload["cocalibration_residual"] != {}


def test_group_report_placement_fixes_misplaced(tmp_path, capsys):
    f = tmp_path / "mis.alg"
    f.write_text(MISPLACED_ALG)
    code, payload = run_json(
        capsys, ["group-report", str(f), "--placement", "1,2,7,4,5,6,3"])
    assert code == 0
    assert payload["passed"] is True
    assert payload["placement"] == [1, 2, 7, 4, 5, 6, 3]


def test_group_report_bad_algebra_line(tmp_path, capsys):
    f = tmp_path / "bad.alg"
    f.write_text("1 2 7 -7\n1 7 oops\n")
    code = main(["group-report", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 2" in err


def test_group_report_rejects_other_dimension_header(tmp_path, capsys):
    f = tmp_path / "nine.alg"
    f.write_text("# dimension 9\n1 2 7 -7\n1 7 2 7\n2 7 1 -7\n")
    code = main(["group-report", str(f)])
    err = capsys.readouterr().err
    assert code == 2
    assert "line 1" in err and "dimension 9" in err


def test_group_report_bad_placement(tmp_path, capsys):
    f = tmp_path / "bundled.alg"
    f.write_text(BUNDLED_ALG)
    assert main(["group-report", str(f), "--placement", "1,2,3"]) == 2


@pytest.mark.parametrize("placement", ["\u0661,\u0662,\u0667,\u0664,\u0665,\u0666,\u0663",
                                       "+1,2,7,4,5,6,3"])
def test_group_report_rejects_placement_that_is_not_ascii_digits(tmp_path, capsys, placement):
    # int() would read both as 1,2,7,4,5,6,3, the placement that fixes this algebra
    f = tmp_path / "mis.alg"
    f.write_text(MISPLACED_ALG)
    assert main(["group-report", str(f), "--placement", placement]) == 2
    assert "ASCII digits" in capsys.readouterr().err


# ------------------------------------------------------------ numerics


def test_kahler_spectrum_command(capsys):
    code, payload = run_json(capsys, ["kahler", "--points", "4", "--grid", "200"])
    assert code == 0
    assert payload["passed"] is True
    assert float(payload["max_deviation"]) < 1e-6
    assert payload["multiplicity_gap"] is True
    assert float(payload["target"]) == 1.0    # 4 a^2 at the default a = 1/2


def test_theorem1_command(capsys):
    code, payload = run_json(capsys, ["theorem1", "--points", "4", "--grid", "200"])
    assert code == 0
    assert payload["passed"] is True
    assert float(payload["hypotheses"]["ricci_deviation"]) < 1e-6
    assert float(payload["residuals"]["torsion_norm"]) < 1e-8
    assert float(payload["residuals"]["ric_nabla"]) < 1e-6
    assert payload["non_flat"] is True
    assert float(payload["max_r_nabla"]) > 0.01


def test_nan_residual_at_a_later_point_fails_closed(capsys, monkeypatch):
    """A NaN residual at the second of three points reaches the payload and
    the verdict; a running max(acc, value) would keep acc and pass."""
    import numpy as np

    from g2torsion import coframe

    curvature = coframe.Stencil.curvature

    def planted(self, t=None):
        rep = curvature(self, t)
        if t is None and len(rep.scal) == 3:     # the conclusions' points only
            rep.scal[1] = np.nan
        return rep

    monkeypatch.setattr(coframe.Stencil, "curvature", planted)
    code, payload = run_json(capsys, ["theorem1", "--grid", "200", "--points", "3"])
    assert payload["residuals"]["scal"] == "nan"
    assert payload["passed"] is False
    assert code == 1


def test_theorem1_hypotheses_ignore_points_and_seed(capsys):
    """The hypotheses are measured at 10 fixed points (random.Random(7)),
    whatever --points and --seed say; only the conclusions follow them."""
    panels = []
    for points, seed in (("1", "0"), ("5", "0"), ("1", "7"), ("5", "7")):
        code, payload = run_json(capsys, ["theorem1", "--a", "0.25", "--grid", "200",
                                          "--points", points, "--seed", seed])
        assert code == 0
        panels.append((payload["hypotheses"], payload["residuals"]))
    assert all(hyp == panels[0][0] for hyp, _ in panels)
    assert panels[0][1] != panels[1][1] and panels[0][1] != panels[2][1]


def test_zero_parameter_verdicts_hold_by_measurement(capsys):
    """At a = 0 the torsion and the Ricci target vanish; the curvature is
    still visibly nonzero and the eigenvalues still split as {0, 0, 0, 0}."""
    code, payload = run_json(capsys, ["theorem1", "--a", "0", "--grid", "200",
                                      "--points", "3"])
    assert code == 0
    assert payload["non_flat"] is True
    assert float(payload["max_r_nabla"]) > 0.01
    # Ric is compared with the zero target, not skipped: rounding noise remains
    assert float(payload["hypotheses"]["ricci_deviation"]) == pytest.approx(
        6.27781160389e-11, rel=1e-9, abs=1e-12)
    code, payload = run_json(capsys, ["kahler", "--a", "0", "--grid", "200",
                                      "--points", "3"])
    assert code == 0
    assert payload["multiplicity_gap"] is True
    assert float(payload["target"]) == 0.0
    assert max(abs(float(x)) for row in payload["eigenvalues"] for x in row) < 1e-9


def test_zero_parameter_verdicts_are_not_granted(capsys, monkeypatch):
    """non_flat and multiplicity_gap report what was measured, also at a = 0:
    a flat curvature or a failed split reads false."""
    from g2torsion import bundle, coframe

    monkeypatch.setattr(coframe.CurvatureReport, "max_riemann", property(lambda self: 0.0))
    code, payload = run_json(capsys, ["theorem1", "--a", "0", "--grid", "200",
                                      "--points", "3"])
    assert code == 1
    assert payload["non_flat"] is False
    assert payload["passed"] is False
    monkeypatch.setattr(bundle, "eigenvalue_multiplicity_gap", lambda eigs, target: False)
    code, payload = run_json(capsys, ["kahler", "--a", "0", "--grid", "200",
                                      "--points", "3"])
    assert payload["multiplicity_gap"] is False


@pytest.mark.parametrize("argv", [
    ["lemma", "--m1=0", "--m2=0", "--m3=--"],
    ["values", "--mu=--"],
    ["det-e2", "--b=1", "--mu=--"],
    ["kahler", "--grid=--"],
    ["theorem1", "--format=--"],
])
def test_double_dash_as_option_value_is_usage_error(argv, capsys):
    """argparse hands an option written --opt=-- an empty list without
    calling its type; that is a usage error, not a traceback."""
    assert main(argv) == 2
    captured = capsys.readouterr()
    assert "'--'" in captured.err
    assert captured.out == ""


def test_cli_usage_errors(capsys):
    with pytest.raises(SystemExit):
        main(["kahler", "--grid", "notanint"])
    assert main(["kahler", "--grid", "2"]) == 2       # validated: grid >= 4
    assert main(["kahler", "--tol", "-1"]) == 2


@pytest.mark.parametrize("command", ["kahler", "theorem1"])
def test_negative_seed_is_usage_error(command, capsys, monkeypatch):
    """A negative --seed exits 2 before any solve, naming the option."""
    import g2torsion.liouville

    def no_solve(*args, **kwargs):
        raise AssertionError("the solve ran before --seed was checked")

    monkeypatch.setattr(g2torsion.liouville, "solve_liouville", no_solve)
    code = main([command, "--seed", "-1", "--grid", "200", "--points", "1"])
    captured = capsys.readouterr()
    assert code == 2
    assert "--seed" in captured.err
    assert "Traceback" not in captured.err
    assert captured.out == ""


@pytest.mark.parametrize("command", ["kahler", "theorem1"])
def test_divergent_solve_exits_1_with_payload(command, capsys):
    code = main([command, "--a", "5", "--grid", "50", "--points", "1",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Newton did not converge" in captured.err
    payload = json.loads(captured.out)
    assert payload["command"] == command
    assert payload["passed"] is False
    assert "Newton did not converge" in payload["error"]


@pytest.mark.parametrize("command", ["kahler", "theorem1"])
@pytest.mark.parametrize("argv", [["--a", "nan"], ["--a", "inf"],
                                  ["--domain", "1", "nan"], ["--tol", "nan"],
                                  ["--tol", "inf"], ["--tol", "0"]])
def test_non_finite_inputs_are_usage_errors(command, argv, capsys):
    assert main([command] + argv) == 2
    assert "must be finite" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["kahler", "theorem1"])
@pytest.mark.parametrize("argv, message", [
    (["--a", "1e200"], "parameter a = 1e+200 is out of range: 8 a^2 is not finite"),
    (["--domain", "1", "1e200"], "h^2 or 1/h^2 out of range"),
    (["--domain", "1e-300", "3e-300"], "h^2 or 1/h^2 out of range"),
])
def test_out_of_range_solver_inputs_are_usage_errors(command, argv, message,
                                                      capsys):
    """Finite arguments whose 8 a^2 or grid spacing squared overflows or
    underflows exit 2 with a message, not with an arithmetic exception."""
    code = main([command] + argv + ["--grid", "50", "--points", "1"])
    err = capsys.readouterr().err
    assert code == 2
    assert err.startswith("error: ") and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize("command", ["kahler", "theorem1"])
def test_domain_narrower_than_the_chart_margins_is_usage_error(command, capsys):
    """The chart keeps 0.02 from each end of the interval; an interval of
    width at most 0.04 leaves no chart and exits 2 naming both."""
    code = main([command, "--domain", "0.001", "0.01", "--grid", "50",
                 "--points", "1", "--format", "json"])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    assert captured.err == (
        "error: domain [0.001, 0.01] is too narrow: the chart keeps a margin "
        "of 0.02 from each end, so x1 - x0 must exceed 0.04\n")


def test_theorem1_judges_hypotheses_at_tol(capsys):
    """At grid 20 the base Ricci tensor is off by 1.3e-5: within --tol 1e-2
    the theorem holds, at the default 1e-6 it fails with the full payload
    naming the failed hypothesis."""
    code, payload = run_json(capsys, ["theorem1", "--grid", "20", "--tol", "1e-2"])
    assert code == 0
    assert payload["passed"] is True
    code, payload = run_json(capsys, ["theorem1", "--grid", "20"])
    assert code == 1
    assert payload["passed"] is False
    assert "error" not in payload
    hyp = payload["hypotheses"]
    assert float(hyp["ricci_deviation"]) == pytest.approx(1.34256559103e-05, rel=1e-6)
    assert [k for k, v in hyp.items() if float(v) > 1e-6] == ["ricci_deviation"]
    assert set(payload["residuals"]) == {
        "torsion_norm", "jacobian_residual", "d_torsion", "dstar_torsion", "nabla_eta",
        "ric_nabla", "oneill", "scal", "ricci_eigen"}
    assert payload["non_flat"] is True


@pytest.mark.parametrize("command", ["kahler", "theorem1"])
@pytest.mark.parametrize("grid", ["200", "400", "800", "1600"])
def test_supercritical_solve_exits_1_on_every_grid(command, grid, capsys):
    """At a = 1.0 no solution exists; a singular or non-finite Newton
    matrix must end as divergence, not as an exception."""
    code = main([command, "--a", "1.0", "--grid", grid, "--points", "1",
                 "--format", "json"])
    captured = capsys.readouterr()
    assert code == 1
    assert "Newton did not converge" in captured.err
    payload = json.loads(captured.out)
    assert payload["passed"] is False
    assert "Newton did not converge" in payload["error"]


@pytest.mark.parametrize("argv", [
    ["kahler", "--grid", "200", "--points", "3"],
    ["theorem1", "--grid", "200", "--points", "2", "--seed", "4"],
    ["theorem1", "--a", "0.9", "--grid", "200", "--points", "1"],
], ids=["kahler", "theorem1", "theorem1-diverged"])
def test_repeated_request_reuses_the_newton_solve(argv, capsys, monkeypatch):
    """A repeated (a, domain, grid) answers from the kept Newton solve, a
    divergent one included: the same stdout, stderr and exit code, and no
    tridiagonal solve the second time."""
    from g2torsion import liouville

    solve = liouville.tridiagonal_solve
    solves = []

    def counting(*args):
        solves.append(None)
        return solve(*args)

    monkeypatch.setattr(liouville, "tridiagonal_solve", counting)
    runs = []
    for _ in range(2):
        solves.clear()
        code = main(argv + ["--format", "json"])
        captured = capsys.readouterr()
        runs.append((code, captured.out, captured.err, len(solves)))
    assert runs[0][:3] == runs[1][:3]
    assert runs[0][3] > 0 and runs[1][3] == 0


def test_theorem1_measures_the_hypotheses_once_per_key(capsys, monkeypatch):
    """Two theorem1 requests with one (a, domain, grid) and different
    --points/--seed measure the hypothesis panel once."""
    from g2torsion import bundle

    panel = bundle.hypothesis_panel
    calls = []
    monkeypatch.setattr(bundle, "hypothesis_panel",
                        lambda *args: calls.append(None) or panel(*args))
    hypotheses = []
    for points, seed in (("2", "1"), ("3", "5")):
        code, payload = run_json(capsys, ["theorem1", "--a", "0.3", "--grid", "200",
                                          "--points", points, "--seed", seed])
        assert code == 0
        hypotheses.append(payload["hypotheses"])
    assert len(calls) == 1
    assert hypotheses[0] == hypotheses[1]


@pytest.mark.parametrize("before, argv", [
    (["--a=0"], ["--a=-0.0"]),
    (["--a", "0.3", "--seed", "1"], ["--a", "0.3", "--seed", "2"]),
], ids=["negative-zero-after-zero", "other-seed"])
def test_kept_hypotheses_print_the_bytes_of_a_fresh_request(before, argv, capsys):
    """A request answered from the kept hypotheses prints what it prints
    with every memo cleared; -0.0 and 0 are one key."""
    from g2torsion.bundle import _kept_panel
    from g2torsion.liouville import _newton_solve

    common = ["theorem1", "--grid", "200", "--points", "2"]
    runs = []
    for fmt in ("json", "text"):
        _kept_panel.cache_clear()
        main(common + before + ["--format", fmt])
        capsys.readouterr()
        hit = (main(common + argv + ["--format", fmt]), capsys.readouterr())
        assert _kept_panel.cache_info().hits == 1
        _kept_panel.cache_clear()
        _newton_solve.cache_clear()
        fresh = (main(common + argv + ["--format", fmt]), capsys.readouterr())
        assert _kept_panel.cache_info().hits == 0
        assert hit == fresh
        runs.append(hit[1].out)
    assert json.loads(runs[0])["passed"] is True


def test_divergent_request_fails_beside_kept_hypotheses(capsys):
    """A divergent a keeps no hypotheses and exits 1 every time, also after
    a convergent request on the same grid."""
    assert main(["theorem1", "--a", "0.3", "--grid", "200", "--points", "1"]) == 0
    for _ in range(2):
        assert main(["theorem1", "--a", "0.9", "--grid", "200", "--points", "1"]) == 1
        assert "Newton did not converge" in capsys.readouterr().err
    from g2torsion.bundle import _kept_panel
    assert _kept_panel.cache_info().currsize == 1


def test_kept_solve_hands_out_fresh_arrays():
    """Writing to one solution's arrays leaves the next solve unchanged."""
    import numpy as np

    from g2torsion.liouville import solve_liouville

    first = solve_liouville(0.25, n=200)
    want = first.values.copy()
    first.values[:] = 7.0
    first.grid[:] = 7.0
    second = solve_liouville(0.25, n=200)
    assert np.array_equal(second.values, want)
    assert second.grid[0] == 1.0 and second.grid[-1] == 2.0


SCIPY_BLOCKED = """
import sys
sys.modules["scipy"] = None          # every scipy import now fails
from g2torsion.cli import main
code = main(sys.argv[1:] + ["--format", "json"])
print(code, "numpy" in sys.modules, "numpy.random" in sys.modules)
"""


@pytest.mark.parametrize("argv, numeric", [
    pytest.param(["lemma", "--m1", "6", "--m2", "6", "--m3", "6", "--mu", "7"],
                 False, id="lemma"),
    pytest.param(["values", "--mu", "7"], False, id="values"),
    pytest.param(["kahler", "--grid", "50", "--points", "1"], True, id="kahler"),
    pytest.param(["theorem1", "--grid", "100", "--points", "2"], True,
                 id="theorem1"),
    pytest.param(["selftest"], True, id="selftest"),
])
def test_commands_run_with_scipy_blocked(argv, numeric):
    """No command needs scipy, only the solving ones import numpy, and none
    imports numpy.random: sample points come from random.Random."""
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", SCIPY_BLOCKED] + argv,
                          capture_output=True, text=True, env=env, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split()[-3:] == ["0", str(numeric), "False"]


def test_kahler_rejects_zero_points(capsys):
    assert main(["kahler", "--points", "0"]) == 2
    assert "--points must be at least 1" in capsys.readouterr().err


# ------------------------------------------------------------ output modes


def test_report_file_matches_stdout(tmp_path, capsys):
    path = tmp_path / "out.json"
    code = main(["kernels", "--format", "json", "--report", str(path)])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(path.read_text()) == json.loads(out)


@pytest.mark.parametrize("where", ["missing-directory", "directory"])
def test_unwritable_report_path_is_a_usage_error(tmp_path, capsys, where):
    """A --report path that cannot be opened for writing exits 2 with one
    error line, no traceback and nothing on stdout."""
    path = tmp_path / "missing" / "x.json" if where == "missing-directory" else tmp_path
    code = main(["values", "--mu", "1", "--report", str(path)])
    captured = capsys.readouterr()
    assert code == 2
    assert captured.out == ""
    lines = captured.err.splitlines()
    assert len(lines) == 1
    assert lines[0].startswith(f"error: cannot write report {path}: ")


def test_json_output_is_deterministic(capsys):
    main(["values", "--mu", "7", "--format", "json"])
    first = capsys.readouterr().out
    main(["values", "--mu", "7", "--format", "json"])
    second = capsys.readouterr().out
    assert first == second


def test_reused_parser_keeps_no_state(capsys):
    """main() reuses one parser; after a rejected argv, a lemma without --mu
    and a det-e2 print what fresh processes print."""
    from g2torsion.cli import build_parser
    assert build_parser() is build_parser()
    with pytest.raises(SystemExit) as exc:
        main(["lemma", "--m1", "1", "--m2", "2", "--m3", "3", "--mu", "x"])
    assert exc.value.code == 2
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    capsys.readouterr()
    for argv in (["lemma", "--m1", "1", "--m2", "2", "--m3", "3"],
                 ["det-e2", "--b", "1", "--mu", "7"]):
        argv = argv + ["--format", "json"]
        code = main(argv)
        out = capsys.readouterr().out
        fresh = subprocess.run([sys.executable, "-m", "g2torsion.cli"] + argv,
                               capture_output=True, text=True, env=env,
                               timeout=120)
        assert (code, out) == (fresh.returncode, fresh.stdout)


@pytest.mark.parametrize("argv, algebra, code", [
    (["kernels", "--format", "json"], None, 0),
    (["group-report"], BUNDLED_ALG, 0),
    (["group-report"], MISPLACED_ALG, 1),
], ids=["kernels", "group-report-bundled", "group-report-misplaced"])
def test_closed_stdout_exits_quietly_with_the_verdict(tmp_path, argv, algebra, code):
    """Writing into a pipe whose reader is already gone (a `| head` that has
    stopped reading) prints no traceback and keeps the verdict's exit code."""
    if algebra is not None:
        f = tmp_path / "input.alg"
        f.write_text(algebra)
        argv = argv + [str(f)]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run([sys.executable, "-m", "g2torsion.cli"] + argv,
                              stdout=write_end, stderr=subprocess.PIPE,
                              text=True, env=env, timeout=120)
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (code, "")


def test_text_format_mentions_pass(capsys):
    code = main(["kernels"])
    out = capsys.readouterr().out
    assert code == 0
    assert "passed: True" in out
