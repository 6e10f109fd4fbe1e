import argparse
import csv
import json
import math

import numpy as np
import pytest

from radialmax import cli
from radialmax.cli import EXIT_CHECK_FAILED, EXIT_NUMERICAL, EXIT_OK, EXIT_USAGE, _emit, main
from radialmax.maximal1d import (
    GridConfig,
    RadialProfile,
    _log_uncentered_max_grid,
    uncentered_max,
)
from radialmax.measure import (
    BallSpec,
    PowerLawMeasure,
    QuadratureConfig,
    log_ball_centered,
    log_ball_offcenter,
)
from radialmax.radial import MaximalConfig, _weak_type_quotient_logs


def run_csv(tmp_path, argv):
    out = tmp_path / "out.csv"
    rc = main(argv + ["--out", str(out)])
    text = out.read_text()
    lines = text.splitlines()
    rows = list(csv.DictReader(lines[1:]))  # line 0 is the schema comment
    return rc, text, rows


def test_schema_comment_and_determinism(tmp_path):
    argv = ["weaktype", "--d", "3", "--alpha", "1.0", "--family", "random",
            "--seed", "7", "--lambdas", "4", "--level-points", "48", "--tol", "1e-5"]
    rc1, text1, _ = run_csv(tmp_path, argv)
    rc2, text2, _ = run_csv(tmp_path, argv)
    assert rc1 == rc2 == EXIT_OK
    assert text1 == text2  # byte-identical reruns under a fixed seed
    assert text1.startswith("# schema=radialmax-table-1")


def test_bounds_lower_lebesgue_exact_ones(tmp_path):
    rc, _, rows = run_csv(tmp_path, ["bounds-lower", "--d", "2..50", "--alpha", "0"])
    assert rc == EXIT_OK
    assert len(rows) == 49
    for r in rows:
        assert abs(float(r["delta_exact"]) - 1.0) < 1e-10
        assert r["passed"] == "true"


def test_bounds_lower_closed_le_exact(tmp_path):
    rc, _, rows = run_csv(
        tmp_path, ["bounds-lower", "--d", "12..96:12", "--alpha-coef", "0.5"]
    )
    assert rc == EXIT_OK
    for r in rows:
        assert float(r["delta_closed"]) <= float(r["delta_exact"])


def test_bounds_lower_part1_column_monotone(tmp_path):
    rc, _, rows = run_csv(
        tmp_path, ["bounds-lower", "--d", "20,40,80", "--alpha", "0.75", "--p", "2"]
    )
    assert rc == EXIT_OK
    vals = [float(r["part1_value"]) for r in rows]
    assert vals == sorted(vals)


def test_bounds_lower_json_roundtrip(tmp_path):
    out = tmp_path / "out.json"
    rc = main(["bounds-lower", "--d", "12,24", "--alpha", "3", "--format", "json",
               "--out", str(out)])
    assert rc == EXIT_OK
    doc = json.loads(out.read_text())
    assert doc["schema_version"] == "radialmax-table-1"
    assert doc["command"] == "bounds-lower"
    assert len(doc["rows"]) == 2
    assert doc["rows"][0]["d"] == 12


def test_bounds_lower_bad_exponent_reports_and_continues(tmp_path):
    rc, _, rows = run_csv(tmp_path, ["bounds-lower", "--d", "4,12", "--alpha", "6"])
    assert rc == EXIT_NUMERICAL
    assert rows[0]["error"] != ""
    assert rows[1]["error"] == ""
    assert abs(float(rows[1]["delta_exact"]) - 5.6) < 1e-9


def test_verify_shift_lebesgue(tmp_path):
    rc, _, rows = run_csv(
        tmp_path, ["verify-shift", "--d", "3,6", "--alpha", "0", "--r-points", "32"]
    )
    assert rc == EXIT_OK
    for r in rows:
        assert abs(float(r["sup_ratio"]) - 1.0) < 1e-7
        assert float(r["certified_c"]) == 4.0
        assert float(r["certified_c_plus_1"]) == 5.0
        assert r["passed"] == "true"


def test_verify_shift_d12_alpha3_pinned(tmp_path):
    rc, _, rows = run_csv(
        tmp_path, ["verify-shift", "--d", "12", "--alpha", "3", "--r-points", "128"]
    )
    assert rc == EXIT_OK
    r = rows[0]
    assert 2.70 <= float(r["sup_ratio"]) <= 2.73  # pre-build oracle pin
    assert float(r["sup_ratio"]) <= 4.0 * 6.0 ** 1.5
    assert float(r["r_argmax"]) == 1.0
    assert abs(float(r["ratio_at_r1"]) - float(r["sup_ratio"])) < 1e-12


def test_maximal1d_eval_matches_library(tmp_path):
    prof = tmp_path / "profile.txt"
    prof.write_text("1.0 2.0\n2.5 0.5\n")
    rc, _, rows = run_csv(
        tmp_path,
        ["maximal1d-eval", "--profile", str(prof), "--d", "3", "--beta", "1.0",
         "--x", "0.5,1.5,4.0"],
    )
    assert rc == EXIT_OK
    m = PowerLawMeasure(3, 1.0)
    f = RadialProfile((0.0, 1.0, 2.5), (2.0, 0.5))
    for row in rows:
        x = float(row["x"])
        assert float(row["uncentered_max"]) == pytest.approx(
            uncentered_max(m, f, x), rel=1e-15
        )


def test_specfun_selftest_passes(tmp_path):
    rc, _, rows = run_csv(tmp_path, ["specfun-selftest"])
    assert rc == EXIT_OK
    assert all(r["passed"] == "true" for r in rows)


def test_weaktype_upper_bound_column(tmp_path):
    rc, _, rows = run_csv(
        tmp_path,
        ["weaktype", "--d", "4", "--alpha", "1", "--family", "shrinking-indicator",
         "--lambdas", "6", "--level-points", "64", "--tol", "1e-6"],
    )
    assert rc == EXIT_OK
    upper = 2.0 * (4.0 * 6.0 ** 0.5 + 1.0)
    for r in rows:
        assert float(r["quotient"]) <= upper
        assert float(r["upper_bound"]) == pytest.approx(upper)
        assert r["passed"] == "true"
    # the smallest indicator approaches the point-mass certificate
    last = rows[-1]
    assert float(last["quotient"]) >= 0.9 * float(last["lower_certificate"])


def test_weaktype_lebesgue_decreasing_below_four(tmp_path):
    rc, _, rows = run_csv(
        tmp_path,
        ["weaktype", "--d", "3", "--alpha", "0", "--family", "radial-decreasing",
         "--lambdas", "6", "--level-points", "64", "--tol", "1e-6"],
    )
    assert rc == EXIT_OK
    for r in rows:
        assert float(r["upper_bound"]) == 4.0
        assert float(r["quotient"]) <= 4.0
        assert r["passed"] == "true"


def test_usage_errors_exit_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["bounds-lower"])  # missing required --d
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["no-such-command"])
    assert exc.value.code == EXIT_USAGE
    with pytest.raises(SystemExit) as exc:
        main(["bounds-lower", "--d", "twelve"])
    assert exc.value.code == EXIT_USAGE
    capsys.readouterr()
    # a range that runs down holds no dimension
    with pytest.raises(SystemExit) as exc:
        main(["bounds-lower", "--d", "5..2"])
    assert exc.value.code == EXIT_USAGE
    assert "empty dimension range" in capsys.readouterr().err


def test_csv_cell_with_comma_stays_one_cell(tmp_path):
    out = tmp_path / "out.csv"
    args = argparse.Namespace(format="csv", out=str(out))
    columns = ["d", "passed", "error"]
    _emit(args, "demo", columns, [{"d": 3, "passed": None, "error": 'bad ball (c, R) "x"'}])
    lines = out.read_text().splitlines()
    table = list(csv.reader(lines[1:]))
    assert table[0] == columns
    assert table[1] == ["3", "", 'bad ball (c, R) "x"']


def test_maximal1d_eval_high_dimension_values(tmp_path):
    # M^u chi_(0,5] at d = 400: 1 on the support, (5/x)^400 beyond it
    prof = tmp_path / "profile.txt"
    prof.write_text("5 1\n")
    rc, _, rows = run_csv(
        tmp_path,
        ["maximal1d-eval", "--profile", str(prof), "--d", "400", "--beta", "0",
         "--x", "5,10,12"],
    )
    assert rc == EXIT_OK
    got = [float(r["uncentered_max"]) for r in rows]
    assert got[0] == 1.0
    for x, g in zip((10.0, 12.0), got[1:]):
        assert math.log(g) == pytest.approx(400 * math.log(5.0 / x), rel=1e-13)


def test_maximal1d_eval_below_double_range_exits_numerical(tmp_path, capsys):
    # (5/x)^400 is below the double range at x = 100 and 1000: the log core
    # keeps it, and the CLI leaves those cells empty, names each point on one
    # stderr line and exits 3 instead of printing a silent 0
    m, f = PowerLawMeasure(400, 0.0), RadialProfile((0.0, 5.0), (1.0,))
    xs = (10.0, 100.0, 1000.0)
    got = _log_uncentered_max_grid(m, f, xs)
    np.testing.assert_allclose(got, [400 * math.log(5.0 / x) for x in xs], rtol=1e-13)
    prof = tmp_path / "profile.txt"
    prof.write_text("5 1\n")
    rc, _, rows = run_csv(
        tmp_path,
        ["maximal1d-eval", "--profile", str(prof), "--d", "400", "--beta", "0",
         "--x", "10,100,1000"],
    )
    assert rc == EXIT_NUMERICAL
    assert math.log(float(rows[0]["uncentered_max"])) == pytest.approx(got[0], rel=1e-13)
    assert [r["uncentered_max"] for r in rows[1:]] == ["", ""]
    err = capsys.readouterr().err
    assert err.count("\n") == 1 and "d=400" in err and "beta=0.0" in err
    for x, log_m in zip(xs[1:], got[1:]):
        assert f"x={x!r} ln M^u={float(log_m)!r}" in err


def test_maximal1d_eval_bad_profile_exits_usage(tmp_path, capsys):
    # non-finite or negative profile entries are bad input, rejected with a
    # one-line message before anything is evaluated
    prof = tmp_path / "profile.txt"
    out = tmp_path / "out.csv"
    # a line of three fields and a file of comments only are bad input too
    for text in ("10 nan\n", "nan 1\n", "10 -1\n", "1 2 3\n", "# t v\n\n  # none\n"):
        prof.write_text(text)
        rc = main(["maximal1d-eval", "--profile", str(prof), "--d", "400", "--beta", "0",
                   "--x", "5,10,12", "--out", str(out)])
        assert rc == EXIT_USAGE
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.startswith("bad profile") and err.count("\n") == 1


def test_maximal1d_eval_bad_arguments_exit_usage(tmp_path, capsys):
    # a measure with beta >= d and an unparseable, non-finite or non-positive
    # point are usage errors: one stderr line and exit 2, never a traceback
    prof = tmp_path / "profile.txt"
    prof.write_text("5 1\n")
    out = tmp_path / "out.csv"
    for beta, xs in (("5", "1"), ("0", "1,abc"), ("0", "nan"), ("0", "1,inf"), ("0", "-1"),
                     ("0", ",")):
        rc = main(["maximal1d-eval", "--profile", str(prof), "--d", "3", "--beta", beta,
                   "--x", xs, "--out", str(out)])
        assert rc == EXIT_USAGE, xs
        assert not out.exists()
        err = capsys.readouterr().err
        assert err.count("\n") == 1, err


def test_weaktype_bad_exponent_reports_and_continues(tmp_path):
    # beta >= d gives an error row for that d; the other dimensions still run
    rc, _, rows = run_csv(
        tmp_path,
        ["weaktype", "--d", "4,2", "--alpha", "3", "--family", "radial-decreasing",
         "--lambdas", "3", "--level-points", "32", "--tol", "1e-5"],
    )
    assert rc == EXIT_NUMERICAL
    bad = [r for r in rows if r["d"] == "2"]
    assert len(bad) == 1 and "beta must be < d" in bad[0]["error"]
    good = [r for r in rows if r["d"] == "4"]
    assert len(good) == 3 and all(r["error"] == "" and r["quotient"] for r in good)


@pytest.mark.parametrize("d, alpha", [("200", "1"), ("400", "0")])
def test_weaktype_levels_below_the_double_range_give_quotients(tmp_path, d, alpha):
    # lambda* = mu(B(0, r0)) / mu(B(e1, 1 + r0)) rounds to 0 for the smaller
    # r0 at these d (and for every r0 at d = 400); the levels are built from
    # ln lambda*, so each r0 still gets a checked quotient
    rc, _, rows = run_csv(
        tmp_path,
        ["weaktype", "--d", d, "--alpha", alpha, "--family", "shrinking-indicator"],
    )
    assert rc == EXIT_OK
    assert [r["case"] for r in rows] == [f"indicator r0={r0}" for r0 in ("0.1", "0.02", "0.005")]
    for r in rows:
        q = float(r["quotient"])
        assert r["error"] == "" and 0.0 < q <= float(r["upper_bound"]), r
        assert r["passed"] == "true"
    if d == "200":
        # lambda* is a double at r0 = 0.1, and the row keeps its linear-level
        # digits, 6e-14 relative from a reference at tol 1e-11
        assert rows[0]["quotient"] == "0.37104806241532379"


def test_weaktype_row_is_as_accurate_as_its_tolerance(tmp_path):
    # the crossing search closes its brackets to --tol: at d = 350, beta = 2
    # the r0 = 0.1 quotient is within (p + 1) tol of a reference at tol
    # 1e-11, the library on the same levels (brackets closed to 1e-6 leave
    # this row 1.1e-4 off)
    rc, _, rows = run_csv(tmp_path, ["weaktype", "--d", "350", "--alpha", "2"])
    assert rc == EXIT_OK and rows[0]["case"] == "indicator r0=0.1"
    m, r0 = PowerLawMeasure(350, 2.0), 0.1
    log_lam = (log_ball_centered(m, r0).log
               - log_ball_offcenter(m, BallSpec(1.0, 1.0 + r0)).log)
    cfg = MaximalConfig(quad=QuadratureConfig(tol=1e-11), level_grid=GridConfig(points=128))
    ref = _weak_type_quotient_logs(m, RadialProfile.indicator(r0),
                                   log_lam + np.log(np.geomspace(0.25, 1.02, 12)), cfg)
    q = float(rows[0]["quotient"])
    assert abs(q - ref) <= (m.d - m.beta + 1) * 1e-8 * ref, (q, ref)


def test_weaktype_without_an_upper_bound_leaves_passed_empty(tmp_path):
    # beta = 3 > d/2 has no certified shift constant at d = 4, so nothing is
    # checked and passed stays empty, as in verify-shift outside its window;
    # at d = 8 the bound 2(C+1) applies
    rc, _, rows = run_csv(
        tmp_path,
        ["weaktype", "--d", "4,8", "--alpha", "3", "--lambdas", "3", "--level-points", "32",
         "--tol", "1e-5"],
    )
    assert rc == EXIT_OK
    assert len(rows) == 6 and all(r["error"] == "" and float(r["quotient"]) > 0 for r in rows)
    for r in rows:
        if r["d"] == "4":
            assert r["upper_bound"] == "" and r["passed"] == "", r
        else:
            assert float(r["upper_bound"]) > 0 and r["passed"] == "true", r


def test_weaktype_indicator_at_d_one_is_one_error_row(tmp_path):
    # lambda* needs an off-center ball, which d = 1 does not have: one error
    # row for that d, as beta >= d gives, and the other dimensions still run
    rc, _, rows = run_csv(
        tmp_path,
        ["weaktype", "--d", "1,2", "--alpha", "0", "--lambdas", "3", "--level-points", "32",
         "--tol", "1e-5"],
    )
    assert rc == EXIT_NUMERICAL
    bad = [r for r in rows if r["d"] == "1"]
    assert len(bad) == 1 and "d >= 2" in bad[0]["error"] and bad[0]["case"] == ""
    good = [r for r in rows if r["d"] == "2"]
    assert len(good) == 3 and all(r["passed"] == "true" for r in good)


@pytest.mark.parametrize("argv, bad_d, n_bad, good_d", [
    (["weaktype", "--d", "3,12", "--alpha", "2.99", "--family", "radial-decreasing"],
     "3", 3, "12"),
    (["bounds-lower", "--d", "12,20000", "--alpha-coef", "0.5"], "20000", 1, "12"),
    (["verify-shift", "--d", "2000", "--alpha-coef", "0.5", "--r-points", "4"], "2000", 1, None),
], ids=["weaktype", "bounds-lower", "verify-shift"])
def test_overflow_is_an_error_row(tmp_path, capsys, argv, bad_d, n_bad, good_d):
    # a value past the double range (the level-set window at p = 0.01, the
    # certificate at d = 20000, the shift constant 6^(beta/2) at beta = 1000)
    # gives one error row per case and exit 3; the other rows still run
    rc, _, rows = run_csv(tmp_path, argv)
    assert rc == EXIT_NUMERICAL
    assert "Traceback" not in capsys.readouterr().err
    bad = [r for r in rows if r["d"] == bad_d]
    good = [r for r in rows if r["d"] == good_d]
    assert len(bad) == n_bad and all(r["error"] for r in bad)
    assert len(good) == len(rows) - len(bad)
    assert all(r["error"] == "" and r["passed"] == "true" for r in good), good
    # each message names the quantity, its log, d or beta, and no layer
    for r in bad:
        assert "," not in r["error"] and "in logs" not in r["error"], r["error"]
    if argv[0] == "weaktype":
        for r in bad:
            assert r["error"].startswith("the level-set window for ln lambda = ")
            assert "at d = 3 beta = 2.99 is past the double range" in r["error"]
    elif argv[0] == "bounds-lower":
        # the log column is filled before the linear value overflows
        assert bad[0]["error"] == ("the DeltaExact certificate = exp(2616.38) at d = 20000 "
                                   "beta = 10000.0 is past the double range")
        assert float(bad[0]["ln_exact_over_d"]) == pytest.approx(2616.38 / 20000, rel=1e-5)
        assert bad[0]["delta_exact"] == ""
    else:
        assert bad[0]["error"] == ("the shift constant 4 * 6^(beta/2) = exp(897.266) at "
                                   "beta = 1000.0 is past the double range")
        # the ratio columns are filled before the shift constant overflows
        for col in ("sup_ratio", "r_argmax", "sup_ratio_small_r", "ratio_at_r1"):
            assert math.isfinite(float(bad[0][col])), col
        assert bad[0]["certified_c"] == ""


def test_verify_shift_past_d_half_leaves_passed_empty(tmp_path):
    # beta = 3 > d/2 at d = 4: the ratios and constants are printed, the row
    # is flagged by alpha_within_d_half, and nothing is checked
    rc, _, rows = run_csv(tmp_path, ["verify-shift", "--d", "4", "--alpha", "3"])
    assert rc == EXIT_OK
    r = rows[0]
    assert r["error"] == "" and r["passed"] == "" and r["alpha_within_d_half"] == "false"
    assert float(r["sup_ratio"]) > 0 and float(r["certified_c"]) == 4.0 * 6.0 ** 1.5


def test_a_failed_check_exits_one(tmp_path, monkeypatch):
    # no run within the bounds fails a check, so take away the rounding
    # slack: every bound then reads 0, each row fails and the run exits 1
    monkeypatch.setattr(cli, "_PASS_SLACK", 0.0)
    rc, _, rows = run_csv(tmp_path, ["verify-shift", "--d", "8", "--alpha", "1",
                                     "--r-points", "8"])
    assert rc == EXIT_CHECK_FAILED
    assert rows[0]["error"] == "" and rows[0]["passed"] == "false"


@pytest.mark.parametrize("argv", [
    ["verify-shift", "--d", "4", "--r-points", "0"],
    ["weaktype", "--d", "4", "--lambdas", "0"],
    ["weaktype", "--d", "4", "--level-points", "0"],
    ["weaktype", "--d", "4", "--lambdas", "-2"],
])
def test_count_flags_must_be_positive(argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE


@pytest.mark.parametrize("argv, shown", [
    (["verify-shift", "--d", "4", "--tol", "nan", "--r-points", "4"], "got nan"),
    (["bounds-lower", "--d", "4", "--alpha-coef", "0.7", "--tol", "-1"], "got -1.0"),
])
def test_bad_tolerance_is_a_usage_error(argv, shown, capsys):
    # a NaN tolerance used to switch the quadrature's error test off (exit 0,
    # passed=true); a negative one gave only "math domain error" rows
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "QuadratureConfig.tol" in err and shown in err


@pytest.mark.parametrize("value", ["nan", "inf", "0.5"])
@pytest.mark.parametrize("alpha", ["0.2", "0.7"])
def test_bad_lp_exponent_is_a_usage_error(alpha, value, capsys):
    # at alpha = 0.2 the cap bound does not run, so --p nan used to print an
    # empty p cell with passed=true and exit 0
    with pytest.raises(SystemExit) as exc:
        main(["bounds-lower", "--d", "4", "--alpha", alpha, "--p", value])
    assert exc.value.code == EXIT_USAGE
    err = capsys.readouterr().err
    assert "--p" in err and f"got {float(value)}" in err


@pytest.mark.parametrize("argv", [
    ["maximal1d-eval", "--d", "3", "--x", "1", "--seed", "1"],
    ["specfun-selftest", "--tol", "1e-6"],
])
def test_flags_a_command_does_not_use_are_rejected(tmp_path, argv):
    # --seed and --tol are offered only where they change the output
    prof = tmp_path / "profile.txt"
    prof.write_text("1.0 2.0\n")
    if argv[0] == "maximal1d-eval":
        argv = argv + ["--profile", str(prof)]
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--out", str(tmp_path / "out.csv")])
    assert exc.value.code == EXIT_USAGE
    assert not (tmp_path / "out.csv").exists()
