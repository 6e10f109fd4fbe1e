"""Batch command surface: bound sweeps, shift-condition checks, weak-type runs.

Every subcommand emits a fixed-schema table (CSV or JSON) with floats
printed at 17 significant digits so reruns round-trip bit-exactly.  Exit
codes: 0 all checks pass, 1 a bound or sandwich check failed, 2 usage
error, 3 a numerical failure was recorded (run continues per row).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import sys

import numpy as np

from . import bounds as bnd
from . import maximal1d as m1d
from . import measure as msr
from . import radial as rad
from . import specfun as sf
from .quadrature import DEFAULT_QUADRATURE, QuadratureConfig, QuadratureError

SCHEMA_VERSION = "radialmax-table-1"

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERICAL = 3

# a computed value passes its bound up to this relative rounding slack
_PASS_SLACK = 1 + 1e-9
# the typed failures a table command writes into its row's error cell (exit 3);
# anything else is a bug and keeps its traceback
_ROW_ERRORS = (QuadratureError, ValueError, OverflowError)


def _fmt(x) -> str:
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, float):
        if math.isnan(x):
            return ""
        return format(x, ".17g")
    if x is None:
        return ""
    return str(x)


def _emit(args, command: str, columns: list[str], rows: list[dict]) -> None:
    if args.format == "csv":
        buf = io.StringIO()
        buf.write("# schema=" + SCHEMA_VERSION + " command=" + command + "\n")
        # minimal quoting: cells holding a comma, quote or newline stay one cell
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(columns)
        writer.writerows([_fmt(r.get(c)) for c in columns] for r in rows)
        text = buf.getvalue()
    else:
        doc = {
            "schema_version": SCHEMA_VERSION,
            "command": command,
            "columns": columns,
            "rows": rows,
        }
        text = json.dumps(doc, indent=1, sort_keys=True, allow_nan=True) + "\n"
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_d_range(spec: str) -> list[int]:
    """'4..64', '4..64:8', or '2,12,80'; argparse turns parse errors into usage exits."""
    try:
        out: list[int] = []
        for part in spec.split(","):
            part = part.strip()
            if ".." in part:
                lohi, _, step = part.partition(":")
                lo, hi = lohi.split("..")
                out.extend(range(int(lo), int(hi) + 1, int(step) if step else 1))
            elif part:
                out.append(int(part))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad dimension range {spec!r}") from exc
    if not out:
        raise argparse.ArgumentTypeError("empty dimension range")
    return out


def _positive_int(spec: str) -> int:
    """A count flag: an integer >= 1, else a usage error."""
    n = int(spec)  # argparse reports a ValueError as a usage error too
    if n < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {n}")
    return n


def _lp_exponent(spec: str) -> float:
    """--p: a finite L^p exponent >= 1, else a usage error."""
    p = float(spec)  # argparse reports a ValueError as a usage error too
    if not 1.0 <= p < math.inf:
        raise argparse.ArgumentTypeError(f"must be finite and at least 1, got {p}")
    return p


def _quadrature(spec: str) -> QuadratureConfig:
    """--tol: a relative tolerance in (0, 1), else a usage error."""
    try:
        return QuadratureConfig(tol=float(spec))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from exc


def _exponent_for(args, d: int) -> float:
    if args.alpha_coef is not None:
        return args.alpha_coef * d
    return args.alpha


def _row_status(rows) -> int:
    if any(r.get("error") for r in rows):
        return EXIT_NUMERICAL
    if any(r.get("passed") is False for r in rows):
        return EXIT_CHECK_FAILED
    return EXIT_OK


# ---------------------------------------------------------------------------
# bounds-lower
# ---------------------------------------------------------------------------

def _cmd_bounds_lower(args) -> int:
    columns = [
        "d", "exponent", "p", "delta_exact", "delta_stirling_chain", "delta_closed",
        "part1_value", "q1_sqrt_d", "ln_exact_over_d", "ln_part1_over_d",
        "passed", "error",
    ]
    rows = []
    for d in args.d:
        exponent = _exponent_for(args, d)
        row: dict = {"d": d, "exponent": exponent, "p": args.p, "error": None}
        try:
            cert = bnd.delta_lower_bound(d, exponent)
            row["delta_exact"] = cert.value
            row["ln_exact_over_d"] = cert.log_value / d
            chain = cert.intermediates.get("log_stirling_chain")
            closed = cert.intermediates.get("log_closed")
            row["delta_stirling_chain"] = math.exp(chain) if chain is not None else None
            row["delta_closed"] = math.exp(closed) if closed is not None else None
            ok = True
            if chain is not None:
                ok &= cert.log_value >= chain - 1e-12
            if closed is not None and chain is not None:
                ok &= chain >= closed - 1e-12
            # the cap-geometry bound reads the flag as its growth exponent
            # (its own measure exponent is alpha * d)
            alpha = args.alpha_coef if args.alpha_coef is not None else args.alpha
            if 0.5 < alpha < 1.0:
                p1 = bnd.cp_lower_bound(d, alpha, args.p, args.quad)
                row["part1_value"] = p1.value
                row["q1_sqrt_d"] = p1.intermediates["q1_sqrt_d"]
                row["ln_part1_over_d"] = p1.log_value / d
            row["passed"] = bool(ok)
        except _ROW_ERRORS as exc:
            row["error"] = str(exc)
        rows.append(row)
    _emit(args, "bounds-lower", columns, rows)
    return _row_status(rows)


# ---------------------------------------------------------------------------
# verify-shift
# ---------------------------------------------------------------------------

def _cmd_verify_shift(args) -> int:
    columns = [
        "d", "alpha", "sup_ratio", "r_argmax", "sup_ratio_small_r", "ratio_at_r1",
        "certified_c", "certified_c_plus_1", "small_r_c", "alpha_within_d_half",
        "passed", "error",
    ]
    rows = []
    rs = (np.arange(args.r_points) + 1.0) / args.r_points
    small = rs <= 1.0 / math.sqrt(5.0)
    for d in args.d:
        alpha = _exponent_for(args, d)
        row: dict = {"d": d, "alpha": alpha, "error": None}
        try:
            m = msr.PowerLawMeasure(d, alpha)
            ratios = msr.shift_condition_ratios(m, rs, args.quad)
            c_prime, c_small = rad._shift_constants(alpha)
            row.update(
                sup_ratio=float(ratios.max()),
                r_argmax=float(rs[int(ratios.argmax())]),
                sup_ratio_small_r=float(ratios[small].max()) if small.any() else None,
                ratio_at_r1=float(ratios[-1]),
                certified_c=c_prime,
                certified_c_plus_1=c_prime + 1.0,
                small_r_c=c_small,
                alpha_within_d_half=bool(alpha <= d / 2),
            )
            if alpha <= d / 2:
                ok = ratios.max() <= c_prime * _PASS_SLACK
                if small.any():
                    ok &= ratios[small].max() <= c_small * _PASS_SLACK
                row["passed"] = bool(ok)
            else:
                row["passed"] = None  # outside the certified window, flagged only
        except _ROW_ERRORS as exc:
            row["error"] = str(exc)
        rows.append(row)
    _emit(args, "verify-shift", columns, rows)
    return _row_status(rows)


# ---------------------------------------------------------------------------
# weaktype
# ---------------------------------------------------------------------------

def _weaktype_cases(args, m, rng):
    """(label, profile, ln lambda grid) triples for the selected family.

    An indicator's levels lie around lambda* = mu(B(0, r0)) / mu(B(e1, 1 + r0)),
    built from ln lambda*, which stays finite where lambda* underflows.
    """
    cases = []
    if args.family == "shrinking-indicator":
        log_g = np.log(np.geomspace(0.25, 1.02, args.lambdas))
        for r0 in (0.1, 0.02, 0.005):
            log_lam = (msr.log_ball_centered(m, r0).log
                       - msr.log_ball_offcenter(m, msr.BallSpec(1.0, 1.0 + r0)).log)
            cases.append((f"indicator r0={r0:g}", m1d.RadialProfile.indicator(r0),
                          log_lam + log_g))
    elif args.family == "radial-decreasing":
        for k, vals in enumerate([(3.0, 1.0, 0.25), (1.0, 0.5, 0.1), (5.0, 0.2, 0.02)]):
            f = m1d.RadialProfile((0.0, 0.4, 1.1, 2.0), vals)
            cases.append((f"decreasing #{k}", f,
                          np.log(m1d.default_lambda_grid(m, f, args.lambdas))))
    else:  # random
        for k in range(3):
            nb = int(rng.integers(2, 6))
            bp = np.concatenate([[0.0], np.sort(rng.uniform(0.05, 2.5, nb))])
            vals = rng.uniform(0.05, 3.0, nb)
            f = m1d.RadialProfile(tuple(bp), tuple(vals))
            cases.append((f"random #{k}", f,
                          np.log(m1d.default_lambda_grid(m, f, args.lambdas))))
    return cases


def _cmd_weaktype(args) -> int:
    rng = np.random.default_rng(args.seed)
    cfg = rad.MaximalConfig(quad=args.quad, level_grid=m1d.GridConfig(points=args.level_points))
    columns = [
        "d", "beta", "family", "case", "quotient", "lower_certificate",
        "upper_bound", "passed", "error",
    ]
    rows = []
    for d in args.d:
        beta = _exponent_for(args, d)
        try:
            m = msr.PowerLawMeasure(d, beta)
            cases = _weaktype_cases(args, m, rng)
        except _ROW_ERRORS as exc:
            rows.append({"d": d, "beta": beta, "family": args.family, "error": str(exc)})
            continue
        for label, f, log_lams in cases:
            row: dict = {"d": d, "beta": beta, "family": args.family, "case": label,
                         "error": None}
            try:
                lower = bnd.delta_lower_bound(d, beta).value if beta >= 0 else None
                upper = 2.0 * (rad.certified_shift_constant(m) + 1.0) if beta <= d / 2 else None
                q = rad._weak_type_quotient_logs(m, f, log_lams, cfg)
                row.update(quotient=q, lower_certificate=lower, upper_bound=upper)
                # no upper bound past beta = d/2: flagged only, nothing checked
                row["passed"] = bool(q <= upper * _PASS_SLACK) if upper is not None else None
            except _ROW_ERRORS as exc:
                row["error"] = str(exc)
            rows.append(row)
    _emit(args, "weaktype", columns, rows)
    return _row_status(rows)


# ---------------------------------------------------------------------------
# maximal1d-eval
# ---------------------------------------------------------------------------

def _cmd_maximal1d_eval(args) -> int:
    try:
        with open(args.profile) as fh:
            f = m1d.RadialProfile.from_text(fh.read())
    except ValueError as exc:
        print(f"bad profile {args.profile}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    try:
        m = msr.PowerLawMeasure(args.d_single, args.beta)
        xs = [float(t) for t in args.x.split(",") if t.strip()]
        if not xs:
            raise ValueError("no evaluation points")
        # the library range-checks the points, naming the first bad one
        log_maxes = m1d._log_uncentered_max_grid(m, f, xs)
    except ValueError as exc:
        print(f"bad arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    columns = ["x", "uncentered_max", "profile_value"]
    rows, under = [], []
    for x, log_max, value in zip(xs, log_maxes.tolist(), np.exp(log_maxes).tolist()):
        if value == 0.0 and log_max > sf.NEG_INF:
            # below the double range: an empty cell, not a silent 0
            under.append(f"x={x!r} ln M^u={log_max!r}")
            value = math.nan
        rows.append({"x": x, "uncentered_max": value, "profile_value": float(f.value_at(x))})
    _emit(args, "maximal1d-eval", columns, rows)
    if under:
        print(f"uncentered_max is below the double range at d={m.d} beta={m.beta!r}: "
              + "; ".join(under), file=sys.stderr)
        return EXIT_NUMERICAL
    if not all(math.isfinite(r["uncentered_max"]) for r in rows):
        return EXIT_NUMERICAL
    return EXIT_OK


# ---------------------------------------------------------------------------
# specfun-selftest
# ---------------------------------------------------------------------------

def _selftest_rows(seed: int) -> list[dict]:
    rng = np.random.default_rng(seed)
    rows = []

    # Legendre duplication: Gamma(2z) = 2^(2z-1) Gamma(z) Gamma(z+1/2) / sqrt(pi)
    z = rng.uniform(1e-2, 50.0, 100)
    dup = np.abs(
        sf.log_gamma(2 * z)
        - (sf.log_gamma(z) + sf.log_gamma(z + 0.5) + (2 * z - 1) * math.log(2.0)
           - 0.5 * math.log(math.pi))
    ).max()
    rows.append({"check": "log_gamma duplication identity", "max_err": float(dup),
                 "tol": 1e-10})

    xs = rng.uniform(0.05, 40.0, 100)
    worst = 0.0
    for x in xs:
        lo, hi = sf.stirling_bounds(x)
        lg = sf.log_gamma(x + 1.0)
        worst = max(worst, lo - lg, lg - hi, abs((hi - lo) - 1.0 / (12 * x)))
    rows.append({"check": "stirling bracket of log_gamma(x+1)", "max_err": float(worst),
                 "tol": 1e-12})

    worst = 0.0
    for d in (2, 3, 11, 60, 200):
        for beta in (0.0, d / 2):
            m = msr.PowerLawMeasure(d, beta)
            ray = msr.log_ball_offcenter(m, msr.BallSpec(1.0, 1.0)).log
            worst = max(worst, abs(ray - msr.log_ball_offcenter_unit_closed(m).log))
    rows.append({"check": "ray-form unit ball at e1 vs closed form", "max_err": float(worst),
                 "tol": 1e-8})

    leb = max(abs(bnd.delta_lower_bound(d, 0.0).value - 1.0) for d in range(2, 101))
    rows.append({"check": "point-mass ratio at beta=0 equals 1", "max_err": float(leb),
                 "tol": 1e-10})

    for r in rows:
        r["passed"] = bool(r["max_err"] <= r["tol"])
    return rows


def _cmd_specfun_selftest(args) -> int:
    rows = _selftest_rows(args.seed)
    _emit(args, "specfun-selftest", ["check", "max_err", "tol", "passed"], rows)
    return EXIT_OK if all(r["passed"] for r in rows) else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def _add_common(p: argparse.ArgumentParser) -> None:
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.add_argument("--out", default=None, help="output path (default stdout)")


def _add_tol(p: argparse.ArgumentParser) -> None:
    p.add_argument("--tol", dest="quad", metavar="TOL", type=_quadrature,
                   default=DEFAULT_QUADRATURE,
                   help="quadrature relative tolerance, in (0, 1) (default 1e-8)")


def _add_exponent(p: argparse.ArgumentParser) -> None:
    g = p.add_mutually_exclusive_group()
    g.add_argument("--alpha", type=float, default=0.0,
                   help="fixed density exponent (beta = alpha)")
    g.add_argument("--alpha-coef", type=float, default=None,
                   help="dimension-proportional exponent: beta = coef * d")


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="radialmax",
        description="maximal-operator bound laboratory for radial power-law measures",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("bounds-lower", help="lower-bound certificate sweep over d")
    p.add_argument("--d", required=True, type=_parse_d_range,
                   help="dimensions: '12..96', '12..96:4' or a comma list")
    _add_exponent(p)
    p.add_argument("--p", type=_lp_exponent, default=1.0, help="L^p exponent for the cap bound")
    _add_tol(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_bounds_lower)

    p = sub.add_parser("verify-shift", help="shift-condition ratio sweep vs its constants")
    p.add_argument("--d", required=True, type=_parse_d_range)
    _add_exponent(p)
    p.add_argument("--r-points", type=_positive_int, default=256)
    _add_tol(p)
    _add_common(p)
    p.set_defaults(fn=_cmd_verify_shift)

    p = sub.add_parser("weaktype", help="measured weak-type quotients vs certificates")
    p.add_argument("--d", required=True, type=_parse_d_range)
    _add_exponent(p)
    p.add_argument("--family", choices=("shrinking-indicator", "random", "radial-decreasing"),
                   default="shrinking-indicator")
    p.add_argument("--lambdas", type=_positive_int, default=12, help="levels per case")
    p.add_argument("--level-points", type=_positive_int, default=128)
    _add_tol(p)
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_weaktype)

    p = sub.add_parser("maximal1d-eval", help="evaluate the 1D operator on a profile file")
    p.add_argument("--profile", required=True, help="text file, one 't v' pair per line")
    p.add_argument("--d", dest="d_single", type=int, required=True)
    p.add_argument("--beta", type=float, default=0.0)
    p.add_argument("--x", required=True, help="comma-separated evaluation points")
    _add_common(p)
    p.set_defaults(fn=_cmd_maximal1d_eval)

    p = sub.add_parser("specfun-selftest", help="identity checks for the special functions")
    p.add_argument("--seed", type=int, default=0)
    _add_common(p)
    p.set_defaults(fn=_cmd_specfun_selftest)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.fn(args)


if __name__ == "__main__":
    sys.exit(main())
