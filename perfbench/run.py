#!/usr/bin/env python3
"""radialmax benchmark: seeded workloads, end-to-end metrics, traced per-layer run.

Run from the repository root:

    python3 perfbench/run.py --workload ball-sweep --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30
    python3 perfbench/run.py --compare .bench_out/all.seed1.json other.json

A single run prints a table of its metrics and, as its last line, one JSON
object {"correct", "attempted", "failed", "metrics"}.  With --trace 0 the
metrics are the end-to-end ones; with --trace 1 they are the per-layer
ones.  Every run also writes its full result (metadata, failure reasons,
sample counts) to .bench_out/, where --compare can read it.  See
perfbench/README.md for the workloads and what each metric means.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

WORKLOADS = ("ball-sweep", "radial", "line-weaktype")
END_TO_END = ("wall_s", "cpu_s", "cases_per_s", "case_p50_ms", "case_p90_ms", "setup_s",
              "peak_rss_mb")
SETUP_SAMPLES = 5
REF_NOMINAL_S = 1e-3  # nominal duration of reference_kernel
REF_WINDOW = 10  # reference samples on either side of a case that calibrate it
WORKER_TIMEOUT_S = 150
PROBE_TIMEOUT_S = 20
# one thread per workload process, whatever BLAS numpy was built against
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "BLIS_NUM_THREADS")


class BookkeepingError(RuntimeError):
    """The benchmark lost track of a case or a check."""


# ---------------------------------------------------------------------------
# worker side: runs inside a fresh single-threaded process
# ---------------------------------------------------------------------------

def _import_library():
    sys.path.insert(0, str(SRC))
    import radialmax

    if Path(radialmax.__file__).resolve().parent != (SRC / "radialmax").resolve():
        raise SystemExit(f"radialmax imported from {radialmax.__file__}, not from {SRC}")
    return radialmax


def _setup_probe(workload: str) -> None:
    """Prints the set-up time and the median reference time measured right after it."""
    t0 = time.perf_counter()
    _import_library()
    import workloads

    workloads.warm_up(workload)
    setup = time.perf_counter() - t0
    refs = []
    for _ in range(20):
        s = time.perf_counter()
        reference_kernel()
        refs.append(time.perf_counter() - s)
    print(json.dumps([setup, statistics.median(refs)]))


def reference_kernel() -> float:
    """Fixed numpy and Python work, independent of radialmax.

    Run after every timed case, it samples the machine's speed at the same
    moments as the cases; see `_calibrated`.  It took about REF_NOMINAL_S
    (median 0.95 ms) on a 2.1 GHz x86-64 vCPU.
    """
    import numpy as np

    x = np.linspace(0.1, 1.0, 512)
    acc = 0.0
    for i in range(40):
        y = np.log(x) * (i + 1)
        z = np.where(y > -3.0, np.exp(y), np.expm1(y))
        acc += float(np.concatenate([z, x]).sum())
        for j in range(40):
            acc += (j * 0.5) % 3.0
    return acc


def _same(a, b) -> bool:
    import numpy as np

    if isinstance(a, np.ndarray) or isinstance(b, np.ndarray):
        return np.array_equal(a, b, equal_nan=True)
    if isinstance(a, float) and isinstance(b, float):
        return a == b or (a != a and b != b)
    return a == b


def _run_pass(cases, tr=None) -> dict:
    """One closed-loop pass over the case list; outputs are kept for the checks.

    Untraced passes run the reference kernel after each case, timed apart.
    """
    outs, lat, cpu, ref, ref_cpu = [], [], [], [], []
    t0, c0 = time.perf_counter(), time.process_time()
    for i, case in enumerate(cases):
        s, sc = time.perf_counter(), time.process_time()
        try:
            if tr is None:
                out = case.run()
            else:
                tr.case = i
                out = tr.call("case." + case.kind, "case", 0, case.run, (), {})
            outs.append((out, None))
        except Exception as exc:  # a failing case is counted, and the pass goes on
            outs.append((None, type(exc).__name__))
        lat.append(time.perf_counter() - s)
        cpu.append(time.process_time() - sc)
        if tr is None:
            s, sc = time.perf_counter(), time.process_time()
            reference_kernel()
            ref.append(time.perf_counter() - s)
            ref_cpu.append(time.process_time() - sc)
    return {"wall": time.perf_counter() - t0, "cpu": time.process_time() - c0,
            "lat": lat, "cpu_lat": cpu, "ref": ref, "ref_cpu": ref_cpu, "outs": outs}


def _judge(cases, passes) -> dict:
    """Checks outputs of the first pass and compares every later pass against it."""
    first = passes[0]["outs"]
    if any(len(p["outs"]) != len(cases) for p in passes):
        raise BookkeepingError("a pass returned a different number of outputs than cases")
    reasons: dict = {}
    failed_cases = 0
    worst = None
    for case, (out, err) in zip(cases, first):
        eot = None
        if err is not None:
            reason = "raised " + err
        else:
            try:
                reason, eot = case.check(out)
            except Exception as exc:  # a malformed output fails its case
                reason = "check raised " + type(exc).__name__
        if reason is not None:
            failed_cases += 1
            key = f"{case.kind}: {reason}"
            reasons[key] = reasons.get(key, 0) + 1
        elif eot is not None:
            worst = eot if worst is None else max(worst, eot)
    unstable = sum(
        1 for p in passes[1:] for (a, ea), (b, eb) in zip(first, p["outs"])
        if ea != eb or (ea is None and not _same(a, b)))
    return {"failed_cases": failed_cases, "reasons": reasons, "worst": worst,
            "unstable": unstable}


def _case_medians(passes, key: str) -> list:
    """Each case's median over the passes.

    A burst of contention from other tenants of the machine then moves one
    sample of a case, not the case; a pass costs the sum of its cases.
    """
    return [statistics.median(p[key][i] for p in passes) for i in range(len(passes[0][key]))]


def _calibrated(passes, key: str, ref_key: str) -> list:
    """Per-case medians of times scaled to the reference kernel's nominal speed.

    On a shared machine the speed of a core drifts by tens of percent within
    a minute, moving neighbouring cases alike.  The reference kernel, run
    between the cases, sees the same drift; dividing by its mean time over
    the REF_WINDOW cases on either side and multiplying by REF_NOMINAL_S
    gives the time the case would take at the nominal speed.
    """
    scaled = []
    for p in passes:
        refs = p[ref_key]
        scaled.append({key: [
            t * REF_NOMINAL_S / statistics.mean(refs[max(0, i - REF_WINDOW):i + REF_WINDOW + 1])
            for i, t in enumerate(p[key])]})
    return _case_medians(scaled, key)


def _worker(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    _import_library()
    import resource

    import numpy as np

    import tracer
    import workloads

    workloads.warm_up(workload)
    cases = workloads.build(workload, seed)
    result = {"workload": workload, "seed": seed, "trace": int(trace),
              "numpy": np.__version__, "cases_per_pass": len(cases)}
    report = {}
    if trace:
        passes, layer = [], []
        for _ in range(2):  # untraced and traced passes alternate
            passes.append(_run_pass(cases))
            tr = tracer.Tracer()
            tr.install()
            try:
                passes.append(_run_pass(cases, tr))
            finally:
                tr.uninstall()
            layer.append((tracer.layer_metrics(tr.spans), tr.spans))
        (la, _), (lb, spans) = layer
        # the two traced passes did the same work, so every count must agree
        drift = sorted(k for k, (v, unit) in la.items() if unit != "s" and lb[k][0] != v)
        metrics = {k: {"value": v, "unit": u} for k, (v, u) in lb.items()}
        traced = sum(_case_medians(passes[1::2], "lat"))
        metrics["trace.wall_s"] = {"value": traced, "unit": "s"}
        metrics["trace.overhead_s"] = {
            "value": traced - sum(_case_medians(passes[0::2], "lat")), "unit": "s"}
        OUT.mkdir(exist_ok=True)
        with open(OUT / f"{workload}.seed{seed}.spans.json", "w") as fh:
            json.dump({"fields": ["name", "layer", "start", "end", "parent", "case", "n"],
                       "cases": [c.label for c in cases], "spans": spans}, fh)
        result["count_drift"] = drift
    else:
        passes = []
        t0 = time.perf_counter()
        while not passes or time.perf_counter() - t0 < seconds:
            passes.append(_run_pass(cases))
        lat = _calibrated(passes, "lat", "ref")
        cpu = _calibrated(passes, "cpu_lat", "ref_cpu")
        wall = sum(lat)
        metrics = {
            "wall_s": {"value": wall, "unit": "s"},
            "cpu_s": {"value": sum(cpu), "unit": "s"},
            "cases_per_s": {"value": len(cases) / wall, "unit": "1/s"},
            "case_p50_ms": {"value": 1e3 * statistics.median(lat), "unit": "ms"},
            "case_p90_ms": {"value": 1e3 * statistics.quantiles(lat, n=10, method="inclusive")[-1],
                            "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                            "unit": "MB"},
        }
        result["count_drift"] = []
        report = {
            "raw_wall_s": {"value": sum(_case_medians(passes, "lat")), "unit": "s"},
            "speed": {"value": statistics.median(
                REF_NOMINAL_S / statistics.mean(p["ref"]) for p in passes), "unit": "1"},
        }
    verdict = _judge(cases, passes)
    # One count per case of the seeded list, however many passes fit in the
    # time: later passes must reproduce the judged outputs bit for bit (or
    # `correct` turns false), so repeating a case adds no new verdict, and the
    # tally then depends on the seed alone, not on the speed of the machine.
    attempted = len(cases)
    failed = verdict["failed_cases"]
    result.update(
        passes=len(passes),
        attempted=attempted,
        failed=failed,
        failures=verdict["reasons"],
        unstable_outputs=verdict["unstable"],
        pass_walls=[p["wall"] for p in passes],
        correct=verdict["unstable"] == 0 and not result["count_drift"],
        metrics=metrics,
        report={
            "failed_frac": {"value": failed / attempted, "unit": "1"},
            "max_err_over_tol": {"value": verdict["worst"], "unit": "1"},
            **report,
        },
    )
    return result


# ---------------------------------------------------------------------------
# launcher side: stdlib only, starts one fresh process per workload
# ---------------------------------------------------------------------------

def _child_env() -> dict:
    env = dict(os.environ)
    env.update({v: "1" for v in THREAD_VARS})
    return env


def _child(argv: list, timeout: float) -> str:
    proc = subprocess.run([sys.executable, str(Path(__file__).resolve()), *argv],
                          cwd=ROOT, env=_child_env(), stdout=subprocess.PIPE, text=True,
                          timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv)} exited with code {proc.returncode}")
    return proc.stdout.strip().splitlines()[-1]


def _public_names() -> int:
    """Top-level names without a leading underscore, over the library's modules."""
    count = 0
    for path in sorted((SRC / "radialmax").glob("*.py")):
        if path.name == "__init__.py":
            continue
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = [node.name]
            elif isinstance(node, ast.Assign):
                names = [t.id for t in node.targets if isinstance(t, ast.Name)]
            elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
                names = [node.target.id]
            else:
                names = []
            count += sum(1 for n in names if not n.startswith("_"))
    return count


def _metadata() -> dict:
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env, text=True,
                             capture_output=True, timeout=10)
        sha = git.stdout.strip() if git.returncode == 0 else "unknown"
    except (OSError, subprocess.TimeoutExpired):
        sha = "unknown"
    return {
        "git_sha": sha,
        "nproc": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "src_lines": sum(len(p.read_text().splitlines())
                         for p in sorted((SRC / "radialmax").glob("*.py"))),
        "public_names": _public_names(),
    }


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    setup = []
    if not trace:
        for _ in range(SETUP_SAMPLES):
            setup.append(json.loads(_child(["--setup-probe", "--workload", workload],
                                           PROBE_TIMEOUT_S)))
    result = json.loads(_child(["--worker", "--workload", workload, "--seed", str(seed),
                                "--seconds", repr(seconds), "--trace", str(int(trace))],
                               WORKER_TIMEOUT_S))
    if not trace:
        result["metrics"]["setup_s"] = {
            "value": statistics.median(t * REF_NOMINAL_S / ref for t, ref in setup), "unit": "s"}
        result["metrics"] = {k: result["metrics"][k] for k in END_TO_END}
        result["report"]["raw_setup_s"] = {
            "value": statistics.median(t for t, _ in setup), "unit": "s"}
        result["setup_samples"] = setup
    result["meta"] = dict(_metadata(), numpy=result.pop("numpy"), seconds=seconds)
    return result


def _samples(result: dict, name: str) -> str:
    if name in ("wall_s", "cpu_s") or name.startswith("case"):
        return f"{result['cases_per_pass']} cases x {result['passes']} passes"
    if name == "setup_s":
        return f"{len(result['setup_samples'])} processes"
    if name == "failed_frac":
        return (f"{result['failed']}/{result['attempted']} cases, "
                f"checked in each of {result['passes']} passes")
    return ""


def print_table(result: dict) -> None:
    kind = "per-layer (traced)" if result["trace"] else "end-to-end"
    print(f"# workload={result['workload']} seed={result['seed']} {kind}, "
          f"{result['cases_per_pass']} cases per pass")
    print("# meta " + json.dumps(result["meta"], sort_keys=True))
    rows = dict(result["metrics"])
    if not result["trace"]:
        rows.update(result["report"])
    for name, m in rows.items():
        v = m["value"]
        shown = "n/a" if v is None else f"{v:.6g}"
        print(f"  {name:34s} {shown:>14s} {m['unit']:14s} {_samples(result, name)}")
    for reason, n in sorted(result["failures"].items()):
        print(f"  failed: {n}  {reason}")
    if result["unstable_outputs"]:
        print(f"  outputs differed between passes: {result['unstable_outputs']}")
    if result["count_drift"]:
        print("  counts differed between the two traced passes: "
              + ", ".join(result["count_drift"]))


def summary_line(result: dict) -> str:
    return json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                       "failed": result["failed"], "metrics": result["metrics"]})


def _load_runs(path: str) -> dict:
    with open(path) as fh:
        doc = json.load(fh)
    runs = doc["runs"] if "runs" in doc else [doc]
    return {(r["workload"], r["trace"]): r for r in runs}


def compare(path_a: str, path_b: str) -> None:
    a, b = _load_runs(path_a), _load_runs(path_b)
    print(f"# A = {path_a}\n# B = {path_b}")
    for key in sorted(set(a) & set(b), key=lambda k: (WORKLOADS.index(k[0]), k[1])):
        ra, rb = a[key], b[key]
        print(f"== {key[0]} ({'traced' if key[1] else 'untraced'})  "
              f"A sha {ra['meta']['git_sha'][:12]}  B sha {rb['meta']['git_sha'][:12]}")
        ma = dict(ra["metrics"], **ra.get("report", {})) if not key[1] else ra["metrics"]
        mb = dict(rb["metrics"], **rb.get("report", {})) if not key[1] else rb["metrics"]
        for name in ma:
            if name not in mb:
                continue
            va, vb = ma[name]["value"], mb[name]["value"]
            if va is None or vb is None:
                ratio, shown = "", ("n/a", "n/a")
            else:
                ratio = f"{vb / va:.4f}" if va else ""
                shown = (f"{va:.6g}", f"{vb:.6g}")
            print(f"  {name:34s} {ma[name]['unit']:14s} {shown[0]:>14s} {shown[1]:>14s}"
                  f"  B/A {ratio}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, untraced and traced, one process each")
    ap.add_argument("--compare", nargs=2, metavar=("A", "B"),
                    help="print two result files side by side with B/A ratios")
    ap.add_argument("--out", help="result file (default .bench_out/<workload>...json)")
    ap.add_argument("--worker", action="store_true", help=argparse.SUPPRESS)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if args.compare:
        compare(*args.compare)
        return 0
    if not (SRC / "radialmax" / "__init__.py").is_file():
        print(f"radialmax sources not found under {SRC}", file=sys.stderr)
        return 2
    if args.setup_probe:
        _setup_probe(args.workload)
        return 0
    if args.worker:
        try:
            print(json.dumps(_worker(args.workload, args.seed, args.seconds, bool(args.trace))))
        except BookkeepingError as exc:
            print(f"bookkeeping broke: {exc}", file=sys.stderr)
            return 3
        return 0
    if not args.all and args.workload is None:
        ap.error("give --workload, --all or --compare")

    runs = []
    plan = ([(w, t) for w in WORKLOADS for t in (0, 1)] if args.all
            else [(args.workload, args.trace)])
    try:
        for workload, trace in plan:
            result = run_workload(workload, args.seed, args.seconds, bool(trace))
            print_table(result)
            runs.append(result)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError) as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1
    OUT.mkdir(exist_ok=True)
    if args.all:
        out = args.out or OUT / f"all.seed{args.seed}.json"
        with open(out, "w") as fh:
            json.dump({"runs": runs}, fh, indent=1)
        ok = all(r["correct"] for r in runs)
        print(json.dumps({"correct": ok,
                          "attempted": sum(r["attempted"] for r in runs),
                          "failed": sum(r["failed"] for r in runs),
                          "metrics": {f"{r['workload']}.{k}": v for r in runs
                                      if not r["trace"] for k, v in r["metrics"].items()}}))
        return 0 if ok else 1
    result = runs[0]
    out = args.out or OUT / f"{result['workload']}.seed{args.seed}.trace{args.trace}.json"
    with open(out, "w") as fh:
        json.dump(result, fh, indent=1)
    print(summary_line(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
