"""Benchmark of the shortfall-hedge engine through its public API.

    python3 perfbench/run.py --workload desk-quad --seed 1 --seconds 10 --trace 0

Builds nothing: it imports the package from `src/` of the checkout it sits
in and exits non-zero, printing no result, when that source is missing.

--trace 0 times whole rounds of the workload until --seconds have passed
and prints the end-to-end metrics.  --trace 1 runs one round, every op
untraced and then traced, and prints the per-layer metrics; the spans are
written to perfbench/out/.  The last line of stdout is the result object:
{"correct", "attempted", "failed", "metrics"}.  See perfbench/README.md.
"""

import time

T0 = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
REFERENCE = HERE / "reference.json"
DEFAULT_SEED = 1
SETUP_RUNS = 3  # set-ups per run: this process plus two fresh ones
SETUP_TIMEOUT_S = 120


def _import_package():
    """Put the checkout's src/ first on sys.path; refuse to run without it."""
    if not (SRC / "shortfall_hedge" / "__init__.py").is_file():
        sys.exit(f"perfbench: no package source under {SRC}; run from a "
                 "checkout of the repository")
    sys.path.insert(0, str(SRC))
    import shortfall_hedge
    if Path(shortfall_hedge.__file__).resolve().parent.parent != SRC:
        sys.exit(f"perfbench: imported {shortfall_hedge.__file__}, "
                 f"not the package under {SRC}")


def _parse(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True,
                    choices=("desk-quad", "curve-book", "mc-route"))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--visits", type=int, default=0,
                    help="stop after this many contract visits (smoke runs)")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up, print the set-up seconds and exit")
    ap.add_argument("--write-reference", action="store_true",
                    help="run round 0 at the default seed and store its "
                         "values in reference.json")
    return ap.parse_args(argv)


def _context(args) -> dict:
    import numpy
    import scipy
    src_lines = sum(len(p.read_text().splitlines())
                    for p in sorted(SRC.rglob("*.py")))
    return {"workload": args.workload, "seed": args.seed, "trace": args.trace,
            "nproc": len(os.sched_getaffinity(0)),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "scipy": scipy.__version__, "src_lines": src_lines}


def _fresh_setup_seconds(args) -> float:
    """Set-up time of a new process, as that process measures it."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload",
           args.workload, "--seed", str(args.seed), "--setup-only"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=SETUP_TIMEOUT_S, check=True)
    return float(done.stdout.split()[-1])


def hd_quantile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a beta-weighted mean of all
    order statistics.  Unlike a single order statistic it does not jump
    between neighbouring contracts' latency clusters from run to run."""
    import numpy as np
    from scipy.special import betainc
    x = np.sort(np.asarray(values, dtype=float))
    n = x.size
    weights = np.diff(betainc(p * (n + 1), (1 - p) * (n + 1),
                              np.arange(n + 1) / n))
    return float(weights @ x)


def _log(msg: str):
    print(f"perfbench: {msg}", file=sys.stderr, flush=True)


def main(argv=None) -> int:
    args = _parse(argv)
    _import_package()
    import probes
    import workloads

    out_dir = OUT / f"{args.workload}-s{args.seed}"
    work = workloads.WORKLOADS[args.workload](args.seed, out_dir)
    work.setup()
    setup_s = time.perf_counter() - T0
    if args.setup_only:
        print(f"{setup_s!r}")
        return 0

    reference = None
    if args.seed == DEFAULT_SEED and not args.write_reference:
        reference = json.loads(REFERENCE.read_text())[args.workload]
    tracer = probes.Tracer() if args.trace else None
    rec = workloads.Recorder(tracer, reference, _log)

    visits = 0
    start = time.perf_counter()
    while True:
        for contract, tag, u in work.next_round():
            work.visit(rec, contract, tag, u)
            visits += 1
            if args.visits and visits >= args.visits:
                break
        rec.round += 1
        if (args.trace or args.write_reference
                or (args.visits and visits >= args.visits)
                or time.perf_counter() - start >= args.seconds):
            break

    if args.write_reference:
        doc = json.loads(REFERENCE.read_text()) if REFERENCE.exists() else {}
        doc[args.workload] = rec.values
        REFERENCE.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        _log(f"wrote {len(rec.values)} {args.workload} values to "
             f"{REFERENCE.relative_to(ROOT)}")
        return 0 if rec.failed == 0 else 1

    ctx = _context(args)
    ctx.update(rounds=rec.round, visits=visits,
               failed_frac=rec.failed / max(rec.attempted, 1),
               verify_reports_not_ok=rec.verify_not_ok,
               reference_checked=reference is not None)
    lat = rec.latencies_ms or [float("nan")]
    if args.trace:
        metrics = tracer.metrics()
        metrics.update(probes.overhead(lat, rec.traced_ms or lat))
        ctx["absent_probes"] = tracer.absent
        OUT.mkdir(parents=True, exist_ok=True)
        trace_file = OUT / f"trace-{args.workload}-s{args.seed}.json"
        trace_file.write_text(json.dumps(
            {"context": ctx, "metrics": metrics, **tracer.dump()}))
        ctx["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        setups = [setup_s] + [_fresh_setup_seconds(args)
                              for _ in range(SETUP_RUNS - 1)]
        busy_s = sum(rec.latencies_ms) / 1e3
        metrics = {
            "setup_s": (statistics.median(setups), "s"),
            "op_ms_p50": (hd_quantile(lat, 0.5), "ms"),
            "op_ms_p90": (hd_quantile(lat, 0.9), "ms"),
            "ops_per_s": (len(rec.latencies_ms) / busy_s if busy_s else 0.0,
                          "1/s"),
            "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
                            / 1024.0, "MB"),
        }
        ctx.update(setup_runs_s=setups, ops_timed=len(rec.latencies_ms))

    print("# context " + json.dumps(ctx, sort_keys=True))
    for name, (value, unit) in metrics.items():
        print(f"# {name} = {value:.6g} {unit}")
    print(f"# failed_frac = {ctx['failed_frac']:.6g} ratio "
          f"({rec.failed} of {rec.attempted} ops)")
    result = {"correct": rec.failed == 0, "attempted": rec.attempted,
              "failed": rec.failed,
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
