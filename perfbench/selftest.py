"""Self-tests of the benchmark.

    python3 perfbench/selftest.py

1. A one-visit run of every workload, untraced and traced, prints every
   metric that BENCHMARK.json names for that mode, with its unit, and a
   correct result.
2. The reference check accepts round 0 as stored and rejects it once a
   reference value is perturbed.

Exits 0 when every test passes.
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN = HERE / "run.py"


def smoke(spec: dict, workload: str, trace: int) -> list:
    """Problems with a one-visit run of `workload`."""
    cmd = [sys.executable, str(RUN), "--workload", workload, "--seed", "1",
           "--seconds", "1", "--trace", str(trace), "--visits", "1"]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=300)
    if done.returncode != 0:
        return [f"exit {done.returncode}: {done.stderr[-2000:]}"]
    lines = done.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    problems = []
    if set(result) != {"correct", "attempted", "failed", "metrics"}:
        problems.append(f"result keys {sorted(result)}")
    if not (result["correct"] and result["failed"] == 0
            and result["attempted"] >= 1):
        problems.append(f"result not correct: {done.stderr[-2000:]}")
    wanted = spec["per_layer" if trace else "end_to_end"]
    for m in wanted:
        got = result["metrics"].get(m["name"])
        if got is None or got["unit"] != m["unit"]:
            problems.append(f"metric {m['name']}: got {got}")
        elif not any(line.startswith(f"# {m['name']} = ")
                     and line.endswith(f" {m['unit']}") for line in lines):
            problems.append(f"metric {m['name']} not printed with its unit")
    extra = set(result["metrics"]) - {m["name"] for m in wanted}
    if extra:
        problems.append(f"metrics not in BENCHMARK.json: {sorted(extra)}")
    return problems


def perturbed_reference_fails() -> list:
    """Problems with the reference check on one desk-quad visit."""
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(HERE))
    import workloads

    reference = json.loads((HERE / "reference.json").read_text())["desk-quad"]
    problems = []
    for label, ref, want_failed in (("stored", reference, False),
                                    ("perturbed", None, True)):
        work = workloads.DeskQuad(1, HERE / "out")
        work.setup()
        contract, tag, u = work.next_round()[0]
        if ref is None:
            key = f"{tag}/phi1"
            ref = dict(reference, **{key: reference[key] * (1 + 1e-4)})
        rec = workloads.Recorder(reference=ref)
        work.visit(rec, contract, tag, u)
        if (rec.failed > 0) != want_failed:
            problems.append(f"{label} reference: {rec.failed} failed ops")
    return problems


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    failures = 0
    tests = [(f"smoke {w['name']} trace={t}",
              lambda w=w, t=t: smoke(spec, w["name"], t))
             for w in spec["workloads"] for t in (0, 1)]
    tests.append(("perturbed reference value fails", perturbed_reference_fails))
    for name, test in tests:
        problems = test()
        print(f"{'FAIL' if problems else 'ok'}  {name}", flush=True)
        for p in problems:
            print(f"      {p}")
        failures += bool(problems)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
