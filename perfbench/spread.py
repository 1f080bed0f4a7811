"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --runs 10 [--workloads table ...] [--trace 1]
                                [--first-seed 1] [--out results.json]

For every workload and metric it prints the median, the quartiles from
statistics.quantiles(values, n=4), the spread (q3 - q1) / median and, for
end-to-end metrics, that spread against the bound in BENCHMARK.json.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(values):
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / q2 if q2 else None, "values": values}


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", nargs="+",
                        default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)
    if args.runs < 2:
        parser.error("--runs must be at least 2")

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    report = {}
    for workload in args.workloads:
        results = []
        for i in range(args.runs):
            r = run_once(workload, args.first_seed + i, spec["run_seconds"], args.trace)
            results.append(r)
            print(f"{workload:24s} seed {args.first_seed + i}: " + "  ".join(
                f"{k} {m['value']:.6g}" for k, m in r["metrics"].items()), flush=True)
        per_metric = {}
        for name in results[0]["metrics"]:
            s = summarize([r["metrics"][name]["value"] for r in results])
            per_metric[name] = s
            bound = bounds.get(name)
            verdict = "" if bound is None or s["spread"] is None else (
                f"  bound {bound:g}  " + ("ok" if s["spread"] < bound / 3 else
                                           "within bound" if s["spread"] <= bound
                                           else "TOO WIDE"))
            spread = "n/a" if s["spread"] is None else f"{s['spread']:.4f}"
            print(f"{workload:24s} {name:40s} median {s['median']:.6g}  "
                  f"q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {spread}{verdict}")
        report[workload] = {
            "seeds": [args.first_seed + i for i in range(args.runs)],
            "correct": all(r["correct"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "metrics": per_metric,
        }
        print(f"{workload:24s} correct {report[workload]['correct']}  failed "
              f"{report[workload]['failed']}/{report[workload]['attempted']}", flush=True)
    if args.out:
        Path(args.out).write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
