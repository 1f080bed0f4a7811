"""bellscan benchmark: one workload, timed from outside, outputs checked.

    python3 perfbench/run.py --workload thresholds --seed 1 --seconds 55 --trace 0

Runs from the root of a source checkout and imports bellscan from its
`src/`.  A workload is a fixed list of operations; the run cycles through
them for about --seconds, and a time per cycle is the sum over the
operations of each one's median time.  With --trace 0 it reports the
end-to-end metrics (wall_s per cycle, setup_s, peak_rss_mb); with --trace 1
it wraps each module boundary and reports per-layer metrics instead.  The
last line of standard output is one JSON object: {"correct", "attempted",
"failed", "metrics"}.  The lines before it record the environment, every
operation's time, the check failures and the documented reference-table
defects.
"""

import os

# pinned before numpy loads, so BLAS runs single-threaded
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse
import itertools
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".perfbench_out"
SETUP_CODE = "import bellscan; bellscan.catalog_list()"
SETUP_REPEATS = 7  # fresh interpreters per run, spread over the run


def read_cpu_ticks():
    """(steal, total) jiffies from the aggregate cpu line of /proc/stat."""
    try:
        with open("/proc/stat") as fh:
            fields = [int(v) for v in fh.readline().split()[1:]]
    except (OSError, ValueError):
        return None
    return fields[7] if len(fields) > 7 else 0, sum(fields)


def git_commit():
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def time_setup() -> float:
    """Wall time of a fresh interpreter importing bellscan and loading the catalog."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    t0 = time.perf_counter()
    subprocess.run([sys.executable, "-c", SETUP_CODE], cwd=ROOT, env=env, check=True,
                   stdout=subprocess.DEVNULL)
    return time.perf_counter() - t0


def run_ops(ops, seconds, tracer=None, before_op=None):
    """Cycle through the operations until `seconds` are used up.

    Every operation runs at least once.  After the first cycle an operation
    starts only if its previous time still fits in `seconds`, so the run
    ends close to `seconds` however slow the host is.  `before_op(elapsed)`
    is called, untimed, before each operation starts.
    """
    samples = []
    last = {}
    start = time.perf_counter()
    for i in itertools.count():
        k = i % len(ops)
        if i >= len(ops) and time.perf_counter() - start + last[k] > seconds:
            return samples
        if before_op:
            before_op(time.perf_counter() - start)
        op = ops[k]
        first_span = len(tracer.spans) if tracer else 0
        ticks0 = read_cpu_ticks()
        t0 = time.perf_counter()
        output = op.run(op.input)
        t1 = time.perf_counter()
        ticks1 = read_cpu_ticks()
        last[k] = t1 - t0
        samples.append({"op": k, "s": t1 - t0, "output": output,
                        "spans": tracer.spans[first_span:] if tracer else [],
                        "steal_ticks": ticks1[0] - ticks0[0] if ticks0 else None,
                        "ticks": ticks1[1] - ticks0[1] if ticks0 else None})


def per_cycle(ops, samples, value, group=None) -> float:
    """Sum over the operations (of one group, if given) of the median of
    `value` over each one's samples."""
    return sum(statistics.median(value(s) for s in samples if s["op"] == k)
               for k, op in enumerate(ops) if group in (None, op.group))


def layer_unit(name: str) -> str:
    if name.endswith("_per_s"):
        return "1/s"
    if name.endswith("_per_rank_tested"):
        return "ratio"
    if name.endswith((".s", "_s")):
        return "s"
    return "count"


def write_spans(ops, samples, filename):
    OUT_DIR.mkdir(exist_ok=True)
    with open(OUT_DIR / filename, "w") as fh:
        for i, sample in enumerate(samples):
            for s in sample["spans"]:
                fh.write(json.dumps({"sample": i, "op": ops[sample["op"]].label,
                                     "id": s.id, "parent": s.parent,
                                     "name": s.name, "start": s.start,
                                     "end": s.end, **s.counts}) + "\n")


def emit(key, value):
    print(json.dumps({key: value}, default=str))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "bellscan" / "__init__.py").is_file():
        print(f"bellscan sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import numpy
    import bellscan
    if Path(bellscan.__file__).resolve().parent != SRC / "bellscan":
        print(f"imported bellscan from {bellscan.__file__}, not {SRC}", file=sys.stderr)
        return 2
    import checks
    import tracing
    from workloads import GROUPS, TABLE_ROWS, WORKLOADS, check, warm_up
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(WORKLOADS)}")

    setup_samples = []

    def sample_setup(elapsed):
        # spread over the run, so that host drift averages out as in wall_s
        due = min(SETUP_REPEATS, 1 + int(elapsed * SETUP_REPEATS / args.seconds))
        while len(setup_samples) < due:
            setup_samples.append(time_setup())

    ops = WORKLOADS[args.workload](args.seed)
    warm_up()
    tracer = tracing.Tracer() if args.trace else None
    if tracer:
        tracing.install_bellscan(tracer)
    try:
        samples = run_ops(ops, args.seconds, tracer, None if tracer else sample_setup)
    finally:
        if tracer:
            tracer.uninstall()
    if not tracer:
        sample_setup(args.seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    outcomes = check([(ops[s["op"]], s["output"]) for s in samples])
    failures = [(label, f) for label, f in outcomes if f]

    emit("env", {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "nproc": len(os.sched_getaffinity(0)), "cpu_count": os.cpu_count(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "commit": git_commit(), "threads": {v: os.environ[v] for v in THREAD_VARS},
        "setup_samples_s": setup_samples,
    })
    emit("samples", [dict(op=ops[s["op"]].label,
                          **{k: s[k] for k in ("s", "steal_ticks", "ticks")})
                     for s in samples])
    emit("reference_defects", [
        {"row": row, "column": col, "note": note,
         "in_workload": row in TABLE_ROWS and args.workload == "thresholds",
         "checked_against": checks.PROVEN.get((row, col), (None,))[0]}
        for (row, col), note in checks.REFERENCE_DEFECTS.items()])
    emit("check_failures", [{"operation": label, "failures": f} for label, f in failures])

    if tracer:
        write_spans(ops, samples, f"spans-{args.workload}-{args.seed}.jsonl")
        for s in samples:
            s["layers"] = tracing.layer_totals(s["spans"], TABLE_ROWS)
        totals = {name: per_cycle(ops, samples, lambda s: s["layers"][name])
                  for name in samples[0]["layers"]}
        values = tracing.layer_metrics(totals)
        for group in GROUPS:
            values[f"group.{group}.s"] = per_cycle(ops, samples, lambda s: s["s"], group)
        values["trace.wall_s"] = per_cycle(ops, samples, lambda s: s["s"])
        metrics = {name: {"value": v, "unit": layer_unit(name)}
                   for name, v in values.items()}
    else:
        metrics = {
            "wall_s": {"value": per_cycle(ops, samples, lambda s: s["s"]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_samples), "unit": "s"},
            "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
        }
    print(json.dumps({"correct": not failures, "attempted": len(outcomes),
                      "failed": len(failures), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
