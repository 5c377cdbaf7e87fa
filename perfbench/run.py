"""finring benchmark: one workload, one fresh process, serial library defaults.

Run from the root of a checkout:

    python3 perfbench/run.py --workload catalog --seed 1 --seconds 25 --trace 0

Workloads: catalog, enum16, big-build, import-untrusted (documented in
perfbench/workloads.json).  The run

1. sets up 3 to 9 times, each in a fresh interpreter but the last, which is
   this one: import finring and build the inputs from --seed;
2. repeats the workload body, checking every output, until the next
   iteration would end past --seconds (always at least one iteration);
3. prints each metric by name, unit and sample count, writes the full result
   under perfbench/out/, and prints one JSON object as the last line.

With --trace 0 the metrics are the end-to-end ones of BENCHMARK.json; they
are only ever taken untraced.  With --trace 1 the first half of --seconds
runs untraced and the second half traced (every public finring function
wrapped, see tracer.py); the metrics are the per-layer ones, and
trace.overhead_s is the traced minus the untraced median wall time.  The
spans are written to perfbench/out/ as well.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Set-ups per run, each in a fresh interpreter but the last: at least
# SETUP_MIN, more while they have taken under SETUP_BUDGET_S, at most
# SETUP_MAX.  setup_s is their median.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 9, 2.0


def _cpu() -> float:
    total = 0.0
    for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN):
        r = resource.getrusage(who)
        total += r.ru_utime + r.ru_stime
    return total


def _timed_setup(name: str, seed: int, node_budget: int):
    t0 = time.perf_counter()
    import workloads  # imports finring, so the import is timed

    wl = workloads.workload(name, node_budget)
    inputs = wl.setup(seed)
    return time.perf_counter() - t0, wl, inputs


def _setup_in_child(name: str, seed: int) -> float:
    got = subprocess.run(
        [sys.executable, str(Path(__file__)), "--workload", name, "--seed", str(seed),
         "--setup-only"],
        capture_output=True, text=True, timeout=170, check=True,
    )
    return json.loads(got.stdout.splitlines()[-1])["setup_s"]


def _iterate(wl, inputs, seconds: float, traced: bool) -> list:
    """Run the body until the next iteration would end past `seconds`."""
    from workloads import Op

    if traced:
        from tracer import Tracer
    its = []
    start = time.perf_counter()
    while True:
        tracer = Tracer() if traced else None
        c0, t0 = _cpu(), time.perf_counter()
        error = None
        try:
            if tracer is not None:
                with tracer:
                    out = wl.run(inputs)
            else:
                out = wl.run(inputs)
        except Exception:
            error = traceback.format_exc()
        t1, c1 = time.perf_counter(), _cpu()
        if error is None:
            ops, digest = wl.check(inputs, out)
        else:
            print(error, file=sys.stderr)
            ops, digest = [Op("workload body", "error", error.strip().splitlines()[-1])], None
        its.append(dict(wall_s=t1 - t0, cpu_s=c1 - c0, ops=ops, digest=digest, tracer=tracer))
        if error is not None or time.perf_counter() - start + (t1 - t0) > seconds:
            return its


def _median(its, key):
    return statistics.median(it[key] for it in its)


def _print_metric(name, value, unit, samples):
    lo, hi = min(samples), max(samples)
    print(f"  {name:44} {value:.6g} {unit}  (median of {len(samples)}; min {lo:.6g}, max {hi:.6g})")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true",
                    help="time one set-up and print it (used for the set-up samples)")
    args = ap.parse_args(argv)

    if not (SRC / "finring" / "__init__.py").is_file():
        print(f"perfbench: no finring sources at {SRC}; run from a checkout root",
              file=sys.stderr)
        return 2
    notes = json.loads((HERE / "workloads.json").read_text(encoding="utf-8"))
    if args.workload not in notes["workloads"]:
        print(f"perfbench: unknown workload {args.workload!r}; choose from "
              f"{', '.join(notes['workloads'])}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    budget = notes["iso_node_budget"]

    if args.setup_only:
        secs, _, _ = _timed_setup(args.workload, args.seed, budget)
        print(json.dumps({"setup_s": secs}))
        return 0

    setup = []
    while len(setup) < SETUP_MIN - 1 or (
            len(setup) < SETUP_MAX - 1 and sum(setup) < SETUP_BUDGET_S):
        setup.append(_setup_in_child(args.workload, args.seed))
    secs, wl, inputs = _timed_setup(args.workload, args.seed, budget)
    setup.append(secs)

    from workloads import Op

    if args.trace:
        plain = _iterate(wl, inputs, args.seconds / 2, traced=False)
        traced = _iterate(wl, inputs, args.seconds / 2, traced=True)
        its = plain + traced
        same = Op("traced output equals untraced output", "ok")
    else:
        plain, traced = _iterate(wl, inputs, args.seconds, traced=False), []
        its = plain
        same = Op("same output in every iteration", "ok")
    digests = {it["digest"] for it in its}
    if len(digests) != 1 or None in digests:
        same.status, same.detail = "wrong", f"{len(digests)} distinct output digests"
    ops = [op for it in its for op in it["ops"]] + [same]
    failed = [op for op in ops if op.status != "ok"]
    correct = not any(op.status in ("wrong", "error") for op in ops)

    print(f"perfbench {args.workload} seed={args.seed} trace={args.trace}: "
          f"{len(plain)} untraced + {len(traced)} traced iterations")
    for op in failed:
        print(f"  FAILED [{op.status}] {op.name}: {op.detail}")
    print(f"  fail_ratio {len(failed) / len(ops):.6g} ({len(failed)} failed of "
          f"{len(ops)} attempted)")

    metrics = {}
    if args.trace:
        from tracer import dump_spans, layer_metrics

        per_it = [layer_metrics(it["tracer"].spans) for it in traced]
        series = {k: [m[k] for m in per_it] for k in per_it[0]}
        series["trace.overhead_s"] = [_median(traced, "wall_s") - _median(plain, "wall_s")]
        OUT.mkdir(exist_ok=True)
        dump_spans(OUT / f"{args.workload}-seed{args.seed}-spans.json",
                   [it["tracer"] for it in traced])
        wanted = spec["per_layer"]
    else:
        series = {
            "wall_s": [it["wall_s"] for it in its],
            "cpu_s": [it["cpu_s"] for it in its],
            "setup_s": setup,
            "peak_rss_mb": [resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024],
            "ok_ratio": [(len(ops) - len(failed)) / len(ops)],
        }
        wanted = spec["end_to_end"]
    for m in wanted:
        samples = series[m["name"]]
        value = statistics.median(samples)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        _print_metric(m["name"], value, m["unit"], samples)

    result = {"correct": correct, "attempted": len(ops), "failed": len(failed),
              "metrics": metrics}
    OUT.mkdir(exist_ok=True)
    detail = dict(result, workload=args.workload, seed=args.seed, trace=args.trace,
                  seconds=args.seconds, samples=series,
                  failed_ops=[vars(op) for op in failed])
    (OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json").write_text(
        json.dumps(detail, indent=1), encoding="utf-8")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
