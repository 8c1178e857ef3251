#!/usr/bin/env python3
"""Run the benchmark over workloads and seeds and summarize every metric.

    python3 perfbench/summary.py                  # all workloads, seed 7
    python3 perfbench/summary.py --seeds 1 2 3 4 5 --workloads falsify-null
    python3 perfbench/summary.py --trace 1        # per-layer metrics

Each run is one ``perfbench/run.py`` process.  For each workload and
metric this prints, by name and with its unit, the median over the runs,
the quartiles, and the spread: the distance between the quartiles as a
share of the median.  ``error_rate`` is failed output checks divided by
checks attempted.  The workloads and the run length default to those in
``BENCHMARK.json``, and each end-to-end metric's bound is shown beside its
spread.  The summary is also written to ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RUN_TIMEOUT_S = 900


def spread(values) -> dict:
    """Median, quartiles and (q3 - q1) / median of a list of numbers."""
    values = [float(v) for v in values]
    median = statistics.median(values)
    if len(values) < 2:
        q1 = q3 = median
    else:
        q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": median, "q1": q1, "q3": q3, "n": len(values),
            "spread": (q3 - q1) / abs(median) if median else 0.0}


def run_once(workload, seed, seconds, trace) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=RUN_TIMEOUT_S)
    if done.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed}: exit {done.returncode}\n"
                           f"{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summarize_runs(results) -> dict:
    """Per metric spread over runs, and the pooled error rate."""
    names = results[0]["metrics"]
    out = {name: dict(spread([r["metrics"][name]["value"] for r in results]),
                      unit=results[0]["metrics"][name]["unit"])
           for name in names}
    attempted = sum(r["attempted"] for r in results)
    failed = sum(r["failed"] for r in results)
    out["error_rate"] = {"median": failed / attempted, "q1": None,
                         "q3": None, "n": len(results), "spread": None,
                         "unit": "ratio"}
    return out


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workloads", nargs="+",
                    default=[w["name"] for w in spec["workloads"]])
    ap.add_argument("--seeds", nargs="+", type=int, default=[7])
    ap.add_argument("--seconds", type=float,
                    default=spec["run_seconds"])
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    report = {}
    for workload in args.workloads:
        results = [run_once(workload, seed, args.seconds, args.trace)
                   for seed in args.seeds]
        report[workload] = summarize_runs(results)
        print(f"\n{workload}: {len(results)} run(s), seeds {args.seeds}")
        print(f"  {'metric':<46} {'median':>14} {'spread':>8} "
              f"{'bound':>6}  unit")
        for name, s in report[workload].items():
            spread_text = "" if s["spread"] is None else f"{s['spread']:.4f}"
            bound = bounds.get(name)
            print(f"  {name:<46} {s['median']:>14.6g} {spread_text:>8} "
                  f"{'' if bound is None else bound:>6}  {s['unit']}")
    out = HERE / "out"
    out.mkdir(exist_ok=True)
    (out / f"summary-trace{args.trace}.json").write_text(
        json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                    "workloads": report}, indent=1), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
