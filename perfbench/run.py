#!/usr/bin/env python3
"""Benchmark of the hconvexlab lab, one workload per run.

    python3 perfbench/run.py --workload falsify-confirm --seed 7 \\
        --seconds 40 --trace 0

Run from the root of a checkout.  The lab is imported from the checkout's
``src/`` (nothing needs installing).  The workload's fixed job list
(jobs.py) runs in whole passes, closed loop in this one process, while the
next pass is expected to end within ``--seconds``.  Every output is
checked outside the timed region.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer span metrics with ``--trace 1``.  The line
before it holds the host facts.  A full record of the run, and with
tracing the spans themselves, is written under ``perfbench/out/``.
"""

from __future__ import annotations

import os
import sys

# The acceptance budgets are stated for one core: pin the lab's campaign
# workers and numpy's BLAS threads before numpy is imported.
PINNED_ENV = {"HCONVEXLAB_THREADS": "1", "OMP_NUM_THREADS": "1",
              "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(PINNED_ENV)

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from collections import Counter  # noqa: E402
from pathlib import Path  # noqa: E402

from checks import Checks  # noqa: E402
from spans import Tracer, summarize, wrapper_cost  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))
OUT = HERE / "out"
SETUP_PROBES = 10
PROBE_TIMEOUT_S = 60

END_TO_END_UNITS = {"setup_s": "s", "wall_s": "s", "samples_per_s": "1/s",
                    "peak_rss_mb": "MB"}


def host_facts(loadavg) -> dict:
    import mpmath
    import numpy
    model = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            model = next((line.split(":", 1)[1].strip() for line in fh
                          if line.startswith("model name")), model)
    except OSError:
        pass
    return {"nproc": os.cpu_count(),
            "loadavg_at_start": list(loadavg), "cpu_model": model,
            "python": platform.python_version(), "numpy": numpy.__version__,
            "mpmath": mpmath.__version__,
            "mpmath_backend": mpmath.libmp.BACKEND,
            "pinned_env": dict(PINNED_ENV)}


def probe_setup(workload: str, workdir: Path) -> float:
    """Seconds from starting a fresh interpreter until its imports are
    done and one warm-up call has reached each layer the workload uses."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--probe-setup", str(workdir)]
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.communicate(timeout=PROBE_TIMEOUT_S)
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    if proc.returncode != 0 or line.strip() != "ready":
        raise RuntimeError(f"set-up probe failed with exit {proc.returncode}")
    return elapsed


def measure(job_list, seconds: float, checks, tracer=None,
            between_jobs=None) -> list:
    """Run whole passes over the job list while the next pass, at the
    mean pass time so far, ends within ``seconds`` of the start.

    ``between_jobs(elapsed)``, if given, is called after each job is
    checked, outside the timed region."""
    passes = []
    start = time.perf_counter()

    def next_pass_fits():
        elapsed = time.perf_counter() - start
        return elapsed * (len(passes) + 1) / len(passes) <= seconds

    while not passes or next_pass_fits():
        wall = 0.0
        samples = 0
        counters = Counter()
        for index, job in enumerate(job_list):
            if tracer is not None:
                tracer.job = len(passes) * len(job_list) + index
                tracer.enabled = True
            t0 = time.perf_counter()
            ok, result = checks.guarded(f"{job.label}: call", job.call)
            wall += time.perf_counter() - t0
            if tracer is not None:
                tracer.enabled = False
            samples += job.samples
            if ok:
                _, found = checks.guarded(f"{job.label}: verify", job.verify,
                                          checks, result)
                counters.update(found or {})
            if between_jobs is not None:
                between_jobs(time.perf_counter() - start)
        passes.append({"wall_s": wall, "samples": samples, **counters})
    return passes


def end_to_end(passes, setup_times) -> dict:
    """Set-up time is the median probe.  Pass times are averaged, not
    medianed: the host's speed switches between a fast and a slow state
    for seconds at a time, and the mean moves smoothly with the mix where
    the median of a run jumps between the two."""
    wall = sum(p["wall_s"] for p in passes)
    return {"setup_s": statistics.median(setup_times),
            "wall_s": wall / len(passes),
            "samples_per_s": sum(p["samples"] for p in passes) / wall,
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}


def _ratio(num, den) -> float:
    return num / den if den else 0.0


def per_layer(passes, records, span_names, cost_per_span) -> dict:
    """Span metrics per traced pass, ratios from report counters, and the
    tracing overhead: spans per pass times the wrapper's cost per call.

    The overhead is not a traced pass minus an untraced one: a falsify run
    holds two to four passes, and the host's speed drifts by more than the
    wrapper costs."""
    traced_wall = sum(p["wall_s"] for p in passes) / len(passes)
    summary = summarize(records, len(passes))
    metrics = {}
    for name in span_names:
        s = summary.get(name, {"calls": 0, "self_s": 0.0, "us_per_call": 0.0})
        metrics[f"{name}.calls"] = (s["calls"], "count")
        metrics[f"{name}.self_s"] = (s["self_s"], "s")
        metrics[f"{name}.us_per_call"] = (s["us_per_call"], "us")
        metrics[f"{name}.share"] = (s["self_s"] / traced_wall, "fraction")
    per_pass = {key: sum(p.get(key, 0) for p in passes) / len(passes)
                for key in ("counted", "operator_counted", "drawn",
                            "rejected", "candidates", "confirmed",
                            "report_bytes")}
    make_triple = summary.get("funclib.make_triple", {}).get("calls", 0)
    metrics.update({
        "falsify.candidate_ratio": (
            _ratio(per_pass["candidates"], per_pass["counted"]), "ratio"),
        "falsify.confirm_yield": (
            _ratio(per_pass["confirmed"], per_pass["candidates"]), "ratio"),
        "falsify.reject_ratio": (
            _ratio(per_pass["rejected"], per_pass["drawn"]), "ratio"),
        "funclib.make_triple_per_sample": (
            _ratio(make_triple, per_pass["operator_counted"]), "ratio"),
        "reporting.bytes": (per_pass["report_bytes"], "bytes"),
        "trace.overhead_s": (
            cost_per_span * len(records) / len(passes), "s"),
    })
    return metrics


def parse_args(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=40.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--probe-setup", metavar="DIR",
                    help=argparse.SUPPRESS)  # child of probe_setup()
    return ap.parse_args(argv)


def main(argv=None) -> int:
    loadavg = os.getloadavg()
    args = parse_args(argv)
    import jobs
    if args.workload not in jobs.WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"expected one of {jobs.WORKLOADS}", file=sys.stderr)
        return 2
    if args.probe_setup:
        jobs.warm_up(args.workload, Path(args.probe_setup))
        print("ready", flush=True)
        return 0

    seed = jobs.DEFAULT_SEED if args.seed is None else args.seed
    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="work-", dir=OUT))
    try:
        host = host_facts(loadavg)
        # Set-up probes are spread evenly over the measurement, between
        # jobs, so that their median sees as many phases of the host's
        # speed as the passes do.
        due = [args.seconds * k / SETUP_PROBES
               for k in range(0 if args.trace else SETUP_PROBES)]
        setup_times = []

        def probe_when_due(elapsed):
            while due and elapsed >= due[0]:
                due.pop(0)
                setup_times.append(probe_setup(args.workload, workdir))

        job_list = jobs.build(args.workload, seed, workdir)
        jobs.warm_up(args.workload, workdir)
        checks = Checks()
        tracer = Tracer() if args.trace else None
        if tracer is None:
            passes = measure(job_list, args.seconds, checks,
                             between_jobs=probe_when_due)
        else:
            with tracer.installed(jobs.SPAN_POINTS):
                passes = measure(job_list, args.seconds, checks, tracer)
            tracer.write(OUT / f"spans-{args.workload}-seed{seed}.json")
        setup_times += [probe_setup(args.workload, workdir) for _ in due]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if tracer is None:
        metrics = {name: (value, END_TO_END_UNITS[name]) for name, value
                   in end_to_end(passes, setup_times).items()}
    else:
        metrics = per_layer(passes, tracer.records, jobs.SPAN_NAMES,
                            wrapper_cost())
    result = {"correct": not checks.failures, "attempted": checks.attempted,
              "failed": len(checks.failures),
              "metrics": {name: {"value": value, "unit": unit}
                          for name, (value, unit) in metrics.items()}}
    record = dict(result, workload=args.workload, seed=seed,
                  seconds=args.seconds, trace=args.trace, host=host,
                  setup_probes_s=setup_times, passes=passes,
                  failures=checks.failures)
    name = f"{args.workload}-seed{seed}-trace{args.trace}.json"
    (OUT / name).write_text(json.dumps(record, indent=1), encoding="utf-8")
    for failure in checks.failures:
        print(f"perfbench: check failed: {failure}", file=sys.stderr)
    print("host " + json.dumps(host))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
