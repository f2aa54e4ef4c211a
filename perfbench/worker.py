"""One workload process: set up, run the closed loop, check every verdict.

Started by ``run.py``, never by hand.  Roles:

  setup    set up (import, inputs, contexts, warm-up jobs) and report the time
  measure  set up, then run the timed loop untraced
  trace    set up, run the timed loop untraced, then install the tracer and
           run it again traced; report the per-layer numbers

The result is one JSON object on the last line of stdout.  ``setup_s``
counts from ``--t-spawn``, the parent's ``time.monotonic()`` just before it
started this process; the clock is system-wide, so interpreter start-up
and imports are included.
"""

from __future__ import annotations

import argparse
import json
import os
import random
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import mekler  # noqa: E402

from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS  # noqa: E402


def run_jobs(jobs, records, failures, tracer=None) -> None:
    """Run (input key, job) pairs one after another (closed loop, one
    client); time each call, then check its verdict outside the timed region."""
    for key, job in jobs:
        if tracer is not None:
            tracer.begin_job()
        t0 = time.perf_counter()
        try:
            out, err = job.run(), None
        except (Exception, SystemExit) as exc:  # a job that raises is a failed job, not a failed run
            out, err = None, f"{type(exc).__name__}: {exc}"
        dt = time.perf_counter() - t0
        if tracer is not None:
            tracer.end_job(job.label)
        if err is None:
            try:
                err = job.check(out)
            except Exception:  # a malformed report is a wrong verdict
                err = traceback.format_exc(limit=1).strip().splitlines()[-1]
        backend = getattr(out, "backend", None)
        records.append(
            {"key": key, "label": job.label, "s": dt, "ok": err is None, "elements": job.elements, "backend": backend}
        )
        if err is not None:
            failures.append(f"{job.label}: {err}")


def timed_loop(workload, rng, seconds: float, tracer=None) -> tuple[list, list]:
    """Repeat the workload's whole job list, in a fresh seeded order each
    time, while another pass fits in the time left; at least one pass."""
    records: list[dict] = []
    failures: list[str] = []
    start = time.perf_counter()
    longest = 0.0
    keyed = list(enumerate(workload.jobs))
    while True:
        c0 = time.perf_counter()
        run_jobs(rng.sample(keyed, len(keyed)), records, failures, tracer)
        now = time.perf_counter()
        longest = max(longest, now - c0)
        if now - start + longest > seconds:
            return records, failures


def summarize(records: list[dict]) -> dict:
    """Time each input by the median of its passes, then take the median,
    the 90th percentile and the rate over the inputs.  On a shared host the
    median of many passes moved less from run to run than the best pass."""
    by_key: dict[int, list[dict]] = {}
    for r in records:
        by_key.setdefault(r["key"], []).append(r)
    typical = {key: {"label": rs[0]["label"], "s": statistics.median(r["s"] for r in rs), "elements": rs[0]["elements"]}
               for key, rs in by_key.items()}
    times_ms = [r["s"] * 1000.0 for r in typical.values()]
    scans = [r for r in typical.values() if r["elements"]]
    return {
        "jobs": len(records),
        "failed": sum(1 for r in records if not r["ok"]),
        "inputs": len(typical),
        "passes": len(records) // len(typical),
        "jobs_per_s": len(typical) / sum(r["s"] for r in typical.values()),
        "job_ms_p50": statistics.median(times_ms),
        "job_ms_p90": statistics.quantiles(times_ms, n=10, method="inclusive")[8] if len(times_ms) > 1 else times_ms[0],
        "elements_per_s": sum(r["elements"] for r in scans) / sum(r["s"] for r in scans) if scans else 0.0,
        "backends": sorted({r["backend"] for r in records if r["backend"]}),
        "by_label": {
            label: {"inputs": len(ms), "median_ms": statistics.median(ms)}
            for label in sorted({r["label"] for r in typical.values()})
            for ms in [[r["s"] * 1000.0 for r in typical.values() if r["label"] == label]]
        },
    }


def environment() -> dict:
    import importlib.util

    import numpy

    blas = "unknown"
    try:
        cfg = numpy.show_config(mode="dicts")
        blas = cfg["Build Dependencies"]["blas"]["name"]
    except Exception:  # the config layout differs between numpy releases
        pass
    threads = None
    try:
        with open("/proc/self/status") as fh:
            threads = next(int(line.split()[1]) for line in fh if line.startswith("Threads:"))
    except (OSError, StopIteration):
        pass
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "numba_importable": importlib.util.find_spec("numba") is not None,
        "blas": blas,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS"),
        "os_threads": threads,
        "mekler": str(Path(mekler.__file__).resolve().parent.relative_to(ROOT)),
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--role", choices=("setup", "measure", "trace"), required=True)
    ap.add_argument("--t-spawn", type=float, required=True)
    ap.add_argument("--workdir", required=True, help="scratch directory inside the checkout, removed by run.py")
    ap.add_argument("--trace-out", default=None, help="write the spans here (trace role)")
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness")
    ap.add_argument("--plant-wrong", action="store_true", help="plant a wrong expectation for one input")
    args = ap.parse_args(argv)

    if not Path(mekler.__file__).resolve().is_relative_to(ROOT / "src"):
        print(f"imported mekler from {mekler.__file__}, not from this checkout", file=sys.stderr)
        return 2

    rng = random.Random(f"{args.workload}-{args.seed}")
    workload = WORKLOADS[args.workload](rng, args.smoke, args.plant_wrong, args.workdir)
    warm_failures: list[str] = []
    run_jobs(enumerate(workload.warmup()), [], warm_failures)
    setup_s = time.monotonic() - args.t_spawn
    result: dict = {"setup_s": setup_s, "warmup_failures": warm_failures}
    if args.role != "setup":
        records, failures = timed_loop(workload, rng, args.seconds)
        result.update(summarize(records), failures=failures[:10])
        result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if args.role == "trace":
        split = getattr(workload, "size_split", None)
        result["size_split"] = split() if split else {}
        tracer = Tracer()
        tracer.install()
        traced, traced_failures = timed_loop(workload, rng, args.seconds, tracer)
        result["traced"] = summarize(traced)
        result["traced"]["failures"] = traced_failures[:10]
        result["layers"] = tracer.metrics()
        result["absent"] = tracer.absent
        if args.trace_out:
            with open(args.trace_out, "w") as fh:
                json.dump({"workload": args.workload, "seed": args.seed, **tracer.dump()}, fh)
    result["env"] = environment()
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
