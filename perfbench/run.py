"""Benchmark entry point for mekler.

    python3 perfbench/run.py --workload {roundtrip,scan,verify,qprobe} \\
        --seed N --seconds S --trace {0,1}

Run from the root of a checkout.  Each workload runs in its own
single-threaded Python process (``worker.py``) with BLAS pinned to one
thread, as a closed loop with one client.  With ``--trace 0`` the workload
is set up three times in separate processes (the last one also measures)
and the end-to-end metrics are printed; ``setup_s`` is the median of the
three set-ups.  With ``--trace 1`` one process runs the loop untraced and
then traced, and the per-layer metrics are printed; the spans go to
``perfbench/out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The lines before it stamp the
environment and give the sample counts.  The exit code is 0 when the run
completed, whatever the verdicts; it is not 0, and no result is printed,
when a worker could not run (for example without ``src/mekler``).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("roundtrip", "scan", "verify", "qprobe")
SETUP_RUNS = 3
DEADLINE_S = 170.0

END_TO_END = {
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "jobs_per_s": "1/s",
    "job_ms_p50": "ms",
    "job_ms_p90": "ms",
}

THREAD_PINS = {
    "OPENBLAS_NUM_THREADS": "1",
    "OMP_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "PYTHONHASHSEED": "0",
}


class WorkerError(RuntimeError):
    pass


def source_revision() -> dict:
    """The git revision when the checkout is a git repository, and always a
    digest of the package sources, so results from different code differ."""
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(str(path.relative_to(ROOT)).encode())
        digest.update(path.read_bytes())
    revision = None
    if (ROOT / ".git").exists():
        try:
            revision = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            revision = None
    return {"git_revision": revision, "source_sha256": digest.hexdigest()}


def run_worker(args, role: str, deadline: float, workdir: Path, trace_out: Path | None = None) -> dict:
    cmd = [
        sys.executable, str(HERE / "worker.py"),
        "--workload", args.workload, "--seed", str(args.seed), "--seconds", str(args.seconds),
        "--role", role, "--workdir", str(workdir),
    ]
    if trace_out is not None:
        cmd += ["--trace-out", str(trace_out)]
    if args.smoke:
        cmd.append("--smoke")
    if args.plant_wrong:
        cmd.append("--plant-wrong")
    env = {**os.environ, **THREAD_PINS}
    timeout = deadline - time.monotonic()
    if timeout <= 0:
        raise WorkerError("out of time before starting a worker")
    t_spawn = time.monotonic()
    try:
        proc = subprocess.run(
            cmd + ["--t-spawn", repr(t_spawn)], cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, timeout=timeout
        )
    except subprocess.TimeoutExpired as exc:  # subprocess.run has killed and reaped the worker
        raise WorkerError(f"{role} worker timed out") from exc
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise WorkerError(f"{role} worker exited with code {proc.returncode}")
    return json.loads(lines[-1])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=WORKLOADS, required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for testing the harness itself")
    ap.add_argument("--plant-wrong", action="store_true", help="plant a wrong expectation for one input")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + DEADLINE_S
    if not (ROOT / "src" / "mekler" / "__init__.py").is_file():
        print(f"no mekler sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{os.getpid()}"
    try:
        if args.trace:
            trace_out = OUT / f"trace-{args.workload}-seed{args.seed}.json"
            res = run_worker(args, "trace", deadline, workdir, trace_out)
            setups = [res["setup_s"]]
        else:
            setups = [run_worker(args, "setup", deadline, workdir)["setup_s"] for _ in range(SETUP_RUNS - 1)]
            res = run_worker(args, "measure", deadline, workdir)
            setups.append(res["setup_s"])
    except WorkerError as err:
        print(f"benchmark did not run: {err}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = res["failures"] + res["warmup_failures"]
    attempted, failed = res["jobs"], res["failed"]
    if args.trace:
        attempted += res["traced"]["jobs"]
        failed += res["traced"]["failed"]
        failures += res["traced"]["failures"]
    stamp = {"workload": args.workload, "seed": args.seed, **source_revision(), **res["env"],
             "scan_backends": res["backends"]}
    print(json.dumps({"env": stamp}))
    print(json.dumps({
        "samples": {"jobs": res["jobs"], "inputs": res["inputs"], "passes": res["passes"], "setups": len(setups)},
        "failed_ratio": res["failed"] / res["jobs"],
        "elements_per_s": res["elements_per_s"],
        "by_job_type": res["by_label"],
    }))
    for line in failures:
        print(f"wrong verdict: {line}")

    if args.trace:
        metrics = dict(res["layers"])
        split = {k: 0.0 for k in ("kernels.size1.s", "kernels.size2.s", "kernels.size3.s", "kernels.size3.elements_per_s")}
        split.update(res["size_split"])
        metrics.update(split)
        metrics["elements_per_s"] = res["elements_per_s"]
        metrics["trace.overhead_ratio"] = res["traced"]["job_ms_p50"] / res["job_ms_p50"]
        if res["absent"]:
            print(json.dumps({"absent_boundaries": res["absent"]}))
        units = {}
    else:
        metrics = {
            "setup_s": statistics.median(setups),
            "peak_rss_mb": res["peak_rss_mb"],
            "jobs_per_s": res["jobs_per_s"],
            "job_ms_p50": res["job_ms_p50"],
            "job_ms_p90": res["job_ms_p90"],
        }
        units = END_TO_END
    result = {
        "correct": failed == 0 and not res["warmup_failures"],
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": units.get(name) or layer_unit(name)} for name, value in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def layer_unit(name: str) -> str:
    if name.endswith(".calls"):
        return "calls/job"
    if name.endswith(".self_ms"):
        return "ms/job"
    if name.endswith("_ratio"):
        return "ratio"
    if name.endswith("elements_per_s"):
        return "1/s"
    if name.endswith(".s"):
        return "s/scan"
    if name.endswith(".central_pairs"):
        return "pairs/ctx"
    if name.endswith(".rows"):
        return "rows/call"
    return "count/job"


if __name__ == "__main__":
    sys.exit(main())
