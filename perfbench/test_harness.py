"""Tests of the benchmark harness itself (not of mekler).

    python3 -m pytest -q perfbench/test_harness.py

Smoke configurations of every workload, a planted wrong expectation that
must raise the failed count, the traced run's metric set against
BENCHMARK.json, the independent expectations against frozen constants, and
a checkout without sources that must fail without printing a result.
"""

import json
import random
import shutil
import subprocess
import sys
import warnings
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import workloads  # noqa: E402
from mekler import cayley  # noqa: E402
from mekler.graphs import all_pairs, build_fragment  # noqa: E402
from mekler.group import GroupContext  # noqa: E402
from mekler.subgroup import EdgeFunctional  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAMES = sorted(workloads.WORKLOADS)  # roundtrip too, which BENCHMARK.json leaves out


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, str(Path(cwd) / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=180,
    )
    return proc


def result_of(proc):
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


def test_benchmark_json_lists_runnable_workloads():
    listed = [w["name"] for w in SPEC["workloads"]]
    assert set(listed) <= set(NAMES) and len(listed) >= 2


@pytest.mark.parametrize("workload", NAMES)
def test_smoke_run_is_correct_and_complete(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke"))
    assert set(res) == {"correct", "attempted", "failed", "metrics"}
    assert res["correct"] is True and res["failed"] == 0 and res["attempted"] >= 1
    want = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert all(v["value"] > 0 for v in res["metrics"].values())


@pytest.mark.parametrize("workload", NAMES)
def test_planted_wrong_expectation_counts_as_failed(workload):
    res = result_of(
        bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "0", "--smoke", "--plant-wrong")
    )
    assert res["failed"] > 0 and res["failed"] / res["attempted"] > 0
    assert res["correct"] is False


@pytest.mark.parametrize("workload", NAMES)
def test_traced_run_reports_every_layer_metric(workload):
    res = result_of(bench("--workload", workload, "--seed", "3", "--seconds", "1", "--trace", "1", "--smoke"))
    assert res["correct"] is True
    want = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    assert {k: v["unit"] for k, v in res["metrics"].items()} == want
    assert res["metrics"]["cli.main.calls"]["value"] == (0 if workload == "scan" else 1)
    assert res["metrics"]["trace.overhead_ratio"]["value"] > 0


def test_scan_expectations_match_frozen_acceptance_counts():
    nats = list(range(11))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ctx = GroupContext(build_fragment(nats, all_pairs(nats)), 3)
    ell = EdgeFunctional.from_edges([(0, 1), (1, 2)])
    nverts = len(ctx.vertex_order)
    zeros = workloads.zero_value_count(ctx, ell)
    assert workloads.expected_elements(nverts, 3, 3) == 31_028_712
    assert workloads.expected_members(zeros, nverts - zeros, 3, 3) == 8_715_330


@pytest.mark.parametrize("corners", [5, 6, 8, 9, 12, 45, 48])
def test_dihedral_cover_formula_matches_exhaustive_cover(corners):
    g = cayley.dihedral_group(corners)
    for n in (2, 3):
        assert workloads.dihedral_cover(corners, n) == cayley.covering_report(g, n).covering_size


def test_left_out_probes_still_meet_their_frozen_covers(tmp_path):
    qprobe = workloads.Qprobe(random.Random(0), False, False, str(tmp_path))
    for spec, n in sorted(workloads.LEFT_OUT):
        job = qprobe._job(spec, n)
        assert job.check(job.run()) is None


def test_probe_check_rejects_a_non_cover():
    table = workloads.product_table(2, 3)
    payload = {"order": 6, "power_image_size": 3, "identity_root_count": 2, "unique_roots": False,
               "cover_size": 1, "cover_reps": [0], "cover_exact": True}
    assert workloads.check_probe(table, 2, payload, 2) is not None
    payload.update(cover_size=2, cover_reps=[0, 3])
    assert workloads.check_probe(table, 2, payload, 2) is None


def test_without_sources_fails_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = bench("--workload", NAMES[0], "--seed", "1", "--seconds", "1", "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
