"""Command line behavior: exit codes, output formats, file round trips."""

import argparse
import hashlib
import json
import os
import random
import subprocess
import sys
import time
import warnings

import numpy as np
import pytest

import mekler
from mekler.cayley import FiniteGroup, format_cayley_text, symmetric_group
from mekler.cli import main
from mekler import cayley, cli, graphs, group, subgroup, verify
from mekler.graphs import ConfigError, FragmentSpec
from mekler.group import GroupContext
from mekler.interpret import build_down_fragment, build_up_fragment
from mekler.kernels import _ell_bits
from mekler.subgroup import EdgeFunctional
from mekler.verify import SuiteResult, VerifyConfig
from test_kernels import closed_form_counts


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_nice_default_fragment_passes(capsys):
    code, out, err = run(capsys, "nice")
    assert code == 0
    assert "nice" in out
    assert err == ""


def test_nice_rejects_separation_failure(capsys):
    # two isolated naturals: no witness separates the ordered pairs
    code, out, _ = run(capsys, "nice", "--naturals", "0,1", "--pairs", "none")
    assert code == 1
    assert "not nice" in out
    assert "separation" in out


def test_nice_structured_payload(capsys):
    code, out, _ = run(capsys, "nice", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["is_nice"] is True
    assert payload["vertices"] == 18
    assert payload["edges"] == 21
    assert payload["triangle_free"] and payload["square_free"]


def test_bad_prime_is_config_error(capsys):
    for p in ("2", "4"):
        code, out, err = run(capsys, "roundtrip", "--p", p)
        assert code == 2
        assert "configuration rejected" in err
        assert out == ""


def test_too_few_naturals_is_config_error(capsys):
    code, _, err = run(capsys, "nice", "--naturals", "0")
    assert code == 2
    assert "configuration rejected" in err
    code, _, err = run(capsys, "verify-lemmas", "--naturals", "1")
    assert code == 2 and "two naturals" in err


def test_edge_outside_naturals_is_config_error(capsys):
    code, _, err = run(capsys, "verify-lemmas", "--naturals", "0,1", "--r-edges", "0-5")
    assert code == 2
    assert "not a pair of configured naturals" in err


def test_verify_lemmas_reduced_config(capsys):
    args = ("verify-lemmas", "--budget-samples", "20")
    code, out, _ = run(capsys, *args)
    assert code == 0
    assert "checks passed: ok" in out
    assert "FAIL" not in out
    # identical configuration must reproduce the report byte for byte
    code2, out2, _ = run(capsys, *args)
    assert code2 == 0 and out2 == out


def test_verify_lemmas_structured(capsys):
    code, out, _ = run(
        capsys,
        "verify-lemmas",
        "--budget-samples",
        "20",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["config"]["naturals"] == [0, 1, 2]
    assert payload["config"]["r_edges"] == [[0, 1]]
    assert payload["checks"] and all(c["passed"] for c in payload["checks"])


def test_budget_skipped_oracle_checks_are_skip_not_pass(capsys):
    args = ("verify-lemmas", "--p", "3", "--budget-samples", "20", "--budget-oracle", "10")
    code, out, _ = run(capsys, *args)
    assert code == 0
    skipped = [ln for ln in out.splitlines() if ln.startswith("SKIP")]
    assert len(skipped) == 2
    assert all("formula evaluators agree with full enumeration" in ln and "exceeds budget 10" in ln for ln in skipped)
    assert not any(ln.startswith("PASS") and "skipped" in ln for ln in out.splitlines())
    assert out.endswith("\n23/25 checks passed, 2 skipped: ok\n")
    code, out, _ = run(capsys, *args, "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert [c["passed"] for c in payload["checks"]].count(None) == 2
    assert all(c["passed"] is True for c in payload["checks"] if c["passed"] is not None)


def test_skipped_check_never_hides_a_failure():
    res = SuiteResult(config=VerifyConfig())
    verify._check(res, "skipped", None, "skipped: over budget")
    verify._check(res, "passed", True)
    assert res.ok
    verify._check(res, "failed", False)
    assert not res.ok
    assert res.render_text().endswith("\n1/3 checks passed, 1 skipped: FAILURE\n")
    assert json.loads(res.render_json())["checks"][0]["passed"] is None


def test_dimension_cross_checks_do_not_compare_the_engine_with_itself(monkeypatch):
    """Both dimension cross-checks fail once the closed form is off by one
    wherever it is called: their other side is the full-column system."""
    ctx = GroupContext(build_down_fragment([0, 1]), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    names = ("fast dimension formula matches the generic eliminator", "generic eliminator reproduces natural dimensions")

    def verdicts():
        res = SuiteResult(config=VerifyConfig())
        verify._centralizer_bound_checks(res, ctx, random.Random(0), 1)
        verify._dichotomy_checks(res, ctx, ell, 1)
        return [c.passed for c in res.checks if c.name in names]

    assert verdicts() == [True, True]
    closed_form = group.centralizer_dim
    for module in (group, subgroup):
        monkeypatch.setattr(module, "centralizer_dim", lambda *args: closed_form(*args) + 1)
    assert verdicts() == [False, False]


def test_class_two_check_fails_on_a_sign_flipped_commutator(monkeypatch):
    """The class-2 line checks ab = ba [a, b] and [a, b] c = c [a, b]
    through mul, so a commutator of the wrong sign fails it, though the
    flipped commutator is still central and still a basis element on each
    non-adjacent generator pair."""
    ctx = GroupContext(build_up_fragment([0, 1, 2]), 3)
    name = "commutators are central (class 2)"

    def verdicts():
        res = SuiteResult(config=VerifyConfig())
        verify._group_axiom_checks(res, ctx, random.Random(0), 50)
        verify._defining_relation_checks(res, ctx)
        return {c.name: c.passed for c in res.checks}

    assert all(verdicts().values())
    vector = group.commutator_vector
    monkeypatch.setattr(group, "commutator_vector", lambda ctx, a, b: {k: ctx.p - c for k, c in vector(ctx, a, b).items()})
    flipped = verdicts()
    assert flipped.pop(name) is False
    assert all(flipped.values())


def test_natural_dimension_check_compares_with_closed_form(monkeypatch):
    ctx = GroupContext(build_down_fragment([0, 1]), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    name = "generic eliminator reproduces natural dimensions"
    res = SuiteResult(config=VerifyConfig())
    verify._dichotomy_checks(res, ctx, ell, 1)
    assert [c.passed for c in res.checks if c.name == name] == [True]
    generic = verify.centralizer_dim_in_subgroup
    monkeypatch.setattr(verify, "centralizer_dim_in_subgroup", lambda *args: generic(*args) + 1)
    res = SuiteResult(config=VerifyConfig())
    verify._dichotomy_checks(res, ctx, ell, 1)
    assert [c.passed for c in res.checks if c.name == name] == [False]


def test_roundtrip_cli(capsys):
    code, out, _ = run(capsys, "roundtrip", "--naturals", "0,1,2", "--r-edges", "0-1")
    assert code == 0
    assert "ok" in out
    code, out, _ = run(
        capsys,
        "roundtrip",
        "--naturals",
        "0,1,2",
        "--r-edges",
        "0-1,1-2",
        "--format",
        "structured",
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert payload["input"]["edges"] == [[0, 1], [1, 2]]
    assert payload["pipelines"]["up"]["edges"] == [[0, 1], [1, 2]]
    assert payload["pipelines"]["down"]["edges"] == [[0, 1], [1, 2]]
    assert "nice" not in payload["pipelines"]["up"] and "nice" not in payload["pipelines"]["down"]


def test_roundtrip_single_pipeline(capsys):
    code, out, _ = run(
        capsys, "roundtrip", "--naturals", "0,1", "--pipeline", "up", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload["pipelines"]) == ["up"]
    assert payload["pipelines"]["up"]["nice"] is False  # two naturals: the up fragment is not nice


def test_ext_check(capsys):
    code, out, _ = run(capsys, "ext-check", "--samples", "30")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines and all(ln.startswith("PASS") for ln in lines)


def test_ext_check_at_its_defaults_writes_nothing_to_stderr():
    """The default fragment on naturals 0 and 1 is not nice, which the
    extension's group arithmetic does not need: no warning is printed.  The
    round trip on the same two naturals notes it on stdout instead."""
    src = os.path.dirname(os.path.dirname(mekler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    prog = [sys.executable, "-m", "mekler.cli"]
    r = subprocess.run([*prog, "ext-check"], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0
    assert r.stdout.startswith("PASS") and r.stderr == ""
    argv = [*prog, "roundtrip", "--naturals", "0,1", "--pipeline", "up"]
    r = subprocess.run(argv, env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0 and r.stderr == ""
    assert "up: fragment not nice (not nice: 8 separation failure(s)); recovery is not guaranteed\n" in r.stdout


def test_fragment_writes_loadable_json(capsys, tmp_path):
    spec_path = tmp_path / "frag.json"
    code, out, _ = run(
        capsys, "fragment", "--naturals", "3", "--pairs", "all", "--out", str(spec_path)
    )
    assert code == 0
    assert "fragment JSON written" in out
    spec = FragmentSpec.from_json(spec_path.read_text())
    assert spec.naturals == (0, 1, 2)
    assert len(spec.gadget_pairs) == 3
    # the written file feeds straight back into the niceness checker
    code, out, _ = run(capsys, "nice", "--json", str(spec_path), "--format", "structured")
    assert code == 0
    assert json.loads(out)["vertices"] == 18


def test_fragment_rejects_a_prime_that_is_not_odd(capsys, tmp_path):
    spec_path = tmp_path / "frag.json"
    code, out, err = run(capsys, "fragment", "--p", "4", "--out", str(spec_path))
    assert code == 2 and out == ""
    assert "configuration rejected: p must be an odd prime, got 4" in err
    assert not spec_path.exists()


BIG_PRIME = 2305843009213693951  # the Mersenne prime 2**61 - 1


@pytest.mark.parametrize("command", ["roundtrip", "nice"])
def test_a_prime_above_the_cap_exits_2_at_once(capsys, tmp_path, monkeypatch, command):
    """The cap is checked before any trial division, which on this prime
    would run for hours."""

    def refuse_to_divide(p):
        raise AssertionError(f"trial division reached p = {p}")

    monkeypatch.setattr(graphs, "is_odd_prime", refuse_to_divide)
    spec = tmp_path / "big.json"
    spec.write_text(f'{{"naturals": [0, 1], "p": {BIG_PRIME}}}')
    argv = ["roundtrip", "--p", str(BIG_PRIME)] if command == "roundtrip" else ["nice", "--json", str(spec)]
    start = time.perf_counter()
    code, out, err = run(capsys, *argv)
    assert time.perf_counter() - start < 1.0
    assert code == 2 and out == ""
    assert f"p must be an odd prime of at most {graphs.MAX_PRIME}, got {BIG_PRIME}" in err


def test_verify_lemmas_report_is_the_same_under_python_O():
    """No invariant relies on assert: with asserts stripped, the default
    suite still passes and prints the same bytes."""
    src = os.path.dirname(os.path.dirname(mekler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    runs = [
        subprocess.run(
            [sys.executable, *flags, "-m", "mekler.cli", "verify-lemmas", "--format", "structured"],
            env=env,
            capture_output=True,
            timeout=300,
        )
        for flags in ([], ["-O"])
    ]
    for r in runs:
        assert r.returncode == 0, r.stderr.decode()
    assert runs[1].stdout == runs[0].stdout
    assert json.loads(runs[1].stdout)["ok"] is True


def test_scans_at_p_101_pass(capsys):
    """At p = 101 both scans run and pass, counting the closed-form element
    and member totals; only the two oracle checks SKIP, on their budget."""
    code, out, _ = run(capsys, "verify-lemmas", "--p", "101", "--format", "structured")
    assert code == 0
    checks = {c["name"]: c for c in json.loads(out)["checks"]}
    assert len(checks) == 25
    skipped = sorted(name for name, c in checks.items() if c["passed"] is None)
    assert skipped == [f"formula evaluators agree with full enumeration (R {tag})" for tag in ("empty", "full")]
    assert all(c["passed"] is True for name, c in checks.items() if name not in skipped)
    up = GroupContext(build_up_fragment([0, 1, 2]), 101)
    down = GroupContext(build_down_fragment([0, 1, 2]), 101)
    elements = closed_form_counts(_ell_bits(up, None), 101, 3)[0]
    members = closed_form_counts(_ell_bits(down, EdgeFunctional.from_edges([(0, 1)])), 101, 3)[1]
    assert checks["centralizer dimension of non-natural small supports stays at most 5"]["detail"] == f"{elements} elements, 0 violations"
    assert checks["subgroup dimension dichotomy holds on all small supports"]["detail"] == f"{members} members, 0 violations"
    code, out, _ = run(capsys, "verify-lemmas", "--p", "101")
    assert out.endswith("\n23/25 checks passed, 2 skipped: ok\n")


# sha256 of the verify-lemmas reports, text and structured, recorded before
# the element arithmetic, the coset oracle and the context handling were
# sped up; speed changes must leave every byte as it was.  The last
# configuration skips both oracle checks for budget: 7^7 cosets on their
# fragment.
PINNED_REPORTS = [
    ((), 0, "59f3d0c40ae862497801d39ce9e31e7e7e3d987209a0332ed55852ab76611609",
     "a7b6b68453eeaf77a2a25da13fabacc9d375d9c5c58879fc6569604221f141d4"),
    (("--naturals", "0,1,2,3", "--r-edges", "0-2,1-2,1-3", "--seed", "777"), 0,
     "a5a0050bfe5a9aaa980b41c0bceccfea91aae4b3aba894833e73ae41c2d1b441",
     "c8d42534997f9e0261259e6a5c1d41eeb2adc99e1d769949ed979c45a03ef27e"),
    (("--naturals", "0,1,2", "--r-edges", "0-1", "--p", "7"), 2,
     "79244503b2ace602102ea7b5d7d6499f2cfb3eaa44fc98d928251e3a36a1b274",
     "1f0adccbb1f12123144b1ff638b43fa7a879899986ab976b9ddc6ff1cae30e37"),
]


@pytest.mark.parametrize(
    "flags, skips, text_sha, structured_sha", PINNED_REPORTS, ids=["defaults", "four-naturals", "p7-skip"]
)
def test_verify_lemmas_reports_are_pinned(capsys, flags, skips, text_sha, structured_sha):
    for fmt, want in (("text", text_sha), ("structured", structured_sha)):
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            code, out, _ = run(capsys, "verify-lemmas", *flags, "--format", fmt)
        assert code == 0
        assert not any("not nice" in str(w.message) for w in caught)
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt
        if fmt == "text":
            assert sum(line.startswith("SKIP") for line in out.splitlines()) == skips


def test_verify_lemmas_on_two_naturals_is_config_error(capsys):
    """The up fragment on two naturals is not nice, so the suite could
    only fail; it is refused before any check runs."""
    code, out, err = run(capsys, "verify-lemmas", "--naturals", "0,1", "--r-edges", "0-1")
    assert code == 2 and out == ""
    assert "needs at least three naturals" in err


def test_fragment_deduplicates_repeated_pairs(capsys, tmp_path):
    spec_path = tmp_path / "frag.json"
    argv = ("fragment", "--naturals", "0,1", "--pairs", "1-0,0-1")
    code, out, _ = run(capsys, *argv, "--out", str(spec_path))
    assert code == 0
    assert "fragment: 2 naturals, 1 gadgeted pairs" in out
    assert FragmentSpec.from_json(spec_path.read_text()).gadget_pairs == ((0, 1),)
    code, out, _ = run(capsys, *argv, "--format", "structured")
    assert code == 0
    assert json.loads(out)["gadget_pairs"] == [[0, 1]]


@pytest.mark.parametrize(
    "budget, message",
    [
        ("0", "support budget must be 1 to 3, got 0"),
        ("-2", "support budget must be 1 to 3, got -2"),
        ("4", "support budgets beyond 3 are not covered by the dichotomy statements"),
    ],
    ids=["zero", "negative", "over-three"],
)
def test_support_budget_out_of_range_is_named(capsys, budget, message):
    code, out, err = run(capsys, "verify-lemmas", "--budget-support", budget, "--budget-samples", "5")
    assert code == 2 and out == ""
    assert f"configuration rejected: {message}" in err


def test_support_budget_is_refused_before_any_suite_runs(capsys, monkeypatch):
    def no_suite(*args):
        raise RuntimeError("a suite ran")

    monkeypatch.setattr(verify, "_group_axiom_checks", no_suite)
    code, out, err = run(capsys, "verify-lemmas", "--budget-support", "4", "--budget-samples", "5")
    assert code == 2 and out == ""
    assert "configuration rejected: support budgets beyond 3 are not covered" in err


@pytest.mark.parametrize("budget", ["0", "-1"], ids=["zero", "negative"])
def test_oracle_budget_below_one_is_refused_before_any_suite_runs(capsys, monkeypatch, budget):
    def no_suite(*args):
        raise RuntimeError("a suite ran")

    monkeypatch.setattr(verify, "_group_axiom_checks", no_suite)
    code, out, err = run(capsys, "verify-lemmas", "--budget-oracle", budget, "--budget-samples", "5")
    assert code == 2 and out == ""
    assert f"configuration rejected: oracle budget must be at least 1, got {budget}" in err


def test_fragment_structured(capsys):
    code, out, _ = run(
        capsys, "fragment", "--naturals", "0,1,2", "--pairs", "0-1", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["vertices"] == 8
    assert payload["gadget_pairs"] == [[0, 1]]
    assert payload["is_nice"] is False


def test_out_flag_duplicates_stdout(capsys, tmp_path):
    report = tmp_path / "nice.txt"
    code, out, _ = run(capsys, "nice", "--out", str(report))
    assert code == 0
    assert report.read_text() == out


def test_qprobe_builtin_groups(capsys):
    code, out, _ = run(capsys, "qprobe", "--group", "sym:3", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6
    assert payload["power_image_size"] == 3
    assert payload["identity_root_count"] == 4
    assert payload["unique_roots"] is False
    assert payload["cover_size"] == 2 and payload["cover_exact"] is True

    code, out, _ = run(capsys, "qprobe", "--group", "cyclic:5", "--n", "2", "--format", "structured")
    payload = json.loads(out)
    assert code == 0 and payload["unique_roots"] is True and payload["cover_size"] == 1


def test_qprobe_mekler_group(capsys):
    code, out, _ = run(
        capsys, "qprobe", "--group", "mekler:3", "--n", "3", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 27
    assert payload["power_image_size"] == 1
    assert payload["identity_root_count"] == 27
    assert payload["unique_roots"] is False
    assert payload["cover_size"] == 27


def test_qprobe_bounded_root_set(capsys):
    code, out, _ = run(
        capsys, "qprobe", "--group", "sym:3", "--m", "1", "--format", "structured"
    )
    assert code == 0
    assert json.loads(out)["bounded_root_set_size"] == 2


def test_qprobe_cayley_file(capsys, tmp_path):
    path = tmp_path / "s3.cayley"
    path.write_text(format_cayley_text(symmetric_group(3)))
    code, out, _ = run(capsys, "qprobe", "--group", f"cayley:{path}", "--format", "structured")
    assert code == 0
    payload = json.loads(out)
    assert payload["order"] == 6 and payload["identity_root_count"] == 4


def test_qprobe_perm_file(capsys, tmp_path):
    path = tmp_path / "s3.perms"
    path.write_text("# symmetric group on three points\n(1 2)\n(1 2 3)\n")
    code, out, _ = run(capsys, "qprobe", "--group", f"perm:{path}", "--n", "2")
    assert code == 0
    assert "order 6" in out
    assert "image size 3" in out
    assert "finite groups have no generic elements" in out


def test_qprobe_reports_a_hit_node_budget(capsys, monkeypatch):
    monkeypatch.setattr(cayley, "COVER_NODE_BUDGET", 50)
    code, out, _ = run(capsys, "qprobe", "--group", "sl2:5", "--format", "structured")
    payload = json.loads(out)
    assert code == 0 and payload["cover_exact"] is False
    assert payload["cover_node_budget_hit"] is True and payload["cover_size"] >= 4
    code, out, _ = run(capsys, "qprobe", "--group", "sl2:5")
    assert code == 0 and "(upper bound: the search hit its node budget)" in out


def test_qprobe_never_imports_numpy_ma():
    """Power images and generating sets are taken with masks and bincount;
    a plain np.unique would load numpy.ma into every qprobe process."""
    src = os.path.dirname(os.path.dirname(mekler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    script = (
        "import sys\n"
        "from mekler.cli import main\n"
        "codes = [main(['qprobe', '--group', g]) for g in ('sl2:5', 'cyclic:108', 'mekler:3')]\n"
        "print(codes, 'numpy.ma' in sys.modules, file=sys.stderr)\n"
    )
    r = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    assert r.stderr.splitlines()[-1] == "[0, 0, 0] False"


# sha256 of qprobe reports, text and structured, recorded before table
# building and validation moved to whole-array passes; the speed-up must
# leave every byte as it was.  The perm and cayley files are written into
# the working directory so that the spec, which the report echoes, is the
# same on every run.
PINNED_QPROBE_REPORTS = [
    (("sl2:3",), "20f331986a7e46d1be391a21e2b454ce56bd6d0d8795fb5fa038d1ead225df16",
     "ee3b2d8029a7b969f66dd0b8afc1c493c06f82ad7caf8f5ae74276c24edd5f2f"),
    (("sl2:5", "--m", "2"), "4db8ca0dccad41e0ec28e2d3240e5348cf147f0768a58935bbc7c336d7f2fe27",
     "3d0443bc7bec51b80194b3d716f9b2ccf18456fa9c8a935fb2d5b7f3b7ad6340"),
    (("sl2:7", "--n", "3"), "99dc7d03f18c2e29d3ec78bc6b1763c673f554291c8f344871513a6695bd2f1c",
     "7d267d943e0b2723b81486b8643079b359878e6d0877be5cbb1b438ef32a902e"),
    (("sym:5", "--m", "2"), "61231e89c81d6e2d0e76458d8c7975c57f188af744f5b9079349c8c14e244126",
     "f7e598cafbfbd240e1090aa774fc238e78ff2fc2ae32a2b322a5ae3b51198f77"),
    (("dihedral:53",), "b3bddc6cc10e5a58529fa65285ecde893235b744ad7fd2af021205400c79d01c",
     "096d9219a26bee5a6635f54d9c42285f85979589da130041947a7b9ebb5ba9b2"),
    (("cyclic:108", "--m", "2"), "2c805429c3ea158e91bf29424dc73164b7d4ef51448d5315840c6b807f035068",
     "0fab2f748adbf9cb615f171d029c09bb1d38ab08f218009819726810c6dfc2dc"),
    (("mekler:3", "--n", "3"), "b1f6f442d76df69962de9c29c8ade7226e05660842242cf26d669a6cd4da425f",
     "0b1f4e24e8d630ff74376ce1b2946d9753f721d891f9a15887b8ae7c44907b4c"),
    (("perm:a5.perms", "--m", "2"), "7493a096f0f975597829f4742694ae3433fcc2f589176312014ecb6dcb847018",
     "32aa543a8a91e5df04c3bcaa856418013df1cd37c7f141735fe94e11376b5be0"),
    (("cayley:z6xz4.cayley", "--n", "3"), "9d1de2e2f15a34796e28bb44a1975693ff4a41aff43aa291dd274d0139f5dde8",
     "47357bbd6f4f91ab60f484fb8c84e99d9c62c9d2d304e090597f411219299e2c"),
]


@pytest.mark.parametrize(
    "flags, text_sha, structured_sha",
    PINNED_QPROBE_REPORTS,
    ids=["sl2-3", "sl2-5-m2", "sl2-7-n3", "sym5-m2", "dihedral53", "cyclic108-m2", "mekler3-n3", "perm-m2", "cayley-n3"],
)
def test_qprobe_reports_are_pinned(capsys, tmp_path, monkeypatch, flags, text_sha, structured_sha):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "a5.perms").write_text("(1 2 3 4 5)\n(1 2 3)\n")
    i, j = np.divmod(np.arange(24), 4)  # Z6 x Z4, element (i, j) at 4i + j
    z6xz4 = ((i[:, None] + i[None, :]) % 6) * 4 + (j[:, None] + j[None, :]) % 4
    (tmp_path / "z6xz4.cayley").write_text(format_cayley_text(FiniteGroup(z6xz4)))
    for fmt, want in (("text", text_sha), ("structured", structured_sha)):
        code, out, _ = run(capsys, "qprobe", "--group", *flags, "--format", fmt)
        assert code == 0
        assert hashlib.sha256(out.encode()).hexdigest() == want, fmt


def test_qprobe_takes_one_power_map(capsys, monkeypatch):
    calls = []
    real = cayley.pow_all
    monkeypatch.setattr(cayley, "pow_all", lambda g, n: calls.append(n) or real(g, n))
    for fmt in ("text", "structured"):
        code, _, _ = run(capsys, "qprobe", "--group", "sl2:3", "--m", "2", "--format", fmt)
        assert code == 0
    assert calls == [2, 2]


@pytest.mark.parametrize("m", ["0", "-1"])
def test_qprobe_refuses_a_root_count_bound_below_one(capsys, m):
    code, out, err = run(capsys, "qprobe", "--group", "sl2:3", "--m", m)
    assert code == 2 and out == ""
    assert f"root-count bound must be at least 1, got {m}" in err


def test_qprobe_bad_specs(capsys, tmp_path):
    code, _, err = run(capsys, "qprobe", "--group", "foo:3")
    assert code == 2 and "unknown group spec" in err
    code, _, err = run(capsys, "qprobe", "--group", f"cayley:{tmp_path / 'missing.txt'}")
    assert code == 2 and "configuration rejected" in err
    # a non-prime field size is rejected by the construction itself
    code, _, err = run(capsys, "qprobe", "--group", "sl2:4")
    assert code == 2 and "prime" in err


def test_subcommand_required():
    with pytest.raises(SystemExit):
        main([])


@pytest.mark.parametrize("fault", [ValueError, KeyError])
def test_internal_error_is_not_a_rejected_configuration(capsys, monkeypatch, fault):
    """Only ConfigError (with AdequacyError and BudgetError) means exit 2: a
    plain ValueError or KeyError from the group core propagates instead."""

    def broken(*args):
        raise fault("fault inside the group core")

    monkeypatch.setattr(verify, "mul", broken)
    with pytest.raises(fault, match="fault inside the group core"):
        main(["verify-lemmas", "--budget-samples", "5"])
    captured = capsys.readouterr()
    assert "configuration rejected" not in captured.err
    assert captured.out == ""


def test_config_error_from_the_core_exits_2(capsys, monkeypatch):
    def rejecting(*args):
        raise ConfigError("rejected inside the group core")

    monkeypatch.setattr(verify, "mul", rejecting)
    code, out, err = run(capsys, "verify-lemmas", "--budget-samples", "5")
    assert code == 2 and out == ""
    assert "configuration rejected: rejected inside the group core" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("nice", "--naturals", "0,x"),
        ("roundtrip", "--r-edges", "0-y"),
        ("qprobe", "--group", "cyclic:many"),
        ("verify-lemmas", "--naturals", "0,1,2,3,4,5"),
        ("verify-lemmas", "--budget-support", "4", "--budget-samples", "5"),
        ("ext-check", "--naturals", "0,1,2", "--r-edges", "0-3"),
        ("fragment", "--naturals", "0,1", "--pairs", "0-3"),
        ("verify-lemmas", "--budget-samples", "0"),
        ("ext-check", "--samples", "-1"),
        ("roundtrip", "--translates", "-3", "--naturals", "0,1,2", "--r-edges", "0-1"),
        ("verify-lemmas", "--translates", "0"),
    ],
)
def test_rejected_inputs_exit_2(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert "configuration rejected" in err


def test_fragment_json_with_a_float_natural_exits_2(capsys, tmp_path):
    spec = tmp_path / "float.json"
    spec.write_text('{"naturals": [0, 1.9, 2]}')
    code, out, err = run(capsys, "nice", "--json", str(spec))
    assert code == 2 and out == ""
    assert "configuration rejected" in err and "a natural must be an integer, got 1.9" in err


def test_unreadable_and_unwritable_paths_exit_2(capsys, tmp_path):
    bad = tmp_path / "binary.json"
    bad.write_bytes(b"\xff\xfe\x00")
    code, _, err = run(capsys, "nice", "--json", str(bad))
    assert code == 2 and "configuration rejected" in err
    code, _, err = run(capsys, "nice", "--out", str(tmp_path / "missing" / "report.txt"))
    assert code == 2 and "cannot write" in err


# --- the option surface -------------------------------------------------------

# one short valid invocation per subcommand, every flag left at its default
MINIMAL_ARGV = {
    "nice": ["nice"],
    "fragment": ["fragment"],
    "verify-lemmas": ["verify-lemmas", "--naturals", "0,1,2", "--budget-samples", "5", "--budget-support", "1"],
    "roundtrip": ["roundtrip", "--naturals", "0,1,2", "--r-edges", "0-1"],
    "ext-check": ["ext-check", "--samples", "5"],
    "qprobe": ["qprobe", "--group", "sym:3"],
}


def test_minimal_argv_covers_every_subcommand():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(MINIMAL_ARGV)


@pytest.mark.parametrize("command", sorted(MINIMAL_ARGV))
def test_every_declared_flag_is_read(capsys, command):
    """A flag that the command never reads is a flag that does nothing."""
    reads = set()

    class Recording(argparse.Namespace):
        def __getattribute__(self, name):
            if not name.startswith("__"):
                reads.add(name)
            return object.__getattribute__(self, name)

    args = cli.build_parser().parse_args(MINIMAL_ARGV[command], namespace=Recording())
    declared = set(vars(args)) - {"command", "func"}
    reads.clear()
    assert args.func(args) in (0, 1)
    capsys.readouterr()
    assert declared - reads == set()


def test_main_builds_the_parser_once(capsys, monkeypatch):
    builds = []
    real = argparse.ArgumentParser.__init__

    def counting(self, *args, **kwargs):
        builds.append(kwargs.get("prog"))
        real(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting)
    assert main(["qprobe", "--group", "sym:3"]) == 0
    assert main(["nice"]) == 0
    capsys.readouterr()
    assert builds.count("mekler") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ("qprobe", "--group", "sym:3", "--p", "5"),
        ("qprobe", "--group", "sym:3", "--seed", "1"),
        ("nice", "--p", "5"),
        ("nice", "--seed", "1"),
        ("fragment", "--seed", "1"),
        ("ext-check", "--format", "structured"),
    ],
)
def test_flags_a_command_does_not_read_are_refused(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 2
    assert "unrecognized arguments" in capsys.readouterr().err


@pytest.mark.parametrize("spec", ["cyclic:2049", "dihedral:20000", "sl2:13", "mekler:13"])
def test_over_cap_group_specs_are_refused_before_building(capsys, monkeypatch, spec):
    """The known orders N, 2N, Q(Q^2-1) and P^3 are checked against the cap
    before any permutation, context or table is made."""

    def unreachable(*args):
        raise AssertionError("a group past the cap was built")

    monkeypatch.setattr(cayley, "from_permutation_generators", unreachable)
    monkeypatch.setattr(cli, "GroupContext", unreachable)
    code, out, err = run(capsys, "qprobe", "--group", spec)
    assert code == 2 and out == ""
    assert "configuration rejected" in err and "exceeds the cap of 2048" in err
