"""Command line behavior: exit codes, output formats, file round trips."""

import argparse
import json
import os
import random
import subprocess
import sys

import pytest

import mekler
from mekler.cayley import format_cayley_text, symmetric_group
from mekler.cli import main
from mekler import cayley, cli, group, kernels, subgroup, verify
from mekler.graphs import ConfigError, FragmentSpec
from mekler.group import GroupContext
from mekler.interpret import build_down_fragment
from mekler.subgroup import EdgeFunctional
from mekler.verify import SuiteResult, VerifyConfig


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
    """Both dimension cross-checks fail once the support-local engine is off
    by one wherever it is called: their other side is the full-column system."""
    ctx = GroupContext(build_down_fragment([0, 1]), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    names = ("fast dimension formula matches the generic eliminator", "generic eliminator reproduces natural dimensions")

    def verdicts():
        res = SuiteResult(config=VerifyConfig())
        verify._centralizer_bound_checks(res, ctx, random.Random(0), 1)
        verify._dichotomy_checks(res, ctx, ell, 1)
        return [c.passed for c in res.checks if c.name in names]

    assert verdicts() == [True, True]
    engine = group.commuting_kernel_dim
    for module in (group, kernels, subgroup):
        monkeypatch.setattr(module, "commuting_kernel_dim", lambda *args: engine(*args) + 1)
    assert verdicts() == [False, False]


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


@pytest.mark.filterwarnings("ignore:graph is not nice")
def test_roundtrip_single_pipeline(capsys):
    code, out, _ = run(
        capsys, "roundtrip", "--naturals", "0,1", "--pipeline", "up", "--format", "structured"
    )
    assert code == 0
    payload = json.loads(out)
    assert list(payload["pipelines"]) == ["up"]


@pytest.mark.filterwarnings("ignore:graph is not nice")
def test_ext_check(capsys):
    code, out, _ = run(capsys, "ext-check", "--samples", "30")
    assert code == 0
    lines = [ln for ln in out.splitlines() if ln]
    assert lines and all(ln.startswith("PASS") for ln in lines)


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
    "verify-lemmas": ["verify-lemmas", "--naturals", "0,1", "--budget-samples", "5", "--budget-support", "1"],
    "roundtrip": ["roundtrip", "--naturals", "0,1,2", "--r-edges", "0-1"],
    "ext-check": ["ext-check", "--samples", "5"],
    "qprobe": ["qprobe", "--group", "sym:3"],
}


def test_minimal_argv_covers_every_subcommand():
    ap = cli.build_parser()
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    assert set(sub.choices) == set(MINIMAL_ARGV)


@pytest.mark.filterwarnings("ignore:graph is not nice")
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
