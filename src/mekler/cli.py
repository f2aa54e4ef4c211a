"""Command line front end.

Subcommands:
  nice           niceness report for a host fragment or a fragment JSON file
  fragment       build a fragment, describe it, optionally write it as JSON
  verify-lemmas  run the full verification suite over a configured fragment
  roundtrip      encode a graph, recover it through group queries, compare
  ext-check      index-2 extension axioms and the base-membership formula
  qprobe         root-counting and coset-cover probes on a finite group

Exit codes: 0 no check failed, 1 a verification failed, 2 the
configuration itself was rejected (ConfigError: bad prime or unparseable
input; AdequacyError; BudgetError).  Any other exception is a fault and
propagates.  A check skipped for its budget prints SKIP and does not fail.
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys

import numpy as np

from .cayley import (
    CoverReport,
    FiniteGroup,
    check_order,
    cayley_from_context,
    cyclic_group,
    dihedral_group,
    parse_cayley_text,
    parse_permutation_text,
    root_counts,
    sl2_permutation_group,
    symmetric_group,
)
from .formulas import BudgetError
from .graphs import ConfigError, FragmentSpec, all_pairs, build_fragment, check_nice, pair_swap_automorphism
from .group import GroupContext, InducedAutomorphism
from .interpret import natural_graph, roundtrip
from .subgroup import AdequacyError
from .verify import SuiteResult, VerifyConfig, _extension_checks, verify_lemmas


def _int(text: str) -> int:
    try:
        return int(text)
    except ValueError as err:
        raise ConfigError(f"expected an integer, got {text.strip()!r}") from err


def _read(path: str) -> str:
    try:
        with open(path) as fh:
            return fh.read()
    except (OSError, UnicodeDecodeError) as err:
        raise ConfigError(f"cannot read {path}: {err}") from err


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text)
    except OSError as err:
        raise ConfigError(f"cannot write {path}: {err}") from err


def _parse_naturals(text: str) -> list[int]:
    text = text.strip()
    if not text:
        raise ConfigError("empty naturals list")
    if "," not in text:
        count = _int(text)
        if count < 1:
            raise ConfigError("natural count must be positive")
        return list(range(count))
    return sorted({_int(tok) for tok in text.split(",") if tok.strip()})


def _parse_edges(text: str) -> list[tuple[int, int]]:
    text = (text or "").strip()
    if not text:
        return []
    out = []
    for tok in text.split(","):
        tok = tok.strip()
        if not tok:
            continue
        a, _, b = tok.partition("-")
        out.append((_int(a), _int(b)))
    return out


def _naturals_and_pairs(args) -> tuple[list[int], list[tuple[int, int]]]:
    """The naturals and the gadget pairs, each pair as (min, max) and
    listed once, in order of first mention."""
    naturals = _parse_naturals(args.naturals)
    if args.pairs == "all":
        return naturals, list(all_pairs(naturals))
    if args.pairs == "none":
        return naturals, []
    return naturals, list(dict.fromkeys((min(a, b), max(a, b)) for a, b in _parse_edges(args.pairs)))


def _load_graph(args):
    if args.json:
        return FragmentSpec.from_json(_read(args.json)).build()
    return build_fragment(*_naturals_and_pairs(args))


def _emit(args, text: str) -> None:
    sys.stdout.write(text)
    if args.out:
        _write(args.out, text)


def cmd_nice(args) -> int:
    g = _load_graph(args)
    rep = check_nice(g)
    if args.format == "structured":
        payload = {
            "vertices": len(g),
            "edges": len(g.edges),
            "is_nice": rep.is_nice,
            "has_two_vertices": rep.has_two_vertices,
            "triangle_free": rep.triangle_free,
            "square_free": rep.square_free,
            "separation_ok": rep.separation_ok,
        }
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        _emit(args, rep.summary() + "\n")
    return 0 if rep.is_nice else 1


def cmd_fragment(args) -> int:
    naturals, pairs = _naturals_and_pairs(args)
    g = build_fragment(naturals, pairs)
    rep = check_nice(g)
    spec = FragmentSpec(
        naturals=tuple(naturals), gadget_pairs=tuple(sorted(pairs)), extra_edges=(), p=args.p
    )
    if args.format == "structured":
        payload = {
            "naturals": list(naturals),
            "gadget_pairs": [list(pr) for pr in sorted(pairs)],
            "vertices": len(g),
            "edges": len(g.edges),
            "is_nice": rep.is_nice,
        }
        text = json.dumps(payload, indent=2, sort_keys=True) + "\n"
    else:
        lines = [
            f"fragment: {len(naturals)} naturals, {len(pairs)} gadgeted pairs",
            f"vertices {len(g)}, edges {len(g.edges)}",
            rep.summary(),
        ]
        text = "\n".join(lines) + "\n"
    sys.stdout.write(text)
    if args.out:
        _write(args.out, spec.to_json())
        sys.stdout.write(f"fragment JSON written to {args.out}\n")
    return 0


def cmd_verify(args) -> int:
    cfg = VerifyConfig(
        p=args.p,
        seed=args.seed,
        naturals=tuple(_parse_naturals(args.naturals)),
        r_edges=tuple(_parse_edges(args.r_edges)),
        samples=args.budget_samples,
        support_budget=args.budget_support,
        oracle_budget=args.budget_oracle,
        translates=args.translates,
    )
    res = verify_lemmas(cfg)
    _emit(args, res.render_json() if args.format == "structured" else res.render_text())
    return 0 if res.ok else 1


def cmd_roundtrip(args) -> int:
    naturals = _parse_naturals(args.naturals)
    edges = _parse_edges(args.r_edges)
    gamma = natural_graph(naturals, edges)
    result = roundtrip(gamma, p=args.p, pipeline=args.pipeline, seed=args.seed, translates=args.translates)
    if args.format == "structured":
        payload = {
            "input": {"naturals": list(result.input_labels), "edges": sorted(list(e) for e in result.input_edges)},
            "ok": result.ok,
            "pipelines": {},
        }
        for rec in (result.up, result.down):
            if rec is not None:
                entry = {"labels": list(rec.labels), "edges": sorted(list(e) for e in rec.edges)}
                if rec.pipeline in result.not_nice:
                    entry["nice"] = False
                payload["pipelines"][rec.pipeline] = entry
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [result.summary()]
        for rec in (result.up, result.down):
            if rec is not None:
                lines.append(rec.summary())
        _emit(args, "\n".join(lines) + "\n")
    return 0 if result.ok else 1


def cmd_ext_check(args) -> int:
    naturals = _parse_naturals(args.naturals)
    edges = _parse_edges(args.r_edges)
    cfg = VerifyConfig(p=args.p, seed=args.seed, naturals=tuple(naturals), r_edges=tuple(edges), samples=args.samples)
    res = SuiteResult(config=cfg.normalized())
    frag = build_fragment(naturals, all_pairs(naturals))
    ctx = GroupContext(frag, args.p)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(frag, edges))
    _extension_checks(res, ctx, aut, random.Random(args.seed), args.samples)
    _emit(args, "\n".join(c.line() for c in res.checks) + "\n")
    return 0 if res.ok else 1


def _load_probe_group(spec: str) -> FiniteGroup:
    kind, _, arg = spec.partition(":")
    kind = kind.strip().lower()
    if kind == "sl2":
        return sl2_permutation_group(_int(arg))
    if kind == "cyclic":
        return cyclic_group(_int(arg))
    if kind == "sym":
        return symmetric_group(_int(arg))
    if kind == "dihedral":
        return dihedral_group(_int(arg))
    if kind == "mekler":
        p = _int(arg)
        check_order(p**3)  # two generators and their commutator, before p is tested for primality
        return cayley_from_context(GroupContext(build_fragment([0, 1]), p))
    if kind == "cayley":
        return parse_cayley_text(_read(arg))
    if kind == "perm":
        return parse_permutation_text(_read(arg))
    raise ConfigError(f"unknown group spec {spec!r}; use sl2:Q, cyclic:N, sym:N, dihedral:N, mekler:P, cayley:PATH or perm:PATH")


def cmd_qprobe(args) -> int:
    if args.m is not None and args.m < 1:
        raise ConfigError(f"root-count bound must be at least 1, got {args.m}")
    g = _load_probe_group(args.group)
    n = args.n
    counts = root_counts(g, n)  # the one power map every probe below reads
    image = np.flatnonzero(counts)
    unique = bool((counts <= 1).all())
    roots_e = int(counts[g.identity])
    rep = CoverReport.of_image(g, n, image)
    bounded = None if args.m is None else int(((counts > 0) & (counts <= args.m)).sum())
    if args.format == "structured":
        payload = {
            "group": args.group,
            "order": len(g),
            "exponent": n,
            "power_image_size": len(image),
            "identity_root_count": roots_e,
            "unique_roots": unique,
            "cover_size": rep.covering_size,
            "cover_reps": list(rep.reps),
            "cover_exact": rep.exact,
        }
        if rep.budget_hit:
            payload["cover_node_budget_hit"] = True
        if bounded is not None:
            payload["bounded_root_set_size"] = bounded
        _emit(args, json.dumps(payload, indent=2, sort_keys=True) + "\n")
    else:
        lines = [
            f"group {args.group}: order {len(g)}",
            f"power map y -> y^{n}: image size {len(image)}, "
            f"identity has {roots_e} roots, unique roots: {'yes' if unique else 'no'}",
        ]
        if bounded is not None:
            lines.append(f"elements with 1..{args.m} roots: {bounded}")
        lines.append(rep.summary())
        _emit(args, "\n".join(lines) + "\n")
    return 0


def _add_naturals_flag(sp, default):
    sp.add_argument("--naturals", default=default, help="comma list of naturals, or a bare count")


def _add_fragment_flags(sp):
    _add_naturals_flag(sp, "0,1,2")
    sp.add_argument("--pairs", default="all", help="'all', 'none', or a comma list like 0-1,1-2")


def _add_group_flags(sp, seed=True):
    sp.add_argument("--p", type=int, default=VerifyConfig.p, help="odd prime exponent (default %(default)s)")
    if seed:
        sp.add_argument("--seed", type=int, default=VerifyConfig.seed)


def _add_report_flags(sp, structured=True):
    if structured:
        sp.add_argument("--format", choices=("text", "structured"), default="text")
    sp.add_argument("--out", default=None, help="also write the report to this file")


@functools.cache  # built once per process
def build_parser() -> argparse.ArgumentParser:
    """Each subcommand declares exactly the flags its command reads; the
    numeric defaults are VerifyConfig's."""
    ap = argparse.ArgumentParser(prog="mekler", description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    sub = ap.add_subparsers(dest="command", required=True)

    def command(name, func, help):
        # no prefix matching: nice --p would otherwise be read as nice --pairs
        sp = sub.add_parser(name, help=help, allow_abbrev=False)
        sp.set_defaults(func=func)
        return sp

    sp = command("nice", cmd_nice, "check the niceness conditions")
    _add_fragment_flags(sp)
    sp.add_argument("--json", default=None, help="fragment JSON file (overrides --naturals/--pairs)")
    _add_report_flags(sp)

    sp = command("fragment", cmd_fragment, "build and describe a host fragment")
    _add_fragment_flags(sp)
    _add_group_flags(sp, seed=False)
    _add_report_flags(sp)

    sp = command("verify-lemmas", cmd_verify, "run the verification suites")
    _add_naturals_flag(sp, "0,1,2")
    sp.add_argument("--r-edges", default="0-1", help="encoded edge set, comma list like 0-1,1-2")
    sp.add_argument("--budget-samples", type=int, default=VerifyConfig.samples)
    sp.add_argument("--budget-support", type=int, default=VerifyConfig.support_budget)
    sp.add_argument("--budget-oracle", type=int, default=VerifyConfig.oracle_budget)
    sp.add_argument("--translates", type=int, default=VerifyConfig.translates)
    _add_group_flags(sp)
    _add_report_flags(sp)

    sp = command("roundtrip", cmd_roundtrip, "encode a graph and recover it from the group")
    _add_naturals_flag(sp, "0,1,2,3")
    sp.add_argument("--r-edges", default="", help="graph edges, comma list like 0-1,1-2")
    sp.add_argument("--pipeline", choices=("up", "down", "both"), default="both")
    sp.add_argument("--translates", type=int, default=VerifyConfig.translates)
    _add_group_flags(sp)
    _add_report_flags(sp)

    sp = command("ext-check", cmd_ext_check, "index-2 extension axioms and membership formula")
    _add_naturals_flag(sp, "0,1")
    sp.add_argument("--r-edges", default="0-1")
    sp.add_argument("--samples", type=int, default=VerifyConfig.samples)
    _add_group_flags(sp)
    _add_report_flags(sp, structured=False)  # the check lines are the only report

    sp = command("qprobe", cmd_qprobe, "finite root-counting and cover probes")
    sp.add_argument("--group", required=True, help="sl2:Q | cyclic:N | sym:N | dihedral:N | mekler:P | cayley:PATH | perm:PATH")
    sp.add_argument("--n", type=int, default=2, help="power exponent")
    sp.add_argument("--m", type=int, default=None, help="root-count bound for the bounded root set")
    _add_report_flags(sp)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ConfigError, AdequacyError, BudgetError) as err:
        print(f"configuration rejected: {err}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
