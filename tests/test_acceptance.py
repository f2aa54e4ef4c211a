"""Acceptance gate: one test per numbered criterion, one printed verdict each.

Every criterion is checked at its stated size and tolerance; the printed
line goes straight to the terminal so the verdicts survive output capture.
"""

import itertools
import json
import random
import time

import numpy as np
import pytest

from mekler.cayley import (
    cayley_from_context,
    covering_number,
    cyclic_group,
    root_counts,
    sl2_permutation_group,
    symmetric_group,
)
from mekler.cli import main
from mekler.extension import (
    ExtElement,
    ext_conjugate,
    ext_identity,
    ext_inv,
    ext_mul,
    in_base_by_power_formula,
)
from mekler.formulas import down_edge_formula, full_coset_oracle, up_edge_formula
from mekler.graphs import Gadget, Natural, all_pairs, build_fragment, check_nice, pair_swap_automorphism
from mekler.group import (
    GroupContext,
    InducedAutomorphism,
    commutator,
    generator,
    identity,
    inv,
    mul,
    pow_,
    random_central,
    random_element,
)
from mekler.interpret import build_down_fragment, build_up_fragment, natural_graph, roundtrip
from mekler.kernels import scan_group_bound, scan_subgroup_dichotomy
from mekler.subgroup import (
    EdgeFunctional,
    center_of_subgroup_check,
    centralizer_dim_in_subgroup,
    verify_index_p,
)
from mekler.verify import VerifyConfig, verify_lemmas

PAIRS3 = ((0, 1), (0, 2), (1, 2))

_CAPSYS = None


@pytest.fixture(autouse=True)
def _live_verdicts(capsys):
    # the verdict lines must reach the terminal even under output capture
    global _CAPSYS
    _CAPSYS = capsys
    yield
    _CAPSYS = None


def _report(num, desc, ok, detail=""):
    mark = "PASS" if ok else "FAIL"
    tail = f"  [{detail}]" if detail else ""
    line = f"ACCEPTANCE {mark}  {num:2d}. {desc}{tail}"
    if _CAPSYS is not None:
        with _CAPSYS.disabled():
            print(f"\n{line}", flush=True)
    else:
        print(line, flush=True)
    assert ok, f"acceptance criterion {num} failed: {desc}  {detail}"


@pytest.fixture(scope="module")
def frag34():
    return build_fragment(range(4), all_pairs(range(4)))


@pytest.fixture(scope="module")
def ctx34(frag34):
    return GroupContext(frag34, 3)


@pytest.fixture(scope="module")
def ctx18():
    return GroupContext(build_fragment(range(3), all_pairs(range(3))), 3)


@pytest.fixture(scope="module")
def ctx_down3():
    return GroupContext(build_down_fragment([0, 1, 2]), 3)


@pytest.fixture(scope="module")
def ctx286():
    frag = build_fragment(range(11), all_pairs(range(11)))
    return GroupContext(frag, 3)


def test_criterion_01_group_laws(frag34):
    t0 = time.perf_counter()
    samples = 10_000
    bad = 0
    for p in (3, 5):
        ctx = GroupContext(frag34, p)
        e = identity(ctx)
        rng = random.Random(p)
        for _ in range(samples):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            c = random_element(ctx, rng)
            if mul(ctx, mul(ctx, a, b), c) != mul(ctx, a, mul(ctx, b, c)):
                bad += 1
            if mul(ctx, a, inv(ctx, a)) != e:
                bad += 1
            if pow_(ctx, a, p) != e:
                bad += 1
            if commutator(ctx, commutator(ctx, a, b), c) != e:
                bad += 1
    dt = time.perf_counter() - t0
    _report(
        1,
        "group laws on 10000 samples for p=3 and p=5 (34-vertex fragment)",
        bad == 0 and dt < 30.0,
        f"{bad} failures, {dt:.1f}s",
    )


def test_criterion_02_defining_relations(ctx34):
    e = identity(ctx34)
    verts = ctx34.vertex_order
    bad = total = 0
    for i, u in enumerate(verts):
        for w in verts[i + 1 :]:
            total += 1
            commutes = commutator(ctx34, generator(ctx34, u), generator(ctx34, w)) == e
            if commutes != ctx34.graph.has_edge(u, w):
                bad += 1
    _report(2, "generators commute exactly along edges, all vertex pairs", bad == 0, f"{total} pairs")


def test_criterion_03_niceness(ctx286):
    fragments = [build_up_fragment(list(range(k))) for k in (3, 4, 5)]
    fragments.append(build_down_fragment([0, 1, 2]))
    fragments.append(build_down_fragment([0, 1, 2, 3]))
    fragments.append(ctx286.graph)
    all_nice = all(check_nice(g).is_nice for g in fragments)
    planted_triangle = build_fragment(
        [0, 1], [(0, 1)], extra_edges=[(Gadget(0, 1, "1"), Gadget(0, 1, "1.5"))]
    )
    planted_square = build_fragment(
        [0, 1], [(0, 1)], extra_edges=[(Natural(0), Gadget(0, 1, "1.25"))]
    )
    tri_rep = check_nice(planted_triangle)
    sq_rep = check_nice(planted_square)
    rejects = not tri_rep.triangle_free and not sq_rep.square_free
    _report(
        3,
        "provisioned fragments are nice; planted triangle and square rejected",
        all_nice and rejects,
        f"{len(fragments)} fragments up to 286 vertices",
    )


def test_criterion_04_dimension_bound(ctx34):
    t0 = time.perf_counter()
    scan = scan_group_bound(ctx34, max_support=3)
    dt = time.perf_counter() - t0
    nverts = len(ctx34.vertex_order)
    expected = sum(_comb(nverts, s) * (ctx34.p - 1) ** s for s in (1, 2, 3))
    _report(
        4,
        "centralizer dimension <= 5 for all small non-natural supports",
        scan.ok and scan.elements_checked == expected == 50184 and dt < 300.0,
        f"{scan.elements_checked} elements, {dt:.1f}s",
    )


def _comb(n, k):
    out = 1
    for i in range(k):
        out = out * (n - i) // (i + 1)
    return out


def _edge_grid(ctx, evaluate, rng, translates=5):
    """Exhaustive ordered natural pairs x exponents, sampled central translates."""
    nats = [n for n in ctx.graph.naturals() if n in (0, 1, 2)]
    bad = total = 0
    for r_size in range(4):
        for r_edges in itertools.combinations(PAIRS3, r_size):
            r_set = set(r_edges)
            probe = evaluate(r_edges)
            for n in nats:
                for m in nats:
                    if n == m:
                        continue
                    expected = (min(n, m), max(n, m)) in r_set
                    for gamma in (1, 2):
                        for delta in (1, 2):
                            for _ in range(translates):
                                x = mul(ctx, generator(ctx, Natural(n), gamma), random_central(ctx, rng))
                                y = mul(ctx, generator(ctx, Natural(m), delta), random_central(ctx, rng))
                                total += 1
                                if bool(probe(x, y)) != expected:
                                    bad += 1
    return bad, total


def test_criterion_05_up_formula_grid(ctx18):
    rng = random.Random(5)

    def make(r_edges):
        aut = InducedAutomorphism(ctx18, pair_swap_automorphism(ctx18.graph, r_edges))
        return lambda x, y: up_edge_formula(ctx18, aut, x, y)

    bad, total = _edge_grid(ctx18, make, rng)

    sub = GroupContext(build_fragment([0, 1], [(0, 1)]), 3)
    x = generator(sub, Natural(0))
    y = generator(sub, Natural(1))
    oracle_ok = True
    for r_edges in ((), ((0, 1),)):
        aut = InducedAutomorphism(sub, pair_swap_automorphism(sub.graph, r_edges))
        fast = bool(up_edge_formula(sub, aut, x, y))
        slow = bool(full_coset_oracle(sub, "up", x, y, aut=aut, budget=3**12))
        if fast != slow or fast != bool(r_edges):
            oracle_ok = False
    _report(
        5,
        "twisted-pair edge formula matches all 8 encoded edge sets",
        bad == 0 and oracle_ok,
        f"{total} grid queries; full-coset oracle agreed on the 1-gadget fragment",
    )


def test_criterion_06_extension(ctx18):
    aut = InducedAutomorphism(ctx18, pair_swap_automorphism(ctx18.graph, [(0, 1)]))
    rng = random.Random(6)
    e2 = ext_identity(ctx18)
    bad_axiom = 0
    for _ in range(10_000):
        a = ExtElement(random_element(ctx18, rng), rng.randrange(2))
        b = ExtElement(random_element(ctx18, rng), rng.randrange(2))
        c = ExtElement(random_element(ctx18, rng), rng.randrange(2))
        left = ext_mul(ctx18, aut, ext_mul(ctx18, aut, a, b), c)
        right = ext_mul(ctx18, aut, a, ext_mul(ctx18, aut, b, c))
        if left != right or ext_mul(ctx18, aut, a, ext_inv(ctx18, aut, a)) != e2:
            bad_axiom += 1
    bad_base = 0
    for _ in range(10_000):
        a = ExtElement(random_element(ctx18, rng), rng.randrange(2))
        if in_base_by_power_formula(ctx18, aut, a) != (a.eps == 0):
            bad_base += 1
    t = ExtElement(identity(ctx18), 1)
    bad_conj = 0
    for _ in range(1_000):
        h = random_element(ctx18, rng)
        if ext_conjugate(ctx18, aut, t, ExtElement(h, 0)) != ExtElement(aut.apply(h), 0):
            bad_conj += 1
    _report(
        6,
        "extension axioms, base membership by p-th power, twist conjugation",
        bad_axiom == 0 and bad_base == 0 and bad_conj == 0,
        "10000 triples, 10000 membership samples, 1000 conjugations",
    )


def test_criterion_07_edge_functional(ctx_down3):
    ok = True
    details = []
    for r_edges in (((0, 1),), ((0, 1), (1, 2))):
        ell = EdgeFunctional.from_edges(r_edges)
        rep = verify_index_p(ctx_down3, ell)
        ok &= bool(rep)
        # homomorphism and commutator-kill, exhaustive on generator pairs
        verts = ctx_down3.vertex_order
        for i, u in enumerate(verts):
            gu = generator(ctx_down3, u)
            for w in verts[i + 1 :]:
                gw = generator(ctx_down3, w)
                prod = ell.value_on(ctx_down3, mul(ctx_down3, gu, gw))
                if prod != (ell.value(u) + ell.value(w)) % 3:
                    ok = False
                if ell.value_on(ctx_down3, commutator(ctx_down3, gu, gw)) != 0:
                    ok = False
        cres = center_of_subgroup_check(ctx_down3, ell)
        ok &= cres.ok
        details.append(f"R={list(r_edges)}: {cres.witnesses} witnesses")
    # a gadget-free fragment has no value-1 vertex; the report must say so
    flat = GroupContext(build_fragment([0, 1, 2]), 3)
    degenerate = verify_index_p(flat, EdgeFunctional.from_edges(()))
    ok &= (not degenerate) and degenerate.degenerate
    _report(
        7,
        "edge functional: surjective homomorphism, kernel center, index p",
        ok,
        "; ".join(details) + "; degenerate fragment reported as index 1",
    )


def test_criterion_08_down_formula_grid(ctx_down3):
    rng = random.Random(8)

    def make(r_edges):
        ell = EdgeFunctional.from_edges(r_edges)
        return lambda x, y: down_edge_formula(ctx_down3, ell, x, y)

    bad, total = _edge_grid(ctx_down3, make, rng)

    sub = GroupContext(build_fragment([0, 1], [(0, 1)]), 3)
    x = generator(sub, Natural(0))
    y = generator(sub, Natural(1))
    oracle_ok = True
    for r_edges in ((), ((0, 1),)):
        ell = EdgeFunctional.from_edges(r_edges)
        fast = bool(down_edge_formula(sub, ell, x, y))
        slow = bool(full_coset_oracle(sub, "down", x, y, ell=ell, budget=3**12))
        if fast != slow or fast != bool(r_edges):
            oracle_ok = False
    _report(
        8,
        "kernel-intersection edge formula matches all 8 encoded edge sets",
        bad == 0 and oracle_ok,
        f"{total} grid queries; full-coset oracle agreed on the 1-gadget fragment",
    )


def test_criterion_09_dichotomy(ctx286):
    ell = EdgeFunctional.from_edges([(0, 1), (1, 2)])
    t0 = time.perf_counter()
    scan = scan_subgroup_dichotomy(ctx286, ell, max_support=3)
    dt = time.perf_counter() - t0
    nverts = len(ctx286.vertex_order)
    expected_elements = sum(_comb(nverts, s) * 2**s for s in (1, 2, 3))
    # member count has a closed form: exponent patterns whose weighted
    # value sum vanishes, split by how many support vertices carry value 0
    zeros = sum(1 for v in ctx286.vertex_order if ell.value(v) == 0)
    ones = nverts - zeros
    expected_members = 0
    for s in (1, 2, 3):
        for j in range(s + 1):
            patterns = sum(
                1
                for exps in itertools.product((1, 2), repeat=s)
                if sum(exps[j:]) % 3 == 0
            )
            expected_members += _comb(zeros, j) * _comb(ones, s - j) * patterns
    counts_ok = (
        scan.elements_checked == expected_elements == 31_028_712
        and scan.members_checked == expected_members == 8_715_330
    )
    naturals_high = all(
        centralizer_dim_in_subgroup(ctx286, ell, generator(ctx286, Natural(n), a)) >= 6
        for n in range(11)
        for a in (1, 2)
    )
    _report(
        9,
        "subgroup dimension dichotomy on the 286-vertex provisioned fragment",
        scan.ok and counts_ok and naturals_high and dt < 600.0,
        f"{scan.members_checked} members of {scan.elements_checked} elements, {dt:.1f}s",
    )


def test_criterion_10_roundtrip_all_4_vertex_graphs():
    t0 = time.perf_counter()
    labels = [0, 1, 2, 3]
    bad = []
    for r_size in range(7):
        for edges in itertools.combinations(all_pairs(labels), r_size):
            gamma = natural_graph(labels, edges)
            result = roundtrip(gamma, p=3, pipeline="both", seed=0, translates=2)
            if not result.ok:
                bad.append(edges)
    dt = time.perf_counter() - t0
    _report(
        10,
        "round trip recovers all 64 labeled 4-vertex graphs via both pipelines",
        not bad and dt < 1800.0,
        f"64 graphs, {dt:.1f}s",
    )


def test_criterion_11_finite_probes():
    s3 = symmetric_group(3)
    brute_roots = sum(1 for y in range(6) if s3.mul(y, y) == s3.identity)
    roots_ok = brute_roots == 4 and root_counts(s3, 2)[s3.identity] == 4

    rotations = np.flatnonzero(root_counts(s3, 2)).tolist()
    subgroup_ok = len(rotations) == 3 and all(
        s3.mul(a, b) in rotations for a in rotations for b in rotations
    )
    k, cert = covering_number(s3, rotations)
    masks = sorted(
        {sum(1 << s3.mul(x, s) for s in rotations) for x in range(6)}
    )
    no_single = all(m != (1 << 6) - 1 for m in masks)
    cover_ok = k == 2 and cert.exact and cert.verify(s3, rotations) and no_single

    g27 = cayley_from_context(
        GroupContext(build_fragment([0, 1]), 3)
    )
    unique_ok = (
        all((root_counts(g27, n) <= 1).all() for n in (2, 4, 5))
        and not (root_counts(cyclic_group(2), 2) <= 1).all()
    )

    sl2_ok = True
    for q, expected in ((3, 3), (5, 4)):
        g = sl2_permutation_group(q)
        img = np.flatnonzero(root_counts(g, 2)).tolist()
        kq, cq = covering_number(g, img)
        if kq != expected or not cq.exact or not cq.verify(g, img):
            sl2_ok = False
    _report(
        11,
        "finite probes: square roots, unique roots, translate covers with certificates",
        roots_ok and subgroup_ok and cover_ok and unique_ok and sl2_ok,
        "S3 roots(e,2)=4; cover=2; 27-element fragment unique roots at n=2,4,5; "
        "SL2(F3) cover 3, SL2(F5) cover 4",
    )


def test_criterion_12_determinism(capsys):
    cfg = VerifyConfig(samples=20)
    first = verify_lemmas(cfg)
    second = verify_lemmas(cfg)
    api_ok = (
        first.ok
        and first.render_text() == second.render_text()
        and first.render_json() == second.render_json()
    )
    argv = ["verify-lemmas", "--budget-samples", "20", "--format", "structured"]
    code1 = main(argv)
    out1 = capsys.readouterr().out
    code2 = main(argv)
    out2 = capsys.readouterr().out
    cli_ok = code1 == code2 == 0 and out1 == out2 and json.loads(out1)["ok"]
    _report(
        12,
        "same-seed verification reports are byte-identical",
        api_ok and cli_ok,
        "text, structured, and command line outputs compared",
    )
