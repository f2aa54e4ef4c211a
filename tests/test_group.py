"""Normal-form arithmetic against an independent word-collection oracle.

oracle_mul below multiplies by concatenating generator words and bubble
sorting them back into vertex order, emitting one commutator letter per
non-commuting swap.  It shares no code with the cocycle in mul.
"""

import itertools
import random

import pytest

from mekler.fplinear import FpVector, kernel_basis, kernel_dim, rref_indexed
from mekler.graphs import Gadget, Graph, Natural, all_pairs, build_fragment, pair_swap_automorphism
from mekler.group import (
    GroupContext,
    GroupElement,
    InducedAutomorphism,
    _below,
    _commuting_system,
    central_generator,
    centralizer_dim_mod_center,
    commutation_matrix,
    commutator,
    commutator_vector,
    commuting_kernel_basis,
    commuting_kernel_dim,
    format_element,
    generator,
    identity,
    inv,
    is_central,
    is_natural_vertex_like,
    is_vertex_like,
    mul,
    parse_element,
    pow_,
    random_central,
    random_element,
    vertex_like_parts,
)
from mekler.interpret import build_down_fragment, build_up_fragment
from mekler.subgroup import EdgeFunctional


def ctx7(p=3):
    return GroupContext(build_fragment([0, 1], [(0, 1)]), p)


def ctx18(p=3):
    return GroupContext(build_fragment([0, 1, 2], all_pairs([0, 1, 2])), p)


def oracle_mul(ctx, x, y):
    p = ctx.p
    word = []
    for src in (x, y):
        for v in sorted(src.gen.support()):
            word.append([v, src.gen.get(v)])
    cen = {}
    for src in (x, y):
        for pr, c in src.cen.items():
            cen[pr] = (cen.get(pr, 0) + c) % p
    swapped = True
    while swapped:
        swapped = False
        for i in range(len(word) - 1):
            (s, a), (t, b) = word[i], word[i + 1]
            if t < s:
                if ctx.nonadjacent(s, t):
                    # x_s^a x_t^b = x_t^b x_s^a [x_s, x_t]^(a b)
                    pr = t * ctx.n + s
                    cen[pr] = (cen.get(pr, 0) + a * b) % p
                word[i], word[i + 1] = [t, b], [s, a]
                swapped = True
    gen = {}
    for v, e in word:
        gen[v] = (gen.get(v, 0) + e) % p
    return GroupElement(
        FpVector(p, {v: e for v, e in gen.items() if e}),
        FpVector(p, {k: c for k, c in cen.items() if c}),
    )


def oracle_inv(ctx, x):
    # (l1 ... lk z)^-1 = z^-1 lk^-1 ... l1^-1, then collect
    letters = [(v, -x.gen.get(v)) for v in sorted(x.gen.support())]
    acc = GroupElement(FpVector.zero(ctx.p), -x.cen)
    for v, e in reversed(letters):
        acc = oracle_mul(ctx, acc, GroupElement(FpVector(ctx.p, {v: e}), FpVector.zero(ctx.p)))
    return acc


def test_mul_matches_word_collection_oracle():
    for p in (3, 5):
        ctx = ctx18(p)
        rng = random.Random(p)
        for _ in range(60):
            a = random_element(ctx, rng)
            b = random_element(ctx, rng)
            assert mul(ctx, a, b) == oracle_mul(ctx, a, b)


def test_inv_and_pow_match_oracle():
    ctx = ctx18(3)
    rng = random.Random(11)
    for _ in range(25):
        a = random_element(ctx, rng)
        assert inv(ctx, a) == oracle_inv(ctx, a)
        assert mul(ctx, a, inv(ctx, a)) == identity(ctx)
        assert mul(ctx, inv(ctx, a), a) == identity(ctx)
        acc = identity(ctx)
        for k in range(7):
            assert pow_(ctx, a, k) == acc
            assert pow_(ctx, a, -k) == inv(ctx, acc)
            acc = mul(ctx, acc, a)


def test_exponent_is_p():
    for p in (3, 5):
        ctx = ctx18(p)
        rng = random.Random(p + 100)
        for _ in range(20):
            a = random_element(ctx, rng)
            assert pow_(ctx, a, p) == identity(ctx)


def test_group_laws_sampled():
    ctx = ctx18(3)
    rng = random.Random(2)
    e = identity(ctx)
    for _ in range(40):
        a, b, c = (random_element(ctx, rng) for _ in range(3))
        assert mul(ctx, mul(ctx, a, b), c) == mul(ctx, a, mul(ctx, b, c))
        assert mul(ctx, a, e) == a
        assert mul(ctx, e, a) == a


def test_defining_relations_frozen():
    ctx = ctx7()
    n0, n1 = Natural(0), Natural(1)
    x0, x1 = generator(ctx, n0), generator(ctx, n1)
    # z_(u,w) is the commutator of the later generator with the earlier:
    # [x1, x0] = z, so [x0, x1] = z^(p-1) and x1 x0 = x0 x1 z
    assert commutator(ctx, x1, x0).cen.get(ctx.central_pair(n0, n1)) == 1
    assert commutator(ctx, x0, x1).cen.get(ctx.central_pair(n0, n1)) == ctx.p - 1
    assert mul(ctx, x1, x0).cen.get(ctx.central_pair(n0, n1)) == 1
    assert mul(ctx, x0, x1).cen.is_zero()
    # adjacent generators commute outright
    hub = Gadget(0, 1, "0")
    assert commutator(ctx, x0, generator(ctx, hub)) == identity(ctx)
    assert mul(ctx, generator(ctx, hub), x0) == mul(ctx, x0, generator(ctx, hub))


def test_commutator_agrees_with_definition():
    ctx = ctx18(3)
    rng = random.Random(3)
    for _ in range(30):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        direct = mul(ctx, mul(ctx, inv(ctx, a), inv(ctx, b)), mul(ctx, a, b))
        assert commutator(ctx, a, b) == direct
        assert is_central(direct)
        # alternating bilinear form on cosets
        assert commutator_vector(ctx, a.gen, a.gen).is_zero()
        assert commutator_vector(ctx, a.gen, b.gen) == -commutator_vector(ctx, b.gen, a.gen)


def brute_centralizer_count(ctx, a):
    verts = ctx.vertex_order
    count = 0
    for exps in itertools.product(range(ctx.p), repeat=len(verts)):
        bgen = FpVector(ctx.p, {i: e for i, e in enumerate(exps) if e})
        if commutator_vector(ctx, a.gen, bgen).is_zero():
            count += 1
    return count


def test_centralizer_dim_against_brute_force():
    ctx = ctx7()
    rng = random.Random(4)
    cases = [generator(ctx, v) for v in ctx.vertex_order]
    cases += [random_element(ctx, rng, max_support=3) for _ in range(6)]
    for a in cases:
        dim = centralizer_dim_mod_center(ctx, a)
        if is_central(a):
            assert dim == len(ctx)
        assert brute_centralizer_count(ctx, a) == ctx.p ** dim


def test_centralizer_dims_by_vertex_kind():
    # in the two-natural fragment: dim = 1 + degree for a single generator
    ctx = ctx7()
    assert centralizer_dim_mod_center(ctx, generator(ctx, Natural(0))) == 2
    assert centralizer_dim_mod_center(ctx, generator(ctx, Gadget(0, 1, "0"))) == 5
    for lev in ("1", "1.25", "1.5", "1.75"):
        assert centralizer_dim_mod_center(ctx, generator(ctx, Gadget(0, 1, lev))) == 3
    assert centralizer_dim_mod_center(ctx, identity(ctx)) == 7
    z = central_generator(ctx, Natural(0), Natural(1))
    assert centralizer_dim_mod_center(ctx, z) == 7


@pytest.mark.parametrize("r_edges", [[], [(0, 1)]], ids=["R-empty", "R-01"])
def test_support_local_engine_matches_full_columns(r_edges):
    """Every coset of the 7-vertex fragment, with and without the
    functional, and every pair of cosets of support <= 2 down to the
    kernel basis, against the commuting system over all |V| columns.  For
    the basis those columns are numbered in descending vertex order,
    vertex v as column n-1-v, so that kernel_basis, 1 at each vector's
    highest column, gives the reduced echelon basis over the vertex order."""
    ctx = ctx7()
    ell = EdgeFunctional.from_edges(r_edges)
    verts = ctx.vertex_order
    cosets = [
        FpVector(ctx.p, {i: c for i, c in enumerate(pattern) if c})
        for pattern in itertools.product(range(ctx.p), repeat=len(verts))
    ]
    assert len(cosets) == 3**7
    rows = {agen: commutation_matrix(ctx, agen) for agen in cosets}
    n, p = len(verts), ctx.p

    def full_columns(family, functional=None):
        extra = [functional.row(ctx)] if functional else []
        return [r for agen in family for r in rows[agen]] + extra

    def flip(vec):
        return {n - 1 - c: v for c, v in vec.items()}

    for agen in cosets:
        assert commuting_kernel_dim(ctx, [agen]) == kernel_dim(full_columns([agen]), n, p)
        assert commuting_kernel_dim(ctx, [agen], ell) == kernel_dim(full_columns([agen], ell), n, p)
    small = [agen for agen in cosets if len(agen) <= 2]
    assert len(small) == 1 + 7 * 2 + 21 * 4
    for xgen in small:
        for ygen in small:
            basis = commuting_kernel_basis(ctx, [xgen, ygen], ell)
            oracle = kernel_basis([flip(r) for r in full_columns([xgen, ygen], ell)], n, p)
            assert basis == [FpVector(p, flip(v)) for v in reversed(oracle)]


@pytest.mark.parametrize("r_edges", [[(0, 1)], [(0, 1), (1, 2), (2, 3)]], ids=["R-01", "R-path"])
def test_center_check_system_is_linear_in_vertices(r_edges):
    """Structure, not timing: every member of the centre check's witness
    family holds the pivot vertex, so without the forced-column rule each
    non-neighbour of the pivot would get its single-entry row once per
    witness, quadratically many in |V|.  With it, the 181-vertex system has
    at most one single-entry row per column and under 2 |V| rows in all.
    The rows are final: keyed by local columns, numbered in descending
    vertex order, and read by the eliminator as they are."""
    ctx = GroupContext(build_down_fragment([0, 1, 2, 3]), 3)
    assert ctx.n == 181
    ell = EdgeFunctional.from_edges(r_edges)
    witnesses = commuting_kernel_basis(ctx, [], ell)
    assert len(witnesses) == ctx.n - 1
    cols, rows = _commuting_system(ctx, witnesses, ell)
    assert cols == sorted(cols, reverse=True) and len(set(cols)) == len(cols)
    assert all(0 <= k < len(cols) for r in rows for k in r)
    singles = [next(iter(r)) for r in rows if len(r) == 1]
    assert len(singles) == len(set(singles)) <= ctx.n
    assert len(rows) < 2 * ctx.n
    assert len(cols) - len(rref_indexed(rows, ctx.p)) == 0  # the centre check passes


def test_the_engine_refuses_a_coset_of_another_modulus():
    ctx = ctx7()
    i, j = ctx.vindex[Natural(0)], ctx.vindex[Natural(1)]
    for family in ([FpVector(5, {i: 3, j: 1})], [FpVector(3, {i: 1}), FpVector(5, {i: 3, j: 2})]):
        with pytest.raises(ValueError, match="modulus mismatch: 5 vs 3"):
            commuting_kernel_dim(ctx, family)
        with pytest.raises(ValueError, match="modulus mismatch: 5 vs 3"):
            commuting_kernel_basis(ctx, family)
        with pytest.raises(ValueError, match="modulus mismatch: 5 vs 3"):
            commuting_kernel_basis(ctx, family, EdgeFunctional.from_edges([(0, 1)]))


def test_elements_are_immutable_values():
    ctx = ctx18()
    a = mul(ctx, generator(ctx, Natural(0), 2), central_generator(ctx, Natural(0), Natural(1)))
    b = GroupElement(FpVector(3, dict(a.gen.items())), FpVector(3, dict(a.cen.items())))
    assert a == b and a is not b and hash(a) == hash(b)
    assert len({a, b, identity(ctx)}) == 2
    assert a != generator(ctx, Natural(0), 2) and a != (a.gen, a.cen)
    with pytest.raises(AttributeError):
        a.gen = FpVector.zero(3)
    with pytest.raises(AttributeError):
        a.extra = 1
    with pytest.raises(AttributeError):
        del a.cen
    assert a == b


def test_modulus_mismatch_raises():
    ctx = ctx18()
    with pytest.raises(ValueError, match="disagree on modulus"):
        GroupElement(FpVector(3, {0: 1}), FpVector.zero(5))
    foreign = GroupElement(FpVector(5, {0: 4, 1: 3}), FpVector.zero(5))
    x = generator(ctx, Natural(0))
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(ctx.graph, [(0, 1)]))
    for bad in (
        lambda: mul(ctx, x, foreign),
        lambda: mul(ctx, foreign, x),
        lambda: inv(ctx, foreign),
        lambda: aut.apply(foreign),
        lambda: aut.apply_coset(foreign.gen),
        lambda: aut.moves_coset(foreign.gen),
        lambda: commutator_vector(ctx, x.gen, foreign.gen),
        lambda: commutator_vector(ctx, foreign.gen, x.gen),
        lambda: commutator(ctx, foreign, x),
    ):
        with pytest.raises(ValueError, match="modulus mismatch"):
            bad()


def test_vertex_like_predicates():
    ctx = ctx7()
    a = mul(ctx, generator(ctx, Natural(1), 2), central_generator(ctx, Natural(0), Natural(1)))
    assert is_vertex_like(a)
    assert vertex_like_parts(a) == (ctx.vindex[Natural(1)], 2)
    assert is_natural_vertex_like(ctx, a)
    pent = generator(ctx, Gadget(0, 1, "1.5"))
    assert is_vertex_like(pent) and not is_natural_vertex_like(ctx, pent)
    two = mul(ctx, generator(ctx, Natural(0)), generator(ctx, Natural(1)))
    assert not is_vertex_like(two)
    with pytest.raises(ValueError):
        vertex_like_parts(two)
    assert not is_vertex_like(identity(ctx))


def test_central_generator_rejects_adjacent_pair():
    ctx = ctx7()
    with pytest.raises(ValueError):
        central_generator(ctx, Natural(0), Gadget(0, 1, "0"))
    # argument order is normalized
    assert central_generator(ctx, Natural(1), Natural(0)) == central_generator(ctx, Natural(0), Natural(1))


def test_format_parse_round_trip():
    ctx = ctx18(5)
    rng = random.Random(6)
    assert format_element(ctx, identity(ctx)) == "e"
    assert parse_element(ctx, "e") == identity(ctx)
    for _ in range(40):
        a = random_element(ctx, rng)
        assert parse_element(ctx, format_element(ctx, a)) == a
    text = "x[n:0]^2 * z{(n:0,n:1):2}"
    assert format_element(ctx, parse_element(ctx, text)) == text
    # gadget encodings carry internal commas; the pair separator must survive
    z = central_generator(ctx, Gadget(0, 1, "1"), Gadget(0, 2, "1"), 3)
    assert parse_element(ctx, format_element(ctx, z)) == z
    # repeated factors accumulate
    assert parse_element(ctx, "x[n:0]^1 * x[n:0]^1") == generator(ctx, Natural(0), 2)


def test_parse_element_errors():
    ctx = ctx7()
    with pytest.raises(ValueError):
        parse_element(ctx, "x[n:5]^1")
    with pytest.raises(ValueError):
        parse_element(ctx, "junk")
    with pytest.raises(ValueError):
        parse_element(ctx, "z{(n:0,g:0,1:0):1}")  # adjacent pair is not central


def test_induced_automorphism_is_a_homomorphism():
    ctx = ctx18(3)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(ctx.graph, [(0, 1)]))
    assert aut.is_involution
    rng = random.Random(8)
    for _ in range(40):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        assert aut.apply(mul(ctx, a, b)) == mul(ctx, aut.apply(a), aut.apply(b))
        assert aut.apply(aut.apply(a)) == a


def test_induced_automorphism_maps_commutators():
    ctx = ctx18(3)
    # 3-cycle of the naturals: a valid automorphism that is not an involution
    shift = {0: 1, 1: 2, 2: 0}
    perm = {}
    for v in ctx.graph.vertices:
        if isinstance(v, Natural):
            perm[v] = Natural(shift[v.n])
        else:
            a, b = sorted((shift[v.a], shift[v.b]))
            perm[v] = Gadget(a, b, v.level)
    aut = InducedAutomorphism(ctx, perm)
    assert not aut.is_involution
    for u, w in itertools.combinations(ctx.graph.vertices[:8], 2):
        xu, xw = generator(ctx, u), generator(ctx, w)
        assert aut.apply(commutator(ctx, xu, xw)) == commutator(ctx, aut.apply(xu), aut.apply(xw))
    rng = random.Random(9)
    for _ in range(25):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        assert aut.apply(mul(ctx, a, b)) == mul(ctx, aut.apply(a), aut.apply(b))


def test_induced_automorphism_rejects_non_automorphism():
    ctx = GroupContext(build_fragment([0, 1, 2], [(0, 1)]), 3)
    bad = {v: v for v in ctx.graph.vertices}
    bad[Natural(0)], bad[Natural(2)] = Natural(2), Natural(0)
    with pytest.raises(ValueError):
        InducedAutomorphism(ctx, bad)


def test_apply_coset_and_moves_coset():
    ctx = ctx18(3)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(ctx.graph, [(0, 1)]))
    moved = FpVector(3, {ctx.vindex[Gadget(0, 1, "1")]: 1})
    assert aut.apply_coset(moved) == FpVector(3, {ctx.vindex[Gadget(0, 1, "1.75")]: 1})
    assert aut.moves_coset(moved)
    assert not aut.moves_coset(FpVector(3, {ctx.vindex[Natural(0)]: 2}))


def test_context_validation():
    g7 = build_fragment([0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        GroupContext(g7, 2)
    with pytest.raises(ValueError):
        GroupContext(g7, 9)
    ctx = ctx18(3)
    assert ctx.ncentral == sum(
        1 for u, w in itertools.combinations(ctx.graph.vertices, 2) if ctx.nonadjacent(ctx.vindex[u], ctx.vindex[w])
    )


def test_random_element_is_deterministic_per_seed():
    ctx = ctx18(3)
    rng1, rng2 = random.Random(5), random.Random(5)
    seq1 = [random_element(ctx, rng1) for _ in range(10)]
    seq2 = [random_element(ctx, rng2) for _ in range(10)]
    assert seq1 == seq2
    assert len({format_element(ctx, a) for a in seq1}) > 1
    assert random_central(ctx, random.Random(5)) == random_central(ctx, random.Random(5))
    assert is_central(random_central(ctx, random.Random(6)))


def frozen_random_element(ctx, rng, max_support=4):
    """The sampler as it was, through rng.randint, rng.sample and rng.randrange."""
    k = rng.randint(0, min(max_support, ctx.n))
    gen = {i: rng.randint(1, ctx.p - 1) for i in rng.sample(range(ctx.n), k)}
    return GroupElement(FpVector.from_reduced(ctx.p, gen), frozen_central_part(ctx, rng, 2))


def frozen_random_central(ctx, rng, max_terms=3):
    return GroupElement(FpVector.zero(ctx.p), frozen_central_part(ctx, rng, max_terms))


def frozen_central_part(ctx, rng, max_terms):
    cen = {}
    for _ in range(rng.randint(0, max_terms) if ctx.ncentral else 0):
        key = ctx.central_key_at(rng.randrange(ctx.ncentral))
        cen[key] = rng.randint(1, ctx.p - 1)
    return FpVector.from_reduced(ctx.p, cen)


def test_below_draws_as_randrange():
    for n in (1, 2, 3, 4, 5, 7, 8, 21, 22, 34, 100, 1 << 20, (1 << 40) + 3):
        for seed in range(20):
            rng, oracle = random.Random(seed), random.Random(seed)
            assert [_below(rng.getrandbits, n) for _ in range(30)] == [oracle.randrange(n) for _ in range(30)]
            assert rng.random() == oracle.random()


def complete_ctx(p):
    verts = [Natural(i) for i in range(4)]
    return GroupContext(Graph(verts, itertools.combinations(verts, 2)), p)


@pytest.mark.parametrize(
    "make, n, ncentral",
    [
        (lambda: ctx7(3), 7, 14),
        (lambda: ctx18(5), 18, 132),
        (lambda: GroupContext(build_fragment([0, 1, 2, 3], all_pairs([0, 1, 2, 3])), 7), 34, 519),
        (lambda: GroupContext(build_fragment(range(5), [(0, 1), (1, 2), (2, 3), (3, 4)]), 3), 25, 272),
        (lambda: complete_ctx(5), 4, 0),
    ],
    ids=["n7-p3", "n18-p5", "n34-p7", "n25-p3", "no-center-p5"],
)
def test_samplers_draw_as_the_standard_library_calls(make, n, ncentral):
    """random_element and random_central make the draws, in the same order,
    that rng.randint, rng.sample and rng.randrange made, on both paths of
    sample (the pool for n <= 21, and for k > 5 up to n = 85; the set of
    picks above) and with no center, and leave the generator in the same
    state."""
    ctx = make()
    assert (ctx.n, ctx.ncentral) == (n, ncentral)
    for seed in range(40):
        rng, oracle = random.Random(seed), random.Random(seed)
        for support, terms in ((4, 3), (0, 0), (1, 1), (8, 5), (ctx.n, 2)):
            for _ in range(3):
                a, b = random_element(ctx, rng, support), frozen_random_element(ctx, oracle, support)
                assert a == b and list(a.gen.items()) == list(b.gen.items())
                assert list(a.cen.items()) == list(b.cen.items())
                a, b = random_central(ctx, rng, terms), frozen_random_central(ctx, oracle, terms)
                assert a == b and list(a.cen.items()) == list(b.cen.items())
        assert rng.random() == oracle.random()
    with pytest.raises(ValueError):
        random_element(ctx, random.Random(0), -1)
    with pytest.raises(ValueError):
        random_central(ctx, random.Random(0), -1)


def old_pair_enumeration(ctx):
    """The central basis as it used to be listed up front: (u, w) for u < w
    in vertex order with w not adjacent to u."""
    verts = ctx.vertex_order
    return [(u, w) for i, u in enumerate(verts) for w in verts[i + 1 :] if not ctx.graph.has_edge(u, w)]


def planted_edge_ctx():
    # a hub-pentagon chord: one central coordinate fewer than the clean fragment
    frag = build_fragment([0, 1], [(0, 1)], extra_edges=[(Gadget(0, 1, "0"), Gadget(0, 1, "1.25"))])
    return GroupContext(frag, 3)


@pytest.mark.parametrize(
    "make",
    [
        ctx7,
        lambda: ctx18(3),
        lambda: ctx18(5),
        planted_edge_ctx,
        lambda: GroupContext(build_down_fragment([0, 1, 2, 3]), 3),
        lambda: GroupContext(build_up_fragment(list(range(16))), 3),
    ],
    ids=["ctx7", "ctx18-p3", "ctx18-p5", "planted-edge", "down-181", "up-616"],
)
def test_central_unranking_matches_the_old_pair_enumeration(make):
    ctx = make()
    verts, n, p = ctx.vertex_order, len(ctx.vertex_order), ctx.p
    pairs = old_pair_enumeration(ctx)
    assert ctx.ncentral == len(pairs)
    unranked = [ctx.central_key_at(k) for k in range(ctx.ncentral)]
    assert [(verts[key // n], verts[key % n]) for key in unranked] == pairs
    assert unranked == [ctx.vindex[u] * n + ctx.vindex[w] for u, w in pairs]
    for k in (-1, len(pairs)):
        with pytest.raises(IndexError):
            ctx.central_key_at(k)

    def as_pairs(a):
        return {verts[i]: c for i, c in a.gen.items()}, {(verts[k // n], verts[k % n]): c for k, c in a.cen.items()}

    # seeded draws pick the same pairs as indexing the old list with the same RNG calls
    for seed in range(4):
        rng, oracle = random.Random(seed), random.Random(seed)
        for _ in range(25):
            picks = oracle.sample(range(n), oracle.randint(0, min(4, n)))
            gen = {verts[i]: oracle.randint(1, p - 1) for i in picks}
            cen = {}
            for _ in range(oracle.randint(0, 2)):
                pr = pairs[oracle.randrange(len(pairs))]
                cen[pr] = oracle.randint(1, p - 1)
            assert as_pairs(random_element(ctx, rng)) == (gen, cen)
            cen = {}
            for _ in range(oracle.randint(0, 3)):
                pr = pairs[oracle.randrange(len(pairs))]
                cen[pr] = oracle.randint(1, p - 1)
            assert as_pairs(random_central(ctx, rng)) == ({}, cen)
