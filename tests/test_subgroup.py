"""Edge functionals, the kernel subgroup, and the dimension dichotomy."""

import itertools
import random

import pytest

from mekler import subgroup
from mekler.fplinear import FpMatrix, FpVector, kernel_basis
from mekler.graphs import Gadget, Natural, all_pairs, build_fragment
from mekler.group import (
    GroupContext,
    GroupElement,
    central_generator,
    commutator_vector,
    commuting_kernel_basis,
    from_vectors,
    generator,
    identity,
    mul,
    parse_element,
    random_element,
)
from mekler.interpret import build_down_fragment
from mekler.subgroup import (
    DIM_THRESHOLD,
    PROVISION_PARTNERS,
    AdequacyError,
    EdgeFunctional,
    assess_adequacy,
    center_of_subgroup_check,
    centralizer_dim_in_subgroup,
    in_kernel_subgroup,
    natural_vertex_like_by_dimension,
    verify_index_p,
)


def ctx7(p=3):
    return GroupContext(build_fragment([0, 1], [(0, 1)]), p, warn_not_nice=False)


def all_gen_vectors(ctx):
    verts = ctx.vertex_order
    for exps in itertools.product(range(ctx.p), repeat=len(verts)):
        yield FpVector(ctx.p, {i: e for i, e in enumerate(exps) if e})


def test_edge_functional_vertex_values():
    ell = EdgeFunctional.from_edges([(1, 0)])
    assert ell.r_edges == frozenset({(0, 1)})
    assert ell.value(Natural(0)) == 0
    assert ell.value(Natural(7)) == 0
    assert ell.value(Gadget(0, 1, "0")) == 0  # hub of an R pair
    assert ell.value(Gadget(0, 2, "0")) == 1  # hub of a non-R pair
    for lev in ("1", "1.25", "1.5", "1.75"):
        assert ell.value(Gadget(0, 1, lev)) == 1
        assert ell.value(Gadget(0, 2, lev)) == 1
    with pytest.raises(ValueError):
        EdgeFunctional.from_edges([(2, 2)])


def test_value_on_is_additive():
    ctx = ctx7()
    ell = EdgeFunctional.from_edges([])
    rng = random.Random(0)
    for _ in range(40):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        lhs = ell.value_on(ctx, mul(ctx, a, b))
        assert lhs == (ell.value_on(ctx, a) + ell.value_on(ctx, b)) % ctx.p
    # central parts contribute nothing
    z = central_generator(ctx, Natural(0), Natural(1))
    a = generator(ctx, Gadget(0, 1, "1"))
    assert ell.value_on(ctx, mul(ctx, a, z)) == ell.value_on(ctx, a) == 1
    assert in_kernel_subgroup(ctx, ell, z)
    assert not in_kernel_subgroup(ctx, ell, a)


def test_kernel_has_index_p_by_exhaustion():
    ctx = ctx7()
    ell = EdgeFunctional.from_edges([])
    counts = {r: 0 for r in range(ctx.p)}
    for gen in all_gen_vectors(ctx):
        counts[ell.value_on(ctx, GroupElement(gen, FpVector.zero(ctx.p)))] += 1
    # cosets of the kernel split the group evenly: index exactly p
    assert counts == {r: ctx.p ** 6 for r in range(ctx.p)}


def test_verify_index_p_report():
    ctx = ctx7()
    report = verify_index_p(ctx, EdgeFunctional.from_edges([]))
    assert report
    assert report.is_index_p and report.surjective and not report.degenerate
    assert report.additive
    assert report.samples_checked == 200
    assert "index p" in report.message


def test_verify_index_p_degenerate_fragment():
    # no gadget vertices: the functional vanishes identically
    ctx = GroupContext(build_fragment([0, 1]), 3, warn_not_nice=False)
    report = verify_index_p(ctx, EdgeFunctional.from_edges([]))
    assert not report
    assert report.degenerate and not report.surjective and not report.is_index_p
    assert report.additive
    assert "index 1" in report.message


def test_verify_index_p_multiplies_only_the_samples(monkeypatch):
    # the homomorphism property comes from von Dyck's theorem, so no
    # generator pair is multiplied: one mul per sampled pair
    ctx = GroupContext(build_down_fragment([0, 1, 2]), 3)
    calls = []

    def counting_mul(ctx, a, b):
        calls.append((a, b))
        return mul(ctx, a, b)

    monkeypatch.setattr(subgroup, "mul", counting_mul)
    report = verify_index_p(ctx, EdgeFunctional.from_edges([(0, 1)]))
    assert report and len(calls) == report.samples_checked == 200


def test_verify_index_p_catches_a_mul_that_drops_a_generator(monkeypatch):
    # with the generator-pair loop gone, the sampled composite products are
    # what exercise mul: one that loses a generator coordinate of a product
    # of two elements of support >= 2 must fail the certification
    ctx = GroupContext(build_down_fragment([0, 1, 2]), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    assert verify_index_p(ctx, ell)

    def dropping_mul(ctx, a, b):
        prod = mul(ctx, a, b)
        if len(a.gen) < 2 or len(b.gen) < 2 or prod.gen.is_zero():
            return prod
        gen = dict(prod.gen.items())
        del gen[max(gen)]
        return GroupElement(FpVector(ctx.p, gen), prod.cen)

    monkeypatch.setattr(subgroup, "mul", dropping_mul)
    report = verify_index_p(ctx, ell)
    assert not report.is_index_p and not report.additive
    assert report.surjective
    assert report.message == "homomorphism certification failed"


def test_center_check_passes_on_gadgeted_fragments():
    for k, p in itertools.product((3, 4, 5), (3, 5)):
        ctx = GroupContext(build_down_fragment(list(range(k))), p)
        for r_edges in ([], [(0, 1)], [(0, 1), (1, 2)]):
            res = center_of_subgroup_check(ctx, EdgeFunctional.from_edges(r_edges))
            assert res
            assert res.ok and not res.failures
            assert res.witnesses == ctx.n - 1  # the functional is onto F_p


def test_center_check_fails_on_single_vertex_fragment():
    # one lone generator is central in its (abelian) group but not formally
    # central in normal form, so the certificate must report it
    ctx = GroupContext(build_fragment([0]), 3, warn_not_nice=False)
    res = center_of_subgroup_check(ctx, EdgeFunctional.from_edges([]))
    assert not res.ok
    assert res.failures == ["x[n:0]^1"]
    assert res.witnesses == 1
    assert not bool(res)
    # two adjacent naturals: the whole group is abelian, the center is everything
    ctx = GroupContext(build_fragment([0, 1], extra_edges=[(Natural(0), Natural(1))]), 3, warn_not_nice=False)
    res = center_of_subgroup_check(ctx, EdgeFunctional.from_edges([]))
    assert not res.ok
    assert res.failures == ["x[n:0]^1", "x[n:1]^1"]


def test_single_generators_are_not_a_complete_witness_family():
    # the hub of the R pair commutes with every single-generator member of
    # the subgroup; only a composite witness shows it is not central
    ctx = ctx7()
    ell = EdgeFunctional.from_edges([(0, 1)])
    singles = [FpVector(3, {i: 1}) for i, v in enumerate(ctx.vertex_order) if ell.value(v) == 0]
    hub = FpVector(3, {ctx.vindex[Gadget(0, 1, "0")]: 1})
    assert commuting_kernel_basis(ctx, singles, ell) == [hub]
    assert center_of_subgroup_check(ctx, ell).ok


def small_support_center_oracle(ctx, ell):
    """Subgroup cosets of support <= 2 that commute with the reduced kernel
    basis of the functional, by enumeration."""
    p = ctx.p
    witnesses = kernel_basis(FpMatrix(p, range(ctx.n), [ell.vector(ctx)]))
    found = set()
    for size in (1, 2):
        for combo in itertools.combinations(range(ctx.n), size):
            for pattern in itertools.product(range(1, p), repeat=size):
                agen = FpVector(p, dict(zip(combo, pattern)))
                if ell.value_on(ctx, from_vectors(ctx, agen)) != 0:
                    continue
                if all(commutator_vector(ctx, agen, w).is_zero() for w in witnesses):
                    found.add(agen)
    return found


def span(p, basis):
    out = set()
    for coeffs in itertools.product(range(p), repeat=len(basis)):
        v = FpVector.zero(p)
        for c, b in zip(coeffs, basis):
            v = v + b.scale(c)
        out.add(v)
    return out


def universal_pentagon_fragment():
    """The 7-vertex fragment with two pentagon vertices joined to every
    other vertex, so their difference is central in the subgroup."""
    g = build_fragment([0, 1], [(0, 1)])
    pents = [Gadget(0, 1, "1"), Gadget(0, 1, "1.5")]
    extra = [(u, v) for u in pents for v in g.vertices if u != v and not g.has_edge(u, v)]
    return build_fragment([0, 1], [(0, 1)], extra)


@pytest.mark.parametrize(
    "frag, p, r_edges",
    [
        (build_fragment([0]), 3, []),
        (build_fragment([0, 1], extra_edges=[(Natural(0), Natural(1))]), 5, []),
        (build_fragment([0, 1], [(0, 1)]), 3, []),
        (build_fragment([0, 1], [(0, 1)]), 3, [(0, 1)]),
        (universal_pentagon_fragment(), 3, []),
        (build_down_fragment([0, 1, 2]), 3, [(0, 1)]),
    ],
    ids=["lone-natural", "adjacent-naturals-p5", "R-empty", "R-01", "universal-pentagons", "down-3"],
)
def test_center_check_against_small_support_oracle(frag, p, r_edges):
    """The support <= 2 enumeration finds exactly the small members of the
    certified center, so the exact check fails whenever it does; on
    fragments small enough, every subgroup coset is tried against every
    other."""
    ctx = GroupContext(frag, p, warn_not_nice=False)
    ell = EdgeFunctional.from_edges(r_edges)
    res = center_of_subgroup_check(ctx, ell)
    center = [parse_element(ctx, text).gen for text in res.failures]
    found = small_support_center_oracle(ctx, ell)
    assert found == {v for v in span(p, center) if 0 < len(v) <= 2}
    if found:
        assert not res.ok
    if p ** ctx.n <= 3**7:
        members = [gen for gen in all_gen_vectors(ctx) if ell.value_on(ctx, from_vectors(ctx, gen)) == 0]
        brute = {b for b in members if all(commutator_vector(ctx, a, b).is_zero() for a in members)}
        assert brute == span(p, center)


def brute_subgroup_centralizer_count(ctx, ell, a):
    count = 0
    for bgen in all_gen_vectors(ctx):
        b = GroupElement(bgen, FpVector.zero(ctx.p))
        if not in_kernel_subgroup(ctx, ell, b):
            continue
        if commutator_vector(ctx, a.gen, bgen).is_zero():
            count += 1
    return count


def test_subgroup_centralizer_dim_against_brute_force():
    ctx = ctx7()
    for r_edges in ([], [(0, 1)]):
        ell = EdgeFunctional.from_edges(r_edges)
        members = []
        for v in ctx.vertex_order:
            for c in (1, 2):
                a = generator(ctx, v, c)
                if in_kernel_subgroup(ctx, ell, a):
                    members.append(a)
        # composite members: pentagon exponents balancing to functional zero
        members.append(
            mul(ctx, generator(ctx, Gadget(0, 1, "1")), generator(ctx, Gadget(0, 1, "1.75"), 2))
        )
        members.append(
            mul(ctx, generator(ctx, Natural(0)), generator(ctx, Gadget(0, 1, "1.25"), 1 if r_edges else 0))
            if not r_edges
            else mul(ctx, generator(ctx, Natural(0)), generator(ctx, Gadget(0, 1, "0")))
        )
        members.append(central_generator(ctx, Natural(0), Natural(1)))
        members.append(identity(ctx))
        for a in members:
            assert in_kernel_subgroup(ctx, ell, a)
            dim = centralizer_dim_in_subgroup(ctx, ell, a)
            assert brute_subgroup_centralizer_count(ctx, ell, a) == ctx.p ** dim


def test_subgroup_centralizer_dim_frozen_values():
    ctx = ctx7()
    ell = EdgeFunctional.from_edges([])
    # the natural keeps only itself: its lone neighbour (the hub) has value 1
    assert centralizer_dim_in_subgroup(ctx, ell, generator(ctx, Natural(0))) == 1
    # central member: everything in the subgroup commutes, one dim lost to ell
    z = central_generator(ctx, Natural(0), Natural(1))
    assert centralizer_dim_in_subgroup(ctx, ell, z) == 6
    with pytest.raises(ValueError):
        centralizer_dim_in_subgroup(ctx, ell, generator(ctx, Gadget(0, 1, "1")))


def test_subgroup_centralizer_degenerate_central():
    ctx = GroupContext(build_fragment([0, 1]), 3, warn_not_nice=False)
    ell = EdgeFunctional.from_edges([])
    # functional vanishes identically: no dimension is lost
    assert centralizer_dim_in_subgroup(ctx, ell, identity(ctx)) == 2


def test_down_fragment_is_adequate():
    g = build_down_fragment([0, 1])
    ctx = GroupContext(g, 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    adequacy = assess_adequacy(ctx, ell)
    assert adequacy.adequate
    assert adequacy.provisioned == (0, 1)
    assert set(adequacy.unprovisioned) == set(range(2, 2 + PROVISION_PARTNERS))
    # helper naturals sit at dimension len(tested), far below the threshold
    assert all(d == 2 for d in adequacy.unprovisioned_dims.values())
    assert "adequate" in adequacy.explain()


def test_adequacy_fails_without_provisioned_naturals():
    g = build_fragment(list(range(7)), [(0, i) for i in range(1, 7)])
    ctx = GroupContext(g, 3, warn_not_nice=False)
    ell = EdgeFunctional.from_edges([])
    adequacy = assess_adequacy(ctx, ell)
    assert not adequacy.adequate
    assert adequacy.provisioned == ()
    assert "no natural" in adequacy.explain()
    with pytest.raises(AdequacyError):
        natural_vertex_like_by_dimension(ctx, ell, generator(ctx, Natural(0)))


def test_adequacy_fails_when_a_bystander_reaches_the_threshold():
    # natural 0 is provisioned; natural 8 has six partners and lands exactly
    # on the threshold, so the dimension test cannot tell them apart
    pairs = [(0, i) for i in range(1, 8)] + [(j, 8) for j in range(1, 7)]
    g = build_fragment(list(range(9)), pairs)
    ctx = GroupContext(g, 3, warn_not_nice=False)
    ell = EdgeFunctional.from_edges([])
    adequacy = assess_adequacy(ctx, ell)
    assert adequacy.provisioned == (0,)
    assert not adequacy.separated
    assert not adequacy.adequate
    assert adequacy.unprovisioned_dims[8] == DIM_THRESHOLD
    assert "under-provisioned" in adequacy.explain()
    with pytest.raises(AdequacyError):
        natural_vertex_like_by_dimension(ctx, ell, generator(ctx, Natural(0)))


def test_dimension_test_classifies_down_fragment():
    g = build_down_fragment([0, 1, 2])
    ctx = GroupContext(g, 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    adequacy = assess_adequacy(ctx, ell)
    assert adequacy.adequate
    for n in (0, 1, 2):
        assert natural_vertex_like_by_dimension(ctx, ell, generator(ctx, Natural(n), 2), adequacy)
    for n in adequacy.unprovisioned:
        assert not natural_vertex_like_by_dimension(ctx, ell, generator(ctx, Natural(n)), adequacy)
    hub = generator(ctx, Gadget(0, 1, "0"))  # value 0: a member, not a natural
    assert not natural_vertex_like_by_dimension(ctx, ell, hub, adequacy)
    balanced = mul(
        ctx, generator(ctx, Gadget(0, 2, "1")), generator(ctx, Gadget(0, 2, "1.75"), 2)
    )
    assert not natural_vertex_like_by_dimension(ctx, ell, balanced, adequacy)


def test_dimension_test_input_validation():
    g = build_down_fragment([0, 1])
    ctx = GroupContext(g, 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    adequacy = assess_adequacy(ctx, ell)
    with pytest.raises(ValueError):
        natural_vertex_like_by_dimension(ctx, ell, generator(ctx, Gadget(0, 2, "1")), adequacy)
    with pytest.raises(ValueError):
        natural_vertex_like_by_dimension(ctx, ell, identity(ctx), adequacy)
    with pytest.raises(ValueError):
        natural_vertex_like_by_dimension(
            ctx, ell, central_generator(ctx, Natural(0), Natural(1)), adequacy
        )
