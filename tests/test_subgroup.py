"""Edge functionals, the kernel subgroup, and the dimension dichotomy."""

import itertools
import random

import pytest

from mekler.fplinear import FpVector
from mekler.graphs import Gadget, Natural, all_pairs, build_fragment
from mekler.group import (
    GroupContext,
    GroupElement,
    central_generator,
    commutator_vector,
    generator,
    identity,
    mul,
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
    assert ell.sorted_edges() == ((0, 1),)
    with pytest.raises(ValueError):
        EdgeFunctional.from_edges([(2, 2)])


def test_value_on_is_additive():
    ctx = ctx7()
    ell = EdgeFunctional.from_edges([])
    rng = random.Random(0)
    for _ in range(40):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        lhs = ell.value_on(ctx, mul(ctx, a, b)).value
        assert lhs == (ell.value_on(ctx, a).value + ell.value_on(ctx, b).value) % ctx.p
    # central parts contribute nothing
    z = central_generator(ctx, Natural(0), Natural(1))
    a = generator(ctx, Gadget(0, 1, "1"))
    assert ell.value_on(ctx, mul(ctx, a, z)).value == ell.value_on(ctx, a).value == 1
    assert in_kernel_subgroup(ctx, ell, z)
    assert not in_kernel_subgroup(ctx, ell, a)


def test_kernel_has_index_p_by_exhaustion():
    ctx = ctx7()
    ell = EdgeFunctional.from_edges([])
    counts = {r: 0 for r in range(ctx.p)}
    for gen in all_gen_vectors(ctx):
        counts[ell.value_on(ctx, GroupElement(gen, FpVector.zero(ctx.p))).value] += 1
    # cosets of the kernel split the group evenly: index exactly p
    assert counts == {r: ctx.p ** 6 for r in range(ctx.p)}


def test_verify_index_p_report():
    ctx = ctx7()
    report = verify_index_p(ctx, EdgeFunctional.from_edges([]))
    assert report
    assert report.is_index_p and report.surjective and not report.degenerate
    assert report.additive_on_pairs and report.kills_commutators
    assert report.pairs_checked == 21  # C(7, 2)
    assert report.samples_checked == 200
    assert "index p" in report.message


def test_verify_index_p_degenerate_fragment():
    # no gadget vertices: the functional vanishes identically
    ctx = GroupContext(build_fragment([0, 1]), 3, warn_not_nice=False)
    report = verify_index_p(ctx, EdgeFunctional.from_edges([]))
    assert not report
    assert report.degenerate and not report.surjective and not report.is_index_p
    assert report.additive_on_pairs and report.kills_commutators
    assert "index 1" in report.message


def test_center_check_passes_on_gadgeted_fragments():
    for r_edges in ([], [(0, 1)]):
        ctx = ctx7()
        ell = EdgeFunctional.from_edges(r_edges)
        res = center_of_subgroup_check(ctx, ell)
        assert res
        assert res.ok and not res.failures
        # checked = subgroup members among generator words of support <= 2
        verts = ctx.vertex_order
        expected = 0
        for size in (1, 2):
            for combo in itertools.combinations(verts, size):
                for pattern in itertools.product(range(1, 3), repeat=size):
                    if sum(c * ell.value(v) for c, v in zip(pattern, combo)) % 3 == 0:
                        expected += 1
        assert res.checked == expected


def test_center_check_fails_on_single_vertex_fragment():
    # one lone generator is central in its (abelian) group but not formally
    # central in normal form, so the witness search must report it
    ctx = GroupContext(build_fragment([0]), 3, warn_not_nice=False)
    res = center_of_subgroup_check(ctx, EdgeFunctional.from_edges([]))
    assert not res.ok
    assert res.failures == ["x[n:0]^1", "x[n:0]^2"]
    assert not bool(res)


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
