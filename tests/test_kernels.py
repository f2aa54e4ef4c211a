"""Scan kernels against brute force, the generic eliminator and element_dims."""

import itertools

import pytest

from mekler.fplinear import FpVector, kernel_dim
from mekler.graphs import Gadget, Natural, all_pairs, build_fragment
from mekler.group import (
    GroupContext,
    GroupElement,
    centralizer_dim_mod_center,
    commutation_matrix,
    commutator_vector,
    from_vectors,
)
from mekler.interpret import build_down_fragment
from mekler.kernels import (
    KIND_GROUP_BOUND,
    KIND_SUBGROUP_HIGH,
    KIND_SUBGROUP_LOW,
    MODE_SUBGROUP,
    ScanResult,
    _context_arrays,
    _scan_arrays,
    element_dims,
    scan_group_bound,
    scan_subgroup_dichotomy,
)
from mekler.subgroup import DIM_THRESHOLD, PROVISION_PARTNERS, EdgeFunctional, centralizer_dim_in_subgroup


def ctx7():
    return GroupContext(build_fragment([0, 1], [(0, 1)]), 3, warn_not_nice=False)


def fragment18():
    return build_fragment([0, 1, 2], all_pairs([0, 1, 2]))


def planted_bound_fragment():
    # an extra hub-pentagon chord pushes the hub to degree 5: dim 6 > 5
    return build_fragment([0, 1], [(0, 1)], extra_edges=[(Gadget(0, 1, "0"), Gadget(0, 1, "1.25"))])


def planted_dichotomy_fragment():
    # joining the R-pair hub to two other hubs lifts a non-natural member
    # to the threshold: dim_s = 6 on a support that is not a lone natural
    return build_fragment(
        range(4),
        all_pairs(range(4)),
        extra_edges=[
            (Gadget(0, 1, "0"), Gadget(0, 2, "0")),
            (Gadget(0, 1, "0"), Gadget(0, 3, "0")),
        ],
    )


def normalized(violations):
    return sorted(
        (v.kind, tuple(str(s) for s in v.support), v.exps, v.dim_group, v.dim_subgroup)
        for v in violations
    )


def test_element_dims_against_brute_force():
    """Every support of size <= 3 on the 7-vertex fragment, every exponent
    pattern, counted against the full 3^7 coset space."""
    ctx = ctx7()
    verts = ctx.vertex_order
    p = ctx.p
    ells = {name: EdgeFunctional.from_edges(edges) for name, edges in
            (("empty", []), ("r01", [(0, 1)]))}
    all_cosets = []
    for pattern in itertools.product(range(p), repeat=len(verts)):
        gen = FpVector(p, {i: c for i, c in enumerate(pattern) if c})
        flags = {name: sum(c * ell.value(v) for v, c in zip(verts, pattern)) % p == 0
                 for name, ell in ells.items()}
        all_cosets.append((gen, flags))
    for size in (1, 2, 3):
        for sup in itertools.combinations(verts, size):
            for exps in itertools.product(range(1, p), repeat=size):
                agen = FpVector(p, dict(zip((ctx.vindex[v] for v in sup), exps)))
                commuting = [flags for gen, flags in all_cosets
                             if commutator_vector(ctx, agen, gen).is_zero()]
                dim_free, dim_free_sub, always = element_dims(ctx, None, sup, exps)
                assert always is True and dim_free_sub == dim_free
                assert len(commuting) == p ** dim_free
                for name, ell in ells.items():
                    dim_g, dim_s, member = element_dims(ctx, ell, sup, exps)
                    assert dim_g == dim_free
                    assert member == (sum(e * ell.value(s) for e, s in zip(exps, sup)) % p == 0)
                    assert sum(1 for f in commuting if f[name]) == p ** dim_s


def test_element_dims_against_generic_eliminator():
    """element_dims, centralizer_dim_mod_center and centralizer_dim_in_subgroup
    all run the support-local engine; the generic eliminator on the system
    over all |V| columns is the independent side."""
    ctx = GroupContext(build_fragment([0, 1, 2], all_pairs([0, 1, 2])), 3)
    ell = EdgeFunctional.from_edges([(0, 2)])
    verts = ctx.vertex_order
    for size in (1, 2, 3):
        for sup in itertools.combinations(verts[::2], size):
            for exps in itertools.product((1, 2), repeat=size):
                a = from_vectors(ctx, FpVector(3, dict(zip((ctx.vindex[v] for v in sup), exps))))
                full = commutation_matrix(ctx, a.gen)
                dim_g, dim_s, member = element_dims(ctx, ell, sup, exps)
                assert dim_g == centralizer_dim_mod_center(ctx, a) == kernel_dim(full, ctx.n, 3)
                assert dim_s == kernel_dim(full + [ell.row(ctx)], ctx.n, 3)
                if member:
                    assert dim_s == centralizer_dim_in_subgroup(ctx, ell, a)


def test_element_dims_validation():
    ctx = ctx7()
    with pytest.raises(ValueError):
        element_dims(ctx, None, (), ())
    with pytest.raises(ValueError):
        element_dims(ctx, None, (Natural(0),), (1, 2))
    with pytest.raises(ValueError):
        element_dims(ctx, None, (Natural(0),), (3,))
    with pytest.raises(ValueError):
        element_dims(ctx, None, (Natural(0), Natural(0)), (1, 1))


def test_group_bound_holds_on_clean_fragments():
    ctx = GroupContext(build_fragment(range(4), all_pairs(range(4))), 3)
    res = scan_group_bound(ctx)
    assert res.ok and bool(res)
    assert res.elements_checked == 50184
    assert res.members_checked == res.elements_checked  # group mode
    assert res.max_support == 3


def test_dichotomy_holds_on_down_fragment():
    ctx = GroupContext(build_down_fragment([0, 1]), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    res = scan_subgroup_dichotomy(ctx, ell)
    assert res.ok
    assert res.mode == MODE_SUBGROUP
    assert res.members_checked < res.elements_checked


def test_counts_are_frozen_on_18_vertices():
    ctx = GroupContext(fragment18(), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    res = scan_subgroup_dichotomy(ctx, ell)
    # 18 vertices: 18*2 singles + 153*4 pairs + 816*8 triples
    assert res.elements_checked == 18 * 2 + 153 * 4 + 816 * 8 == 7176
    assert res.ok


def oracle_scan(ctx, ell):
    """(elements, members, violations) of a scan, from element_dims on
    every support of size <= 3 and every exponent pattern."""
    elements = members = 0
    found = []
    for size in (1, 2, 3):
        for sup in itertools.combinations(ctx.vertex_order, size):
            lone_nat = size == 1 and isinstance(sup[0], Natural)
            provisioned = lone_nat and len(ctx.graph.gadget_partners(sup[0].n)) >= PROVISION_PARTNERS
            for exps in itertools.product(range(1, ctx.p), repeat=size):
                dim_g, dim_s, member = element_dims(ctx, ell, sup, exps)
                elements += 1
                members += member
                if ell is None:
                    if not lone_nat and dim_g > DIM_THRESHOLD - 1:
                        found.append((KIND_GROUP_BOUND, sup, exps, dim_g, -1))
                elif member and not lone_nat and dim_s >= DIM_THRESHOLD:
                    found.append((KIND_SUBGROUP_HIGH, sup, exps, dim_g, dim_s))
                elif member and provisioned and dim_s < DIM_THRESHOLD:
                    found.append((KIND_SUBGROUP_LOW, sup, exps, dim_g, dim_s))
    return elements, members, sorted((k, tuple(str(s) for s in sup), e, dg, ds) for k, sup, e, dg, ds in found)


@pytest.mark.parametrize(
    "make, p, mode, violations",
    [
        pytest.param(fragment18, 3, "bound", 0, id="ctx18-p3-bound"),
        pytest.param(fragment18, 3, "dichotomy", 0, id="ctx18-p3-dichotomy"),
        pytest.param(fragment18, 5, "bound", 0, id="ctx18-p5-bound"),
        pytest.param(fragment18, 5, "dichotomy", 0, id="ctx18-p5-dichotomy"),
        pytest.param(planted_bound_fragment, 3, "bound", 2, id="planted-bound-bound"),
        pytest.param(planted_bound_fragment, 3, "dichotomy", 0, id="planted-bound-dichotomy"),
        pytest.param(planted_dichotomy_fragment, 3, "bound", 6, id="planted-dichotomy-bound"),
        pytest.param(planted_dichotomy_fragment, 3, "dichotomy", 2, id="planted-dichotomy-dichotomy"),
    ],
)
def test_scan_matches_element_dims_on_every_support(make, p, mode, violations):
    ctx = GroupContext(make(), p, warn_not_nice=False)
    if mode == "bound":
        ell, res = None, scan_group_bound(ctx)
    else:
        ell = EdgeFunctional.from_edges([(0, 1)])
        res = scan_subgroup_dichotomy(ctx, ell)
    elements, members, expected = oracle_scan(ctx, ell)
    assert res.elements_checked == elements
    assert res.members_checked == members
    assert normalized(res.violations) == expected
    assert len(expected) == violations


def test_planted_group_bound_violation():
    ctx = GroupContext(planted_bound_fragment(), 3, warn_not_nice=False)
    res = scan_group_bound(ctx)
    assert not res.ok and not bool(res)
    assert all(v.kind == KIND_GROUP_BOUND for v in res.violations)
    assert any(
        v.support == (Gadget(0, 1, "0"),) and v.dim_group == 6 for v in res.violations
    )


def test_planted_dichotomy_violation():
    ctx = GroupContext(planted_dichotomy_fragment(), 3, warn_not_nice=False)
    ell = EdgeFunctional.from_edges([(0, 1)])
    res = scan_subgroup_dichotomy(ctx, ell)
    assert not res.ok
    hits = [v for v in res.violations if v.support == (Gadget(0, 1, "0"),)]
    assert hits and all(v.kind == KIND_SUBGROUP_HIGH for v in hits)
    assert all(v.dim_subgroup >= DIM_THRESHOLD for v in res.violations)
    assert res.elements_checked == 50184  # counts depend on size only


def test_low_side_violation_detected_with_doctored_provisioning():
    # no honest fragment puts a provisioned natural under the threshold, so
    # force the provisioned mask at the private layer and watch kind 2 fire
    ctx = ctx7()
    ell = EdgeFunctional.from_edges([])
    adj, ellbit, nat, prov = _context_arrays(ctx, ell)
    assert prov.sum() == 0  # two partners each: genuinely unprovisioned
    checked, members, records = _scan_arrays(adj, ellbit, nat, nat.copy(), ctx.p, MODE_SUBGROUP, 1)
    assert checked == 7 * 2
    low = [r for r in records if r[0] == KIND_SUBGROUP_LOW]
    assert len(low) == 4  # both naturals, both exponents
    assert all(r[4] < DIM_THRESHOLD for r in low)


def test_scan_validation():
    ctx = ctx7()
    with pytest.raises(ValueError):
        scan_group_bound(ctx, max_support=4)
    with pytest.raises(ValueError):
        scan_group_bound(ctx, max_support=0)


def test_small_supports_only_paths():
    # max_support below 3 must skip the size-3 kernels entirely
    ctx = ctx7()
    res = scan_group_bound(ctx, max_support=2)
    assert res.elements_checked == 7 * 2 + 21 * 4
    res1 = scan_group_bound(ctx, max_support=1)
    assert res1.elements_checked == 14
    assert isinstance(res1, ScanResult)

