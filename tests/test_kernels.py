"""Scan kernels against brute force, the generic eliminator and element_dims."""

import itertools
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mekler import kernels
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
    MODE_GROUP,
    MODE_SUBGROUP,
    ScanResult,
    _context_arrays,
    _neighbourhood_subsets,
    _scan_arrays,
    _signature_histogram,
    _signatures,
    _support_batches,
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


def oracle_scan(ctx, ell, threshold=DIM_THRESHOLD):
    """(elements, members, violations) of a scan, from element_dims on
    every support of size <= 3 and every exponent pattern; the violations
    come in ScanResult order."""
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
                    if not lone_nat and dim_g > threshold - 1:
                        found.append((KIND_GROUP_BOUND, sup, exps, dim_g, -1))
                elif member and not lone_nat and dim_s >= threshold:
                    found.append((KIND_SUBGROUP_HIGH, sup, exps, dim_g, dim_s))
                elif member and provisioned and dim_s < threshold:
                    found.append((KIND_SUBGROUP_LOW, sup, exps, dim_g, dim_s))
    return elements, members, found


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
    elements, members, found = oracle_scan(ctx, ell)
    expected = sorted((k, tuple(str(s) for s in sup), e, dg, ds) for k, sup, e, dg, ds in found)
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



def anchor_histogram(adj, ellbit, nat, prov, size):
    """Signature histogram from the per-anchor walk over every support."""
    hist = np.zeros(0, dtype=np.int64)
    for sup, t, tl in _support_batches(adj, ellbit, size):
        counts = np.bincount(_signatures(sup, t, tl, adj, ellbit, nat, prov, size))
        hist = np.pad(hist, (0, max(0, len(counts) - len(hist))))
        hist[: len(counts)] += counts
    return hist


def trimmed(hist):
    return hist[: np.flatnonzero(hist)[-1] + 1] if hist.any() else hist[:0]


def closed_form_counts(ellbit, p, max_support):
    """Elements and subgroup members of a scan by combinatorics alone: a
    member's exponents on its value-1 vertices sum to 0 mod p."""
    ones = int(ellbit.sum())
    zeros = len(ellbit) - ones
    elements = members = 0
    for s in range(1, max_support + 1):
        elements += math.comb(len(ellbit), s) * (p - 1) ** s
        for k in range(s + 1):
            vanishing = sum(1 for exps in itertools.product(range(1, p), repeat=k) if sum(exps) % p == 0)
            members += math.comb(zeros, s - k) * math.comb(ones, k) * (p - 1) ** (s - k) * vanishing
    return elements, members


@settings(derandomize=True, database=None, deadline=None, max_examples=60)
@given(
    n=st.integers(1, 40),
    density=st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([3, 5]),
)
@example(n=40, density=0.0, seed=0, p=3)  # empty graph: every support in class C
@example(n=40, density=1.0, seed=1, p=3)  # complete graph: every pair and triple in class A
@example(n=2, density=1.0, seed=2, p=5)
def test_counted_histograms_equal_the_anchor_walk(n, density, seed, p):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    adj = upper | upper.T
    ellbit = rng.integers(0, 2, n)
    nat = rng.integers(0, 2, n)
    prov = nat & rng.integers(0, 2, n)
    tables = _neighbourhood_subsets(adj, ellbit, 3)
    for size in (1, 2, 3):
        counted = _signature_histogram(adj, ellbit, nat, prov, size, tables)
        assert counted.min() >= 0
        assert np.array_equal(trimmed(counted), trimmed(anchor_histogram(adj, ellbit, nat, prov, size)))
    elements, members = closed_form_counts(ellbit, p, 3)
    with pytest.MonkeyPatch.context() as mp:
        # the counts do not depend on the threshold; a high one keeps random
        # graphs from listing most of their supports as violations
        mp.setattr(kernels, "DIM_THRESHOLD", 10**6)
        checked, counted_members, _ = _scan_arrays(adj, ellbit, nat, prov, p, MODE_SUBGROUP, 3)
        assert (checked, counted_members) == (elements, members)
        checked, _, records = _scan_arrays(adj, np.zeros(n, dtype=np.int64), nat, prov, p, MODE_GROUP, 3)
        assert checked == elements and records == []


def test_listed_violations_in_the_counted_class(monkeypatch):
    """At threshold 1 every member support that is edge-free with no common
    neighbour (the class never enumerated by the count) violates, so the
    listing must find those supports from their counted signature alone."""
    monkeypatch.setattr(kernels, "DIM_THRESHOLD", 1)
    ctx = GroupContext(fragment18(), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    res = scan_subgroup_dichotomy(ctx, ell)
    elements, members, found = oracle_scan(ctx, ell, threshold=1)
    assert (res.elements_checked, res.members_checked) == (elements, members)
    listed = [(v.kind, v.support, v.exps, v.dim_group, v.dim_subgroup) for v in res.violations]
    assert listed == found
    adj = ctx.graph.adjacency_matrix().astype(bool)
    in_class_c = [
        sup for _, sup, _, _, _ in found
        if len(sup) == 3
        and not any(adj[ctx.vindex[u], ctx.vindex[w]] for u, w in itertools.combinations(sup, 2))
        and not np.all(adj[[ctx.vindex[v] for v in sup]], axis=0).any()
    ]
    assert len(in_class_c) > 100


def test_size3_scan_memory_stays_small():
    """Peak traced allocation of a bound scan on the 286-vertex fragment,
    with the rank tables already cached: the count holds the adjacency
    matrix, the neighbourhood subsets and one chunk of edges, not a row of
    all pairs per anchor."""
    ctx = GroupContext(build_fragment(range(11), all_pairs(range(11))), 3)
    assert len(ctx) == 286
    scan_group_bound(ctx)
    tracemalloc.start()
    try:
        res = scan_group_bound(ctx)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert res.ok and res.elements_checked == 31_028_712
    assert peak <= 2_000_000


@pytest.mark.parametrize(
    "frag",
    [
        lambda: build_fragment(range(11), all_pairs(range(11))),
        lambda: build_fragment(range(8), all_pairs(range(8))),
        lambda: build_down_fragment([0, 1]),
        lambda: build_down_fragment([0, 1, 2]),
        lambda: build_down_fragment(range(5)),
    ],
    ids=["286-vertex", "148-vertex", "down-2", "down-3", "down-5"],
)
def test_provisioned_mask_matches_per_natural_partners(frag):
    """The provisioned mask, counted in one pass over the gadget pairs,
    equals the per-natural gadget_partners oracle."""
    ctx = GroupContext(frag(), 3, warn_not_nice=False)
    prov = _context_arrays(ctx, None)[3]
    want = [
        int(isinstance(v, Natural) and len(ctx.graph.gadget_partners(v.n)) >= PROVISION_PARTNERS)
        for v in ctx.vertex_order
    ]
    assert prov.tolist() == want
    assert sum(want) > 0
