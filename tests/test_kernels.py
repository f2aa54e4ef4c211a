"""Scan kernels against brute force, the generic eliminator and element_dims."""

import functools
import itertools
import math
import random
import time
import tracemalloc
from typing import Iterator

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from mekler import kernels
from mekler.formulas import BudgetError
from mekler.fplinear import FpVector, kernel_dim, rref_indexed
from mekler.graphs import ConfigError, Gadget, Natural, all_pairs, build_fragment
from mekler.group import (
    GroupContext,
    GroupElement,
    centralizer_dim_mod_center,
    commutation_matrix,
    commutator_vector,
    commuting_kernel_dim,
    from_vectors,
)
from mekler.interpret import build_down_fragment
from mekler.kernels import (
    KIND_GROUP_BOUND,
    KIND_SUBGROUP_HIGH,
    KIND_SUBGROUP_LOW,
    LISTING_BUDGET,
    MODE_GROUP,
    MODE_SUBGROUP,
    RANK_TABLE_BUDGET,
    ScanResult,
    _ell_bits,
    _graph_tables,
    _GraphTables,
    _rank_table_eliminations,
    _rank_tables,
    _scan_arrays,
    _signatures,
    _subset_codes,
    _verdicts,
    scan_group_bound,
    scan_subgroup_dichotomy,
)
from mekler.subgroup import DIM_THRESHOLD, PROVISION_PARTNERS, EdgeFunctional, centralizer_dim_in_subgroup
from test_graphs import gadget_partners


def ctx7():
    return GroupContext(build_fragment([0, 1], [(0, 1)]), 3)


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


def element_dims(ctx, ell, support, exps):
    """Per-element reference for the scans: (dim_group, dim_subgroup,
    member), from the support-local engine on one coset.  With ell None the
    subgroup entries degenerate to the group ones and member is True.
    Exponents must be nonzero mod p."""
    p = ctx.p
    size = len(support)
    if size == 0 or size != len(exps):
        raise ValueError("support and exponents must be nonempty and aligned")
    if any(e % p == 0 for e in exps):
        raise ValueError("exponents must be nonzero mod p")
    if len(set(support)) != size:
        raise ValueError("support vertices must be distinct")
    coset = FpVector(p, {ctx.vindex[v]: e for v, e in zip(support, exps)})
    dim_group = commuting_kernel_dim(ctx, [coset])
    if ell is None:
        return dim_group, dim_group, True
    member = sum(e * ell.value(s) for e, s in zip(exps, support)) % p == 0
    return dim_group, commuting_kernel_dim(ctx, [coset], ell), member


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
            provisioned = lone_nat and len(gadget_partners(ctx.graph, sup[0].n)) >= PROVISION_PARTNERS
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
    ctx = GroupContext(make(), p)
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
    ctx = GroupContext(planted_bound_fragment(), 3)
    res = scan_group_bound(ctx)
    assert not res.ok and not bool(res)
    assert all(v.kind == KIND_GROUP_BOUND for v in res.violations)
    assert any(
        v.support == (Gadget(0, 1, "0"),) and v.dim_group == 6 for v in res.violations
    )


def test_planted_dichotomy_violation():
    ctx = GroupContext(planted_dichotomy_fragment(), 3)
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
    tables = _graph_tables(ctx.graph, 1)
    assert tables.prov.sum() == 0  # two partners each: genuinely unprovisioned
    doctored = _GraphTables(tables.adj, tables.nat, tables.nat.copy(), 1)
    checked, members, count, records = _scan_arrays(doctored, _ell_bits(ctx, ell), ctx.p, MODE_SUBGROUP, 1)
    assert checked == 7 * 2
    assert count == len(records)
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


def _support_batches(adj: np.ndarray, ellbit: np.ndarray, size: int) -> Iterator[tuple]:
    """Every support of the given size in lexicographic order, in batches of
    (supports, t, tl): an (m, size) index array, the common-neighbour count
    of each support and how many of those the functional is nonzero on.
    Size 3 comes one anchor i at a time: t of {i, j, k} counts the v in
    N(i) whose neighbourhood holds the pair (j, k).  O(n^3) for size 3: the
    oracle the library's count and listing are checked against."""
    n = adj.shape[0]
    if size == 1:
        yield np.arange(n)[:, None], adj.sum(axis=1), adj.astype(np.int64) @ ellbit
        return
    jj, kk = np.triu_indices(n, k=1)
    # wedges: every pair (a, b) inside some N(v), by its index in (jj, kk)
    centre, first, pair_id = [], [], []
    for v in range(n):
        nb = np.flatnonzero(adj[v])
        a, b = (nb[x] for x in np.triu_indices(len(nb), k=1))
        centre.append(np.full(len(a), v))
        first.append(a)
        pair_id.append(a * n - a * (a + 1) // 2 + b - a - 1)
    centre, first, pair_id = (np.concatenate(x).astype(np.int64) for x in (centre, first, pair_id))
    if size == 2:
        t = np.bincount(pair_id, minlength=len(jj))
        tl = np.bincount(pair_id, weights=ellbit[centre], minlength=len(jj)).astype(np.int64)
        yield np.column_stack([jj, kk]), t, tl
        return
    for i in range(n - 2):
        start = (i + 1) * n - (i + 1) * (i + 2) // 2  # first pair (j, k) with j > i
        sel = adj[i, centre] & (first > i)
        local = pair_id[sel] - start
        m = len(jj) - start
        t = np.bincount(local, minlength=m)
        tl = np.bincount(local, weights=ellbit[centre[sel]], minlength=m).astype(np.int64)
        yield np.column_stack([np.full(m, i), jj[start:], kk[start:]]), t, tl


def anchor_histogram(tables, ellbit, size):
    """Signature histogram from the per-anchor walk over every support."""
    hist = np.zeros(0, dtype=np.int64)
    for sup, t, tl in _support_batches(tables.adj, ellbit, size):
        counts = np.bincount(_signatures(sup, t, tl, tables, ellbit, size))
        hist = np.pad(hist, (0, max(0, len(counts) - len(hist))))
        hist[: len(counts)] += counts
    return hist


def trimmed(hist):
    return hist[: np.flatnonzero(hist)[-1] + 1] if hist.any() else hist[:0]


def with_common_neighbours(hist, size):
    """The histogram's codes with t >= 1, the ones a scan codes; at size 1
    all of them."""
    if size == 1:
        return hist
    hist = hist.copy()
    hist[: 1 << (3 + size + size * (size - 1) // 2)] = 0  # t is the code's top field
    return hist


def assert_coded_equals_anchor(tables, ellbit):
    """The histogram of the codes a scan computes, on the vertices and the
    neighbourhood subsets, equals the walk's restricted to t >= 1."""
    for size in (1, 2, 3):
        coded = np.bincount(_subset_codes(tables, ellbit, size))
        walked = with_common_neighbours(anchor_histogram(tables, ellbit, size), size)
        assert np.array_equal(trimmed(coded), trimmed(walked))


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
@example(n=40, density=0.0, seed=0, p=3)  # empty graph: every support edge-free with t = 0
@example(n=40, density=1.0, seed=1, p=3)  # complete graph: every pair and triple all edges
@example(n=2, density=1.0, seed=2, p=5)
@example(n=7, density=0.3, seed=14721, p=3)  # a star centred on vertex 5: no triangle
@example(n=16, density=0.9, seed=44619, p=5)  # 112 of 120 edges, the functional nonzero everywhere
def test_counted_histograms_equal_the_anchor_walk(n, density, seed, p):
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    adj = upper | upper.T
    ellbit = rng.integers(0, 2, n)
    nat = rng.integers(0, 2, n)
    prov = nat & rng.integers(0, 2, n)
    tables = _GraphTables(adj, nat, prov)
    assert_coded_equals_anchor(tables, ellbit)
    elements, members = closed_form_counts(ellbit, p, 3)
    with pytest.MonkeyPatch.context() as mp:
        # the counts do not depend on the threshold; a high one keeps random
        # graphs from listing most of their supports as violations
        mp.setattr(kernels, "DIM_THRESHOLD", 10**6)
        checked, counted_members, _, _ = _scan_arrays(tables, ellbit, p, MODE_SUBGROUP, 3)
        assert (checked, counted_members) == (elements, members)
        checked, _, _, records = _scan_arrays(tables, np.zeros(n, dtype=np.int64), p, MODE_GROUP, 3)
        assert checked == elements and records == []


def graph_from_edges(n, edges):
    adj = np.zeros((n, n), dtype=bool)
    for u, w in edges:
        adj[u, w] = adj[w, u] = True
    return adj


@pytest.mark.parametrize("seed", range(4))
def test_counted_histograms_with_triangles_in_every_region(seed):
    """K4 on {0, 5, 10, 15} of 20 vertices: each edge has triangles whose
    third vertex lies below, between and above it, among vertices on no
    edge at all."""
    adj = graph_from_edges(20, itertools.combinations((0, 5, 10, 15), 2))
    rng = np.random.default_rng(seed)
    nat = rng.integers(0, 2, 20)
    ellbit = rng.integers(0, 2, 20)
    assert_coded_equals_anchor(_GraphTables(adj, nat, nat & rng.integers(0, 2, 20)), ellbit)


def test_counted_histograms_on_every_5_vertex_graph():
    """All 1,024 graphs on 5 labelled vertices, each with seeded bits."""
    rng = np.random.default_rng(5)
    pairs = list(itertools.combinations(range(5), 2))
    for mask in range(1 << len(pairs)):
        adj = graph_from_edges(5, (pair for bit, pair in enumerate(pairs) if mask >> bit & 1))
        ellbit, nat, prov = rng.integers(0, 2, (3, 5))
        assert_coded_equals_anchor(_GraphTables(adj, nat, nat & prov), ellbit)


def random_tables(n, density, seed):
    """_GraphTables of a seeded random graph with seeded natural and
    provisioned bits, and seeded functional bits."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    nat = rng.integers(0, 2, n)
    return _GraphTables(upper | upper.T, nat, nat & rng.integers(0, 2, n)), rng.integers(0, 2, n)


def unique_subsets(adj, size):
    """(rows, t, centres, inverse) of the size-subsets of the neighbourhoods,
    from a loop over the centres in the scan's incidence order (by degree,
    then by centre) and np.unique over the rows: the reference for the
    stable-sort dedupe of _GraphTables."""
    degree = adj.sum(axis=1)
    centres, rows = [], []
    for c in sorted(range(len(adj)), key=lambda c: (degree[c], c)):
        for combo in itertools.combinations(np.flatnonzero(adj[c]).tolist(), size):
            centres.append(c)
            rows.append(combo)
    rows = np.array(rows, dtype=np.int64).reshape(-1, size)
    if not len(rows):  # np.unique along an axis refuses an empty array
        return rows, np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64), np.zeros(0, dtype=np.int64)
    _, first, inverse, t = np.unique(rows, axis=0, return_index=True, return_inverse=True, return_counts=True)
    return rows[first], t, np.array(centres, dtype=np.int64), inverse.ravel()


def unique_codes(tables, ellbit, size):
    """The signature code of every distinct subset of one size, coded from
    the np.unique reference subsets; at size 1 from the vertices."""
    rows, t, centres, inverse = tables.subsets[1] if size == 1 else unique_subsets(tables.adj, size)
    tl = np.bincount(inverse, weights=ellbit[centres], minlength=len(t))
    return rows, _signatures(rows, t, tl, tables, ellbit, size)


def on_random_graphs(test):
    """Run test on 40 seeded random graphs of 0 to 40 vertices, and on the
    edge cases below."""
    for case in (
        example(n=0, density=0.5, seed=0),  # no vertex at all
        example(n=1, density=1.0, seed=1),
        example(n=30, density=0.0, seed=2),  # edgeless: no subset of any size
        example(n=2, density=1.0, seed=3),  # one edge: every degree below 2
        example(n=3, density=1.0, seed=4),  # a triangle: every degree below 3
    ):
        test = case(test)
    graphs = given(n=st.integers(0, 40), density=st.sampled_from([0.0, 0.05, 0.15, 0.4, 1.0]), seed=st.integers(0, 2**32 - 1))
    return settings(derandomize=True, database=None, deadline=None, max_examples=40)(graphs(test))


@on_random_graphs
def test_deduped_subsets_equal_np_unique(n, density, seed):
    """Every field of every size's neighbourhood subsets equals the np.unique
    reference: the rows in lexicographic order, t, the centres and the row
    of every incidence."""
    tables, _ = random_tables(n, density, seed)
    for size in (2, 3):
        want = unique_subsets(tables.adj, size)
        got = tables.subsets[size]
        for field, got_field, want_field in zip(got._fields, got, want):
            assert got_field.shape == want_field.shape, (size, field)
            assert np.array_equal(got_field, want_field), (size, field)


@on_random_graphs
def test_code_histograms_equal_np_unique_counts(n, density, seed):
    """Each size's bincount histogram of the scan's codes has the np.unique
    counts of the reference subsets' codes, within its stated length bound;
    and at threshold 4, where random graphs violate often, the scan's count
    and listing equal those read through np.unique's codes and inverse."""
    tables, ellbit = random_tables(n, density, seed)
    budget = 1 + seed % 300
    for size in (1, 2, 3):
        hist = np.bincount(_subset_codes(tables, ellbit, size))
        codes, counts = np.unique(unique_codes(tables, ellbit, size)[1], return_counts=True)
        assert np.array_equal(np.flatnonzero(hist), codes)
        assert np.array_equal(hist[codes], counts)
        t = tables.subsets[size].t
        assert len(hist) <= (int(t.max(initial=0)) + 1) << (size * (size + 1) // 2 + 3)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "DIM_THRESHOLD", 4)
        mp.setattr(kernels, "LISTING_BUDGET", budget)
        for mode, bits, p in ((MODE_GROUP, np.zeros(n, dtype=np.int64), 3), (MODE_SUBGROUP, ellbit, 5)):
            violations, records = 0, []
            for size in (1, 2, 3):
                rows, row_codes = unique_codes(tables, bits, size)
                codes, row_code, counts = np.unique(row_codes, return_inverse=True, return_counts=True)
                kind, dim_g, dim_s = _verdicts(codes, p, mode, size)
                violations += int(counts @ (kind >= 0).sum(axis=1))
                pats = _rank_tables(p, size)[3]
                for row, r in enumerate(row_code.ravel()):
                    if len(records) >= budget:
                        break
                    sup = tuple(rows[row].tolist())
                    records += [(int(kind[r, ci]), sup, pats[ci], int(dim_g[r, ci]), int(dim_s[r, ci])) for ci in np.flatnonzero(kind[r] >= 0)]
            assert _scan_arrays(tables, bits, p, mode, 3)[2:] == (violations, records[:budget])


def coded_rows(monkeypatch, scan):
    """The result of scan() and the number of rows it gave a signature code."""
    rows = []
    signatures = kernels._signatures

    def counting(sup, *args):
        rows.append(len(sup))
        return signatures(sup, *args)

    monkeypatch.setattr(kernels, "_signatures", counting)
    return scan(), sum(rows)


def subset_bound(adj):
    """n + sum_v (C(deg v, 2) + C(deg v, 3)): the vertices and every
    neighbourhood pair and triple, once per centre."""
    return len(adj) + sum(math.comb(int(d), 2) + math.comb(int(d), 3) for d in adj.sum(axis=1))


def test_count_encodes_only_vertices_and_neighbourhood_subsets(monkeypatch):
    """The count computes signature codes for the single vertices and the
    neighbourhood pairs and triples, never for every (edge, third vertex)
    pair, each once: at most n + sum_v C(deg v, 2) + sum_v C(deg v, 3) rows."""
    ctx = GroupContext(build_fragment(range(11), all_pairs(range(11))), 3)
    res, rows = coded_rows(monkeypatch, lambda: scan_group_bound(ctx))
    bound = subset_bound(kernels._adjacency_matrix(ctx.adj))
    assert bound == 2871
    assert res.ok and res.elements_checked == 31_028_712
    assert rows <= bound


def test_the_rank_table_budget_counts_every_elimination(monkeypatch):
    """The budget's count is the number of eliminations _rank_tables runs,
    and it admits every p up to 31 at support budget 3; 37 is the first
    prime it refuses."""
    calls = []
    monkeypatch.setattr(kernels, "rref_indexed", lambda rows, p: calls.append(p) or rref_indexed(rows, p))
    for p in (3, 5, 7):
        calls.clear()
        for size in (1, 2, 3):
            _rank_tables.__wrapped__(p, size)  # past the cache, so every table is built
            assert len(calls) == _rank_table_eliminations(p, size)  # every size up to this one
    assert _rank_table_eliminations(31, 3) == 1_953_090 <= RANK_TABLE_BUDGET
    assert _rank_table_eliminations(37, 3) > RANK_TABLE_BUDGET


def test_scans_past_the_rank_table_budget_refuse_at_once(monkeypatch):
    """At p = 997 the rank tables would list 9.9e8 exponent patterns at
    size 3; both scans refuse before any table is built."""
    monkeypatch.setattr(kernels, "_rank_tables", None)  # any table build would fail
    monkeypatch.setattr(kernels, "_graph_tables", None)
    ctx = GroupContext(fragment18(), 997)
    ell = EdgeFunctional.from_edges([(0, 1)])
    for scan in (lambda: scan_group_bound(ctx), lambda: scan_subgroup_dichotomy(ctx, ell)):
        t0 = time.perf_counter()
        with pytest.raises(BudgetError, match=f"eliminations exceed the budget of {RANK_TABLE_BUDGET}$"):
            scan()
        assert time.perf_counter() - t0 < 0.1


@pytest.mark.parametrize("threshold", [1, 3])
def test_scans_refuse_a_budget_the_lemma_does_not_cover(monkeypatch, threshold):
    """A support with no common neighbour has dimension at most its size, so
    the scans code only neighbourhood subsets while every budget stays
    below the threshold.  At or above it the scan refuses, as an internal
    fault and not as a rejected configuration: check_support_budget keeps
    every caller at 3."""
    monkeypatch.setattr(kernels, "DIM_THRESHOLD", threshold)
    ctx = GroupContext(fragment18(), 3)
    ell = EdgeFunctional.from_edges([(0, 1)])
    for scan in (lambda: scan_group_bound(ctx), lambda: scan_subgroup_dichotomy(ctx, ell)):
        with pytest.raises(RuntimeError) as err:
            scan()
        assert not isinstance(err.value, ConfigError)
    if threshold == 3:
        assert scan_subgroup_dichotomy(ctx, ell, max_support=2).elements_checked == 18 * 2 + 153 * 4


@pytest.mark.parametrize("threshold, violating", [(DIM_THRESHOLD, 0), (4, 0), (3, 27)])
def test_no_support_without_common_neighbours_violates(monkeypatch, threshold, violating):
    """Every t = 0 code of size 2 and 3, for p in {3, 5, 7} and both modes:
    none violates at a threshold above the support size, which is the
    lemma the scans rest on.  At threshold 3 the triples with every pair
    adjacent do: in group mode under each of the 8 ell-bit patterns, in
    subgroup mode only with ell zero on all three, 3 * (8 + 1) codes."""
    monkeypatch.setattr(kernels, "DIM_THRESHOLD", threshold)
    found = 0
    for p, size, mode in itertools.product((3, 5, 7), (2, 3), (MODE_GROUP, MODE_SUBGROUP)):
        codes = np.arange(1 << (size * (size - 1) // 2 + size)) << 2  # t = 0, tl = 0, no natural bits
        kind = _verdicts(codes, p, mode, size)[0]
        found += int((kind >= 0).any(axis=1).sum())
    assert found == violating


def test_size3_scan_memory_stays_small():
    """Peak traced allocation of a bound scan on the 286-vertex fragment,
    with the rank tables already cached: the count holds the adjacency
    matrix, the edges and the neighbourhood subsets, not a row per (edge,
    third vertex) or a row of all pairs per anchor."""
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
    assert peak <= 1_000_000


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
    ctx = GroupContext(frag(), 3)
    prov = _graph_tables(ctx.graph, 1).prov
    want = [
        int(isinstance(v, Natural) and len(gadget_partners(ctx.graph, v.n)) >= PROVISION_PARTNERS)
        for v in ctx.vertex_order
    ]
    assert prov.tolist() == want
    assert sum(want) > 0


def walk_records(tables, ellbit, p, mode, max_support=3):
    """Every violation record of a scan, from the per-anchor walk over every
    support and its own histogram, in ScanResult order."""
    records = []
    for size in range(1, max_support + 1):
        codes = np.flatnonzero(anchor_histogram(tables, ellbit, size))
        kind, dim_g, dim_s = _verdicts(codes, p, mode, size)
        pats = _rank_tables(p, size)[3]
        for sup, t, tl in _support_batches(tables.adj, ellbit, size):
            r = np.searchsorted(codes, _signatures(sup, t, tl, tables, ellbit, size))
            for pos, ci in zip(*np.nonzero(kind[r] >= 0)):
                row = r[pos]
                records.append((int(kind[row, ci]), tuple(sup[pos].tolist()), pats[ci], int(dim_g[row, ci]), int(dim_s[row, ci])))
    return records


def non_nice_fragment(naturals):
    """All pairs of the naturals gadgeted, then every non-edge added with
    probability 0.3, drawn from random.Random(1) in combinations order."""
    graph = build_fragment(range(naturals), all_pairs(range(naturals)))
    rng = random.Random(1)
    extra = [
        (u, w) for u, w in itertools.combinations(graph.vertices, 2) if not graph.has_edge(u, w) and rng.random() < 0.3
    ]
    return build_fragment(range(naturals), all_pairs(range(naturals)), extra_edges=extra)


@functools.cache
def non_nice_scan(mode):
    """The 81-vertex non-nice fragment at p = 3, the dichotomy with R = {0-1}:
    (context, functional, the walk's full listing)."""
    ctx = GroupContext(non_nice_fragment(6), 3)
    ell = EdgeFunctional.from_edges([(0, 1)]) if mode == MODE_SUBGROUP else None
    return ctx, ell, walk_records(_graph_tables(ctx.graph, 3), _ell_bits(ctx, ell), 3, mode)


def run_scan(ctx, ell):
    return scan_group_bound(ctx) if ell is None else scan_subgroup_dichotomy(ctx, ell)


def as_records(ctx, res):
    return [(v.kind, tuple(ctx.vindex[s] for s in v.support), v.exps, v.dim_group, v.dim_subgroup) for v in res.violations]


@pytest.mark.parametrize("mode, count", [(MODE_GROUP, 124_334), (MODE_SUBGROUP, 19_656)], ids=["bound", "dichotomy"])
def test_non_nice_listing_is_the_walks_first_records(mode, count):
    """The exact count equals the walk's full count; the listing is the
    walk's first LISTING_BUDGET records."""
    ctx, ell, walked = non_nice_scan(mode)
    assert len(ctx) == 81
    res = run_scan(ctx, ell)
    assert res.violation_count == len(walked) == count
    assert not res.ok and res.listing_cut
    assert len(res.violations) == LISTING_BUDGET
    assert as_records(ctx, res) == walked[:LISTING_BUDGET]


def test_a_full_listing_walks_no_larger_size(monkeypatch):
    """With the budget filled inside size 1, at its end or inside size 2,
    the scan still counts every violation and lists the walk's first
    records."""
    ctx, ell, walked = non_nice_scan(MODE_GROUP)
    singles = sum(1 for r in walked if len(r[1]) == 1)
    assert 3 < singles < len(walked)
    for budget in (3, singles, singles + 3):
        monkeypatch.setattr(kernels, "LISTING_BUDGET", budget)
        res = run_scan(ctx, ell)
        assert res.violation_count == len(walked)
        assert as_records(ctx, res) == walked[:budget]


@settings(derandomize=True, database=None, deadline=None, max_examples=40)
@given(
    n=st.integers(1, 24),
    density=st.sampled_from([0.0, 0.2, 0.5, 1.0]),
    seed=st.integers(0, 2**32 - 1),
    p=st.sampled_from([3, 5]),
    budget=st.integers(1, 300),
)
def test_listing_is_a_prefix_of_the_walk(n, density, seed, p, budget):
    """At threshold 4, the lowest a support budget of 3 admits, random
    graphs violate often; the walk codes every support, those with no
    common neighbour too, and the count equals the walk's and the listing
    is the walk's first records, in both modes."""
    rng = np.random.default_rng(seed)
    upper = np.triu(rng.random((n, n)) < density, 1)
    nat = rng.integers(0, 2, n)
    tables = _GraphTables(upper | upper.T, nat, nat & rng.integers(0, 2, n))
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kernels, "DIM_THRESHOLD", 4)
        mp.setattr(kernels, "LISTING_BUDGET", budget)
        for mode, ellbit in ((MODE_GROUP, np.zeros(n, dtype=np.int64)), (MODE_SUBGROUP, rng.integers(0, 2, n))):
            walked = walk_records(tables, ellbit, p, mode)
            _, _, count, records = _scan_arrays(tables, ellbit, p, mode, 3)
            assert count == len(walked)
            assert records == walked[:budget]


def test_dense_non_nice_scans_cut_their_listings_quickly():
    """148 vertices, 8 naturals, density 0.3: hundreds of thousands of
    violations are counted, and the listing stops at the budget."""
    ctx = GroupContext(non_nice_fragment(8), 3)
    assert len(ctx) == 148
    for ell in (None, EdgeFunctional.from_edges([(0, 1)])):
        start = time.perf_counter()
        res = run_scan(ctx, ell)
        assert time.perf_counter() - start < 5.0
        assert res.listing_cut and len(res.violations) == LISTING_BUDGET
        assert res.violation_count > 10 * LISTING_BUDGET


def k6_fragment():
    """The 286-vertex fragment of 11 naturals, all pairs gadgeted, with a K6
    planted on its last 6 vertices."""
    graph = build_fragment(range(11), all_pairs(range(11)))
    k6 = [(u, w) for u, w in itertools.combinations(graph.vertices[-6:], 2) if not graph.has_edge(u, w)]
    return build_fragment(range(11), all_pairs(range(11)), extra_edges=k6)


def test_a_planted_k6_lists_from_the_neighbourhood_subsets(monkeypatch):
    """The bound scan lists the walk's 232 records and codes no row beyond
    the vertices and the neighbourhood pairs and triples: at most
    n + sum_v (C(deg v, 2) + C(deg v, 3)) rows, where the walk codes every
    support."""
    ctx = GroupContext(k6_fragment(), 3)
    tables = _graph_tables(ctx.graph, 3)
    walked = walk_records(tables, _ell_bits(ctx, None), 3, MODE_GROUP)
    res, rows = coded_rows(monkeypatch, lambda: scan_group_bound(ctx))
    assert res.violation_count == len(walked) == 232
    assert as_records(ctx, res) == walked
    assert rows <= subset_bound(tables.adj)
