"""Batch scans of centralizer dimensions over all small supports.

The dichotomy and bound suites check every support pattern of size up to 3
with every exponent pattern; on the adequate fragments that is tens of
millions of elements, far too many for the generic sparse eliminator.  The
per-element computation factors exactly: in the commutation matrix of an
element supported on S, every column outside S is either killed by a
single-entry row (some support vertex non-adjacent to it) or entirely free
(adjacent to all of S), and the S columns are constrained by the tiny block
B of within-support rows.  So

    dim_group    = |S| + #common_neighbors(S) - rank(B)
    dim_subgroup = dim_group - 1, unless the functional vanishes on the
                   kernel: zero on every common neighbor and
                   rank([B; ell|S]) == rank(B).

The verdict on an element therefore depends only on a small signature of
its support: the size, which pairs of S are non-adjacent, which vertices of
S the functional is nonzero on, the number t of common neighbours and
whether the functional is nonzero on one of them; for a single vertex also
whether it is a natural and whether it is provisioned.  A scan counts the
supports of each signature, checks each signature once against every
exponent pattern through rank tables, built once per (p, size) from the
rows of group.commuting_rows, and lists actual supports only for the
signatures that violate.

Sizes 2 and 3 are counted from the graph's sparse structure, never by
walking every support.  The supports fall into three classes:

    (A) supports that contain an edge: each edge times each other vertex,
        kept once under the support's smallest edge, in chunks of edges;
    (B) edge-free supports with t > 0: these lie inside some N(v), so they
        are among the size-subsets of the neighbourhoods;
    (C) every other support: edge-free with t = 0, so its signature is
        fixed by its functional bits alone.  C is never enumerated: prefix
        counts over vertex order give the supports of each functional-bit
        pattern, and A and B are subtracted.

For A and B, t and the functional's count on the common neighbours are
looked up in the sorted multiset of neighbourhood subsets, built once per
scan.  A scan costs O(|E| n + sum_v C(deg v, 3)) time, not O(n^3), and its
memory stays at the adjacency matrix, the neighbourhood subsets and one
chunk of edges.  Walking every support one anchor (smallest vertex) at a
time survives only to list the supports of violating signatures.

Nothing assumes the graph is nice.  Agreement with element_dims, the
generic eliminator and brute-force coset counting is asserted in the test
suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, Sequence

import numpy as np

from .fplinear import FpVector, rref_indexed
from .graphs import ConfigError, Natural, Vertex
from .group import GroupContext, commuting_kernel_dim, commuting_rows
from .subgroup import DIM_THRESHOLD, PROVISION_PARTNERS, EdgeFunctional

MODE_GROUP = 0
MODE_SUBGROUP = 1

KIND_GROUP_BOUND = 0  # non-single-natural support above the group bound
KIND_SUBGROUP_HIGH = 1  # subgroup member, not a lone natural, at/over threshold
KIND_SUBGROUP_LOW = 2  # provisioned lone natural below threshold


def element_dims(
    ctx: GroupContext,
    ell: EdgeFunctional | None,
    support: Sequence[Vertex],
    exps: Sequence[int],
) -> tuple[int, int, bool]:
    """Per-element reference for the scans: (dim_group, dim_subgroup, member).

    With ell None the subgroup entries degenerate to the group ones and
    member is True.  Exponents must be nonzero mod p.
    """
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


# --- signature-histogram scan ---------------------------------------------------


@dataclass
class ScanViolation:
    kind: int
    support: tuple[Vertex, ...]
    exps: tuple[int, ...]
    dim_group: int
    dim_subgroup: int


@dataclass
class ScanResult:
    """Outcome of one scan.  violations are ordered by support size, then
    support (in vertex order), then exponent pattern."""

    mode: int
    max_support: int
    elements_checked: int
    members_checked: int
    violations: list[ScanViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return not self.violations

    def __bool__(self) -> bool:
        return self.ok


def _context_arrays(ctx: GroupContext, ell: EdgeFunctional | None):
    """Adjacency matrix, ell bits, natural mask and provisioned mask, in
    vertex order.  Functional values are 0 or 1, so the bits are the values."""
    adj = ctx.graph.adjacency_matrix().astype(bool)
    if ell is None:
        ellbit = np.zeros(len(ctx), dtype=np.int64)
    else:
        ellbit = (np.array(ell.values(ctx)) % ctx.p != 0).astype(np.int64)
    nat = np.array([isinstance(v, Natural) for v in ctx.vertex_order], dtype=np.int64)
    partners = ctx.graph.partner_counts()
    prov = np.array(
        [isinstance(v, Natural) and partners[v.n] >= PROVISION_PARTNERS for v in ctx.vertex_order],
        dtype=np.int64,
    )
    return adj, ellbit, nat, prov


@functools.cache
def _rank_tables(p: int, size: int):
    """Lookup tables over (non-adjacency pattern, exponent pattern, ell bits):
    rank(B) and rank([B; ell|S]) for the within-support block B of the
    commuting system, whose rows follow group.commuting_rows; also the
    membership table and the exponent patterns themselves."""
    pats = tuple(itertools.product(range(1, p), repeat=size))
    pairs = list(itertools.combinations(range(size), 2))
    nbits = len(pairs)
    ell_bits = [[(lp >> (size - 1 - t)) & 1 for t in range(size)] for lp in range(1 << size)]
    ell_rows = [{t: 1 for t, bit in enumerate(bits) if bit} for bits in ell_bits]
    rank_b = np.zeros((1 << nbits, len(pats)), dtype=np.int64)
    rank_bl = np.zeros((1 << nbits, len(pats), 1 << size), dtype=np.int64)
    for na in range(1 << nbits):
        nonadj = dict.fromkeys(range(size), 0)  # per-column non-adjacency bitmasks of the pattern
        for t, (u, w) in enumerate(pairs):
            if (na >> (nbits - 1 - t)) & 1:
                nonadj[u] |= 1 << w
                nonadj[w] |= 1 << u
        for ci, exps in enumerate(pats):
            rows = list(commuting_rows([dict(enumerate(exps))], nonadj, p))
            rank_b[na, ci] = len(rref_indexed(rows, p))
            for lp, lrow in enumerate(ell_rows):
                rank_bl[na, ci, lp] = len(rref_indexed(rows + [lrow], p))
    memb = np.array(pats) @ np.array(ell_bits).T % p == 0
    for table in (rank_b, rank_bl, memb):
        table.flags.writeable = False  # shared by every scan through the cache
    return rank_b, rank_bl, memb, pats


def _support_batches(adj: np.ndarray, ellbit: np.ndarray, size: int) -> Iterator[tuple]:
    """Every support of the given size in lexicographic order, in batches of
    (supports, t, tl): an (m, size) index array, the common-neighbour count
    of each support and how many of those the functional is nonzero on.
    Size 3 comes one anchor i at a time: t of {i, j, k} counts the v in
    N(i) whose neighbourhood holds the pair (j, k).  O(n^3) for size 3, so
    it serves only the listing of violating supports."""
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


EDGE_CHUNK_SLOTS = 1 << 13  # (edge, third vertex) slots per class-A chunk


def _support_keys(sup: np.ndarray, n: int) -> np.ndarray:
    """One integer per support row, its vertices as base-n digits."""
    key = np.zeros(len(sup), dtype=np.int64)
    for u in range(sup.shape[1]):
        key = key * n + sup[:, u]
    return key


def _neighbourhood_subsets(adj: np.ndarray, ellbit: np.ndarray, max_support: int) -> dict:
    """For each size from 2 to max_support, the distinct size-subsets of the
    neighbourhoods N(v) as sorted keys, with t (how many N(v) hold the
    subset) and tl (how many of those v the functional is nonzero on).
    Vertices of one degree are taken together."""
    n = len(adj)
    deg = adj.sum(axis=1)
    degrees = np.flatnonzero(np.bincount(deg))
    tables = {}
    for size in range(2, max_support + 1):
        keys, weights = [np.zeros(0, dtype=np.int64)], [np.zeros(0, dtype=np.int64)]
        for d in degrees[degrees >= size]:
            centres = np.flatnonzero(deg == d)
            nbrs = np.nonzero(adj[centres])[1].reshape(len(centres), d)  # ascending in each row
            combos = np.array(list(itertools.combinations(range(d), size)))
            keys.append(_support_keys(nbrs[:, combos].reshape(-1, size), n))
            weights.append(np.repeat(ellbit[centres], len(combos)))
        uniq, inverse, t = np.unique(np.concatenate(keys), return_inverse=True, return_counts=True)
        tl = np.bincount(inverse.ravel(), weights=np.concatenate(weights), minlength=len(uniq))
        tables[size] = uniq, t, tl.astype(np.int64)
    return tables


def _edge_supports(adj: np.ndarray, size: int) -> Iterator[np.ndarray]:
    """Class A: every support that contains an edge, once, as sorted rows.
    A triple {a, b, c} is kept under its lexicographically smallest edge
    (a, b), a < b: it is dropped when (a, c) with c < b or (b, c) with
    c < a is an edge.  Edges come EDGE_CHUNK_SLOTS // n at a time."""
    n = len(adj)
    edges = np.argwhere(np.triu(adj, 1))
    if size == 2:
        yield edges
        return
    third = np.arange(n)
    step = max(1, EDGE_CHUNK_SLOTS // n)
    for lo in range(0, len(edges), step):
        a, b = edges[lo : lo + step, 0], edges[lo : lo + step, 1]
        ac, bc = a[:, None], b[:, None]
        keep = (third != ac) & (third != bc) & ~(adj[a] & (third < bc)) & ~(adj[b] & (third < ac))
        row, c = np.nonzero(keep)
        a, b = a[row], b[row]
        low, high = np.minimum(a, c), np.maximum(b, c)
        yield np.column_stack([low, a + b + c - low - high, high])


def _counted_batches(adj: np.ndarray, table, size: int) -> Iterator[tuple]:
    """Batches (supports, t, tl) of classes A and B for size 2 or 3."""
    n = len(adj)
    keys, t, tl = table
    for sup in _edge_supports(adj, size):
        if not len(keys):
            yield sup, np.zeros(len(sup), dtype=np.int64), np.zeros(len(sup), dtype=np.int64)
            continue
        key = _support_keys(sup, n)
        pos = np.minimum(np.searchsorted(keys, key), len(keys) - 1)
        hit = keys[pos] == key
        yield sup, np.where(hit, t[pos], 0), np.where(hit, tl[pos], 0)
    sup = np.column_stack([keys // n ** (size - 1 - u) % n for u in range(size)])
    free = ~np.any([adj[sup[:, u], sup[:, w]] for u, w in itertools.combinations(range(size), 2)], axis=0)
    yield sup[free], t[free], tl[free]


def _pattern_totals(ellbit: np.ndarray, size: int) -> np.ndarray:
    """Supports of each positional functional-bit pattern (first vertex's
    bit highest), from prefix counts over vertex order: ends[pat][j] counts
    the increasing tuples with pattern pat whose last vertex is j."""
    onehot = (1 - ellbit, ellbit)
    ends = {(): None}
    for _ in range(size):
        ends = {
            pat + (bit,): onehot[bit] * (1 if prev is None else np.cumsum(prev) - prev)
            for pat, prev in ends.items()
            for bit in (0, 1)
        }
    return np.array([ends[pat].sum() for pat in itertools.product((0, 1), repeat=size)], dtype=np.int64)


def _signature_histogram(adj, ellbit, nat, prov, size: int, tables: dict) -> np.ndarray:
    """Supports of the given size per signature code, as from
    _support_batches, but with class C counted per functional-bit pattern."""
    n = len(adj)
    if size == 1:
        batches = [(np.arange(n)[:, None], adj.sum(axis=1), adj[:, ellbit == 1].sum(axis=1))]
    else:
        batches = _counted_batches(adj, tables[size], size)
    hist = np.zeros(0, dtype=np.int64)
    for sup, t, tl in batches:
        counts = np.bincount(_signatures(sup, t, tl, adj, ellbit, nat, prov, size))
        hist = np.pad(hist, (0, max(0, len(counts) - len(hist))))
        hist[: len(counts)] += counts
    if size == 1:
        return hist
    seen = np.zeros(1 << size, dtype=np.int64)
    np.add.at(seen, (np.arange(len(hist)) >> 2) & ((1 << size) - 1), hist)
    nbits = size * (size - 1) // 2
    codes = ((((1 << nbits) - 1) << size) + np.arange(1 << size)) << 2  # t = 0, no pair adjacent
    hist = np.pad(hist, (0, max(0, codes[-1] + 1 - len(hist))))
    hist[codes] += _pattern_totals(ellbit, size) - seen
    return hist


def _signatures(sup, t, tl, adj, ellbit, nat, prov, size: int) -> np.ndarray:
    """One integer per support, packing (t, tl > 0, non-adjacency bits,
    ell bits, natural and provisioned bits) from high to low."""
    code = t * 2 + (tl > 0)
    for u, w in itertools.combinations(range(size), 2):
        code = code * 2 + ~adj[sup[:, u], sup[:, w]]
    for u in range(size):
        code = code * 2 + ellbit[sup[:, u]]
    if size == 1:
        return code * 4 + nat[sup[:, 0]] * 2 + prov[sup[:, 0]]
    return code * 4


def _scan_arrays(adj, ellbit, nat, prov, p, mode, max_support):
    """Scan every support up to max_support; returns (elements, members,
    records) with records (kind, support indices, exps, dim_group,
    dim_subgroup) in ScanResult order."""
    checked = 0
    members = 0
    records = []
    tables = _neighbourhood_subsets(adj, ellbit, max_support)
    for size in range(1, max_support + 1):
        rank_b, rank_bl, memb, pats = _rank_tables(p, size)
        hist = _signature_histogram(adj, ellbit, nat, prov, size, tables)
        codes = np.flatnonzero(hist)
        counts = hist[codes]
        nbits = size * (size - 1) // 2
        lone_nat = (size == 1) & ((codes >> 1) & 1 == 1)
        provisioned = codes & 1 == 1
        lp = (codes >> 2) & ((1 << size) - 1)
        na = (codes >> (2 + size)) & ((1 << nbits) - 1)
        tl_pos = (codes >> (2 + size + nbits)) & 1
        t = codes >> (3 + size + nbits)
        rb = rank_b[na]  # (signatures, patterns) from here on
        dim_g = size + t[:, None] - rb
        checked += int(counts.sum()) * len(pats)
        kind = np.full(dim_g.shape, -1)
        if mode == MODE_GROUP:
            dim_s = np.full(dim_g.shape, -1)
            kind[~lone_nat[:, None] & (dim_g > DIM_THRESHOLD - 1)] = KIND_GROUP_BOUND
        else:
            member = memb[:, lp].T
            members += int((counts[:, None] * member).sum())
            vanish = (tl_pos[:, None] == 0) & (rank_bl[na, :, lp] == rb)
            dim_s = dim_g - 1 + vanish
            kind[member & ~lone_nat[:, None] & (dim_s >= DIM_THRESHOLD)] = KIND_SUBGROUP_HIGH
            kind[member & (lone_nat & provisioned)[:, None] & (dim_s < DIM_THRESHOLD)] = KIND_SUBGROUP_LOW
        bad_codes = codes[(kind >= 0).any(axis=1)]
        if not len(bad_codes):
            continue
        for sup, t, tl in _support_batches(adj, ellbit, size):
            code = _signatures(sup, t, tl, adj, ellbit, nat, prov, size)
            for pos in np.flatnonzero(np.isin(code, bad_codes)):
                r = np.searchsorted(codes, code[pos])
                for ci in np.flatnonzero(kind[r] >= 0):
                    records.append(
                        (int(kind[r, ci]), tuple(int(x) for x in sup[pos]), pats[ci], int(dim_g[r, ci]), int(dim_s[r, ci]))
                    )
    return checked, members, records


def _run_scan(ctx, ell, mode, max_support):
    if max_support < 1 or max_support > 3:
        raise ConfigError("support budgets beyond 3 are not covered by the dichotomy statements")
    adj, ellbit, nat, prov = _context_arrays(ctx, ell)
    checked, members, records = _scan_arrays(adj, ellbit, nat, prov, ctx.p, mode, max_support)
    verts = ctx.vertex_order
    return ScanResult(
        mode=mode,
        max_support=max_support,
        elements_checked=checked,
        members_checked=members if mode == MODE_SUBGROUP else checked,
        violations=[
            ScanViolation(kind=k, support=tuple(verts[i] for i in sup), exps=exps, dim_group=dg, dim_subgroup=ds)
            for k, sup, exps, dg, ds in records
        ],
    )


def scan_group_bound(ctx: GroupContext, max_support: int = 3) -> ScanResult:
    """Exhaustively confirm dim_group <= DIM_THRESHOLD - 1 (that is, 5) for
    every support of size up to max_support that is not a lone natural."""
    return _run_scan(ctx, None, MODE_GROUP, max_support)


def scan_subgroup_dichotomy(ctx: GroupContext, ell: EdgeFunctional, max_support: int = 3) -> ScanResult:
    """Exhaustively confirm the subgroup dichotomy on small supports:
    provisioned lone naturals at or above the threshold, everything else
    strictly below it."""
    return _run_scan(ctx, ell, MODE_SUBGROUP, max_support)
