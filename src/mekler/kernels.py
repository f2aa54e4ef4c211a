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
rows group.commuting_rows writes, with each support position its own
column, and lists actual supports only for the signatures that violate.

Sizes 2 and 3 are counted from the graph's sparse structure, never by
walking every support, in two steps:

    (1) every support is first counted as if it had no common neighbour
        (t = 0), per positional pattern of non-adjacency and functional
        bits, in closed form.  A pair is an edge or not.  For a triple
        with an edge a < b, the third vertex c lies below, between or
        above the edge, which fixes how the three sort; per region and
        functional bit of c, the triples with c ~ a, c ~ b, both or
        neither follow from |N(a) ∩ region|, |N(b) ∩ region|, |region|
        and the triangles on the edge.  A triple with k edges is counted
        from each of them, so each pattern's count is divided by k.  The
        edge-free supports are the prefix counts over vertex order of each
        functional-bit pattern minus those with an edge;
    (2) a support with t > 0 lies inside some N(v), so it is among the
        size-subsets of the neighbourhoods, built once per scan (centres
        of one degree together) with t and the functional's count on the
        common neighbours.  Each is moved from its t = 0 code to its own.

A scan first builds what it reads of the graph alone (the dense adjacency
matrix, the natural and provisioned masks, the edges, the vertices and
the neighbourhood subsets up to its support budget, and the triangles),
then counts what reads the functional.  It costs O(n^2 + |E| log |E| +
sum_v C(deg v, 3)) time, not O(n^3): the n^2 is reading the dense
adjacency matrix.  Its memory holds that matrix and the neighbourhood
subsets; no scan keeps anything of its graph or its functional.

The count of violations is exact: the supports of each signature times
its violating exponent patterns.  Only the listing looks at supports: it
walks them one anchor (smallest vertex) at a time in lexicographic order,
gives each its t = 0 code and, where it is among the subsets the count
coded, that subset's code, and stops after LISTING_BUDGET violations, so
a graph that violates everywhere lists in about the time it counts.

Nothing assumes the graph is nice.  Agreement with element_dims, the
generic eliminator and brute-force coset counting is asserted in the test
suite.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field
from typing import Iterator, NamedTuple, Sequence

import numpy as np

from .fplinear import FpVector, rref_indexed
from .graphs import ConfigError, Graph, Natural, Vertex
from .group import GroupContext, commuting_kernel_dim, commuting_rows
from .subgroup import DIM_THRESHOLD, EdgeFunctional, provisioned_naturals

MODE_GROUP = 0
MODE_SUBGROUP = 1

KIND_GROUP_BOUND = 0  # non-single-natural support above the group bound
KIND_SUBGROUP_HIGH = 1  # subgroup member, not a lone natural, at/over threshold
KIND_SUBGROUP_LOW = 2  # provisioned lone natural below threshold

LISTING_BUDGET = 10_000  # violations a scan lists; it counts all of them


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
    """Outcome of one scan.  violation_count is exact: the supports of each
    signature times its violating exponent patterns.  violations lists the
    first LISTING_BUDGET of them, ordered by support size, then support (in
    vertex order), then exponent pattern."""

    mode: int
    max_support: int
    elements_checked: int
    members_checked: int
    violation_count: int
    violations: list[ScanViolation] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        return self.violation_count == 0

    @property
    def listing_cut(self) -> bool:
        return len(self.violations) < self.violation_count

    def __bool__(self) -> bool:
        return self.ok


def _adjacency_matrix(masks: Sequence[int]) -> np.ndarray:
    """The neighbour bitmasks unpacked into a dense bool matrix, for the
    scans only; each scan unpacks its own."""
    n, width = len(masks), (len(masks) + 7) // 8
    rows = np.frombuffer(b"".join(m.to_bytes(width, "little") for m in masks), dtype=np.uint8)
    return np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _ell_bits(ctx: GroupContext, ell: EdgeFunctional | None) -> np.ndarray:
    """The functional's nonzero vertices, in vertex order.  Functional
    values are 0 or 1, so the bits are the values."""
    if ell is None:
        return np.zeros(len(ctx), dtype=np.int64)
    return np.fromiter(map(ell.value, ctx.vertex_order), dtype=np.int64, count=len(ctx))


@functools.cache
def _rank_tables(p: int, size: int):
    """Lookup tables over (non-adjacency pattern, exponent pattern, ell bits):
    rank(B) and rank([B; ell|S]) for the within-support block B of the
    commuting system, whose rows group.commuting_rows writes straight into
    columns 0..size-1, position t of the support being column t; also the
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
            rows = list(commuting_rows([dict(enumerate(exps))], nonadj, range(size), p))
            rank_b[na, ci] = len(rref_indexed(rows, p))
            for lp, lrow in enumerate(ell_rows):
                rank_bl[na, ci, lp] = len(rref_indexed(rows + [lrow], p))
    memb = np.array(pats) @ np.array(ell_bits).T % p == 0
    for table in (rank_b, rank_bl, memb):
        table.flags.writeable = False  # shared by every scan through the cache
    return rank_b, rank_bl, memb, pats


def _support_keys(sup: np.ndarray, n: int) -> np.ndarray:
    """One integer per support row, its vertices as base-n digits."""
    key = np.zeros(len(sup), dtype=np.int64)
    for u in range(sup.shape[1]):
        key = key * n + sup[:, u]
    return key


@functools.cache
def _combinations(d: int, size: int) -> np.ndarray:
    """Every ascending size-subset of range(d), as the rows of a read-only array."""
    rows = np.array(list(itertools.combinations(range(d), size)), dtype=np.int64)
    rows.flags.writeable = False
    return rows


def _wedges(dst: np.ndarray, deg: np.ndarray, size: int) -> tuple[np.ndarray, np.ndarray]:
    """Every size-subset of every neighbourhood N(c), as the centres c and
    ascending (m, size) rows, from the ordered edges' ends and the degrees.
    Centres of one degree are taken together."""
    start = np.cumsum(deg) - deg
    centres, rows = [np.zeros(0, dtype=np.int64)], [np.zeros((0, size), dtype=np.int64)]
    for d in np.flatnonzero(np.bincount(deg)[size:]) + size:
        cs = np.flatnonzero(deg == d)
        nbrs = dst[start[cs][:, None] + np.arange(d)]  # ascending in each row
        combos = _combinations(int(d), size)
        centres.append(np.repeat(cs, len(combos)))
        rows.append(nbrs[:, combos].reshape(-1, size))
    return np.concatenate(centres), np.concatenate(rows)


class _Subsets(NamedTuple):
    """The distinct size-subsets of the neighbourhoods N(c) of one graph;
    at size 1 every vertex, an isolated one with t = 0."""

    rows: np.ndarray  # (m, size) ascending rows, in lexicographic order
    t: np.ndarray  # how many N(c) hold each row
    centres: np.ndarray  # the centre c of every (c, subset) incidence
    inverse: np.ndarray  # the row of every incidence


class _GraphTables:
    """What a scan reads of the graph alone, in vertex order: the dense
    adjacency matrix, the natural and provisioned masks, every ordered edge
    (src, dst) by src then dst with the degrees, the vertices, the
    neighbourhood subsets of each size from 2 to max_support and, with the
    pairs, every triangle once per edge, as rows (c, a, b) with a < b in
    N(c) and a ~ b.  Nothing here reads a functional or a prime."""

    def __init__(self, adj: np.ndarray, nat: np.ndarray, prov: np.ndarray, max_support: int = 3):
        self.n = n = len(adj)
        self.adj, self.nat, self.prov = adj, nat, prov
        self.src, self.dst = np.divmod(np.flatnonzero(adj), n)  # np.nonzero is several times slower
        self.degree = np.bincount(self.src, minlength=n)
        self.subsets = {1: _Subsets(np.arange(n)[:, None], self.degree, self.src, self.dst)}
        self.triangles = np.zeros((0, 3), dtype=np.int64)
        for size in range(2, max_support + 1):
            centres, rows = _wedges(self.dst, self.degree, size)
            _, first, inverse, t = np.unique(
                _support_keys(rows, n), return_index=True, return_inverse=True, return_counts=True
            )
            self.subsets[size] = _Subsets(rows[first], t, centres, inverse.ravel())
            if size == 2:
                closed = adj[rows[:, 0], rows[:, 1]]
                self.triangles = np.column_stack([centres[closed], rows[closed]])


def _graph_tables(graph: Graph, max_support: int) -> _GraphTables:
    """The tables of one scan of the graph, up to the given support size."""
    provisioned = provisioned_naturals(graph)
    # 2 for a natural, plus 1 when it is provisioned
    flags = np.array([isinstance(v, Natural) and 2 + (v.n in provisioned) for v in graph.vertices], dtype=np.int64)
    return _GraphTables(_adjacency_matrix(graph.masks), flags >> 1, flags & 1, max_support)


def _pattern_totals(ellbit: np.ndarray, size: int) -> np.ndarray:
    """Supports of each positional functional-bit pattern (first vertex's
    bit highest), from prefix counts over vertex order: ends[pat][j] counts
    the increasing tuples with pattern pat whose last vertex is j."""
    onehot = np.stack([1 - ellbit, ellbit])
    ends = onehot
    for _ in range(size - 1):
        ends = (np.cumsum(ends, axis=-1) - ends)[..., None, :] * onehot
    return ends.sum(axis=-1).ravel()


def _triple_patterns() -> np.ndarray:
    """Pattern (non-adjacency bits, ell bits) of a triple {a, b, c} on an
    edge a < b, indexed by (region, c ~ a, c ~ b, ell bits of a, b, c).
    The region (c below, between or above the edge) fixes how a, b and c
    sort, so it fixes which pattern bits each of them sets."""
    region, ca, cb, la, lb, lc = np.indices((3, 2, 2, 2, 2, 2))
    nonadj_shift = np.array([[2, 1], [2, 0], [1, 0]])[region]  # pairs (c, a) and (c, b)
    ell_shift = np.array([[1, 0, 2], [2, 0, 1], [2, 1, 0]])[region]  # a, b, c
    nonadj = (1 - ca) << nonadj_shift[..., 0] | (1 - cb) << nonadj_shift[..., 1]
    return nonadj << 3 | la << ell_shift[..., 0] | lb << ell_shift[..., 1] | lc << ell_shift[..., 2]


TRIPLE_PATTERN = _triple_patterns()


def _edge_triples(tables: _GraphTables, ellbit: np.ndarray) -> np.ndarray:
    """Triples that contain an edge, per pattern, each counted once from
    every edge it contains.  For an edge a < b the third vertex c lies
    below, between or above it, with ell bit 0 or 1; there the triples with
    c ~ a and c ~ b are the triangles T, those with c ~ a only number
    |N(a) ∩ region| - T, with c ~ b only |N(b) ∩ region| - T, and the rest
    |region| - |N(a) ∩ region| - |N(b) ∩ region| + T.  A pattern reads the
    edge only through the ell bits of a and b, so each count is summed over
    the edges of one (ell bit of a, ell bit of b) class, and each triangle
    is counted in its class (region, ell bits of a, b and c)."""
    n = len(ellbit)
    src, dst, degree = tables.src, tables.dst, tables.degree
    start = np.cumsum(degree) - degree  # row v of the ordered edges is start[v] to end[v]
    end = start + degree
    split = start + np.bincount(src[dst < src], minlength=n)  # first neighbour above v
    e = np.flatnonzero(src < dst)  # the edges a < b, by position
    a, b = src[e], dst[e]
    f = np.searchsorted(src * n + dst, b * n + a)  # the same edges as (b, a)
    # windows (count, region, edge) into one prefix of the ell bits: the
    # vertices of each region, then N(a) and N(b) in it as runs of the edges
    prefix = np.concatenate([[0], np.cumsum(ellbit), [0], np.cumsum(ellbit[dst])])
    lo = np.array([np.zeros_like(a), a + 1, b + 1, start[a], split[a], e + 1, start[b], f + 1, split[b]]).reshape(3, 3, -1)
    hi = np.array([a, b, np.full_like(a, n), split[a], e, end[a], f, split[b], end[b]]).reshape(3, 3, -1)
    lo[1:] += n + 1
    hi[1:] += n + 1
    ones = prefix[hi] - prefix[lo]
    by_ell = np.stack([hi - lo - ones, ones], axis=2)  # (count, region, ell bit of c, edge)
    edge_class = (ellbit[a] << 1 | ellbit[b])[:, None] == np.arange(4)
    # each count summed per class, as (region, ell bits of a, b and c)
    region, near_a, near_b = (by_ell @ edge_class).reshape(3, 3, 2, 2, 2).transpose(0, 1, 3, 4, 2)
    c, x, y = tables.triangles.T
    rt = (c > x).astype(np.int64) + (c > y)  # region of c against the edge x < y
    tri = np.bincount(((rt << 1 | ellbit[x]) << 1 | ellbit[y]) << 1 | ellbit[c], minlength=24).reshape(3, 2, 2, 2)
    # indexed (region, c ~ a, c ~ b, ell bits of a, b and c), like TRIPLE_PATTERN
    weights = np.moveaxis(np.array([[region - near_a - near_b + tri, near_b - tri], [near_a - tri, tri]]), 2, 0)
    return np.bincount(TRIPLE_PATTERN.ravel(), weights=weights.ravel(), minlength=64)


def _t0_patterns(tables: _GraphTables, ellbit: np.ndarray, size: int) -> np.ndarray:
    """Supports of each (non-adjacency bits, ell bits) pattern, counted in
    closed form: those that contain an edge from the edges, the edge-free
    rest as the pattern totals minus those."""
    nbits = size * (size - 1) // 2
    if size == 2:
        a, b = (v[tables.src < tables.dst] for v in (tables.src, tables.dst))
        counts = np.bincount(ellbit[a] << 1 | ellbit[b], minlength=8)
    else:
        counts = _edge_triples(tables, ellbit)
    counts = counts.astype(np.int64).reshape(1 << nbits, 1 << size)
    edges = nbits - np.array([bin(na).count("1") for na in range(1 << nbits)])
    counts[:-1] //= edges[:-1, None]  # a support is counted once from each of its edges
    counts[-1] = _pattern_totals(ellbit, size) - counts[:-1].sum(axis=0)
    return counts.ravel()


def _subset_codes(tables: _GraphTables, ellbit: np.ndarray, size: int) -> np.ndarray:
    """The signature code of every row of tables.subsets[size]: of every
    neighbourhood subset, or at size 1 of every vertex."""
    sub = tables.subsets[size]
    tl = np.bincount(sub.inverse, weights=ellbit[sub.centres], minlength=len(sub.t))
    return _signatures(sub.rows, sub.t, tl, tables, ellbit, size)


def _signature_histogram(tables: _GraphTables, ellbit: np.ndarray, size: int) -> np.ndarray:
    """Supports of the given size per signature code.  Every vertex is
    coded.  Pairs and triples are counted at t = 0 per pattern in closed
    form, then each neighbourhood subset (t >= 1) is moved from its t = 0
    code to its own."""
    code = _subset_codes(tables, ellbit, size)
    if size == 1:
        return np.bincount(code)
    counts = _t0_patterns(tables, ellbit, size)
    nbits = size * (size - 1) // 2
    at_t0 = code & ((1 << (2 + size + nbits)) - 1)  # t and tl > 0 are the top bits
    codes = np.concatenate([np.arange(len(counts)) << 2, at_t0, code])
    weights = np.concatenate([counts, np.full(len(code), -1), np.ones(len(code))])
    # float sums of integer counts are exact below 2**53: n up to about 250,000
    return np.bincount(codes, weights=weights).astype(np.int64)


def _signatures(sup, t, tl, tables: _GraphTables, ellbit, size: int) -> np.ndarray:
    """One integer per support, packing (t, tl > 0, non-adjacency bits,
    ell bits, natural and provisioned bits) from high to low."""
    code = t * 2 + (tl > 0)
    for u, w in itertools.combinations(range(size), 2):
        code = code * 2 + ~tables.adj[sup[:, u], sup[:, w]]
    for u in range(size):
        code = code * 2 + ellbit[sup[:, u]]
    if size == 1:
        return code * 4 + tables.nat[sup[:, 0]] * 2 + tables.prov[sup[:, 0]]
    return code * 4


def _verdicts(codes: np.ndarray, p: int, mode: int, size: int):
    """Decode signature codes against every exponent pattern: (kind,
    dim_group, dim_subgroup, member), each indexed (code, pattern), with
    kind -1 where nothing is violated; in group mode dim_subgroup is -1 and
    member None, every element counting."""
    rank_b, rank_bl, memb, _ = _rank_tables(p, size)
    nbits = size * (size - 1) // 2
    lone_nat = (size == 1) & ((codes >> 1) & 1 == 1)
    provisioned = codes & 1 == 1
    lp = (codes >> 2) & ((1 << size) - 1)
    na = (codes >> (2 + size)) & ((1 << nbits) - 1)
    tl_pos = (codes >> (2 + size + nbits)) & 1
    t = codes >> (3 + size + nbits)
    rb = rank_b[na]  # (signatures, patterns) from here on
    dim_g = size + t[:, None] - rb
    kind = np.full(dim_g.shape, -1)
    if mode == MODE_GROUP:
        kind[~lone_nat[:, None] & (dim_g > DIM_THRESHOLD - 1)] = KIND_GROUP_BOUND
        return kind, dim_g, np.full(dim_g.shape, -1), None
    member = memb[:, lp].T
    vanish = (tl_pos[:, None] == 0) & (rank_bl[na, :, lp] == rb)
    dim_s = dim_g - 1 + vanish
    kind[member & ~lone_nat[:, None] & (dim_s >= DIM_THRESHOLD)] = KIND_SUBGROUP_HIGH
    kind[member & (lone_nat & provisioned)[:, None] & (dim_s < DIM_THRESHOLD)] = KIND_SUBGROUP_LOW
    return kind, dim_g, dim_s, member


def _anchored(n: int, i: int, size: int) -> np.ndarray:
    """Every support of the given size whose smallest vertex is i, in
    lexicographic order."""
    if size == 1:
        return np.array([[i]])
    rest = np.arange(i + 1, n)
    tail = rest[:, None] if size == 2 else rest[np.column_stack(np.triu_indices(len(rest), 1))]
    return np.column_stack([np.full(len(tail), i), tail])


def _violating_supports(tables: _GraphTables, ellbit, size: int, codes, bad) -> Iterator[tuple]:
    """Lazily, in lexicographic order, every support of the given size whose
    code is codes[r] with bad[r] set, as (support indices, r).  Anchor by
    anchor, each support takes its t = 0 code, and the subsets the count
    coded take their own."""
    n = tables.n
    rows = tables.subsets[size].rows
    keys, subset_code = _support_keys(rows, n), _subset_codes(tables, ellbit, size)
    by_anchor = np.searchsorted(rows[:, 0], np.arange(n + 1))  # the rows of anchor i start at by_anchor[i]
    for i in range(n - size + 1):
        sup = _anchored(n, i, size)
        code = _signatures(sup, 0, 0, tables, ellbit, size)
        own = slice(by_anchor[i], by_anchor[i + 1])
        code[np.searchsorted(_support_keys(sup, n), keys[own])] = subset_code[own]
        r = np.searchsorted(codes, code)
        for pos in np.flatnonzero(bad[r]):
            yield tuple(sup[pos].tolist()), r[pos]


def _scan_arrays(tables: _GraphTables, ellbit: np.ndarray, p: int, mode: int, max_support: int):
    """Scan every support up to max_support; returns (elements, members,
    violations, records): the exact violation count and the first
    LISTING_BUDGET records (kind, support indices, exps, dim_group,
    dim_subgroup) in ScanResult order."""
    checked = members = violations = 0
    records = []
    for size in range(1, max_support + 1):
        hist = _signature_histogram(tables, ellbit, size)
        codes = np.flatnonzero(hist)
        counts = hist[codes]
        kind, dim_g, dim_s, member = _verdicts(codes, p, mode, size)
        checked += int(counts.sum()) * kind.shape[1]
        if member is not None:
            members += int((counts[:, None] * member).sum())
        bad = kind >= 0
        if not bad.any():
            continue
        violations += int(counts @ bad.sum(axis=1))
        if len(records) >= LISTING_BUDGET:
            continue
        pats = _rank_tables(p, size)[3]
        for sup, r in _violating_supports(tables, ellbit, size, codes, bad.any(axis=1)):
            records += [(int(kind[r, ci]), sup, pats[ci], int(dim_g[r, ci]), int(dim_s[r, ci])) for ci in np.flatnonzero(bad[r])]
            if len(records) >= LISTING_BUDGET:
                break
    return checked, members, violations, records[:LISTING_BUDGET]


def check_support_budget(max_support: int) -> None:
    """Refuse a support budget the scans do not cover."""
    if max_support < 1:
        raise ConfigError(f"support budget must be 1 to 3, got {max_support}")
    if max_support > 3:
        raise ConfigError("support budgets beyond 3 are not covered by the dichotomy statements")


def _run_scan(ctx, ell, mode, max_support):
    check_support_budget(max_support)
    tables = _graph_tables(ctx.graph, max_support)
    checked, members, count, records = _scan_arrays(tables, _ell_bits(ctx, ell), ctx.p, mode, max_support)
    verts = ctx.vertex_order
    return ScanResult(
        mode=mode,
        max_support=max_support,
        elements_checked=checked,
        members_checked=members if mode == MODE_SUBGROUP else checked,
        violation_count=count,
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
