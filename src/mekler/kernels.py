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
whether it is a natural and whether it is provisioned.  Each signature is
checked once against every exponent pattern through rank tables, built once
per (p, size) from the rows group.commuting_rows writes, with each support
position its own column.

Only the supports with a common neighbour need a signature.  Both
dimensions are at most |S| + t, and every violation but the low kind, which
only a lone natural has, needs a dimension of at least DIM_THRESHOLD.  So a
support of size below the threshold with t = 0 never violates: the scans
code every vertex and, from size 2 on, only the size-subsets of the
neighbourhoods N(v), which hold every support with t >= 1.  A scan refuses,
as an internal fault, a support budget at or above the threshold, where
this would no longer hold; check_support_budget keeps every caller at 3.

What needs no signature is counted in closed form: C(n, size) supports of
(p - 1)^size exponent patterns each, and the subgroup members per
functional-bit pattern from prefix counts over vertex order, times the
members of each pattern in the rank tables' membership table.  The count of
violations is exact: the subsets of each signature times its violating
exponent patterns.  The listing reads the violating subsets in their
lexicographic order and stops after LISTING_BUDGET violations, across sizes
too, so it costs no more than the count.

A scan builds what it reads of the graph alone (the dense adjacency
matrix, the natural and provisioned masks and the neighbourhood subsets up
to its support budget), then codes what reads the functional.  It costs
O(n^2 + |E| log |E| + sum_v C(deg v, 3)) time, the n^2 being the dense
adjacency matrix, and keeps nothing of its graph or its functional.
Nothing assumes the graph is nice.  Agreement with the generic eliminator,
brute-force coset counting and a walk over every support is asserted in
the test suite.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .fplinear import rref_indexed
from .graphs import ConfigError, Graph, Natural, Vertex
from .group import GroupContext, commuting_rows
from .subgroup import DIM_THRESHOLD, EdgeFunctional, provisioned_naturals

MODE_GROUP = 0
MODE_SUBGROUP = 1

KIND_GROUP_BOUND = 0  # non-single-natural support above the group bound
KIND_SUBGROUP_HIGH = 1  # subgroup member, not a lone natural, at/over threshold
KIND_SUBGROUP_LOW = 2  # provisioned lone natural below threshold

LISTING_BUDGET = 10_000  # violations a scan lists; it counts all of them


# --- signature scan ------------------------------------------------------------


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
    adjacency matrix, the natural and provisioned masks, every vertex and
    the neighbourhood subsets of each size from 2 to max_support.  Nothing
    here reads a functional or a prime."""

    def __init__(self, adj: np.ndarray, nat: np.ndarray, prov: np.ndarray, max_support: int = 3):
        self.n = n = len(adj)
        self.adj, self.nat, self.prov = adj, nat, prov
        src, dst = np.divmod(np.flatnonzero(adj), n)  # the ordered edges; np.nonzero is several times slower
        degree = np.bincount(src, minlength=n)
        self.subsets = {1: _Subsets(np.arange(n)[:, None], degree, src, dst)}
        for size in range(2, max_support + 1):
            centres, rows = _wedges(dst, degree, size)
            _, first, inverse, t = np.unique(
                _support_keys(rows, n), return_index=True, return_inverse=True, return_counts=True
            )
            self.subsets[size] = _Subsets(rows[first], t, centres, inverse.ravel())


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


def _subset_codes(tables: _GraphTables, ellbit: np.ndarray, size: int) -> np.ndarray:
    """The signature code of every row of tables.subsets[size]: of every
    neighbourhood subset, or at size 1 of every vertex."""
    sub = tables.subsets[size]
    tl = np.bincount(sub.inverse, weights=ellbit[sub.centres], minlength=len(sub.t))
    return _signatures(sub.rows, sub.t, tl, tables, ellbit, size)


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
    dim_group, dim_subgroup), each indexed (code, pattern), with kind -1
    where nothing is violated; in group mode dim_subgroup is -1."""
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
        return kind, dim_g, np.full(dim_g.shape, -1)
    member = memb[:, lp].T
    vanish = (tl_pos[:, None] == 0) & (rank_bl[na, :, lp] == rb)
    dim_s = dim_g - 1 + vanish
    kind[member & ~lone_nat[:, None] & (dim_s >= DIM_THRESHOLD)] = KIND_SUBGROUP_HIGH
    kind[member & (lone_nat & provisioned)[:, None] & (dim_s < DIM_THRESHOLD)] = KIND_SUBGROUP_LOW
    return kind, dim_g, dim_s


def _scan_arrays(tables: _GraphTables, ellbit: np.ndarray, p: int, mode: int, max_support: int):
    """Scan every support up to max_support; returns (elements, members,
    violations, records): the exact violation count and the first
    LISTING_BUDGET records (kind, support indices, exps, dim_group,
    dim_subgroup) in ScanResult order."""
    if max_support >= DIM_THRESHOLD:
        raise RuntimeError(f"supports of size {max_support} can violate with no common neighbour")
    checked = members = violations = 0
    records = []
    for size in range(1, max_support + 1):
        _, _, memb, pats = _rank_tables(p, size)
        checked += math.comb(tables.n, size) * len(pats)
        members += int(_pattern_totals(ellbit, size) @ memb.sum(axis=0))
        codes, row_code, counts = np.unique(_subset_codes(tables, ellbit, size), return_inverse=True, return_counts=True)
        kind, dim_g, dim_s = _verdicts(codes, p, mode, size)
        bad = kind >= 0
        violations += int(counts @ bad.sum(axis=1))
        rows = tables.subsets[size].rows
        for row in np.flatnonzero(bad.any(axis=1)[row_code]):
            if len(records) >= LISTING_BUDGET:
                break
            r, sup = row_code[row], tuple(rows[row].tolist())
            records += [(int(kind[r, ci]), sup, pats[ci], int(dim_g[r, ci]), int(dim_s[r, ci])) for ci in np.flatnonzero(bad[r])]
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
        members_checked=members,  # with no functional every element is a member
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
