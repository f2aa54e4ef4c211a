"""Batch scans of centralizer dimensions over all small supports.

The scans check every support of size up to 3 with every exponent
pattern, by the closed form of group.centralizer_dim (A. H. Mekler,
Stability of nilpotent groups of class 2 and prime exponent, JSL 46, 1981)
for an element supported on S:

    dim_group    = t + c, t the number of common neighbours of S and c the
                   number of components of the non-adjacency graph on S
    dim_subgroup = dim_group - 1, unless the functional is zero on every
                   common neighbour and sum_{u in C} ell_u e_u = 0 mod p
                   on every component C.

So a verdict depends only on a signature of the support: the size, its
non-adjacent pairs, its vertices where the functional is nonzero, t and
whether the functional is nonzero on a common neighbour; for a single
vertex also whether it is a (provisioned) natural.  No exponent enters
dim_group, so in group mode a signature violates for all (p - 1)^k
exponent patterns or for none.  In subgroup mode M_j = ((p - 1)^j +
(-1)^j (p - 1)) / p of the j-tuples of nonzero residues sum to 0: a
signature with j functional bits has M_j (p - 1)^(k - j) members, and
those where the functional vanishes are a product over the components.

Only the supports with a common neighbour need a signature.  Both
dimensions are at most |S| + t, and every violation but the low kind, which
only a lone natural has, needs a dimension of at least DIM_THRESHOLD.  So a
support of size below the threshold with t = 0 never violates: the scans
code every vertex and, from size 2 on, only the size-subsets of the
neighbourhoods N(v), which hold every support with t >= 1.  A scan refuses,
as an internal fault, a support budget at or above the threshold, where
this would no longer hold; check_support_budget keeps every caller at 3.

The rest is counted in closed form: C(n, k) supports of (p - 1)^k
exponent patterns each, of which C(m, j) C(n - m, k - j) have j of the m
functional ones, with M_j (p - 1)^(k - j) members each.  The count of
violations is exact: the subsets of each signature times its violating
patterns.  The listing reads the violating subsets in lexicographic order,
enumerating exponent patterns once per signature it lists, and stops
after LISTING_BUDGET violations, across sizes too.

A scan builds what it reads of the graph alone (the dense adjacency
matrix, the natural masks and the neighbourhood subsets, by one gather per
degree class and one stable sort per size), then the codes.  Its codes are
histogrammed by np.bincount: a code is below 2^(size(size+1)/2 + 3) *
(max t + 1), so at most 512 n entries.  A scan costs O(n^2 + W log W)
time, W = sum_v (C(deg v, 2) + C(deg v, 3)) the neighbourhood subsets
counted once per centre and n^2 the dense adjacency matrix, and keeps
nothing of its graph or its functional.  Nothing assumes the graph is nice.
"""

from __future__ import annotations

import functools
import itertools
import math
import operator
from dataclasses import dataclass, field
from typing import NamedTuple, Sequence

import numpy as np

from .graphs import ConfigError, Graph, Natural, Vertex
from .group import GroupContext, nonadjacency_components
from .subgroup import DIM_THRESHOLD, EdgeFunctional, provisioned_naturals

MODE_GROUP = 0
MODE_SUBGROUP = 1

KIND_GROUP_BOUND = 0  # non-single-natural support above the group bound
KIND_SUBGROUP_HIGH = 1  # subgroup member, not a lone natural, at/over threshold
KIND_SUBGROUP_LOW = 2  # provisioned lone natural below threshold

LISTING_BUDGET = 10_000  # violations a scan lists; it counts all of them
PATTERN_BLOCK = 1 << 14  # exponent patterns a listing decodes at a time


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
    packed = b"".join(map(int.to_bytes, masks, itertools.repeat(width), itertools.repeat("little")))
    rows = np.frombuffer(packed, dtype=np.uint8)
    return np.unpackbits(rows.reshape(n, width), axis=1, count=n, bitorder="little").view(bool)


def _ell_bits(ctx: GroupContext, ell: EdgeFunctional | None) -> np.ndarray:
    """The functional's nonzero vertices, in vertex order.  Functional
    values are 0 or 1, so the bits are the values."""
    if ell is None:
        return np.zeros(len(ctx), dtype=np.int64)
    return np.fromiter(map(ell.value, ctx.vertex_order), dtype=np.int64, count=len(ctx))


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


def _wedges(dst: np.ndarray, deg: np.ndarray, max_support: int) -> dict[int, tuple[np.ndarray, np.ndarray]]:
    """Every size-subset of every neighbourhood N(c), as the centres c and
    ascending (m, size) rows, from the ordered edges' ends and the degrees,
    for each size from 2 to max_support.  Centres of one degree are taken
    together: their neighbour rows are gathered once and cut into every
    size's combinations."""
    sizes = range(2, max_support + 1)
    start = np.cumsum(deg) - deg
    centres = {size: [np.zeros(0, dtype=np.int64)] for size in sizes}
    rows = {size: [np.zeros((0, size), dtype=np.int64)] for size in sizes}
    for d in np.flatnonzero(np.bincount(deg)[2:]) + 2:
        cs = np.flatnonzero(deg == d)
        nbrs = dst[start[cs][:, None] + np.arange(d)]  # ascending in each row
        for size in range(2, min(d, max_support) + 1):
            combos = _combinations(int(d), size)
            centres[size].append(np.repeat(cs, len(combos)))
            rows[size].append(nbrs[:, combos].reshape(-1, size))
    return {size: (np.concatenate(centres[size]), np.concatenate(rows[size])) for size in sizes}


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
    here reads a functional or a prime.

    The subsets of one size are deduplicated by one stable sort of their
    support keys: a run of equal keys is one subset, its first incidence
    gives the row, its length gives t, and the running count of run starts
    gives each incidence its row.  The rows come out in lexicographic
    order, as np.unique would give them."""

    def __init__(self, adj: np.ndarray, nat: np.ndarray, prov: np.ndarray, max_support: int = 3):
        self.n = n = len(adj)
        self.adj, self.nat, self.prov = adj, nat, prov
        src, dst = np.divmod(np.flatnonzero(adj), n)  # the ordered edges; np.nonzero is several times slower
        degree = np.bincount(src, minlength=n)
        self.subsets = {1: _Subsets(np.arange(n)[:, None], degree, src, dst)}
        for size, (centres, rows) in _wedges(dst, degree, max_support).items():
            keys = _support_keys(rows, n)
            order = np.argsort(keys, kind="stable")
            keys = keys[order]
            run_start = np.ones(len(keys) + 1, dtype=bool)  # the last entry closes the last run
            np.not_equal(keys[1:], keys[:-1], out=run_start[1:-1])
            bounds = np.flatnonzero(run_start)
            inverse = np.empty(len(keys), dtype=np.int64)
            inverse[order] = np.cumsum(run_start[:-1]) - 1
            self.subsets[size] = _Subsets(rows[order[bounds[:-1]]], bounds[1:] - bounds[:-1], centres, inverse)


def _graph_tables(graph: Graph, max_support: int) -> _GraphTables:
    """The tables of one scan of the graph, up to the given support size."""
    provisioned = provisioned_naturals(graph)
    # 2 for a natural, plus 1 when it is provisioned
    flags = np.array([isinstance(v, Natural) and 2 + (v.n in provisioned) for v in graph.vertices], dtype=np.int64)
    return _GraphTables(_adjacency_matrix(graph.masks), flags >> 1, flags & 1, max_support)


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


def _members(p: int, size: int, j: int) -> int:
    """The exponent patterns of a support with j functional bits that the
    functional sends to 0: M_j (p - 1)^(size - j)."""
    return ((p - 1) ** j + (-1) ** j * (p - 1)) // p * (p - 1) ** (size - j)


def _decode(code: int, size: int):
    """(dim_group, ell_common, components, ell, lone_natural, provisioned) of
    a signature code: t + c, whether the functional is nonzero on a common
    neighbour, the non-adjacency components and the functional's nonzero
    vertices as positional bitmasks (bit size - 1 - u for the u-th vertex,
    as in the code), and the natural bits."""
    nbits = size * (size - 1) // 2
    full = (1 << size) - 1
    adj = [full ^ (1 << b) for b in range(size)]  # positional neighbour bitmasks
    for i, (u, w) in enumerate(itertools.combinations(range(size - 1, -1, -1), 2)):
        if (code >> (1 + size + nbits - i)) & 1:  # the pair is non-adjacent
            adj[u] ^= 1 << w
            adj[w] ^= 1 << u
    components = nonadjacency_components(adj, full)
    head = code >> (2 + size + nbits)  # t, then whether tl > 0
    return (head >> 1) + len(components), head & 1, components, (code >> 2) & full, size == 1 and (code >> 1) & 1, code & 1


def _verdict(code: int, p: int, mode: int, size: int) -> tuple[int, int, int]:
    """(kind, dim_group, violating exponent patterns) of one signature code,
    kind -1 where none violates.  Members with dim_subgroup = dim_group are
    those on which the functional vanishes, counted per component."""
    dim, ell_common, components, ell, lone_natural, provisioned = _decode(code, size)
    if mode == MODE_GROUP:
        bad = not lone_natural and dim >= DIM_THRESHOLD
        return (KIND_GROUP_BOUND, dim, (p - 1) ** size) if bad else (-1, dim, 0)
    members = _members(p, size, ell.bit_count())
    # each component's exponents on the functional's ones sum to 0
    vanishing = 0 if ell_common else math.prod(_members(p, c.bit_count(), (ell & c).bit_count()) for c in components)
    if not lone_natural:
        kind, count = KIND_SUBGROUP_HIGH, members if dim > DIM_THRESHOLD else vanishing if dim == DIM_THRESHOLD else 0
    elif provisioned:
        kind, count = KIND_SUBGROUP_LOW, members if dim < DIM_THRESHOLD else members - vanishing if dim == DIM_THRESHOLD else 0
    else:
        kind, count = -1, 0
    return (kind, dim, count) if count else (-1, dim, 0)


def _patterns(p: int, size: int, start: int, stop: int) -> np.ndarray:
    """Exponent patterns start to stop - 1 of itertools.product(range(1, p),
    repeat=size), as rows, as far as there are any: base-(p - 1) digits
    plus 1."""
    index = np.arange(start, min(stop, (p - 1) ** size), dtype=np.int64)
    digits = np.empty((len(index), size), dtype=np.int64)
    for u in range(size - 1, -1, -1):
        index, digits[:, u] = np.divmod(index, p - 1)
    return digits + 1


def _listing(code: int, p: int, mode: int, size: int):
    """(kind, dim_group, exps, dim_subgroup) of one signature code: its first
    LISTING_BUDGET violating exponent patterns in itertools.product order,
    decoded and checked PATTERN_BLOCK at a time, and each one's subgroup
    dimension (-1 in group mode)."""
    kind, dim, count = _verdict(code, p, mode, size)
    want = min(count, LISTING_BUDGET)
    if mode == MODE_GROUP:
        return kind, dim, list(map(tuple, _patterns(p, size, 0, want).tolist())), [-1] * want
    _, ell_common, components, ell_mask, _, _ = _decode(code, size)
    bits = size - 1 - np.arange(size)
    ell = (ell_mask >> bits) & 1
    on_component = (np.array(components)[None, :] >> bits[:, None]) & ell[:, None]  # (vertex, component) functional bits
    exps, dims = [], []
    for start in range(0, (p - 1) ** size, PATTERN_BLOCK):
        if len(exps) >= want:
            break
        pats = _patterns(p, size, start, start + PATTERN_BLOCK)
        member = pats @ ell % p == 0
        vanish = (not ell_common) & (pats @ on_component % p == 0).all(axis=1)
        dim_s = dim - 1 + vanish
        bad = member & ((dim_s >= DIM_THRESHOLD) if kind == KIND_SUBGROUP_HIGH else (dim_s < DIM_THRESHOLD))
        exps += map(tuple, pats[bad].tolist())
        dims += dim_s[bad].tolist()
    return kind, dim, exps[:want], dims[:want]


def _scan_arrays(tables: _GraphTables, ellbit: np.ndarray, p: int, mode: int, max_support: int):
    """Scan every support up to max_support; returns (elements, members,
    violations, records): the exact violation count and the first
    LISTING_BUDGET records (kind, support indices, exps, dim_group,
    dim_subgroup) in ScanResult order."""
    if max_support >= DIM_THRESHOLD:
        raise RuntimeError(f"supports of size {max_support} can violate with no common neighbour")
    checked = members = violations = 0
    records = []
    ones = int(ellbit.sum())
    for size in range(1, max_support + 1):
        checked += math.comb(tables.n, size) * (p - 1) ** size
        members += sum(math.comb(ones, j) * math.comb(tables.n - ones, size - j) * _members(p, size, j) for j in range(size + 1))
        row_codes = _subset_codes(tables, ellbit, size)
        hist = np.bincount(row_codes)
        codes = np.flatnonzero(hist)
        counts = [_verdict(code, p, mode, size)[2] for code in codes.tolist()]
        violations += sum(map(operator.mul, hist[codes].tolist(), counts))
        bad_code = np.zeros(len(hist), dtype=bool)
        bad_code[codes] = np.array(counts, dtype=bool)
        # each violating row adds at least one record: rows past the budget's remainder go unread
        listed = np.flatnonzero(bad_code[row_codes])[: max(0, LISTING_BUDGET - len(records))]
        listings = {}
        for sup, code in zip(map(tuple, tables.subsets[size].rows[listed].tolist()), row_codes[listed].tolist()):
            if code not in listings:
                listings[code] = _listing(code, p, mode, size)
            kind, dim, exps, dims = listings[code]
            records += zip(itertools.repeat(kind), itertools.repeat(sup), exps, itertools.repeat(dim), dims)
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
        members_checked=members,  # with no functional every element is a member
        violation_count=count,
        # itemgetter of one index gives the item itself, not a 1-tuple
        violations=[
            ScanViolation(k, operator.itemgetter(*sup)(verts) if len(sup) > 1 else (verts[sup[0]],), exps, dg, ds)
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
