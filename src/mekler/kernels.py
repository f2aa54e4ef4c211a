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
signatures that violate.  Size-3 supports are counted one anchor (smallest
vertex) at a time, so memory stays at one row of pairs.  t is nonzero only
on pairs and triples inside some neighbourhood N(v), so it is counted from
those.
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
    g = ctx.graph
    prov = np.array(
        [isinstance(v, Natural) and len(g.gadget_partners(v.n)) >= PROVISION_PARTNERS for v in ctx.vertex_order],
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
        nonadj = [pr for t, pr in enumerate(pairs) if (na >> (nbits - 1 - t)) & 1]
        for ci, exps in enumerate(pats):
            rows = commuting_rows(nonadj, [dict(enumerate(exps))], p)
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
    N(i) whose neighbourhood holds the pair (j, k)."""
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


def _scan_arrays(adj, ellbit, nat, prov, p, mode, max_support, low, high):
    """Scan every support up to max_support; returns (elements, members,
    records) with records (kind, support indices, exps, dim_group,
    dim_subgroup) in ScanResult order."""
    checked = 0
    members = 0
    records = []
    for size in range(1, max_support + 1):
        rank_b, rank_bl, memb, pats = _rank_tables(p, size)
        hist = np.zeros(0, dtype=np.int64)
        for sup, t, tl in _support_batches(adj, ellbit, size):
            counts = np.bincount(_signatures(sup, t, tl, adj, ellbit, nat, prov, size))
            hist = np.pad(hist, (0, max(0, len(counts) - len(hist))))
            hist[: len(counts)] += counts
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
            kind[~lone_nat[:, None] & (dim_g > high)] = KIND_GROUP_BOUND
        else:
            member = memb[:, lp].T
            members += int((counts[:, None] * member).sum())
            vanish = (tl_pos[:, None] == 0) & (rank_bl[na, :, lp] == rb)
            dim_s = dim_g - 1 + vanish
            kind[member & ~lone_nat[:, None] & (dim_s >= low)] = KIND_SUBGROUP_HIGH
            kind[member & (lone_nat & provisioned)[:, None] & (dim_s < low)] = KIND_SUBGROUP_LOW
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


def _run_scan(ctx, ell, mode, max_support, low, high):
    if max_support < 1 or max_support > 3:
        raise ConfigError("support budgets beyond 3 are not covered by the dichotomy statements")
    adj, ellbit, nat, prov = _context_arrays(ctx, ell)
    checked, members, records = _scan_arrays(adj, ellbit, nat, prov, ctx.p, mode, max_support, low, high)
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


def scan_group_bound(ctx: GroupContext, max_support: int = 3, bound: int = 5) -> ScanResult:
    """Exhaustively confirm dim_group <= bound for every support of size up
    to max_support that is not a lone natural."""
    return _run_scan(ctx, None, MODE_GROUP, max_support, low=DIM_THRESHOLD, high=bound)


def scan_subgroup_dichotomy(ctx: GroupContext, ell: EdgeFunctional, max_support: int = 3) -> ScanResult:
    """Exhaustively confirm the subgroup dichotomy on small supports:
    provisioned lone naturals at or above the threshold, everything else
    strictly below it."""
    return _run_scan(ctx, ell, MODE_SUBGROUP, max_support, low=DIM_THRESHOLD, high=DIM_THRESHOLD - 1)
