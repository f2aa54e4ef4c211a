"""Normal-form arithmetic in the free nilpotent class-2 exponent-p group on a
graph's vertices, where two generators commute exactly when their vertices
are adjacent.

Every element is written uniquely as an ordered product of generator powers
(ascending vertex order) times a central word.  The center is an F_p space
with one basis coordinate per non-adjacent vertex pair (u, w), u < w,
standing for the commutator of the later generator with the earlier one.
Multiplication collects the right factor's generators leftward, so the
cocycle picks up a_w * b_u at coordinate (u, w); commutators use the
convention [g, h] = g^-1 h^-1 g h, giving the alternating form
lambda(a, b)_(u,w) = a_w b_u - a_u b_w on generator cosets.

Centralizer dimensions, common kernels and their witness bases all come
from one support-local engine (commuting_kernel_dim, commuting_kernel_basis);
commutation_matrix builds the same system over all columns as its oracle.
"""

from __future__ import annotations

import re
import warnings
from dataclasses import dataclass
from typing import Iterable, NamedTuple, Sequence

from .fplinear import FpMatrix, FpVector, is_odd_prime, kernel_basis_indexed, rref_indexed
from .graphs import (
    Gadget,
    Graph,
    Natural,
    Vertex,
    check_nice,
    decode_vertex,
    encode_vertex,
    host_degree,
    is_graph_automorphism,
    vertex_key,
)

Pair = tuple[Vertex, Vertex]
Coset = FpVector  # generator-side cosets mod the center are plain F_p vectors


class GroupContext:
    """Graph + odd prime + the fixed orderings all arithmetic refers to.

    Immutable after construction by convention.  Building a context on a
    graph that is not nice issues a warning (the construction stays a
    perfectly good group; the model-theoretic guarantees are what need
    niceness).
    """

    def __init__(self, graph: Graph, p: int, warn_not_nice: bool = True):
        if not is_odd_prime(p):
            raise ValueError(f"p must be an odd prime, got {p}")
        self.graph = graph
        self.p = p
        self.vertex_order: tuple[Vertex, ...] = graph.vertices
        self.vindex = graph.index
        basis: list[Pair] = []
        verts = self.vertex_order
        for i, u in enumerate(verts):
            adj_u = graph.adjacency[u]
            for w in verts[i + 1 :]:
                if w not in adj_u:
                    basis.append((u, w))
        self.central_basis: tuple[Pair, ...] = tuple(basis)
        self.cindex = {pr: i for i, pr in enumerate(basis)}
        self.nice_report = check_nice(graph)
        if warn_not_nice and not self.nice_report.is_nice:
            warnings.warn(f"graph is not nice ({self.nice_report.summary()})", stacklevel=2)

    def nonadjacent(self, u: Vertex, w: Vertex) -> bool:
        return u != w and w not in self.graph.adjacency[u]

    def central_pair(self, u: Vertex, w: Vertex) -> Pair:
        pr = (u, w) if vertex_key(u) < vertex_key(w) else (w, u)
        if pr not in self.cindex:
            raise ValueError(f"({encode_vertex(pr[0])}, {encode_vertex(pr[1])}) is not a central basis pair")
        return pr

    def __len__(self) -> int:
        return len(self.vertex_order)

    def __repr__(self) -> str:
        return f"GroupContext(|V|={len(self)}, p={self.p}, central={len(self.central_basis)})"


@dataclass(frozen=True)
class GroupElement:
    gen: FpVector  # keyed by Vertex
    cen: FpVector  # keyed by central basis Pair

    def __post_init__(self):
        if self.gen.p != self.cen.p:
            raise ValueError("generator and central parts disagree on modulus")


def identity(ctx: GroupContext) -> GroupElement:
    return GroupElement(FpVector.zero(ctx.p), FpVector.zero(ctx.p))


def generator(ctx: GroupContext, v: Vertex, exp: int = 1) -> GroupElement:
    if v not in ctx.vindex:
        raise ValueError(f"{encode_vertex(v)} is not a vertex of this fragment")
    return GroupElement(FpVector(ctx.p, {v: exp}), FpVector.zero(ctx.p))


def central_generator(ctx: GroupContext, u: Vertex, w: Vertex, exp: int = 1) -> GroupElement:
    pr = ctx.central_pair(u, w)
    return GroupElement(FpVector.zero(ctx.p), FpVector(ctx.p, {pr: exp}))


def from_vectors(ctx: GroupContext, gen: FpVector, cen: FpVector | None = None) -> GroupElement:
    return GroupElement(gen, cen if cen is not None else FpVector.zero(ctx.p))


def _collection_cocycle(ctx: GroupContext, agen: FpVector, bgen: FpVector) -> FpVector:
    """beta(a, b): central correction from collecting b's generators past a's.

    Coordinate (u, w), u < w non-adjacent, receives a_w * b_u.
    """
    p = ctx.p
    out: dict[Pair, int] = {}
    adj = ctx.graph.adjacency
    for wa, ca in agen.items():
        adj_wa = adj[wa]
        kwa = vertex_key(wa)
        for ub, cb in bgen.items():
            if ub == wa or ub in adj_wa:
                continue
            if vertex_key(ub) < kwa:  # only swaps where a's vertex comes later
                pr = (ub, wa)
                s = (out.get(pr, 0) + ca * cb) % p
                if s:
                    out[pr] = s
                else:
                    out.pop(pr, None)
    return FpVector(p, out)


def mul(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    gen = a.gen + b.gen
    cen = a.cen + b.cen + _collection_cocycle(ctx, a.gen, b.gen)
    return GroupElement(gen, cen)


def inv(ctx: GroupContext, a: GroupElement) -> GroupElement:
    # a * a^-1 = e forces cen(a^-1) = -cen(a) + beta(a, a)
    return GroupElement(-a.gen, -a.cen + _collection_cocycle(ctx, a.gen, a.gen))


def pow_(ctx: GroupContext, a: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return pow_(ctx, inv(ctx, a), -k)
    acc = identity(ctx)
    base = a
    while k:
        if k & 1:
            acc = mul(ctx, acc, base)
        base = mul(ctx, base, base)
        k >>= 1
    return acc


def commutator_vector(ctx: GroupContext, agen: FpVector, bgen: FpVector) -> FpVector:
    """lambda(a, b): central coordinates of [a, b], bilinear and alternating.

    Coordinate (u, w) gets a_w b_u - a_u b_w; adjacent pairs contribute
    nothing because the generators commute.
    """
    p = ctx.p
    out: dict[Pair, int] = {}
    adj = ctx.graph.adjacency
    for s, ca in agen.items():
        adj_s = adj[s]
        ks = vertex_key(s)
        for t, cb in bgen.items():
            if t == s or t in adj_s:
                continue
            if vertex_key(t) < ks:
                pr, term = (t, s), ca * cb  # s plays w: +a_w b_u
            else:
                pr, term = (s, t), -ca * cb  # s plays u: -a_u b_w
            v = (out.get(pr, 0) + term) % p
            if v:
                out[pr] = v
            else:
                out.pop(pr, None)
    return FpVector(p, out)


def commutator(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement(FpVector.zero(ctx.p), commutator_vector(ctx, a.gen, b.gen))


def support(a: GroupElement) -> frozenset[Vertex]:
    return a.gen.support()


def length(a: GroupElement) -> int:
    return len(a.gen)


def is_central(a: GroupElement) -> bool:
    return a.gen.is_zero()


def is_vertex_like(a: GroupElement) -> bool:
    """Support is exactly one vertex: a = x_v^alpha * z."""
    return len(a.gen) == 1


def vertex_like_parts(a: GroupElement) -> tuple[Vertex, int]:
    if not is_vertex_like(a):
        raise ValueError("element is not vertex-like")
    ((v, c),) = a.gen.items()
    return v, c


def is_natural_vertex_like(ctx: GroupContext, a: GroupElement) -> bool:
    """Vertex-like on a vertex of infinite host degree (a natural)."""
    if not is_vertex_like(a):
        return False
    v, _ = vertex_like_parts(a)
    return host_degree(v)[0]


class CentralizerDim(NamedTuple):
    dim: int
    central_input: bool


def commuting_rows(pairs: Iterable[tuple[int, int]], family: Sequence[dict[int, int]], p: int) -> list[dict[int, int]]:
    """Index-keyed rows b |-> a_w b_u - a_u b_w of lambda(a, -) on non-adjacent
    column pairs (u, w), for each coset a (column index -> reduced exponent)."""
    rows = []
    for u, w in pairs:
        for a in family:
            row = {k: c for k, c in ((u, a.get(w, 0)), (w, -a.get(u, 0) % p)) if c}
            if row:
                rows.append(row)
    return rows


def _local_system(ctx: GroupContext, family: Sequence[Coset], functional) -> tuple[list[Vertex], list[dict[int, int]]]:
    """The commuting system on the columns that can be nonzero in its kernel:
    the family's support S and the common neighbours of S, in vertex order.
    Any other column t is non-adjacent to some s in S, where a member with
    a_s != 0 gives the single-entry row -a_s b_t, so b_t = 0."""
    p = ctx.p
    adj = ctx.graph.adjacency
    key = ctx.vindex.__getitem__
    sup = sorted(set().union(*(a.support() for a in family)), key=key)
    common = frozenset.intersection(*(adj[s] for s in sup)) if sup else ctx.vertex_order
    cols = sorted([*sup, *common], key=key)
    local = {v: i for i, v in enumerate(cols)}
    pairs = [(local[u], local[w]) for i, u in enumerate(sup) for w in sup[i + 1 :] if w not in adj[u]]
    rows = commuting_rows(pairs, [{local[v]: c for v, c in a.items()} for a in family], p)
    if functional is not None:
        rows.append({i: c for i, v in enumerate(cols) if (c := functional.value(v) % p)})
    return cols, rows


def commuting_kernel_dim(ctx: GroupContext, family: Sequence[Coset], functional=None) -> int:
    """dim of {b mod Z : [a, b] = e for every a in the family}, intersected
    with the kernel of the functional (anything with value(vertex), such as
    an EdgeFunctional) when one is given."""
    cols, rows = _local_system(ctx, family, functional)
    return len(cols) - len(rref_indexed(rows, ctx.p))


def commuting_kernel_basis(ctx: GroupContext, family: Sequence[Coset], functional=None) -> list[Coset]:
    """That kernel's reduced echelon basis over the vertex order, by pivot."""
    cols, rows = _local_system(ctx, family, functional)
    return [FpVector(ctx.p, {cols[i]: c for i, c in v.items()}) for v in kernel_basis_indexed(rows, len(cols), ctx.p)]


def commutation_matrix(ctx: GroupContext, agen: FpVector) -> FpMatrix:
    """Matrix of b |-> lambda(a, b) over all vertex columns, the oracle for
    the support-local engine.

    Only central coordinates touching supp(a) can be nonzero, so rows are
    built for those pairs alone (each row has at most two entries); absent
    rows are zero and cannot change the kernel.
    """
    p = ctx.p
    rows: list[FpVector] = []
    adj = ctx.graph.adjacency
    seen: set[Pair] = set()
    for s in agen.support():
        adj_s = adj[s]
        for t in ctx.vertex_order:
            if t == s or t in adj_s:
                continue
            pr = (s, t) if vertex_key(s) < vertex_key(t) else (t, s)
            if pr in seen:
                continue
            seen.add(pr)
            u, w = pr
            entries = {}
            aw = agen.get(w)
            au = agen.get(u)
            if aw:
                entries[u] = aw
            if au:
                entries[w] = (-au) % p
            if entries:
                rows.append(FpVector(p, entries))
    return FpMatrix(p, ctx.vertex_order, rows)


def centralizer_dim_mod_center(ctx: GroupContext, a: GroupElement) -> CentralizerDim:
    """dim of {b mod Z : [a, b] = e}, as the kernel of b |-> lambda(a, b).

    A central input centralizes everything: the full dimension |V|, with
    the flag set.
    """
    return CentralizerDim(commuting_kernel_dim(ctx, [a.gen]), is_central(a))


class InducedAutomorphism:
    """Group automorphism induced by a graph automorphism.

    Permutes generator coordinates outright; a central coordinate (u, w)
    lands on the ordered image pair with sign -1 when the images arrive
    out of order (the commutator flips).  The permutation is validated at
    construction, not trusted.
    """

    def __init__(self, ctx: GroupContext, perm: dict[Vertex, Vertex]):
        if not is_graph_automorphism(ctx.graph, perm):
            raise ValueError("mapping is not an automorphism of the fragment")
        self.ctx = ctx
        self.perm = dict(perm)
        pair_map: dict[Pair, tuple[Pair, int]] = {}
        for u, w in ctx.central_basis:
            iu, iw = self.perm[u], self.perm[w]
            if vertex_key(iu) < vertex_key(iw):
                pair_map[(u, w)] = ((iu, iw), 1)
            else:
                pair_map[(u, w)] = ((iw, iu), -1)
        self.pair_map = pair_map
        self.is_involution = all(self.perm[v2] == v for v, v2 in self.perm.items())

    def apply(self, a: GroupElement) -> GroupElement:
        p = self.ctx.p
        cen_entries: dict[Pair, int] = {}
        for pr, c in a.cen.items():
            target, sign = self.pair_map[pr]
            cen_entries[target] = (cen_entries.get(target, 0) + sign * c) % p
        # The generator word maps factor by factor; multiplying the images
        # back together picks up the collection corrections where the
        # permutation inverts a non-commuting pair.  Permuting coordinates
        # alone would not be a homomorphism.
        prod = identity(self.ctx)
        for v in sorted(a.gen.support(), key=vertex_key):
            prod = mul(self.ctx, prod, generator(self.ctx, self.perm[v], a.gen.get(v)))
        return GroupElement(prod.gen, prod.cen + FpVector(p, cen_entries))

    def apply_coset(self, gen: FpVector) -> FpVector:
        return FpVector(self.ctx.p, {self.perm[v]: c for v, c in gen.items()})

    def moves_coset(self, gen: FpVector) -> bool:
        return self.apply_coset(gen) != gen


def induced_automorphism(ctx: GroupContext, perm: dict[Vertex, Vertex], a: GroupElement) -> GroupElement:
    return InducedAutomorphism(ctx, perm).apply(a)


# --- element text form ------------------------------------------------------

_GEN_RE = re.compile(r"^x\[([^\]]+)\]\^(-?\d+)$")
_CEN_RE = re.compile(r"^z\{(.*)\}$")
_PAIR_RE = re.compile(r"\(([^()]+)\):(-?\d+)")


def format_element(ctx: GroupContext, a: GroupElement) -> str:
    """Canonical text form, e.g. x[n:0]^2 * x[g:0,1:0]^1 * z{(n:0,n:1):2}."""
    parts = []
    for v in ctx.vertex_order:
        c = a.gen.get(v)
        if c:
            parts.append(f"x[{encode_vertex(v)}]^{c}")
    cen_bits = []
    for pr in ctx.central_basis:
        c = a.cen.get(pr)
        if c:
            cen_bits.append(f"({encode_vertex(pr[0])},{encode_vertex(pr[1])}):{c}")
    if cen_bits:
        parts.append("z{" + ", ".join(cen_bits) + "}")
    return " * ".join(parts) if parts else "e"


def parse_element(ctx: GroupContext, text: str) -> GroupElement:
    text = text.strip()
    if text == "e":
        return identity(ctx)
    gen: dict[Vertex, int] = {}
    cen: dict[Pair, int] = {}
    for token in (t.strip() for t in text.split("*")):
        m = _GEN_RE.match(token)
        if m:
            v = decode_vertex(m.group(1))
            if v not in ctx.vindex:
                raise ValueError(f"vertex {m.group(1)!r} is not in this fragment")
            gen[v] = gen.get(v, 0) + int(m.group(2))
            continue
        m = _CEN_RE.match(token)
        if m:
            body = m.group(1).strip()
            if body:
                for pm in _PAIR_RE.finditer(body):
                    # gadget encodings contain commas; the pair separator is
                    # the comma directly before the second vertex prefix
                    halves = re.split(r",(?=[ng]:)", pm.group(1), maxsplit=1)
                    if len(halves) != 2:
                        raise ValueError(f"cannot parse central pair {pm.group(1)!r}")
                    pr = ctx.central_pair(decode_vertex(halves[0].strip()), decode_vertex(halves[1].strip()))
                    cen[pr] = cen.get(pr, 0) + int(pm.group(2))
            continue
        raise ValueError(f"cannot parse element token {token!r}")
    return GroupElement(FpVector(ctx.p, gen), FpVector(ctx.p, cen))


# --- sampling ----------------------------------------------------------------


def random_element(
    ctx: GroupContext,
    rng,
    max_support: int = 4,
    max_central: int = 2,
    allow_central_part: bool = True,
) -> GroupElement:
    """Random normal-form element with small support, for law suites."""
    nverts = len(ctx.vertex_order)
    k = rng.randint(0, min(max_support, nverts))
    picks = rng.sample(range(nverts), k)
    gen = {ctx.vertex_order[i]: rng.randint(1, ctx.p - 1) for i in picks}
    cen: dict[Pair, int] = {}
    if allow_central_part and ctx.central_basis:
        for _ in range(rng.randint(0, max_central)):
            pr = ctx.central_basis[rng.randrange(len(ctx.central_basis))]
            cen[pr] = rng.randint(1, ctx.p - 1)
    return GroupElement(FpVector(ctx.p, gen), FpVector(ctx.p, cen))


def random_central(ctx: GroupContext, rng, max_terms: int = 3) -> GroupElement:
    cen: dict[Pair, int] = {}
    if ctx.central_basis:
        for _ in range(rng.randint(0, max_terms)):
            pr = ctx.central_basis[rng.randrange(len(ctx.central_basis))]
            cen[pr] = rng.randint(1, ctx.p - 1)
    return GroupElement(FpVector.zero(ctx.p), FpVector(ctx.p, cen))


def all_vertex_like_cosets(ctx: GroupContext) -> list[FpVector]:
    """Every coset x_v^alpha mod Z, in (vertex order, exponent) order."""
    out = []
    for v in ctx.vertex_order:
        for a in range(1, ctx.p):
            out.append(FpVector(ctx.p, {v: a}))
    return out
