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

Inside the library a vertex is its index in ctx.vertex_order and the
central coordinate (u, w) is the int key u * n + w, so sorted keys are the
central basis in its (u, w) order; adjacency is one int bitmask per vertex.
Natural/Gadget vertices appear only at the boundary: generator and
central_generator arguments and the element text form.

Centralizer dimensions, common kernels, their witness bases and the
kernel subgroup's center all come from one support-local engine
(commuting_kernel_dim, commuting_kernel_basis), whose rows commuting_rows
builds per coset from that coset's own support; commutation_matrix builds
the same system over all columns as its oracle.
"""

from __future__ import annotations

import bisect
import itertools
import re
import warnings
from dataclasses import dataclass
from typing import Iterable, Iterator, Mapping, Sequence

from .fplinear import FpMatrix, FpVector, is_odd_prime, kernel_basis_indexed, rref_indexed
from .graphs import (
    ConfigError,
    Graph,
    Vertex,
    check_nice,
    decode_vertex,
    encode_vertex,
    host_degree,
    is_graph_automorphism,
)

Coset = FpVector  # generator-side cosets mod the center, keyed by vertex index


class GroupContext:
    """Graph + odd prime + the fixed orderings all arithmetic refers to.

    Immutable after construction by convention.  Building a context on a
    graph that is not nice issues a warning (the construction stays a
    perfectly good group; the model-theoretic guarantees are what need
    niceness).  No central coordinate is listed up front: keys are computed
    on demand and central_key_at unranks the k-th one through prefix sums
    of each vertex's count of later non-neighbours.
    """

    def __init__(self, graph: Graph, p: int, warn_not_nice: bool = True):
        if not is_odd_prime(p):
            raise ConfigError(f"p must be an odd prime, got {p}")
        self.graph = graph
        self.p = p
        self.vertex_order: tuple[Vertex, ...] = graph.vertices
        self.vindex = graph.index
        self.n = n = len(graph.vertices)
        self.adj = tuple(sum(1 << graph.index[w] for w in graph.adjacency[v]) for v in graph.vertices)
        self._later = [0]  # central coordinates (u, w) with u below each index
        for u, mask in enumerate(self.adj):
            self._later.append(self._later[-1] + n - 1 - u - (mask >> (u + 1)).bit_count())
        self.ncentral = self._later[-1]  # C(n, 2) - |E|
        self.nice_report = check_nice(graph)
        if warn_not_nice and not self.nice_report.is_nice:
            warnings.warn(f"graph is not nice ({self.nice_report.summary()})", stacklevel=2)

    def nonadjacent(self, u: int, w: int) -> bool:
        return u != w and not (self.adj[u] >> w) & 1

    def central_pair(self, u: Vertex, w: Vertex) -> int:
        """The central key of the non-adjacent vertex pair {u, w}."""
        i, j = sorted((self.vindex.get(u, -1), self.vindex.get(w, -1)))
        if i < 0 or not self.nonadjacent(i, j):
            raise ConfigError(f"({encode_vertex(u)}, {encode_vertex(w)}) is not a central basis pair")
        return i * self.n + j

    def central_key_at(self, k: int) -> int:
        """The k-th central key in ascending order."""
        if not 0 <= k < self.ncentral:
            raise IndexError(f"central coordinate {k} out of range")
        u = bisect.bisect_right(self._later, k) - 1
        free = ~self.adj[u] & ((1 << self.n) - 1) >> (u + 1) << (u + 1)  # non-neighbours above u
        for _ in range(k - self._later[u]):
            free &= free - 1  # drop the lowest
        return u * self.n + (free & -free).bit_length() - 1

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"GroupContext(|V|={self.n}, p={self.p}, central={self.ncentral})"


@dataclass(frozen=True)
class GroupElement:
    gen: FpVector  # keyed by vertex index
    cen: FpVector  # keyed by central key

    def __post_init__(self):
        if self.gen.p != self.cen.p:
            raise ValueError("generator and central parts disagree on modulus")


def identity(ctx: GroupContext) -> GroupElement:
    return GroupElement(FpVector.zero(ctx.p), FpVector.zero(ctx.p))


def generator(ctx: GroupContext, v: Vertex, exp: int = 1) -> GroupElement:
    if v not in ctx.vindex:
        raise ConfigError(f"{encode_vertex(v)} is not a vertex of this fragment")
    return GroupElement(FpVector(ctx.p, {ctx.vindex[v]: exp}), FpVector.zero(ctx.p))


def central_generator(ctx: GroupContext, u: Vertex, w: Vertex, exp: int = 1) -> GroupElement:
    return GroupElement(FpVector.zero(ctx.p), FpVector(ctx.p, {ctx.central_pair(u, w): exp}))


def from_vectors(ctx: GroupContext, gen: FpVector, cen: FpVector | None = None) -> GroupElement:
    return GroupElement(gen, cen if cen is not None else FpVector.zero(ctx.p))


def _accumulate(out: dict[int, int], key: int, c: int, p: int) -> None:
    s = (out.get(key, 0) + c) % p
    if s:
        out[key] = s
    else:
        out.pop(key, None)


def _add_cocycle(ctx: GroupContext, cen: dict[int, int], agen: FpVector, bgen: FpVector) -> FpVector:
    """cen plus beta(a, b), the central correction from collecting b's
    generators past a's: coordinate (u, w), u < w non-adjacent, gets a_w * b_u."""
    p, n, adj = ctx.p, ctx.n, ctx.adj
    bitems = bgen.items()
    for w, ca in agen.items():
        adj_w = adj[w]
        for u, cb in bitems:
            if u < w and not (adj_w >> u) & 1:  # only swaps where a's vertex comes later
                _accumulate(cen, u * n + w, ca * cb, p)
    return FpVector.from_reduced(p, cen)


def mul(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    cen = dict(a.cen.items())
    for k, c in b.cen.items():
        _accumulate(cen, k, c, ctx.p)
    return GroupElement(a.gen + b.gen, _add_cocycle(ctx, cen, a.gen, b.gen))


def inv(ctx: GroupContext, a: GroupElement) -> GroupElement:
    # a * a^-1 = e forces cen(a^-1) = -cen(a) + beta(a, a)
    return GroupElement(-a.gen, _add_cocycle(ctx, dict((-a.cen).items()), a.gen, a.gen))


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
    p, n, adj = ctx.p, ctx.n, ctx.adj
    out: dict[int, int] = {}
    bitems = bgen.items()
    for s, ca in agen.items():
        adj_s = adj[s]
        for t, cb in bitems:
            if t == s or (adj_s >> t) & 1:
                continue
            if t < s:
                key, c = t * n + s, ca * cb  # s plays w: +a_w b_u
            else:
                key, c = s * n + t, -ca * cb  # s plays u: -a_u b_w
            c = (out.get(key, 0) + c) % p
            if c:
                out[key] = c
            else:
                out.pop(key, None)
    return FpVector.from_reduced(p, out)


def commutator(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    return GroupElement(FpVector.zero(ctx.p), commutator_vector(ctx, a.gen, b.gen))


def support(a: GroupElement) -> frozenset[int]:
    return a.gen.support()


def length(a: GroupElement) -> int:
    return len(a.gen)


def is_central(a: GroupElement) -> bool:
    return a.gen.is_zero()


def is_vertex_like(a: GroupElement) -> bool:
    """Support is exactly one vertex: a = x_v^alpha * z."""
    return len(a.gen) == 1


def vertex_like_parts(a: GroupElement) -> tuple[int, int]:
    """(vertex index, exponent) of a vertex-like element."""
    if not is_vertex_like(a):
        raise ValueError("element is not vertex-like")
    ((v, c),) = a.gen.items()
    return v, c


def is_natural_vertex_like(ctx: GroupContext, a: GroupElement) -> bool:
    """Vertex-like on a vertex of infinite host degree (a natural)."""
    if not is_vertex_like(a):
        return False
    v, _ = vertex_like_parts(a)
    return host_degree(ctx.vertex_order[v])[0]


def commuting_rows(family: Sequence[dict[int, int]], nonadj: Mapping[int, int], p: int) -> Iterator[dict[int, int]]:
    """Index-keyed rows b |-> a_s b_t - a_t b_s of lambda(a, -), one for
    each coset a (column index -> reduced exponent) and each non-adjacent
    pair {s, t} with s in supp(a); nonadj[s] is the bitmask of the columns
    not adjacent to s.  A t outside supp(a) gives the single-entry row
    a_s b_t, which forces b_t = 0; since every such row for t is a scalar
    multiple of the first, column t gets it only the first time it comes up
    in a call.  The forced bitmask records those columns, and a coset walks
    nonadj[s] & (own | ~forced), own being its support, so forced columns
    are never visited again except as the other end of a two-entry row.
    The row span, hence every kernel and its reduced echelon basis, is what
    one row per pair would give.  Rows are generated, not listed."""
    forced = 0
    for a in family:
        own = sum(1 << s for s in a)
        for s, cs in a.items():
            mask = nonadj[s] & (own | ~forced)
            while mask:
                low = mask & -mask
                mask ^= low
                t = low.bit_length() - 1
                ct = a.get(t)
                if ct is None:
                    forced |= low
                    yield {t: cs}
                elif s < t:  # the pair {s, t} is met once, from its smaller end
                    yield {t: cs, s: -ct % p}


def _local_system(ctx: GroupContext, family: Sequence[Coset], functional) -> tuple[list[int], Iterable[dict[int, int]]]:
    """The commuting system on the columns that can be nonzero in its kernel:
    the family's support S and the common neighbours of S, in vertex order.
    Any other column t is non-adjacent to some s in S, where a member with
    a_s != 0 gives the single-entry row a_s b_t, so b_t = 0.  Common
    neighbours are adjacent to all of S, so only columns of S start or meet
    a row."""
    p, adj = ctx.p, ctx.adj
    sup = sorted(set().union(*(a.support() for a in family)))
    common = (1 << ctx.n) - 1
    for s in sup:
        common &= adj[s]
    cols = sorted({*sup, *(t for t in range(ctx.n) if (common >> t) & 1)})
    local = {v: i for i, v in enumerate(cols)}
    nonadj = {local[s]: sum(1 << local[t] for t in sup if t != s and not (adj[s] >> t) & 1) for s in sup}
    rows = commuting_rows([{local[v]: c for v, c in a.items()} for a in family], nonadj, p)
    if functional is not None:
        verts = ctx.vertex_order
        rows = itertools.chain(rows, [{i: c for i, v in enumerate(cols) if (c := functional.value(verts[v]) % p)}])
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
    seen: set[tuple[int, int]] = set()
    for s in agen.support():
        for t in range(ctx.n):
            u, w = min(s, t), max(s, t)
            if ctx.nonadjacent(s, t) and (u, w) not in seen:
                seen.add((u, w))
                row = FpVector(p, {u: agen.get(w), w: -agen.get(u)})
                if not row.is_zero():
                    rows.append(row)
    return FpMatrix(p, range(ctx.n), rows)


def centralizer_dim_mod_center(ctx: GroupContext, a: GroupElement) -> int:
    """dim of {b mod Z : [a, b] = e}, as the kernel of b |-> lambda(a, b);
    a central input centralizes everything, dimension |V|."""
    return commuting_kernel_dim(ctx, [a.gen])


class InducedAutomorphism:
    """Group automorphism induced by a graph automorphism.

    Permutes generator indices outright; a central coordinate (u, w) lands
    on the ordered image pair with sign -1 when the images arrive out of
    order (the commutator flips).  The permutation is validated at
    construction, not trusted.
    """

    def __init__(self, ctx: GroupContext, perm: dict[Vertex, Vertex]):
        if not is_graph_automorphism(ctx.graph, perm):
            raise ValueError("mapping is not an automorphism of the fragment")
        self.ctx = ctx
        self.iperm = tuple(ctx.vindex[perm[v]] for v in ctx.vertex_order)
        self.is_involution = all(self.iperm[j] == i for i, j in enumerate(self.iperm))

    def apply(self, a: GroupElement) -> GroupElement:
        ctx, iperm = self.ctx, self.iperm
        p, n, adj = ctx.p, ctx.n, ctx.adj
        cen: dict[int, int] = {}
        for key, c in a.cen.items():
            iu, iw = iperm[key // n], iperm[key % n]
            if iu < iw:
                _accumulate(cen, iu * n + iw, c, p)
            else:
                _accumulate(cen, iw * n + iu, -c, p)
        # The generator word maps factor by factor; collecting the images
        # back into vertex order picks up a_w a_u at (u, w) wherever the
        # permutation inverts a non-commuting pair.  Permuting coordinates
        # alone would not be a homomorphism.
        word = [(iperm[v], c) for v, c in sorted(a.gen.items())]
        for k, (w, cw) in enumerate(word):
            for u, cu in word[k + 1 :]:
                if u < w and not (adj[w] >> u) & 1:
                    _accumulate(cen, u * n + w, cw * cu, p)
        return GroupElement(FpVector.from_reduced(p, dict(word)), FpVector.from_reduced(p, cen))

    def apply_coset(self, gen: FpVector) -> FpVector:
        return FpVector.from_reduced(self.ctx.p, {self.iperm[v]: c for v, c in gen.items()})

    def moves_coset(self, gen: FpVector) -> bool:
        return self.apply_coset(gen) != gen


# --- element text form ------------------------------------------------------

# exponents stop at 4000 digits, inside what int() converts
_GEN_RE = re.compile(r"^x\[([^\]]+)\]\^(-?\d{1,4000})$")
_CEN_RE = re.compile(r"^z\{(.*)\}$")
_PAIR_RE = re.compile(r"\(([^()]+)\):(-?\d{1,4000})")


def format_element(ctx: GroupContext, a: GroupElement) -> str:
    """Canonical text form, e.g. x[n:0]^2 * x[g:0,1:0]^1 * z{(n:0,n:1):2}."""
    verts = ctx.vertex_order
    parts = [f"x[{encode_vertex(verts[v])}]^{c}" for v, c in sorted(a.gen.items())]
    cen_bits = [
        f"({encode_vertex(verts[k // ctx.n])},{encode_vertex(verts[k % ctx.n])}):{c}" for k, c in sorted(a.cen.items())
    ]
    if cen_bits:
        parts.append("z{" + ", ".join(cen_bits) + "}")
    return " * ".join(parts) if parts else "e"


def parse_element(ctx: GroupContext, text: str) -> GroupElement:
    text = text.strip()
    if text == "e":
        return identity(ctx)
    gen: dict[int, int] = {}
    cen: dict[int, int] = {}
    for token in (t.strip() for t in text.split("*")):
        m = _GEN_RE.match(token)
        if m:
            v = decode_vertex(m.group(1))
            if v not in ctx.vindex:
                raise ConfigError(f"vertex {m.group(1)!r} is not in this fragment")
            i = ctx.vindex[v]
            gen[i] = gen.get(i, 0) + int(m.group(2))
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
                        raise ConfigError(f"cannot parse central pair {pm.group(1)!r}")
                    key = ctx.central_pair(decode_vertex(halves[0]), decode_vertex(halves[1]))
                    cen[key] = cen.get(key, 0) + int(pm.group(2))
            continue
        raise ConfigError(f"cannot parse element token {token!r}")
    return GroupElement(FpVector(ctx.p, gen), FpVector(ctx.p, cen))


# --- sampling ----------------------------------------------------------------


def random_element(ctx: GroupContext, rng, max_support: int = 4) -> GroupElement:
    """Random normal-form element with small support and at most two
    central terms, for law suites."""
    k = rng.randint(0, min(max_support, ctx.n))
    gen = {i: rng.randint(1, ctx.p - 1) for i in rng.sample(range(ctx.n), k)}
    return GroupElement(FpVector.from_reduced(ctx.p, gen), random_central(ctx, rng, 2).cen)


def random_central(ctx: GroupContext, rng, max_terms: int = 3) -> GroupElement:
    cen: dict[int, int] = {}
    for _ in range(rng.randint(0, max_terms) if ctx.ncentral else 0):
        key = ctx.central_key_at(rng.randrange(ctx.ncentral))  # draw the pair before its exponent
        cen[key] = rng.randint(1, ctx.p - 1)
    return GroupElement(FpVector.zero(ctx.p), FpVector.from_reduced(ctx.p, cen))
