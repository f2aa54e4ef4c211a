"""Normal-form arithmetic in the free nilpotent class-2 exponent-p group on a
graph's vertices, where two generators commute exactly when their vertices
are adjacent.  The group exists for every graph: niceness is what the
interpretation needs, not the group law, and nothing here checks it.

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
central basis in its (u, w) order; the adjacency ctx.adj is the graph's
own neighbour bitmasks, Graph.masks, one int per vertex index.
Natural/Gadget vertices appear only at the boundary: generator and
central_generator arguments, is_natural_vertex_like and the element text
form.

Elements are immutable slot values.  mul, inv, commutator and
InducedAutomorphism.apply each build the result's generator and central
dicts in one local pass, reading the operands' dicts directly, adding the
cocycle as they go and reducing every sum mod p on the spot.  They, like
identity and the samplers, hand those dicts to _element, which makes the
two vectors and the element with __new__ and the slot setters and checks
nothing a second time: the modulus is checked once, where operands enter
(mul, inv, commutator_vector, apply, apply_coset), and GroupElement's own
constructor, which validates, is left to outside callers.

The samplers draw from the generator's random bits through _below, the
rejection loop random.Random.randrange runs (n.bit_length() bits at a time
until the value falls below n), and pick supports by the two pool paths of
random.Random.sample; so every seeded draw is the one those calls make,
fixed by this module rather than by the standard library's internals.

Centralizer dimensions, common kernels, their witness bases and the
kernel subgroup's center all come from one support-local engine
(commuting_kernel_dim, commuting_kernel_basis).  Its system has one
format: commuting_rows writes each row once, per coset from that coset's
own support, keyed by the final local column, and the columns are numbered
in descending vertex order, so rref_indexed and kernel_basis take the rows
as they are and pivot on the highest vertex; commutation_matrix builds the
same system's index-keyed rows over all columns as its oracle.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Iterable, Iterator, Mapping, Sequence

from .fplinear import FpVector, kernel_basis, rref_indexed
from .graphs import (
    ConfigError,
    Graph,
    Natural,
    Vertex,
    check_prime,
    decode_vertex,
    encode_vertex,
    is_graph_automorphism,
    mask_bits,
)

Coset = FpVector  # generator-side cosets mod the center, keyed by vertex index
Columns = Mapping[int, int] | Sequence[int]  # a commuting system's column of each vertex index


class GroupContext:
    """Graph + odd prime + the fixed orderings all arithmetic refers to.

    Immutable after construction by convention.  The group exists for
    every graph, so a context checks no niceness; graphs.check_nice does,
    where a verdict or a report depends on it.  No central coordinate is
    listed up front: keys are computed on demand and central_key_at unranks
    the k-th one through prefix sums of later non-neighbour counts and one
    vertex's later neighbours.
    """

    def __init__(self, graph: Graph, p: int):
        check_prime(p)
        self.graph = graph
        self.p = p
        self.vertex_order: tuple[Vertex, ...] = graph.vertices
        self.vindex = graph.index
        self.n = n = len(graph.vertices)
        self.adj = graph.masks
        self._later = [0]  # central coordinates (u, w) with u below each index
        for u, mask in enumerate(self.adj):
            self._later.append(self._later[-1] + n - 1 - u - (mask >> (u + 1)).bit_count())
        self.ncentral = self._later[-1]  # C(n, 2) - |E|

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
        w = u + 1 + k - self._later[u]  # the answer if u had no later neighbours
        later = self.adj[u] >> (u + 1) << (u + 1)
        while later:
            low = later & -later
            if low.bit_length() - 1 > w:
                break
            w += 1  # each neighbour at or below w pushes it one further
            later ^= low
        return u * self.n + w

    def __len__(self) -> int:
        return self.n

    def __repr__(self) -> str:
        return f"GroupContext(|V|={self.n}, p={self.p}, central={self.ncentral})"


class GroupElement:
    """An element in normal form: generator part gen (keyed by vertex
    index) and central part cen (keyed by central key).  An immutable value:
    equal parts give equal elements with equal hashes."""

    __slots__ = ("gen", "cen")

    def __init__(self, gen: FpVector, cen: FpVector):
        if gen.p != cen.p:
            raise ValueError("generator and central parts disagree on modulus")
        _set_gen(self, gen)
        _set_cen(self, cen)

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupElement is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GroupElement is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not GroupElement:
            return NotImplemented
        # both parts of an element share one modulus, so one check covers both
        g, h = self.gen, other.gen
        return g.p == h.p and g._entries == h._entries and self.cen._entries == other.cen._entries

    def __hash__(self) -> int:
        return hash((self.gen, self.cen))

    def __repr__(self) -> str:
        return f"GroupElement(gen={self.gen!r}, cen={self.cen!r})"


# the slot setters, which bypass the refusing __setattr__
_set_gen = GroupElement.gen.__set__
_set_cen = GroupElement.cen.__set__
_new = object.__new__


def _element(p: int, gen: dict[int, int], cen: dict[int, int]) -> GroupElement:
    """Wrap a generator and a central dict, both already reduced mod p with
    no zeros; the dicts are taken over and nothing is checked again."""
    g = _new(FpVector)
    g.p, g._entries, g._hash = p, gen, None
    c = _new(FpVector)
    c.p, c._entries, c._hash = p, cen, None
    a = _new(GroupElement)
    _set_gen(a, g)
    _set_cen(a, c)
    return a


def identity(ctx: GroupContext) -> GroupElement:
    return _element(ctx.p, {}, {})


def generator(ctx: GroupContext, v: Vertex, exp: int = 1) -> GroupElement:
    if v not in ctx.vindex:
        raise ConfigError(f"{encode_vertex(v)} is not a vertex of this fragment")
    exp %= ctx.p
    return _element(ctx.p, {ctx.vindex[v]: exp} if exp else {}, {})


def central_generator(ctx: GroupContext, u: Vertex, w: Vertex, exp: int = 1) -> GroupElement:
    return GroupElement(FpVector.zero(ctx.p), FpVector(ctx.p, {ctx.central_pair(u, w): exp}))


def from_vectors(ctx: GroupContext, gen: FpVector, cen: FpVector | None = None) -> GroupElement:
    return GroupElement(gen, cen if cen is not None else FpVector.zero(ctx.p))


def mul(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    """a * b in one pass: the generator and central parts add, and the
    central part picks up the cocycle beta(a, b) from collecting b's
    generators past a's: coordinate (u, w), u < w non-adjacent, gets
    a_w * b_u.  Every sum is reduced as it is made."""
    p, n, adj = ctx.p, ctx.n, ctx.adj
    agen, bgen = a.gen, b.gen
    if agen.p != p or bgen.p != p:
        raise ValueError(f"modulus mismatch: {agen.p} and {bgen.p} vs {p}")
    ag, bg = agen._entries, bgen._entries
    gen = ag.copy()
    for k, c in bg.items():
        s = (gen.get(k, 0) + c) % p
        if s:
            gen[k] = s
        else:
            del gen[k]
    cen = a.cen._entries.copy()
    for k, c in b.cen._entries.items():
        s = (cen.get(k, 0) + c) % p
        if s:
            cen[k] = s
        else:
            del cen[k]
    for w, ca in ag.items():
        adj_w = adj[w]
        for u, cb in bg.items():
            if u < w and not (adj_w >> u) & 1:  # only swaps where a's vertex comes later
                key = u * n + w
                s = (cen.get(key, 0) + ca * cb) % p
                if s:
                    cen[key] = s
                else:
                    del cen[key]
    return _element(p, gen, cen)


def inv(ctx: GroupContext, a: GroupElement) -> GroupElement:
    """a^-1 in one pass: a * a^-1 = e forces gen(a^-1) = -gen(a) and
    cen(a^-1) = -cen(a) + beta(a, a)."""
    p, n, adj = ctx.p, ctx.n, ctx.adj
    agen = a.gen
    if agen.p != p:
        raise ValueError(f"modulus mismatch: {agen.p} vs {p}")
    items = agen._entries.items()
    cen = {k: p - c for k, c in a.cen._entries.items()}
    for w, ca in items:
        adj_w = adj[w]
        for u, cb in items:
            if u < w and not (adj_w >> u) & 1:
                key = u * n + w
                s = (cen.get(key, 0) + ca * cb) % p
                if s:
                    cen[key] = s
                else:
                    del cen[key]
    return _element(p, {k: p - c for k, c in items}, cen)


def pow_(ctx: GroupContext, a: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return pow_(ctx, inv(ctx, a), -k)
    acc = None
    base = a
    while k:
        if k & 1:
            acc = base if acc is None else mul(ctx, acc, base)
        k >>= 1
        if k:  # the square after the top bit would go unused
            base = mul(ctx, base, base)
    return identity(ctx) if acc is None else acc


def commutator_vector(ctx: GroupContext, agen: FpVector, bgen: FpVector) -> FpVector:
    """lambda(a, b): central coordinates of [a, b], bilinear and alternating.

    Coordinate (u, w) gets a_w b_u - a_u b_w; adjacent pairs contribute
    nothing because the generators commute.
    """
    p, n, adj = ctx.p, ctx.n, ctx.adj
    if agen.p != p or bgen.p != p:
        raise ValueError(f"modulus mismatch: {agen.p} and {bgen.p} vs {p}")
    out: dict[int, int] = {}
    bitems = bgen._entries.items()
    for s, ca in agen._entries.items():
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
    return _element(ctx.p, {}, commutator_vector(ctx, a.gen, b.gen)._entries)


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
    return is_vertex_like(a) and isinstance(ctx.vertex_order[vertex_like_parts(a)[0]], Natural)


def commuting_rows(family: Iterable[dict[int, int]], nonadj: Mapping[int, int], col: Columns, p: int) -> Iterator[dict[int, int]]:
    """Rows b |-> a_s b_t - a_t b_s of lambda(a, -), one for each coset a
    (vertex index -> reduced exponent) and each non-adjacent pair {s, t}
    with s in supp(a); nonadj[s] is the bitmask of the vertices not
    adjacent to s, and col[t] is vertex t's column, so each row is written
    once, keyed by its final column indices.  A t outside supp(a) gives the
    single-entry row a_s b_t, which forces b_t = 0; since every such row
    for t is a scalar multiple of the first, column t gets it only the
    first time it comes up in a call.  The forced bitmask records those
    vertices, and a coset walks nonadj[s] & (own | ~forced), own being its
    support, so forced vertices are never visited again except as the
    other end of a two-entry row.  The row span, hence every kernel and
    its reduced echelon basis, is what one row per pair would give.  Rows
    are generated, not listed."""
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
                    yield {col[t]: cs}
                elif s < t:  # the pair {s, t} is met once, from its smaller end
                    yield {col[t]: cs, col[s]: -ct % p}


def _commuting_system(ctx: GroupContext, family: Sequence[Coset], functional) -> tuple[list[int], list[dict[int, int]]]:
    """The commuting system on the columns that can be nonzero in its kernel:
    the family's support S and the common neighbours of S, numbered in
    descending vertex order, so that rref_indexed, pivoting on the lowest
    column, pivots on the highest vertex.  Any other vertex t is
    non-adjacent to some s in S, where a member with a_s != 0 gives the
    single-entry row a_s b_t, so b_t = 0.  Common neighbours are adjacent
    to all of S, so only vertices of S start or meet a row: each s in S
    gets the bitmask of S less its neighbours and itself.  The functional's
    row, if any, comes last."""
    p, adj = ctx.p, ctx.adj
    supmask = 0
    for a in family:
        if a.p != p:
            raise ValueError(f"modulus mismatch: {a.p} vs {p}")
        supmask |= sum(1 << s for s in a._entries)
    common = (1 << ctx.n) - 1
    nonadj: dict[int, int] = {}
    for s in mask_bits(supmask):
        common &= adj[s]
        nonadj[s] = supmask & ~adj[s] & ~(1 << s)
    cols = mask_bits(supmask | common)[::-1]
    col = {v: i for i, v in enumerate(cols)}
    rows = list(commuting_rows([a._entries for a in family], nonadj, col, p))
    if functional is not None:
        rows.append({i: c for i, v in enumerate(cols) if (c := functional.value(ctx.vertex_order[v]) % p)})
    return cols, rows


def commuting_kernel_dim(ctx: GroupContext, family: Sequence[Coset], functional=None) -> int:
    """dim of {b mod Z : [a, b] = e for every a in the family}, intersected
    with the kernel of the functional (anything with value(vertex), such as
    an EdgeFunctional) when one is given."""
    cols, rows = _commuting_system(ctx, family, functional)
    return len(cols) - len(rref_indexed(rows, ctx.p))


def commuting_kernel_basis(ctx: GroupContext, family: Sequence[Coset], functional=None) -> list[Coset]:
    """That kernel's reduced echelon basis over the vertex order, by pivot:
    each vector is 1 at its lowest vertex and 0 at the other pivots.
    kernel_basis lists it by local column, so by descending vertex."""
    cols, rows = _commuting_system(ctx, family, functional)
    return [FpVector.from_reduced(ctx.p, {cols[i]: c for i, c in v.items()}) for v in reversed(kernel_basis(rows, len(cols), ctx.p))]


def commutation_matrix(ctx: GroupContext, agen: FpVector) -> list[dict[int, int]]:
    """Index-keyed rows of b |-> lambda(a, b) over columns 0..n-1, the
    full-column oracle for the support-local engine.

    Only central coordinates touching supp(a) can be nonzero, so rows are
    built for those pairs alone (each row has at most two entries); absent
    rows are zero and cannot change the kernel.
    """
    p = ctx.p
    rows: list[dict[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for s in agen.support():
        for t in range(ctx.n):
            u, w = min(s, t), max(s, t)
            if ctx.nonadjacent(s, t) and (u, w) not in seen:
                seen.add((u, w))
                row = {k: c for k, c in ((u, agen.get(w)), (w, -agen.get(u) % p)) if c}
                if row:
                    rows.append(row)
    return rows


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
        self.moved = sum(1 << i for i, j in enumerate(self.iperm) if i != j)  # the unfixed generators
        self.is_involution = all(self.iperm[j] == i for i, j in enumerate(self.iperm))

    def apply(self, a: GroupElement) -> GroupElement:
        ctx, iperm = self.ctx, self.iperm
        p, n, adj = ctx.p, ctx.n, ctx.adj
        if a.gen.p != p:
            raise ValueError(f"modulus mismatch: {a.gen.p} vs {p}")
        # a permutation sends distinct pairs to distinct pairs, so the
        # images of the central coordinates never collide
        cen: dict[int, int] = {}
        for key, c in a.cen._entries.items():
            iu, iw = iperm[key // n], iperm[key % n]
            if iu < iw:
                cen[iu * n + iw] = c
            else:
                cen[iw * n + iu] = p - c
        # The generator word maps factor by factor; collecting the images
        # back into vertex order picks up a_w a_u at (u, w) wherever the
        # permutation inverts a non-commuting pair.  Permuting coordinates
        # alone would not be a homomorphism.
        word = [(iperm[v], c) for v, c in sorted(a.gen._entries.items())]
        for k, (w, cw) in enumerate(word):
            adj_w = adj[w]
            for u, cu in word[k + 1 :]:
                if u < w and not (adj_w >> u) & 1:
                    key = u * n + w
                    s = (cen.get(key, 0) + cw * cu) % p
                    if s:
                        cen[key] = s
                    else:
                        del cen[key]
        return _element(p, dict(word), cen)

    def apply_coset(self, gen: FpVector) -> FpVector:
        p, iperm = self.ctx.p, self.iperm
        if gen.p != p:
            raise ValueError(f"modulus mismatch: {gen.p} vs {p}")
        return FpVector.from_reduced(p, {iperm[v]: c for v, c in gen._entries.items()})

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


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), n >= 1: n.bit_length() random bits at a time
    until the value falls below n, the loop random.Random.randrange runs."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_element(ctx: GroupContext, rng, max_support: int = 4) -> GroupElement:
    """Random normal-form element with small support and at most two
    central terms, for law suites.  rng is a random.Random; the draws are
    those of rng.randint(0, min(max_support, n)) for the support size k,
    rng.sample(range(n), k) for the support and rng.randint(1, p - 1) for
    each exponent, in that order, then the central part's."""
    if max_support < 0:
        raise ValueError(f"max_support must be non-negative, got {max_support}")
    getrandbits = rng.getrandbits
    n, p = ctx.n, ctx.p
    k = _below(getrandbits, min(max_support, n) + 1)
    # random.Random.sample's two paths: a pool of the unpicked indices when
    # that list is smaller than a k-element set, else a set of the picks
    setsize = 21 if k <= 5 else 21 + 4 ** math.ceil(math.log(k * 3, 4))
    picks = []
    if n <= setsize:
        pool = list(range(n))
        for i in range(k):
            j = _below(getrandbits, n - i)
            picks.append(pool[j])
            pool[j] = pool[n - i - 1]
    else:
        seen = set()
        for _ in range(k):
            j = _below(getrandbits, n)
            while j in seen:
                j = _below(getrandbits, n)
            seen.add(j)
            picks.append(j)
    gen = {i: 1 + _below(getrandbits, p - 1) for i in picks}
    return _element(p, gen, _random_central_part(ctx, getrandbits, 2))


def random_central(ctx: GroupContext, rng, max_terms: int = 3) -> GroupElement:
    """Random central element with at most max_terms terms, drawn as
    rng.randint(0, max_terms) terms of a rng.randrange(ncentral) pair and a
    rng.randint(1, p - 1) exponent each (no draw when ncentral is 0)."""
    if max_terms < 0:
        raise ValueError(f"max_terms must be non-negative, got {max_terms}")
    return _element(ctx.p, {}, _random_central_part(ctx, rng.getrandbits, max_terms))


def _random_central_part(ctx: GroupContext, getrandbits, max_terms: int) -> dict[int, int]:
    cen: dict[int, int] = {}
    if ctx.ncentral:
        for _ in range(_below(getrandbits, max_terms + 1)):
            key = ctx.central_key_at(_below(getrandbits, ctx.ncentral))  # draw the pair before its exponent
            cen[key] = 1 + _below(getrandbits, ctx.p - 1)
    return cen
