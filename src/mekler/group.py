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

An element is one immutable slot value: its modulus p and two plain
dicts, gen (vertex index -> nonzero residue) and cen (central key ->
nonzero residue).  A generator coset, an element read mod Z, is an element
whose cen is ignored, so one type serves both; commuting_kernel_basis
returns cosets as elements with no central part.  mul, inv, commutator and
InducedAutomorphism.apply each build the result's generator and central
dicts in one local pass, reading the operands' dicts directly, adding the
cocycle as they go and reducing every sum mod p on the spot.  They, like
identity and the samplers, hand those dicts to _element, which makes the
element with __new__ and the three slot setters and checks nothing a
second time: the modulus is checked once, where operands enter (mul, inv,
commutator_vector, commutation_matrix, centralizer_dim,
commuting_kernel_basis, apply, apply_coset), and GroupElement's own
constructor, which validates, is left to outside callers.

The samplers draw from the generator's random bits through _below, the
rejection loop random.Random.randrange runs (n.bit_length() bits at a time
until the value falls below n), and pick supports by the two pool paths of
random.Random.sample; so every seeded draw is the one those calls make,
fixed by this module rather than by the standard library's internals.

Centralizer dimensions have a closed form (centralizer_dim, Mekler 1981):
t + c for t common neighbours and c non-adjacency components of the
support.  Witness bases of common kernels and the kernel subgroup's center
come from commuting_kernel_basis: commuting_rows writes each row once,
keyed by its final column, numbered in descending vertex order so that
kernel_basis pivots on the highest vertex.  commutation_matrix builds a
coset's rows over all columns, the closed form's oracle.
"""

from __future__ import annotations

import bisect
import math
import re
from typing import Iterable, Iterator, Mapping, Sequence

from .fplinear import kernel_basis
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
    """An element in normal form over F_p: generator part gen (vertex index
    -> nonzero residue) and central part cen (central key -> nonzero
    residue), plain dicts never mutated.  An immutable value: equal parts
    give equal elements with equal hashes.  The constructor reduces every
    value mod p and drops zeros; the library's own results skip it."""

    __slots__ = ("p", "gen", "cen")

    def __init__(self, p: int, gen: Mapping[int, int], cen: Mapping[int, int]):
        if p < 2:
            raise ValueError("modulus must be at least 2")
        _set_p(self, p)
        _set_gen(self, {k: r for k, c in gen.items() if (r := c % p)})
        _set_cen(self, {k: r for k, c in cen.items() if (r := c % p)})

    def __setattr__(self, name, value):
        raise AttributeError(f"GroupElement is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"GroupElement is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not GroupElement:
            return NotImplemented
        return self.p == other.p and self.gen == other.gen and self.cen == other.cen

    def __hash__(self) -> int:
        return hash((self.p, frozenset(self.gen.items()), frozenset(self.cen.items())))

    def __repr__(self) -> str:
        return f"GroupElement(p={self.p}, gen={self.gen!r}, cen={self.cen!r})"


# the slot setters, which bypass the refusing __setattr__
_set_p = GroupElement.p.__set__
_set_gen = GroupElement.gen.__set__
_set_cen = GroupElement.cen.__set__
_new = object.__new__


def _element(p: int, gen: dict[int, int], cen: dict[int, int]) -> GroupElement:
    """The element of a generator and a central dict, both already reduced
    mod p with no zeros; the dicts are taken over and nothing is checked
    again."""
    a = _new(GroupElement)
    _set_p(a, p)
    _set_gen(a, gen)
    _set_cen(a, cen)
    return a


def _check_modulus(ctx: GroupContext, a: GroupElement) -> None:
    if a.p != ctx.p:
        raise ValueError(f"modulus mismatch: {a.p} vs {ctx.p}")


def identity(ctx: GroupContext) -> GroupElement:
    return _element(ctx.p, {}, {})


def generator(ctx: GroupContext, v: Vertex, exp: int = 1) -> GroupElement:
    if v not in ctx.vindex:
        raise ConfigError(f"{encode_vertex(v)} is not a vertex of this fragment")
    exp %= ctx.p
    return _element(ctx.p, {ctx.vindex[v]: exp} if exp else {}, {})


def central_generator(ctx: GroupContext, u: Vertex, w: Vertex, exp: int = 1) -> GroupElement:
    return GroupElement(ctx.p, {}, {ctx.central_pair(u, w): exp})


def mul(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    """a * b in one pass: the generator and central parts add, and the
    central part picks up the cocycle beta(a, b) from collecting b's
    generators past a's: coordinate (u, w), u < w non-adjacent, gets
    a_w * b_u.  Every sum is reduced as it is made."""
    p, n, adj = ctx.p, ctx.n, ctx.adj
    if a.p != p or b.p != p:
        raise ValueError(f"modulus mismatch: {a.p} and {b.p} vs {p}")
    ag, bg = a.gen, b.gen
    gen = ag.copy()
    for k, c in bg.items():
        s = (gen.get(k, 0) + c) % p
        if s:
            gen[k] = s
        else:
            del gen[k]
    cen = a.cen.copy()
    for k, c in b.cen.items():
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
    _check_modulus(ctx, a)
    items = a.gen.items()
    cen = {k: p - c for k, c in a.cen.items()}
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


def power(times, a, k: int, one):
    """a^k, k >= 0, by squaring with the product times: about 2 log2 k
    products, not k - 1; powers of one element commute."""
    acc = None
    while k:
        if k & 1:
            acc = a if acc is None else times(acc, a)
        k >>= 1
        if k:  # the square after the top bit would go unused
            a = times(a, a)
    return one if acc is None else acc


def pow_(ctx: GroupContext, a: GroupElement, k: int) -> GroupElement:
    if k < 0:
        return pow_(ctx, inv(ctx, a), -k)
    return power(lambda x, y: mul(ctx, x, y), a, k, identity(ctx))


def commutator_vector(ctx: GroupContext, a: GroupElement, b: GroupElement) -> dict[int, int]:
    """lambda(a, b): the central dict of [a, b], bilinear and alternating in
    the cosets a and b (their central parts are not read).

    Coordinate (u, w) gets a_w b_u - a_u b_w; adjacent pairs contribute
    nothing because the generators commute.
    """
    p, n, adj = ctx.p, ctx.n, ctx.adj
    if a.p != p or b.p != p:
        raise ValueError(f"modulus mismatch: {a.p} and {b.p} vs {p}")
    out: dict[int, int] = {}
    bitems = b.gen.items()
    for s, ca in a.gen.items():
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
    return out


def commutator(ctx: GroupContext, a: GroupElement, b: GroupElement) -> GroupElement:
    return _element(ctx.p, {}, commutator_vector(ctx, a, b))


def is_central(a: GroupElement) -> bool:
    return not a.gen


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


def commuting_rows(family: Iterable[dict[int, int]], nonadj: Mapping[int, int], col: Mapping[int, int], p: int) -> Iterator[dict[int, int]]:
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


def commuting_kernel_basis(ctx: GroupContext, family: Sequence[GroupElement], functional=None) -> list[GroupElement]:
    """The reduced echelon basis of {b mod Z : [a, b] = e for every a in the
    family}, within the kernel of the functional (anything with
    value(vertex), such as an EdgeFunctional) when one is given, as
    elements with no central part: each is 1 at its lowest vertex and 0 at
    the other pivots.  The columns are the family's support S and its
    common neighbours, in descending vertex order: any other vertex is
    non-adjacent to some s in S, whose single-entry row kills it.  The
    functional's row comes last."""
    p, adj = ctx.p, ctx.adj
    supmask = 0
    for a in family:
        _check_modulus(ctx, a)
        supmask |= sum(1 << s for s in a.gen)
    common = (1 << ctx.n) - 1
    nonadj: dict[int, int] = {}
    for s in mask_bits(supmask):
        common &= adj[s]
        nonadj[s] = supmask & ~adj[s] & ~(1 << s)
    cols = mask_bits(supmask | common)[::-1]
    col = {v: i for i, v in enumerate(cols)}
    rows = list(commuting_rows([a.gen for a in family], nonadj, col, p))
    if functional is not None:
        rows.append({i: c for i, v in enumerate(cols) if (c := functional.value(ctx.vertex_order[v]) % p)})
    return [_element(p, {cols[i]: c for i, c in v.items()}, {}) for v in reversed(kernel_basis(rows, len(cols), p))]


def commutation_matrix(ctx: GroupContext, a: GroupElement) -> list[dict[int, int]]:
    """Index-keyed rows of b |-> lambda(a, b) over columns 0..n-1 for the
    coset a, the full-column oracle for the closed form.

    Only central coordinates touching supp(a) can be nonzero, so rows are
    built for those pairs alone (each row has at most two entries); absent
    rows are zero and cannot change the kernel.
    """
    _check_modulus(ctx, a)
    p, agen = ctx.p, a.gen
    rows: list[dict[int, int]] = []
    seen: set[tuple[int, int]] = set()
    for s in agen:
        for t in range(ctx.n):
            u, w = min(s, t), max(s, t)
            if ctx.nonadjacent(s, t) and (u, w) not in seen:
                seen.add((u, w))
                row = {k: c for k, c in ((u, agen.get(w, 0)), (w, -agen.get(u, 0) % p)) if c}
                if row:
                    rows.append(row)
    return rows


def nonadjacency_components(adj: Sequence[int], support: int) -> list[int]:
    """The components of the non-adjacency graph on the vertices of the
    bitmask support, as bitmasks, in order of their lowest vertex; adj[v]
    is vertex v's neighbour bitmask."""
    components = []
    while support:
        component = todo = support & -support
        while todo:
            low = todo & -todo
            new = support & ~adj[low.bit_length() - 1] & ~component
            component |= new
            todo ^= low | new
        components.append(component)
        support ^= component
    return components


def centralizer_dim(ctx: GroupContext, a: GroupElement, functional=None) -> int:
    """dim of {b mod Z : [a, b] = e} for the coset of a, within the kernel
    of the functional when one is given, in closed form (A. H. Mekler,
    Stability of nilpotent groups of class 2 and prime exponent, JSL 46,
    1981): t + c, t the number of common neighbours of the support S and c
    the number of components C of the non-adjacency graph on S.  The rows
    a_u b_w - a_w b_u of non-adjacent u, w in S make b a multiple of a on
    each C, a vertex non-adjacent to some of S gets a single-entry row, and
    common neighbours are free.  The functional takes one dimension off
    unless it is zero on every common neighbour and on a|C for every C."""
    _check_modulus(ctx, a)
    p, adj, entries = ctx.p, ctx.adj, a.gen
    support = sum(1 << s for s in entries)
    common = (1 << ctx.n) - 1
    for s in entries:
        common &= adj[s]
    components = nonadjacency_components(adj, support)
    dim = common.bit_count() + len(components)
    if functional is None:
        return dim
    value, verts = functional.value, ctx.vertex_order
    on_common = any(value(verts[v]) % p for v in mask_bits(common))
    return dim - (on_common or any(sum(entries[u] * value(verts[u]) for u in mask_bits(c)) % p for c in components))


def centralizer_dim_mod_center(ctx: GroupContext, a: GroupElement) -> int:
    """dim of {b mod Z : [a, b] = e}, by the closed form; a central input
    centralizes everything, dimension |V|."""
    return centralizer_dim(ctx, a)


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

    def _word(self, a: GroupElement) -> list[tuple[int, int]]:
        """a's generator word mapped factor by factor: (image index,
        exponent) in a's own vertex order."""
        _check_modulus(self.ctx, a)
        iperm = self.iperm
        return [(iperm[v], c) for v, c in sorted(a.gen.items())]

    def apply(self, a: GroupElement) -> GroupElement:
        ctx, iperm = self.ctx, self.iperm
        p, n, adj = ctx.p, ctx.n, ctx.adj
        word = self._word(a)
        # a permutation sends distinct pairs to distinct pairs, so the
        # images of the central coordinates never collide
        cen: dict[int, int] = {}
        for key, c in a.cen.items():
            iu, iw = iperm[key // n], iperm[key % n]
            if iu < iw:
                cen[iu * n + iw] = c
            else:
                cen[iw * n + iu] = p - c
        # Collecting the word's images back into vertex order picks up
        # a_w a_u at (u, w) wherever the permutation inverts a
        # non-commuting pair.  Permuting coordinates alone would not be a
        # homomorphism.
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

    def apply_coset(self, a: GroupElement) -> GroupElement:
        """The image of a's coset, with no central part."""
        return _element(self.ctx.p, dict(self._word(a)), {})

    def moves_coset(self, a: GroupElement) -> bool:
        return self.apply_coset(a).gen != a.gen


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
    return GroupElement(ctx.p, gen, cen)


# --- sampling ----------------------------------------------------------------

SAMPLE_SUPPORT = 4  # the most generators random_element draws
SAMPLE_TERMS = 3  # the most central terms random_central draws


def _below(getrandbits, n: int) -> int:
    """A draw from range(n), n >= 1: n.bit_length() random bits at a time
    until the value falls below n, the loop random.Random.randrange runs."""
    k = n.bit_length()
    r = getrandbits(k)
    while r >= n:
        r = getrandbits(k)
    return r


def random_element(ctx: GroupContext, rng) -> GroupElement:
    """Random normal-form element with small support and at most two
    central terms, for law suites.  rng is a random.Random; the draws are
    those of rng.randint(0, min(SAMPLE_SUPPORT, n)) for the support size k,
    rng.sample(range(n), k) for the support and rng.randint(1, p - 1) for
    each exponent, in that order, then the central part's."""
    getrandbits = rng.getrandbits
    n, p = ctx.n, ctx.p
    k = _below(getrandbits, min(SAMPLE_SUPPORT, n) + 1)
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


def random_central(ctx: GroupContext, rng) -> GroupElement:
    """Random central element with at most SAMPLE_TERMS terms, drawn as
    rng.randint(0, SAMPLE_TERMS) terms of a rng.randrange(ncentral) pair
    and a rng.randint(1, p - 1) exponent each (no draw when ncentral is
    0)."""
    return _element(ctx.p, {}, _random_central_part(ctx, rng.getrandbits, SAMPLE_TERMS))


def _random_central_part(ctx: GroupContext, getrandbits, max_terms: int) -> dict[int, int]:
    cen: dict[int, int] = {}
    if ctx.ncentral:
        for _ in range(_below(getrandbits, max_terms + 1)):
            key = ctx.central_key_at(_below(getrandbits, ctx.ncentral))  # draw the pair before its exponent
            cen[key] = 1 + _below(getrandbits, ctx.p - 1)
    return cen
