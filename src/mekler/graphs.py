"""Finite fragments of the pentagon-gadget host graph, and niceness checking.

The host graph has a vertex for every natural number and, for every
unordered pair {a, b} of naturals, a five-vertex gadget: a hub at level 0
joined to both naturals, and a pentagon 0 - 1 - 1.25 - 1.5 - 1.75 - 0.
Naturals have infinite degree in the host graph; hubs have degree 4 and the
other gadget vertices degree 2.  Fragments are induced by choosing finitely
many naturals and gadgeted pairs.

A graph is "nice" when it has at least two vertices, no triangles, no
4-cycles, and for every ordered pair of distinct vertices (u, v) some third
vertex is joined to v but not to u.
"""

from __future__ import annotations

import json
from collections import Counter
from dataclasses import dataclass, field
from typing import Iterable, Sequence, Union

from .fplinear import is_odd_prime

LEVELS = ("0", "1", "1.25", "1.5", "1.75")
MAX_PRIME = 1000  # the arithmetic is meant for small primes; p is refused above this


class ConfigError(ValueError):
    """Rejected input: a bad prime, vertex, element or fragment text, or a
    configuration the constructions cannot honour.  The command line maps
    this (and nothing broader) to exit code 2."""


def check_prime(p: int) -> None:
    """Refuse p unless it is an odd prime of at most MAX_PRIME; the cap comes
    first, so the primality test never divides by more than sqrt(MAX_PRIME)."""
    if p > MAX_PRIME:
        raise ConfigError(f"p must be an odd prime of at most {MAX_PRIME}, got {p}")
    if not is_odd_prime(p):
        raise ConfigError(f"p must be an odd prime, got {p}")


@dataclass(frozen=True)
class Natural:
    n: int

    def __post_init__(self):
        if self.n < 0:
            raise ConfigError("natural vertex index must be >= 0")


@dataclass(frozen=True)
class Gadget:
    a: int
    b: int
    level: str

    def __post_init__(self):
        if not (0 <= self.a < self.b):
            raise ConfigError(f"gadget pair must be ordered distinct naturals, got ({self.a}, {self.b})")
        if self.level not in LEVELS:
            raise ConfigError(f"unknown gadget level {self.level!r}")

    @property
    def pair(self) -> tuple[int, int]:
        return (self.a, self.b)


Vertex = Union[Natural, Gadget]


def vertex_key(v: Vertex):
    """Total order: naturals first by index, then gadgets by (pair, level)."""
    if isinstance(v, Natural):
        return (0, v.n, 0, 0)
    return (1, v.a, v.b, LEVELS.index(v.level))


def encode_vertex(v: Vertex) -> str:
    if isinstance(v, Natural):
        return f"n:{v.n}"
    return f"g:{v.a},{v.b}:{v.level}"


def decode_vertex(text: str) -> Vertex:
    text = text.strip()
    try:
        if text.startswith("n:"):
            return Natural(int(text[2:]))
        if text.startswith("g:"):
            pair_part, _, level = text[2:].rpartition(":")
            a_s, _, b_s = pair_part.partition(",")
            return Gadget(int(a_s), int(b_s), level)
    except ValueError as err:
        raise ConfigError(f"cannot decode vertex {text[:40]!r}: {err}") from err
    raise ConfigError(f"cannot decode vertex {text[:40]!r}")


def _edge(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    if u == v:
        raise ConfigError(f"self loop at {encode_vertex(u)}")
    return (u, v) if vertex_key(u) < vertex_key(v) else (v, u)


def mask_bits(mask: int) -> list[int]:
    """The set bits of a nonnegative mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        mask ^= low
        out.append(low.bit_length() - 1)
    return out


class Graph:
    """Undirected simple graph over Vertex keys, immutable after creation.
    The adjacency is masks: bit j of masks[i] is set when the i-th and j-th
    vertices in vertex_key order are joined."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]):
        self.vertices: tuple[Vertex, ...] = tuple(sorted(set(vertices), key=vertex_key))
        vset = set(self.vertices)
        norm = set()
        for u, v in edges:
            if u not in vset or v not in vset:
                raise ConfigError(f"edge endpoint not a vertex: {encode_vertex(u)}-{encode_vertex(v)}")
            norm.add(_edge(u, v))
        self.edges: frozenset[tuple[Vertex, Vertex]] = frozenset(norm)
        self.index: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        masks = [0] * len(self.vertices)
        for u, v in self.edges:
            i, j = self.index[u], self.index[v]
            masks[i] |= 1 << j
            masks[j] |= 1 << i
        self.masks: tuple[int, ...] = tuple(masks)

    def __len__(self) -> int:
        return len(self.vertices)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        i, j = self.index.get(u), self.index.get(v)
        return i is not None and j is not None and bool(self.masks[i] >> j & 1)

    def naturals(self) -> tuple[int, ...]:
        return tuple(v.n for v in self.vertices if isinstance(v, Natural))

    def gadget_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = sorted({(v.a, v.b) for v in self.vertices if isinstance(v, Gadget)})
        return tuple(pairs)

    def partner_counts(self) -> Counter[int]:
        """Each natural's number of gadgeted partners, from one pass over
        the pairs; a natural without partners reads 0."""
        return Counter(n for pair in self.gadget_pairs() for n in pair)


def build_fragment(
    naturals: Iterable[int],
    gadget_pairs: Iterable[tuple[int, int]] = (),
    extra_edges: Iterable[tuple[Vertex, Vertex]] = (),
) -> Graph:
    """Induced host-graph fragment on the given naturals and gadgeted pairs.

    Each pair contributes its full five-vertex gadget: hub spokes to both
    naturals plus the pentagon cycle.  extra_edges lets callers plant
    arbitrary additional edges between existing vertices (used to exercise
    the niceness checker); both endpoints must already be in the fragment.
    """
    nats = sorted(set(naturals))
    nat_set = set(nats)
    vertices: list[Vertex] = [Natural(n) for n in nats]
    edges: list[tuple[Vertex, Vertex]] = []
    seen_pairs = set()
    for a, b in gadget_pairs:
        if a == b:
            raise ConfigError(f"gadget pair must have distinct members, got ({a}, {b})")
        a, b = min(a, b), max(a, b)
        if a not in nat_set or b not in nat_set:
            raise ConfigError(f"gadget pair ({a}, {b}) mentions a natural outside the fragment")
        if (a, b) in seen_pairs:
            continue
        seen_pairs.add((a, b))
        ring = [Gadget(a, b, lev) for lev in LEVELS]
        vertices.extend(ring)
        hub = ring[0]
        edges.append((Natural(a), hub))
        edges.append((Natural(b), hub))
        for i in range(len(ring)):
            edges.append((ring[i], ring[(i + 1) % len(ring)]))
    g = Graph(vertices, edges)
    if extra_edges:
        g = Graph(g.vertices, list(g.edges) + list(extra_edges))
    return g


@dataclass
class NicenessReport:
    """The verdict of check_nice with its witnesses, all in vertex order.

    triangles holds one entry (i, j, w) per edge i < j that lies on a
    triangle, w its lowest common neighbour; squares one entry (i, w, j, w')
    per vertex pair i < j with two or more common neighbours, w < w' the
    lowest two.  A triangle is thus listed once per edge and a 4-cycle once
    per diagonal pair, which keeps both lists O(|E|) and O(n^2) long where
    listing every triangle or 4-cycle once would not be.
    separation_failures holds every ordered pair (u, v) that no third
    vertex separates."""

    is_nice: bool
    has_two_vertices: bool
    triangle_free: bool
    square_free: bool
    separation_ok: bool
    triangles: list[tuple[Vertex, Vertex, Vertex]] = field(default_factory=list)
    squares: list[tuple[Vertex, Vertex, Vertex, Vertex]] = field(default_factory=list)
    separation_failures: list[tuple[Vertex, Vertex]] = field(default_factory=list)

    def summary(self) -> str:
        if self.is_nice:
            return "nice"
        bits = []
        if not self.has_two_vertices:
            bits.append("fewer than two vertices")
        if not self.triangle_free:
            bits.append(f"{len(self.triangles)} edge(s) in a triangle")
        if not self.square_free:
            bits.append(f"{len(self.squares)} vertex pair(s) with two common neighbours")
        if not self.separation_ok:
            bits.append(f"{len(self.separation_failures)} separation failure(s)")
        return "not nice: " + "; ".join(bits)


def _lowest(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def check_nice(g: Graph) -> NicenessReport:
    """Exhaustive niceness check by set algebra on the neighbour bitmasks.

    Triangles: an edge whose endpoints share a neighbour.  Squares: two
    distinct vertices with two or more common neighbours (any plain 4-cycle
    yields such a pair, chorded or not); folding once/twice masks over the
    neighbours of i leaves in twice every vertex reached from i along two
    or more paths of length two.  Separation: for each ordered pair (u, v)
    of distinct vertices some w outside {u, v} with w ~ v, w !~ u, that is,
    (u, v) fails exactly when N(v) less u lies inside N(u).  Then u is the
    lowest neighbour w of v or one of w's neighbours, so only N[w] need be
    tested; a v without neighbours fails against every u.
    """
    masks, vs = g.masks, g.vertices
    n = len(masks)
    has_two = n >= 2

    triangles: list[tuple[Vertex, Vertex, Vertex]] = []
    squares: list[tuple[Vertex, Vertex, Vertex, Vertex]] = []
    for i, mi in enumerate(masks):
        once = twice = 0
        for j in mask_bits(mi):
            mj = masks[j]
            if j > i and mi & mj:
                triangles.append((vs[i], vs[j], vs[_lowest(mi & mj)]))
            twice |= once & mj
            once |= mj
        for j in mask_bits(twice >> (i + 1) << (i + 1)):
            common = mi & masks[j]
            w = _lowest(common)
            squares.append((vs[i], vs[w], vs[j], vs[_lowest(common ^ 1 << w)]))

    failing: list[tuple[int, int]] = []
    for v, mv in enumerate(masks):
        if not mv:
            failing.extend((u, v) for u in range(n) if u != v)
            continue
        w = _lowest(mv)
        for u in mask_bits((masks[w] | 1 << w) & ~(1 << v)):
            if not mv & ~(1 << u) & ~masks[u]:
                failing.append((u, v))
    failing.sort()
    separation_failures = [(vs[u], vs[v]) for u, v in failing]

    return NicenessReport(
        is_nice=has_two and not triangles and not squares and not separation_failures,
        has_two_vertices=has_two,
        triangle_free=not triangles,
        square_free=not squares,
        separation_ok=not separation_failures,
        triangles=triangles,
        squares=squares,
        separation_failures=separation_failures,
    )


def is_graph_automorphism(g: Graph, perm: dict[Vertex, Vertex]) -> bool:
    if set(perm) != set(g.vertices) or set(perm.values()) != set(g.vertices):
        return False
    return all(g.has_edge(perm[u], perm[v]) for u, v in g.edges)


_SWAP = {"1": "1.75", "1.75": "1", "1.25": "1.5", "1.5": "1.25"}


def pair_swap_automorphism(g: Graph, r_edges: Iterable[tuple[int, int]]) -> dict[Vertex, Vertex]:
    """The involutive automorphism that flips the pentagons of the chosen
    pairs: levels 1 <-> 1.75 and 1.25 <-> 1.5 for every {a, b} in r_edges,
    identity elsewhere.  Every named pair must have its gadget present."""
    swap_pairs = set()
    present = set(g.gadget_pairs())
    for a, b in r_edges:
        a, b = min(a, b), max(a, b)
        if (a, b) not in present:
            raise ConfigError(f"pair ({a}, {b}) has no gadget in this fragment")
        swap_pairs.add((a, b))
    perm: dict[Vertex, Vertex] = {}
    for v in g.vertices:
        if isinstance(v, Gadget) and v.pair in swap_pairs and v.level in _SWAP:
            perm[v] = Gadget(v.a, v.b, _SWAP[v.level])
        else:
            perm[v] = v
    # construction-level invariant, validated rather than trusted
    if not is_graph_automorphism(g, perm):
        raise RuntimeError("pentagon swap failed to preserve the edge set")
    return perm


@dataclass(frozen=True)
class FragmentSpec:
    """Declarative fragment description matching the graph exchange format."""

    naturals: tuple[int, ...]
    gadget_pairs: tuple[tuple[int, int], ...] = ()
    extra_edges: tuple[tuple[str, str], ...] = ()
    p: int | None = None

    def __post_init__(self):
        if self.p is not None:
            check_prime(self.p)

    def build(self) -> Graph:
        extra = [(decode_vertex(u), decode_vertex(v)) for u, v in self.extra_edges]
        return build_fragment(self.naturals, self.gadget_pairs, extra)

    def to_json(self) -> str:
        doc = {
            "p": self.p,
            "naturals": list(self.naturals),
            "gadget_pairs": [list(pr) for pr in self.gadget_pairs],
            "extra_edges": [list(e) for e in self.extra_edges],
        }
        if self.p is None:
            del doc["p"]
        return json.dumps(doc, indent=2, sort_keys=True) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "FragmentSpec":
        try:
            doc = json.loads(text)
        except (ValueError, RecursionError) as err:
            raise ConfigError(f"bad fragment document: {err}") from err
        if not isinstance(doc, dict) or doc.get("naturals") is None:
            raise ConfigError("graph document must be an object with a 'naturals' field")
        doc = {key: value for key, value in doc.items() if value is not None}  # null reads as absent
        naturals = tuple(_json_typed(n, int, "a natural") for n in _json_array(doc["naturals"], "naturals"))
        pairs = tuple(
            tuple(_json_typed(n, int, "a gadget pair entry") for n in _json_array(pr, "a gadget pair", 2))
            for pr in _json_array(doc.get("gadget_pairs", []), "gadget_pairs")
        )
        extra = tuple(
            tuple(_json_typed(v, str, "an extra edge end") for v in _json_array(e, "an extra edge", 2))
            for e in _json_array(doc.get("extra_edges", []), "extra_edges")
        )
        p = _json_typed(doc["p"], int, "p") if "p" in doc else None
        return cls(naturals=naturals, gadget_pairs=pairs, extra_edges=extra, p=p)


def _json_array(value, what: str, length: int | None = None) -> list:
    """value, which must be a JSON array, of exactly length entries if given."""
    if not isinstance(value, list) or length not in (None, len(value)):
        size = "" if length is None else f" of {length} entries"
        raise ConfigError(f"bad fragment document: {what} must be an array{size}, got {value!r}")
    return value


def _json_typed(value, kind: type, what: str):
    """value, which must be a JSON integer or string as kind says; a bool is
    not an integer, though Python's bool is an int."""
    if type(value) is not kind:
        name = "an integer" if kind is int else "a string"
        raise ConfigError(f"bad fragment document: {what} must be {name}, got {value!r}")
    return value


def all_pairs(naturals: Sequence[int]) -> tuple[tuple[int, int], ...]:
    nats = sorted(set(naturals))
    return tuple((a, b) for i, a in enumerate(nats) for b in nats[i + 1 :])
