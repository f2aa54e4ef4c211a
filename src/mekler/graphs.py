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

import numpy as np

from .fplinear import is_odd_prime

LEVELS = ("0", "1", "1.25", "1.5", "1.75")


class ConfigError(ValueError):
    """Rejected input: a bad prime, vertex, element or fragment text, or a
    configuration the constructions cannot honour.  The command line maps
    this (and nothing broader) to exit code 2."""


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


def host_degree(v: Vertex) -> tuple[bool, int | None]:
    """(infinite_in_host, finite_bound).  Hubs are capped at 4, pentagon
    vertices at 2, naturals are infinite in the host graph."""
    if isinstance(v, Natural):
        return (True, None)
    if v.level == "0":
        return (False, 4)
    return (False, 2)


def _edge(u: Vertex, v: Vertex) -> tuple[Vertex, Vertex]:
    if u == v:
        raise ConfigError(f"self loop at {encode_vertex(u)}")
    return (u, v) if vertex_key(u) < vertex_key(v) else (v, u)


class Graph:
    """Undirected simple graph over Vertex keys, immutable after creation."""

    def __init__(self, vertices: Iterable[Vertex], edges: Iterable[tuple[Vertex, Vertex]]):
        self.vertices: tuple[Vertex, ...] = tuple(sorted(set(vertices), key=vertex_key))
        vset = set(self.vertices)
        norm = set()
        for u, v in edges:
            if u not in vset or v not in vset:
                raise ConfigError(f"edge endpoint not a vertex: {encode_vertex(u)}-{encode_vertex(v)}")
            norm.add(_edge(u, v))
        self.edges: frozenset[tuple[Vertex, Vertex]] = frozenset(norm)
        adj: dict[Vertex, set[Vertex]] = {v: set() for v in self.vertices}
        for u, v in self.edges:
            adj[u].add(v)
            adj[v].add(u)
        self.adjacency: dict[Vertex, frozenset[Vertex]] = {v: frozenset(s) for v, s in adj.items()}
        self.index: dict[Vertex, int] = {v: i for i, v in enumerate(self.vertices)}
        self._adj_matrix: np.ndarray | None = None

    def __len__(self) -> int:
        return len(self.vertices)

    def has_edge(self, u: Vertex, v: Vertex) -> bool:
        return v in self.adjacency.get(u, frozenset())

    def degree(self, v: Vertex) -> int:
        return len(self.adjacency[v])

    def adjacency_matrix(self) -> np.ndarray:
        if self._adj_matrix is None:
            n = len(self.vertices)
            m = np.zeros((n, n), dtype=np.uint8)
            for u, v in self.edges:
                i, j = self.index[u], self.index[v]
                m[i, j] = 1
                m[j, i] = 1
            self._adj_matrix = m
        return self._adj_matrix

    def naturals(self) -> tuple[int, ...]:
        return tuple(v.n for v in self.vertices if isinstance(v, Natural))

    def gadget_pairs(self) -> tuple[tuple[int, int], ...]:
        pairs = sorted({v.pair for v in self.vertices if isinstance(v, Gadget)})
        return tuple(pairs)

    def partner_counts(self) -> Counter[int]:
        """Each natural's number of gadgeted partners, from one pass over
        the pairs; a natural without partners reads 0."""
        return Counter(n for pair in self.gadget_pairs() for n in pair)

    def gadget_partners(self, n: int) -> tuple[int, ...]:
        """Naturals m such that the {n, m} hub is present."""
        out = set()
        for a, b in self.gadget_pairs():
            if a == n:
                out.add(b)
            elif b == n:
                out.add(a)
        return tuple(sorted(out))


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
            bits.append(f"{len(self.triangles)} triangle(s)")
        if not self.square_free:
            bits.append(f"{len(self.squares)} square(s)")
        if not self.separation_ok:
            bits.append(f"{len(self.separation_failures)} separation failure(s)")
        return "not nice: " + "; ".join(bits)


def check_nice(g: Graph) -> NicenessReport:
    """Exhaustive niceness check via the adjacency matrix.

    Triangles: an edge whose endpoints share a neighbor.  Squares: two
    distinct vertices with two or more common neighbors (any plain 4-cycle
    yields such a pair, chorded or not).  Separation: for each ordered pair
    (u, v) of distinct vertices some w outside {u, v} with w ~ v, w !~ u.
    """
    n = len(g.vertices)
    has_two = n >= 2
    a = g.adjacency_matrix().astype(bool)
    common = a.astype(np.int32) @ a.astype(np.int32)

    triangles: list[tuple[Vertex, Vertex, Vertex]] = []
    tri_pairs = np.argwhere(np.triu(common, 1).astype(bool) & a)
    for i, j in tri_pairs:
        w = int(np.flatnonzero(a[i] & a[j])[0])
        triangles.append((g.vertices[i], g.vertices[j], g.vertices[w]))

    squares: list[tuple[Vertex, Vertex, Vertex, Vertex]] = []
    np.fill_diagonal(common, 0)
    sq_pairs = np.argwhere(np.triu(common, 1) >= 2)
    for i, j in sq_pairs:
        ws = np.flatnonzero(a[i] & a[j])[:2]
        squares.append((g.vertices[i], g.vertices[int(ws[0])], g.vertices[j], g.vertices[int(ws[1])]))

    # witnesses of (u, v): the neighbours of v, less those of u (the common
    # ones) and less u itself when u ~ v; v is not its own neighbour
    witnessed = a.sum(axis=1)[None, :] - common - a > 0
    np.fill_diagonal(witnessed, True)
    separation_failures = [(g.vertices[u], g.vertices[v]) for u, v in np.argwhere(~witnessed)]

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
        if self.p is not None and not is_odd_prime(self.p):
            raise ConfigError(f"p must be an odd prime, got {self.p}")

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
            if not isinstance(doc, dict) or "naturals" not in doc:
                raise ConfigError("graph document must be an object with a 'naturals' field")
            naturals = tuple(int(n) for n in doc["naturals"])
            pairs = tuple((int(pr[0]), int(pr[1])) for pr in doc.get("gadget_pairs", []) or [])
            extra = tuple((str(e[0]), str(e[1])) for e in doc.get("extra_edges", []) or [])
            p = doc.get("p")
            return cls(naturals=naturals, gadget_pairs=pairs, extra_edges=extra, p=None if p is None else int(p))
        except ConfigError:
            raise
        except (TypeError, ValueError, KeyError, IndexError, OverflowError, RecursionError) as err:
            raise ConfigError(f"bad fragment document: {err}") from err


def all_pairs(naturals: Sequence[int]) -> tuple[tuple[int, int], ...]:
    nats = sorted(set(naturals))
    return tuple((a, b) for i, a in enumerate(nats) for b in nats[i + 1 :])
