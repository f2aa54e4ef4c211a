"""Host-graph fragments, niceness checking, and the exchange format.

The niceness oracle here is written independently of the library: plain
itertools loops over vertex triples and ordered pairs, no numpy.
"""

import itertools
import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from mekler import graphs
from mekler.graphs import (
    MAX_PRIME,
    ConfigError,
    FragmentSpec,
    Gadget,
    Graph,
    Natural,
    all_pairs,
    build_fragment,
    check_nice,
    check_prime,
    decode_vertex,
    encode_vertex,
    is_graph_automorphism,
    mask_bits,
    pair_swap_automorphism,
    vertex_key,
)
from mekler.group import GroupContext
from mekler.interpret import build_down_fragment
from mekler.kernels import _adjacency_matrix


def brute_niceness(g):
    """(has_two, triangle_free, square_free, separation_ok) by exhaustion."""
    vs = g.vertices
    tri = any(
        g.has_edge(a, b) and g.has_edge(b, c) and g.has_edge(a, c)
        for a, b, c in itertools.combinations(vs, 3)
    )
    sq = any(
        sum(1 for w in vs if g.has_edge(u, w) and g.has_edge(v, w)) >= 2
        for u, v in itertools.combinations(vs, 2)
    )
    sep = all(
        any(w not in (u, v) and g.has_edge(w, v) and not g.has_edge(w, u) for w in vs)
        for u, v in itertools.permutations(vs, 2)
    )
    return (len(vs) >= 2, not tri, not sq, sep)


def assert_matches_oracle(g):
    report = check_nice(g)
    has_two, tri_free, sq_free, sep_ok = brute_niceness(g)
    assert report.has_two_vertices == has_two
    assert report.triangle_free == tri_free
    assert report.square_free == sq_free
    assert report.separation_ok == sep_ok
    assert report.is_nice == (has_two and tri_free and sq_free and sep_ok)


def path_graph(n):
    vs = [Natural(i) for i in range(n)]
    return Graph(vs, [(vs[i], vs[i + 1]) for i in range(n - 1)])


def cycle_graph(n):
    vs = [Natural(i) for i in range(n)]
    return Graph(vs, [(vs[i], vs[(i + 1) % n]) for i in range(n)])


def test_fragment_sizes_are_frozen():
    g2 = build_fragment([0, 1], [(0, 1)])
    assert (len(g2.vertices), len(g2.edges)) == (7, 7)
    g3 = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    assert (len(g3.vertices), len(g3.edges)) == (18, 21)
    g4 = build_fragment(range(4), all_pairs(range(4)))
    assert (len(g4.vertices), len(g4.edges)) == (34, 42)
    g11 = build_fragment(range(11), all_pairs(range(11)))
    assert (len(g11.vertices), len(g11.edges)) == (286, 385)


def test_fragment_degrees():
    # all-pairs fragment: naturals meet k-1 hubs, hubs have 4 ends, pentagon 2
    g = build_fragment(range(4), all_pairs(range(4)))
    for v, mask in zip(g.vertices, g.masks):
        if isinstance(v, Natural):
            assert mask.bit_count() == 3
        elif v.level == "0":
            assert mask.bit_count() == 4
        else:
            assert mask.bit_count() == 2


def test_encode_decode_round_trip():
    vs = [Natural(0), Natural(17), Gadget(0, 1, "0"), Gadget(2, 9, "1.25")]
    for v in vs:
        assert decode_vertex(encode_vertex(v)) == v
    assert encode_vertex(Natural(3)) == "n:3"
    assert encode_vertex(Gadget(0, 1, "1.75")) == "g:0,1:1.75"
    assert decode_vertex("  n:4 ") == Natural(4)
    with pytest.raises(ValueError):
        decode_vertex("q:1")
    with pytest.raises(ValueError):
        Natural(-1)
    with pytest.raises(ValueError):
        Gadget(1, 0, "0")
    with pytest.raises(ValueError):
        Gadget(0, 1, "2")


def test_vertex_order_naturals_first_then_levels():
    g = build_fragment([0, 1], [(0, 1)])
    keys = [vertex_key(v) for v in g.vertices]
    assert keys == sorted(keys)
    assert g.vertices[0] == Natural(0)
    assert g.vertices[1] == Natural(1)
    assert [v.level for v in g.vertices[2:]] == ["0", "1", "1.25", "1.5", "1.75"]


def test_niceness_matches_oracle_on_fragments():
    assert_matches_oracle(build_fragment([0, 1], [(0, 1)]))
    assert_matches_oracle(build_fragment([0, 1, 2], all_pairs([0, 1, 2])))
    assert_matches_oracle(build_fragment(range(4), all_pairs(range(4))))


def brute_separation_failures(g):
    """Ordered pairs (u, v) with no w outside {u, v} joined to v and not
    to u, by a triple loop in vertex order."""
    vs = g.vertices
    return [
        (u, v)
        for u in vs
        for v in vs
        if u != v and not any(w not in (u, v) and g.has_edge(w, v) and not g.has_edge(w, u) for w in vs)
    ]


def brute_common_neighbour_lists(g):
    """The triangle and square lists of check_nice by a triple loop in
    vertex order: each edge u < v with a common neighbour, witnessed by the
    lowest one, and each pair u < v with two or more common neighbours,
    witnessed by the lowest two."""
    triangles, squares = [], []
    for u, v in itertools.combinations(g.vertices, 2):
        common = [w for w in g.vertices if g.has_edge(w, u) and g.has_edge(w, v)]
        if common and g.has_edge(u, v):
            triangles.append((u, v, common[0]))
        if len(common) >= 2:
            squares.append((u, common[0], v, common[1]))
    return triangles, squares


def random_graph(rng):
    vs = [Natural(i) for i in range(rng.randrange(1, 10))]
    density = rng.random()
    return Graph(vs, [(u, v) for u, v in itertools.combinations(vs, 2) if rng.random() < density])


def test_separation_failures_match_triple_loop():
    rng = random.Random(7)
    graphs = [random_graph(rng) for _ in range(300)]
    graphs += [path_graph(4), cycle_graph(4), cycle_graph(5), Graph([Natural(0)], [])]
    graphs += [
        build_fragment([0, 1]),
        build_fragment([0, 1], [(0, 1)]),
        build_fragment([0, 1, 2], all_pairs([0, 1, 2])),
        build_fragment([0, 1], [(0, 1)], extra_edges=[(Natural(0), Gadget(0, 1, "1.25"))]),
    ]
    failing = with_triangles = with_squares = 0
    for g in graphs:
        report = check_nice(g)
        expected = brute_separation_failures(g) if len(g.vertices) >= 2 else []
        assert report.separation_failures == expected
        failing += bool(expected)
        triangles, squares = brute_common_neighbour_lists(g)
        assert report.triangles == triangles
        assert report.squares == squares
        with_triangles += bool(triangles)
        with_squares += bool(squares)
    assert 0 < failing < len(graphs)
    assert 0 < with_triangles < len(graphs) and 0 < with_squares < len(graphs)


def test_summary_counts_what_the_lists_hold():
    """One triangle lies on three edges; one 4-cycle has two diagonal
    pairs, each with two common neighbours."""
    assert check_nice(cycle_graph(3)).summary() == "not nice: 3 edge(s) in a triangle; 6 separation failure(s)"
    assert check_nice(cycle_graph(4)).summary() == (
        "not nice: 2 vertex pair(s) with two common neighbours; 4 separation failure(s)"
    )


def test_three_natural_fragment_is_nice():
    g = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    assert check_nice(g).is_nice
    # the two-natural fragment is too small to separate its naturals
    assert not check_nice(build_fragment([0, 1], [(0, 1)])).is_nice


def test_planted_triangle_is_rejected():
    g = build_fragment(
        [0, 1], [(0, 1)], extra_edges=[(Gadget(0, 1, "1"), Gadget(0, 1, "1.5"))]
    )
    report = check_nice(g)
    assert not report.triangle_free
    assert not report.is_nice
    assert report.triangles
    assert "triangle" in report.summary()
    assert_matches_oracle(g)


def test_planted_square_is_rejected():
    # chord natural 0 to pentagon level 1.25: a plain 4-cycle, no triangle
    g = build_fragment(
        [0, 1], [(0, 1)], extra_edges=[(Natural(0), Gadget(0, 1, "1.25"))]
    )
    report = check_nice(g)
    assert report.triangle_free
    assert not report.square_free
    assert not report.is_nice
    assert report.squares
    assert_matches_oracle(g)


def test_separation_failure_is_reported():
    g = build_fragment([0, 1])  # two isolated naturals
    report = check_nice(g)
    assert report.has_two_vertices
    assert report.triangle_free and report.square_free
    assert not report.separation_ok
    assert not report.is_nice
    assert "separation" in report.summary()
    assert_matches_oracle(g)


def test_single_vertex_graph_is_not_nice():
    g = Graph([Natural(0)], [])
    report = check_nice(g)
    assert not report.has_two_vertices
    assert not report.is_nice
    assert_matches_oracle(g)


def test_handmade_graphs():
    # P4 fails separation at its leaves, C4 is the minimal square,
    # C5 satisfies all three conditions
    assert not check_nice(path_graph(4)).is_nice
    assert not check_nice(path_graph(4)).separation_ok
    c4 = check_nice(cycle_graph(4))
    assert not c4.square_free and c4.triangle_free
    c5 = check_nice(cycle_graph(5))
    assert c5.is_nice
    c3 = check_nice(cycle_graph(3))
    assert not c3.triangle_free
    for g in (path_graph(4), cycle_graph(3), cycle_graph(4), cycle_graph(5)):
        assert_matches_oracle(g)


def test_nice_summary_word():
    assert check_nice(cycle_graph(5)).summary() == "nice"


def test_pair_swap_automorphism_is_an_involution():
    g = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    perm = pair_swap_automorphism(g, [(0, 1), (1, 2)])
    assert is_graph_automorphism(g, perm)
    for v in g.vertices:
        assert perm[perm[v]] == v
        if isinstance(v, Natural) or v.level == "0":
            assert perm[v] == v
    # the untouched (0, 2) gadget stays pointwise fixed
    for lev in ("1", "1.25", "1.5", "1.75"):
        assert perm[Gadget(0, 2, lev)] == Gadget(0, 2, lev)
    assert perm[Gadget(0, 1, "1")] == Gadget(0, 1, "1.75")
    assert perm[Gadget(0, 1, "1.25")] == Gadget(0, 1, "1.5")


def test_pair_swap_requires_the_gadget():
    g = build_fragment([0, 1, 2], [(0, 1)])
    with pytest.raises(ValueError):
        pair_swap_automorphism(g, [(0, 2)])
    # empty selection is the identity
    perm = pair_swap_automorphism(g, [])
    assert all(perm[v] == v for v in g.vertices)


def test_pair_swap_that_breaks_an_edge_is_an_internal_fault(monkeypatch):
    g = build_fragment([0, 1], [(0, 1)])
    monkeypatch.setattr(graphs, "is_graph_automorphism", lambda g, perm: False)
    with pytest.raises(RuntimeError, match="pentagon swap"):
        pair_swap_automorphism(g, [(0, 1)])


def test_is_graph_automorphism_rejects_bad_maps():
    g = build_fragment([0, 1], [(0, 1)])
    perm = {v: v for v in g.vertices}
    a, b = Natural(0), Gadget(0, 1, "1.25")
    perm[a], perm[b] = b, a
    assert not is_graph_automorphism(g, perm)
    assert not is_graph_automorphism(g, {})


def test_build_fragment_validation():
    with pytest.raises(ValueError):
        build_fragment([0, 1], [(0, 0)])
    with pytest.raises(ValueError):
        build_fragment([0, 1], [(0, 2)])
    with pytest.raises(ValueError):
        build_fragment([0, 1], [(0, 1)], extra_edges=[(Natural(0), Natural(5))])
    with pytest.raises(ValueError):
        Graph([Natural(0)], [(Natural(0), Natural(0))])
    # duplicate and reversed pair declarations collapse to one gadget
    g = build_fragment([0, 1], [(0, 1), (1, 0), (0, 1)])
    assert (len(g.vertices), len(g.edges)) == (7, 7)


def gadget_partners(graph, n):
    """Naturals m such that the {n, m} gadget is present: the tests'
    per-natural oracle for the partner counts."""
    out = set()
    for a, b in graph.gadget_pairs():
        if a == n:
            out.add(b)
        elif b == n:
            out.add(a)
    return tuple(sorted(out))


def test_gadget_partners():
    g = build_fragment([0, 1, 2, 3], [(0, 1), (0, 2)])
    assert gadget_partners(g, 0) == (1, 2)
    assert gadget_partners(g, 1) == (0,)
    assert gadget_partners(g, 3) == ()
    assert g.gadget_pairs() == ((0, 1), (0, 2))


@pytest.mark.parametrize(
    "graph",
    [
        build_fragment([0, 1, 2, 3], [(0, 1), (0, 2)]),
        build_fragment(range(5), all_pairs(range(5))),
        build_down_fragment([0, 1, 2]),
        # a lone pentagon vertex, with no hub and no other level of its gadget
        Graph([Natural(0), Natural(1), Natural(2), Gadget(0, 2, "1.5")], [(Natural(0), Gadget(0, 2, "1.5"))]),
    ],
    ids=["two-pairs", "all-pairs-5", "down-3", "lone-pentagon"],
)
def test_gadget_pairs_are_the_pairs_of_the_gadget_vertices(graph):
    assert graph.gadget_pairs() == tuple(sorted({v.pair for v in graph.vertices if isinstance(v, Gadget)}))


def test_fragment_spec_json_round_trip():
    spec = FragmentSpec(
        naturals=(0, 1, 2),
        gadget_pairs=((0, 1), (1, 2)),
        extra_edges=(("n:0", "g:1,2:1.25"),),
        p=5,
    )
    again = FragmentSpec.from_json(spec.to_json())
    assert again == spec
    g = again.build()
    direct = build_fragment([0, 1, 2], [(0, 1), (1, 2)], [(Natural(0), Gadget(1, 2, "1.25"))])
    assert g.vertices == direct.vertices
    assert g.edges == direct.edges


def test_fragment_spec_optional_p_and_errors():
    spec = FragmentSpec(naturals=(0, 1), gadget_pairs=((0, 1),))
    text = spec.to_json()
    assert '"p"' not in text
    assert FragmentSpec.from_json(text) == spec
    with pytest.raises(ValueError):
        FragmentSpec.from_json("[1, 2]")
    with pytest.raises(ValueError):
        FragmentSpec.from_json('{"gadget_pairs": []}')
    assert FragmentSpec.from_json('{"naturals": [0, 1], "gadget_pairs": null, "p": null}') == FragmentSpec((0, 1))
    # only JSON integers (not bools) are naturals, pair entries and p, and
    # pairs and extra edges have exactly two entries: nothing is coerced
    for bad in (
        '{"naturals": [0, 1.9, 2]}',
        '{"naturals": "012"}',
        '{"naturals": [true, 2]}',
        '{"naturals": {"0": 1}}',
        '{"naturals": [0, 1, 2], "gadget_pairs": ["01"]}',
        '{"naturals": [0, 1, 2], "gadget_pairs": [[0, 1, 2]]}',
        '{"naturals": [0, 1], "gadget_pairs": [[0, false]]}',
        '{"naturals": [0, 1], "gadget_pairs": [[0, 1.0]]}',
        '{"naturals": [0, 1], "gadget_pairs": ""}',
        '{"naturals": [0, 1], "p": 3.5}',
        '{"naturals": [0, 1], "p": "5"}',
        '{"naturals": [0, 1], "p": true}',
        '{"naturals": [0, 1], "extra_edges": [["n:0"]]}',
        '{"naturals": [0, 1], "extra_edges": [["n:0", "n:1", "n:0"]]}',
        '{"naturals": [0, 1], "extra_edges": [["n:0", 1]]}',
        '{"naturals": [0, 1], "extra_edges": ["n:0"]}',
    ):
        with pytest.raises(ConfigError, match="bad fragment document"):
            FragmentSpec.from_json(bad)


def test_fragment_spec_rejects_a_prime_that_is_not_odd():
    for bad in (4, 2, 1, 0, -3, 9):
        with pytest.raises(ConfigError, match="odd prime"):
            FragmentSpec(naturals=(0, 1), p=bad)
        with pytest.raises(ConfigError, match="odd prime"):
            FragmentSpec.from_json(f'{{"naturals": [0, 1], "p": {bad}}}')
    assert FragmentSpec.from_json('{"naturals": [0, 1], "p": 7}').p == 7


def test_primes_above_the_cap_are_refused_where_p_enters():
    assert 101 <= MAX_PRIME < 1009
    for bad in (1009, 2**61 - 1, 2**61):
        with pytest.raises(ConfigError, match=f"at most {MAX_PRIME}, got {bad}"):
            check_prime(bad)
        with pytest.raises(ConfigError, match=f"at most {MAX_PRIME}"):
            FragmentSpec(naturals=(0, 1), p=bad)
        with pytest.raises(ConfigError, match=f"at most {MAX_PRIME}"):
            GroupContext(build_fragment([0, 1]), bad)
    check_prime(997)
    assert FragmentSpec(naturals=(0, 1), p=997).p == GroupContext(build_fragment([0, 1]), 997).p == 997


def test_all_pairs():
    assert all_pairs([2, 0, 1]) == ((0, 1), (0, 2), (1, 2))
    assert all_pairs([5]) == ()
    assert all_pairs([3, 3, 1]) == ((1, 3),)


@st.composite
def random_graphs(draw):
    """Graphs on up to 12 naturals with arbitrary gaps in their indices and
    edges given in either orientation."""
    vertices = [Natural(n) for n in draw(st.sets(st.integers(0, 40), max_size=12))]
    pairs = list(itertools.combinations(vertices, 2))
    if not pairs:
        return Graph(vertices, [])
    chosen = draw(st.sets(st.tuples(st.sampled_from(pairs), st.booleans()), max_size=len(pairs)))
    return Graph(vertices, [(v, u) if flip else (u, v) for (u, v), flip in chosen])


@settings(derandomize=True, database=None, deadline=None, max_examples=100)
@given(random_graphs())
def test_masks_are_the_adjacency(g):
    n = len(g)
    assert len(g.masks) == n
    for i, mask in enumerate(g.masks):
        assert 0 <= mask < 1 << n and not mask >> i & 1  # in range, no self bit
        assert mask_bits(mask) == [j for j in range(n) if mask >> j & 1]
        assert all(g.masks[j] >> i & 1 for j in mask_bits(mask))  # symmetric
    from_masks = {(g.vertices[i], g.vertices[j]) for i, mask in enumerate(g.masks) for j in mask_bits(mask) if i < j}
    assert from_masks == set(g.edges)
    for u, v in itertools.product(g.vertices, repeat=2):
        assert g.has_edge(u, v) == ((u, v) in g.edges or (v, u) in g.edges)
    for v in g.vertices:
        assert g.masks[g.index[v]].bit_count() == sum(1 for e in g.edges if v in e)
        assert not g.has_edge(v, Natural(99)) and not g.has_edge(Natural(99), v)
    adj = _adjacency_matrix(g.masks)
    assert adj.dtype == bool
    assert adj.tolist() == [[bool(mask >> j & 1) for j in range(n)] for mask in g.masks]
