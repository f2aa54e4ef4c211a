"""Property tests for the text boundary: element text, fragment JSON,
Cayley tables and permutation generators, and fuzzed input, which must be
rejected with ConfigError and nothing else."""

import functools
import json

from hypothesis import example, given, settings
from hypothesis import strategies as st

from mekler.cayley import (
    FiniteGroup,
    cyclic_group,
    dihedral_group,
    format_cayley_text,
    parse_cayley_text,
    parse_permutation_text,
    symmetric_group,
)
from mekler.fplinear import FpVector
from mekler.graphs import ConfigError, FragmentSpec, Gadget, all_pairs, build_fragment, encode_vertex
from mekler.group import GroupContext, GroupElement, format_element, parse_element

SETTINGS = settings(derandomize=True, database=None, deadline=None, max_examples=100)
FUZZ = settings(SETTINGS, max_examples=250)


@functools.cache
def ctx18(p):
    return GroupContext(build_fragment([0, 1, 2], all_pairs([0, 1, 2])), p)


@st.composite
def elements(draw, p):
    """Elements of the 18-vertex fragment with at least one gadget vertex in
    their support, plus random central coordinates."""
    ctx = ctx18(p)
    gadgets = [i for i, v in enumerate(ctx.vertex_order) if isinstance(v, Gadget)]
    support = {draw(st.sampled_from(gadgets))} | draw(st.sets(st.integers(0, ctx.n - 1), max_size=4))
    exps = st.integers(1, p - 1)
    gen = {i: draw(exps) for i in sorted(support)}
    keys = draw(st.sets(st.integers(0, ctx.ncentral - 1), max_size=4))
    cen = {ctx.central_key_at(k): draw(exps) for k in sorted(keys)}
    return ctx, GroupElement(FpVector(p, gen), FpVector(p, cen))


@SETTINGS
@given(st.sampled_from([3, 5]).flatmap(elements))
def test_element_text_round_trip(case):
    ctx, a = case
    text = format_element(ctx, a)
    assert "x[g:" in text
    assert parse_element(ctx, text) == a


@st.composite
def fragment_specs(draw):
    nats = sorted(draw(st.sets(st.integers(0, 9), min_size=1, max_size=5)))
    pairs = sorted(draw(st.sets(st.sampled_from(all_pairs(nats)), max_size=4))) if len(nats) > 1 else []
    verts = [encode_vertex(v) for v in build_fragment(nats, pairs).vertices]
    extra = draw(st.lists(st.tuples(st.sampled_from(verts), st.sampled_from(verts)).filter(lambda e: e[0] != e[1]), max_size=3))
    p = draw(st.sampled_from([None, 3, 5, 7]))
    return FragmentSpec(naturals=tuple(nats), gadget_pairs=tuple(pairs), extra_edges=tuple(extra), p=p)


@SETTINGS
@given(fragment_specs())
def test_fragment_json_round_trip(spec):
    again = FragmentSpec.from_json(spec.to_json())
    assert again == spec
    g, h = spec.build(), again.build()
    assert g.vertices == h.vertices and g.edges == h.edges


# vertex and exponent text, well formed or not; "9" * 4500 has more digits
# than int() converts
VERTEX_TEXT = st.one_of(
    st.sampled_from(["n:0", "n:1", "n:7", "n:-1", "g:0,1:0", "g:0,2:1.5", "g:1,2:1.25", "g:2,1:0", "g:0,1:2", "g:0,1"]),
    st.builds("{}{}".format, st.sampled_from(["n:", "g:"]), st.text(alphabet="0123456789,.:-", max_size=6)),
)
EXPONENT_TEXT = st.sampled_from(["1", "2", "-1", "0", "9" * 4500])
ELEMENT_TEXT = st.lists(
    st.one_of(
        st.builds("x[{}]^{}".format, VERTEX_TEXT, EXPONENT_TEXT),
        st.builds("z{{({},{}):{}}}".format, VERTEX_TEXT, VERTEX_TEXT, EXPONENT_TEXT),
    ),
    min_size=1,
    max_size=2,
).map(" * ".join)


@FUZZ
@given(st.one_of(ELEMENT_TEXT, st.text(max_size=40)))
@example("x[n:0]^" + "9" * 4500)
@example("z{(n:0,n:1):" + "9" * 4500 + "}")
def test_fuzzed_element_text_is_config_error(text):
    try:
        parse_element(ctx18(3), text)
    except ConfigError:
        pass


json_values = st.recursive(
    st.none() | st.booleans() | st.integers(-3, 12) | st.floats() | st.text(max_size=8),
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(st.text(max_size=8), inner, max_size=4),
    max_leaves=12,
)
FRAGMENT_DOCS = st.fixed_dictionaries(
    {"naturals": st.lists(st.integers(-1, 4), max_size=4)},
    optional={
        "gadget_pairs": st.lists(st.tuples(st.integers(-1, 5), st.integers(-1, 5)), max_size=3),
        "extra_edges": st.lists(st.tuples(VERTEX_TEXT, VERTEX_TEXT), max_size=1),
        "p": st.one_of(st.none(), st.integers(-1, 9), st.text(max_size=3)),
    },
)


@FUZZ
@given(
    st.one_of(
        FRAGMENT_DOCS.map(json.dumps),
        st.text(max_size=40),
        st.dictionaries(st.sampled_from(["naturals", "gadget_pairs", "extra_edges"]), json_values).map(json.dumps),
        json_values.map(json.dumps),
    )
)
def test_fuzzed_fragment_text_is_config_error(text):
    try:
        FragmentSpec.from_json(text).build()
    except ConfigError:
        pass


@st.composite
def small_groups(draw):
    """A cyclic, dihedral or symmetric group with its elements renamed by a
    drawn permutation, so the identity need not be element 0."""
    kind = draw(st.sampled_from(["cyclic", "dihedral", "symmetric"]))
    if kind == "cyclic":
        g = cyclic_group(draw(st.integers(1, 12)))
    elif kind == "dihedral":
        g = dihedral_group(draw(st.integers(3, 8)))
    else:
        g = symmetric_group(draw(st.integers(1, 4)))
    order = len(g)
    rename = draw(st.permutations(range(order)))
    table = [[0] * order for _ in range(order)]
    for a in range(order):
        for b in range(order):
            table[rename[a]][rename[b]] = rename[int(g.table[a, b])]
    return FiniteGroup(table)


@SETTINGS
@given(small_groups())
def test_cayley_text_round_trip(g):
    again = parse_cayley_text(format_cayley_text(g))
    assert again.table.tolist() == g.table.tolist()
    assert again.identity == g.identity


# table and permutation text, well formed or not; points stay at most 5
# (or past the point cap), so a drawn group is at most S5 and cheap to
# tabulate, and "9" * 4500 has more digits than int() converts
NUMBER_TEXT = st.one_of(
    st.integers(-1, 5).map(str),
    st.sampled_from(["2049", "9" * 20, "9" * 4500, "x", "1.5", ""]),
)
CAYLEY_TEXT = st.builds(
    "{}\n{}".format,
    NUMBER_TEXT,
    st.lists(st.lists(NUMBER_TEXT, max_size=5).map(" ".join), max_size=5).map("\n".join),
)
CYCLE_LINE = st.lists(
    st.lists(NUMBER_TEXT, max_size=4).map(" ".join).map("({})".format),
    min_size=1,
    max_size=3,
).map("".join)
PERMUTATION_LINE = st.one_of(
    CYCLE_LINE,
    st.permutations(range(1, 6)).map(lambda img: " ".join(map(str, img))),
    st.lists(NUMBER_TEXT, max_size=5).map(" ".join),
    st.sampled_from(["# comment", "(1 2) junk", "(1 2", "1, 2"]),
)
PERMUTATION_TEXT = st.lists(PERMUTATION_LINE, min_size=1, max_size=3).map("\n".join)


@FUZZ
@given(st.one_of(CAYLEY_TEXT, st.text(max_size=40)))
@example("1\n" + "9" * 20)
@example("2\n0 1\n1 -" + "9" * 20)
def test_fuzzed_cayley_text_is_config_error(text):
    try:
        parse_cayley_text(text)
    except ConfigError:
        pass


@FUZZ
@given(st.one_of(PERMUTATION_TEXT, st.text(max_size=40)))
@example("(1 " + "9" * 20 + ")")
@example("(1 5)\n2 1")
def test_fuzzed_permutation_text_is_config_error(text):
    try:
        parse_permutation_text(text)
    except ConfigError:
        pass
