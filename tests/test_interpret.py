"""Graph recovery pipelines and the end-to-end round trip."""

import random
import warnings

import pytest

from mekler import interpret
from mekler.cli import main as cli_main
from mekler.formulas import FormulaTrace
from mekler.graphs import Natural, build_fragment, pair_swap_automorphism
from mekler.group import (
    GroupContext,
    InducedAutomorphism,
    central_generator,
    generator,
    identity,
    mul,
    pow_,
)
from mekler.interpret import (
    MAX_TESTED_DOWN,
    InternalFault,
    RoundTripResult,
    build_down_fragment,
    build_up_fragment,
    natural_graph,
    power_equivalent,
    recover_graph_down,
    recover_graph_up,
    roundtrip,
)
from mekler.subgroup import PROVISION_PARTNERS, AdequacyError, EdgeFunctional


def test_power_equivalent():
    ctx = GroupContext(build_fragment([0, 1], [(0, 1)]), 3, warn_not_nice=False)
    x0, x1 = generator(ctx, Natural(0)), generator(ctx, Natural(1))
    z = central_generator(ctx, Natural(0), Natural(1))
    assert power_equivalent(ctx, x0, pow_(ctx, x0, 2))
    assert power_equivalent(ctx, x0, mul(ctx, x0, z))
    assert not power_equivalent(ctx, x0, x1)
    assert power_equivalent(ctx, z, identity(ctx))
    assert not power_equivalent(ctx, z, x0)
    assert not power_equivalent(ctx, x0, z)
    # products of distinct generators are their own class
    assert not power_equivalent(ctx, x0, mul(ctx, x0, x1))


def test_natural_graph_shape():
    g = natural_graph([0, 1, 2], [(0, 2)])
    assert g.naturals() == (0, 1, 2)
    assert g.has_edge(Natural(0), Natural(2))
    assert not g.has_edge(Natural(0), Natural(1))
    assert len(g.edges) == 1


def test_build_up_fragment_gadgets_every_pair():
    g = build_up_fragment([0, 1, 2, 3])
    assert g.gadget_pairs() == ((0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3))
    assert len(g.vertices) == 34


def test_build_down_fragment_structure():
    g = build_down_fragment([0, 1, 2])
    tested, aux = (0, 1, 2), tuple(range(3, 3 + PROVISION_PARTNERS))
    assert g.naturals() == tested + aux
    pairs = set(g.gadget_pairs())
    for t in tested:
        assert set(g.gadget_partners(t)) == (set(tested) - {t}) | set(aux)
    for a in aux:
        assert set(g.gadget_partners(a)) == set(tested)
    assert ((3, 4) not in pairs) and ((0, 1) in pairs)


def test_build_down_fragment_limits():
    with pytest.raises(ValueError):
        build_down_fragment([])
    with pytest.raises(ValueError):
        build_down_fragment(list(range(MAX_TESTED_DOWN + 1)))
    g = build_down_fragment(list(range(MAX_TESTED_DOWN)))
    assert len(g.naturals()) == MAX_TESTED_DOWN + PROVISION_PARTNERS


def test_recover_graph_up_direct():
    edges = [(0, 1), (1, 2)]
    frag = build_up_fragment([0, 1, 2])
    ctx = GroupContext(frag, 3)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(frag, edges))
    rec = recover_graph_up(ctx, aut, rng=random.Random(1))
    assert rec.pipeline == "up"
    assert rec.labels == (0, 1, 2)
    assert rec.edges == frozenset({(0, 1), (1, 2)})
    assert set(rec.traces) == {(0, 1), (0, 2), (1, 2)}
    assert "0-1" in rec.summary()


def test_recover_graph_up_needs_every_gadget():
    frag = build_fragment([0, 1, 2], [(0, 1)])
    ctx = GroupContext(frag, 3, warn_not_nice=False)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(frag, [(0, 1)]))
    with pytest.raises(AdequacyError) as exc:
        recover_graph_up(ctx, aut, rng=random.Random(0))
    assert "(0, 2)" in str(exc.value) and "(1, 2)" in str(exc.value)


def test_recover_graph_down_direct():
    edges = [(0, 2)]
    frag = build_down_fragment([0, 1, 2])
    ctx = GroupContext(frag, 3)
    rec = recover_graph_down(ctx, EdgeFunctional.from_edges(edges), rng=random.Random(2))
    assert rec.pipeline == "down"
    assert rec.labels == (0, 1, 2)  # helpers are filtered out by dimension
    assert rec.edges == frozenset({(0, 2)})


def test_recover_graph_down_refuses_inadequate_fragments():
    frag = build_fragment([0, 1], [(0, 1)])
    ctx = GroupContext(frag, 3, warn_not_nice=False)
    with pytest.raises(AdequacyError):
        recover_graph_down(ctx, EdgeFunctional.from_edges([(0, 1)]), rng=random.Random(0))


def test_roundtrip_small_graphs_both_pipelines():
    cases = [
        ([0, 1], []),
        ([0, 1], [(0, 1)]),
        ([0, 1, 2], [(0, 1), (1, 2)]),
        ([0, 1, 2], [(0, 1), (0, 2), (1, 2)]),
        ([0, 1, 2, 3], [(0, 3), (1, 2)]),
    ]
    for naturals, edges in cases:
        with warnings.catch_warnings():
            # the two-natural up fragment is honestly not nice; see below
            warnings.filterwarnings("ignore", message="graph is not nice")
            res = roundtrip(natural_graph(naturals, edges), p=3, pipeline="both", seed=4)
        assert res.ok and bool(res), res.summary()
        assert res.up is not None and res.down is not None
        assert res.up.edges == res.down.edges == frozenset(edges)
        assert res.input_labels == tuple(naturals)
        assert "ok" in res.summary()


def test_two_vertex_up_fragment_warns_but_recovers():
    # an all-pairs fragment on two naturals cannot satisfy separation, so
    # building its context warns; recovery itself is unaffected
    with pytest.warns(UserWarning, match="not nice"):
        res = roundtrip(natural_graph([0, 1], [(0, 1)]), p=3, pipeline="up", seed=0)
    assert res.ok


def test_roundtrip_p5_and_single_pipelines():
    gamma = natural_graph([0, 1, 2], [(0, 2)])
    res5 = roundtrip(gamma, p=5, pipeline="both", seed=1)
    assert res5.ok
    up_only = roundtrip(gamma, p=3, pipeline="up", seed=1)
    assert up_only.ok and up_only.down is None and up_only.up is not None
    down_only = roundtrip(gamma, p=3, pipeline="down", seed=1)
    assert down_only.ok and down_only.up is None and down_only.down is not None
    assert isinstance(down_only, RoundTripResult)


def test_roundtrip_is_seed_stable():
    gamma = natural_graph([0, 1, 2], [(0, 1)])
    a = roundtrip(gamma, p=3, pipeline="both", seed=9)
    b = roundtrip(gamma, p=3, pipeline="both", seed=9)
    assert a.ok and b.ok
    assert a.up.edges == b.up.edges and a.down.edges == b.down.edges
    assert a.messages == b.messages


def test_roundtrip_input_validation():
    with pytest.raises(ValueError):
        roundtrip(natural_graph([0, 1], []), pipeline="sideways")
    with pytest.raises(ValueError):
        roundtrip(natural_graph([0], []))
    frag = build_fragment([0, 1], [(0, 1)])
    with pytest.raises(ValueError):
        roundtrip(frag)  # gadget vertices are not a plain natural graph


def test_representative_dependent_edge_verdict_is_an_internal_fault(monkeypatch):
    """The edge formula is about cosets, so verdicts that change with the
    chosen representatives are a library fault, raised as InternalFault:
    not an AssertionError (python -O keeps it) and not a ValueError (the
    command line never reads it as rejected input)."""
    calls = []

    def flipping(ctx, aut, x, y):
        calls.append((x, y))
        return FormulaTrace(len(calls) % 2 == 1, "VertexLikeEnumeration")

    monkeypatch.setattr(interpret, "up_edge_formula", flipping)
    with pytest.raises(InternalFault, match="depends on the chosen representatives"):
        roundtrip(natural_graph([0, 1, 2], [(0, 1)]), pipeline="up")
    assert len(calls) == 2  # the first label pair, both translates
    assert issubclass(InternalFault, RuntimeError)
    assert not issubclass(InternalFault, (AssertionError, ValueError))
    with pytest.raises(InternalFault):
        cli_main(["roundtrip", "--naturals", "0,1,2", "--pipeline", "up"])
