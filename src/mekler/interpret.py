"""Graph recovery from group queries, and the end-to-end round trip.

Both pipelines start from a group built over a host fragment and read the
encoded graph back out using only group-level questions:

  up:    the fragment's group twisted by the pentagon-swapping automorphism;
         edges come from the two-witness commutation formula evaluated
         against that automorphism.
  down:  the kernel subgroup of an edge functional; vertices are recognized
         by centralizer dimension inside the subgroup, edges by the kernel
         intersection formula.

Vertex labels are read off the recovered class supports.  That step is
bookkeeping, not a group query: it names the classes so the output can be
compared with the input graph.  What the formulas must get right, and what
round-trip equality certifies, is the edge relation and the class count.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field

from .formulas import FormulaTrace, down_edge_formula, power_separated, up_edge_formula
from .graphs import ConfigError, Graph, Natural, all_pairs, build_fragment, check_nice, pair_swap_automorphism
from .group import (
    GroupContext,
    GroupElement,
    InducedAutomorphism,
    generator,
    is_natural_vertex_like,
    mul,
    pow_,
    random_central,
    vertex_like_parts,
)
from .subgroup import (
    PROVISION_PARTNERS,
    AdequacyError,
    EdgeFunctional,
    assess_adequacy,
    natural_vertex_like_by_dimension,
)

# an unprovisioned helper natural shows dimension = number of gadgeted
# partners, which must stay under the threshold of 6
MAX_TESTED_DOWN = 5

# round-trip defaults, shared with VerifyConfig and the command line
DEFAULT_P = 3
DEFAULT_SEED = 0
DEFAULT_TRANSLATES = 2  # random translates sampled per class and per label pair


class InternalFault(RuntimeError):
    """A recovery pipeline contradicted itself: a fault in this library,
    never a verdict on the input graph."""


def natural_graph(naturals: list[int], edges: list[tuple[int, int]]) -> Graph:
    """Plain graph on natural vertices; the round-trip input shape."""
    verts = [Natural(n) for n in naturals]
    return Graph(verts, [(Natural(a), Natural(b)) for a, b in edges])


@dataclass
class RecoveredGraph:
    pipeline: str
    labels: tuple[int, ...]
    edges: frozenset[tuple[int, int]]
    class_reps: dict[int, list[GroupElement]] = field(repr=False, default_factory=dict)
    traces: dict[tuple[int, int], FormulaTrace] = field(repr=False, default_factory=dict)

    def summary(self) -> str:
        es = ", ".join(f"{a}-{b}" for a, b in sorted(self.edges)) or "(none)"
        return f"{self.pipeline}: vertices {list(self.labels)}, edges {es}"


def _sample_class(ctx: GroupContext, v, rng: random.Random, translates: int) -> list[GroupElement]:
    """The plain generator plus a few random power-and-center translates of
    the same coset class."""
    base = generator(ctx, v)
    out = [base]
    for _ in range(translates):
        alpha = 1 + rng.randrange(ctx.p - 1)
        z = random_central(ctx, rng)
        out.append(mul(ctx, pow_(ctx, base, alpha), z))
    return out


def _partition_by_power(ctx: GroupContext, elements: list[GroupElement]) -> list[list[GroupElement]]:
    classes: list[list[GroupElement]] = []
    for a in elements:
        for cls in classes:
            if not power_separated(ctx, a, cls[0]):
                cls.append(a)
                break
        else:
            classes.append([a])
    return classes


def _recover_edges(ctx, reps_by_label, evaluate, translates):
    """Run the edge formula over several representative pairs per label pair
    and demand a unanimous verdict; the formula is about cosets, so any rep
    disagreement is a bug, not noise."""
    labels = tuple(sorted(reps_by_label))
    edges: set[tuple[int, int]] = set()
    traces: dict[tuple[int, int], FormulaTrace] = {}
    for i, n in enumerate(labels):
        for m in labels[i + 1 :]:
            an, am = reps_by_label[n], reps_by_label[m]
            verdicts: list[bool] = []
            first: FormulaTrace | None = None
            for t in range(translates):
                a = an[t % len(an)]
                b = am[(t + 1) % len(am)]
                x, y = (a, b) if t % 2 == 0 else (b, a)
                tr = evaluate(x, y)
                verdicts.append(bool(tr))
                if first is None:
                    first = tr
            if any(v != verdicts[0] for v in verdicts):
                raise InternalFault(f"edge verdict for ({n}, {m}) depends on the chosen representatives")
            traces[(n, m)] = first
            if verdicts[0]:
                edges.add((n, m))
    return labels, frozenset(edges), traces


def _recover(ctx, name, candidates, keep, evaluate, rng, translates) -> RecoveredGraph:
    """The recovery both pipelines share: sample the class of each candidate
    vertex, keep the elements keep accepts, partition them by power, name
    each class by its support natural and read the edges with evaluate."""
    rng = rng if rng is not None else random.Random(0)
    sample = [a for v in candidates for a in _sample_class(ctx, v, rng, translates)]
    reps_by_label: dict[int, list[GroupElement]] = {}
    for cls in _partition_by_power(ctx, [a for a in sample if keep(a)]):
        supports = {vertex_like_parts(a)[0] for a in cls}
        if len(supports) != 1:
            raise InternalFault("power-equivalence class mixes support vertices")
        v = ctx.vertex_order[supports.pop()]
        if not isinstance(v, Natural):
            raise InternalFault("recovered class is not on a natural vertex")
        if v.n in reps_by_label:
            raise InternalFault("two classes claim the same natural")
        reps_by_label[v.n] = cls
    labels, edges, traces = _recover_edges(ctx, reps_by_label, evaluate, translates)
    return RecoveredGraph(name, labels, edges, reps_by_label, traces)


def recover_graph_up(
    ctx: GroupContext,
    aut: InducedAutomorphism,
    rng: random.Random | None = None,
    translates: int = DEFAULT_TRANSLATES,
) -> RecoveredGraph:
    """Read the graph back from the twisted group.

    Every pair of naturals must carry a gadget: the edge formula's witnesses
    live on the hub and pentagon of the pair under test, so an ungadgeted
    pair would read as a non-edge no matter what the automorphism does.
    """
    nats = ctx.graph.naturals()
    gadgeted = set(ctx.graph.gadget_pairs())
    missing = [pr for pr in all_pairs(list(nats)) if pr not in gadgeted]
    if missing:
        raise AdequacyError(f"up recovery needs every natural pair gadgeted; missing {sorted(missing)}")
    return _recover(
        ctx, "up", ctx.vertex_order, lambda a: is_natural_vertex_like(ctx, a),
        lambda x, y: up_edge_formula(ctx, aut, x, y), rng, translates,
    )


def recover_graph_down(
    ctx: GroupContext,
    ell: EdgeFunctional,
    rng: random.Random | None = None,
    translates: int = DEFAULT_TRANSLATES,
) -> RecoveredGraph:
    """Read the graph back from inside the kernel subgroup.

    Candidate classes are the vertex generators the functional kills; the
    centralizer-dimension test then keeps exactly the provisioned naturals.
    The fragment must pass the adequacy assessment or the dimension test
    refuses outright.
    """
    adequacy = assess_adequacy(ctx, ell)
    if not adequacy.adequate:
        raise AdequacyError(adequacy.explain())
    killed = [v for v in ctx.vertex_order if ell.value(v) % ctx.p == 0]
    return _recover(
        ctx, "down", killed, lambda a: natural_vertex_like_by_dimension(ctx, ell, a, adequacy),
        lambda x, y: down_edge_formula(ctx, ell, x, y), rng, translates,
    )


def build_up_fragment(naturals: list[int]) -> Graph:
    """Host fragment for the twisted-group pipeline: every pair gadgeted."""
    return build_fragment(naturals, all_pairs(naturals))


def build_down_fragment(tested: list[int]) -> Graph:
    """Host fragment for the subgroup pipeline.

    Each tested natural is gadgeted with every other tested natural and with
    PROVISION_PARTNERS fresh helpers, so tested naturals are provisioned.
    Helpers are gadgeted only with tested ones; their dimension equals
    len(tested), so the threshold can separate only when len(tested) <= 5.
    """
    if not tested:
        raise ConfigError("need at least one tested natural")
    if len(tested) > MAX_TESTED_DOWN:
        raise ConfigError(
            f"down recovery separates at most {MAX_TESTED_DOWN} tested naturals; "
            f"helper naturals would reach the dimension threshold with {len(tested)}"
        )
    aux = [max(tested) + 1 + i for i in range(PROVISION_PARTNERS)]
    pairs = list(all_pairs(tested)) + [(t, a) for t in tested for a in aux]
    return build_fragment(list(tested) + aux, pairs)


@dataclass
class RoundTripResult:
    """not_nice names the pipelines whose fragment is not nice: their
    recovery may still succeed, but nothing guarantees it."""

    pipeline: str
    input_labels: tuple[int, ...]
    input_edges: frozenset[tuple[int, int]]
    up: RecoveredGraph | None
    down: RecoveredGraph | None
    ok: bool
    messages: tuple[str, ...]
    not_nice: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.ok

    def summary(self) -> str:
        lines = [f"round trip [{self.pipeline}]: {'ok' if self.ok else 'MISMATCH'}"]
        lines.extend(self.messages)
        return "\n".join(lines)


def _graph_edge_labels(gamma: Graph) -> frozenset[tuple[int, int]]:
    out = set()
    for u, v in gamma.edges:
        out.add((min(u.n, v.n), max(u.n, v.n)))
    return frozenset(out)


def roundtrip(
    gamma: Graph,
    p: int = DEFAULT_P,
    pipeline: str = "both",
    seed: int = DEFAULT_SEED,
    translates: int = DEFAULT_TRANSLATES,
) -> RoundTripResult:
    """Encode gamma, then recover it through the requested pipeline(s) and
    compare labels and edges exactly.

    Each pipeline builds its own fragment and group context over it, and
    draws from its own generator seeded by seed and the pipeline's name."""
    if pipeline not in ("up", "down", "both"):
        raise ConfigError(f"pipeline must be up, down or both, got {pipeline!r}")
    if translates < 1:
        raise ConfigError(f"translates must be at least 1, got {translates}")
    if any(not isinstance(v, Natural) for v in gamma.vertices):
        raise ConfigError("round-trip input must be a graph on natural vertices only")
    naturals = sorted(gamma.naturals())
    if len(naturals) < 2:
        raise ConfigError("need at least two vertices to recover a graph")
    edges = _graph_edge_labels(gamma)
    messages: list[str] = []
    not_nice: list[str] = []
    recovered: dict[str, RecoveredGraph] = {}
    ok = True
    for name in ("up", "down") if pipeline == "both" else (pipeline,):
        frag = build_up_fragment(naturals) if name == "up" else build_down_fragment(naturals)
        nice = check_nice(frag)
        if not nice.is_nice:
            messages.append(f"{name}: fragment not nice ({nice.summary()}); recovery is not guaranteed")
            not_nice.append(name)
        ctx = GroupContext(frag, p)
        rng = random.Random(f"{seed}-{name}")
        if name == "up":
            aut = InducedAutomorphism(ctx, pair_swap_automorphism(frag, sorted(edges)))
            rec = recover_graph_up(ctx, aut, rng=rng, translates=translates)
        else:
            ell = EdgeFunctional.from_edges(sorted(edges))
            rec = recover_graph_down(ctx, ell, rng=rng, translates=translates)
        recovered[name] = rec
        match = set(rec.labels) == set(naturals) and rec.edges == edges
        ok = ok and match
        messages.append(
            f"{name}: {len(rec.labels)} vertices, {len(rec.edges)} edges, {'match' if match else 'MISMATCH'}"
        )
    return RoundTripResult(
        pipeline=pipeline,
        input_labels=tuple(naturals),
        input_edges=edges,
        up=recovered.get("up"),
        down=recovered.get("down"),
        ok=ok,
        messages=tuple(messages),
        not_nice=tuple(not_nice),
    )
