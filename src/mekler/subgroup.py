"""The index-p kernel subgroup cut out by an edge functional.

A chosen edge set R on the naturals induces the F_p functional that is 0 on
naturals, 0 on the hub of every gadget whose pair lies in R, and 1 on every
other gadget vertex.  Pulled back to generator cosets it becomes a
homomorphism from the group onto F_p whose kernel is a normal subgroup of
index p (index 1 degenerately, when the fragment has no value-1 vertex);
von Dyck's theorem makes it one, so verify_index_p tests only its image and
mul against it on sampled composite elements.
center_of_subgroup_check certifies, at every support, that its center is
the whole group's center, by two calls of the commuting-kernel engine.
Inside that subgroup, centralizer dimensions mod the center separate the
naturals from everything else: a natural with at least 7 gadgeted partners
sits at dimension >= 6 while every other small-support element stays <= 5.
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field
from typing import Iterable

from .fplinear import FpVector
from .graphs import ConfigError, Natural, Vertex
from .group import (
    GroupContext,
    GroupElement,
    commuting_kernel_basis,
    commuting_kernel_dim,
    format_element,
    from_vectors,
    is_central,
    mul,
    random_element,
)

# dimension threshold separating naturals from the rest, taken as given
DIM_THRESHOLD = 6
# gadgeted partners demanded of a natural before the >= 6 side is certified
PROVISION_PARTNERS = 7


class AdequacyError(ValueError):
    """The fragment cannot support the requested definable separation."""


@dataclass(frozen=True)
class EdgeFunctional:
    """Vertex values determined by an edge set R on the naturals."""

    r_edges: frozenset[tuple[int, int]]

    @classmethod
    def from_edges(cls, edges: Iterable[tuple[int, int]]) -> "EdgeFunctional":
        norm = frozenset((min(a, b), max(a, b)) for a, b in edges)
        for a, b in norm:
            if a == b:
                raise ConfigError("edge with equal endpoints")
        return cls(norm)

    def value(self, v: Vertex) -> int:
        if isinstance(v, Natural):
            return 0
        if v.level == "0":
            return 0 if v.pair in self.r_edges else 1
        return 1

    def values(self, ctx: GroupContext) -> list[int]:
        """Vertex values by vertex index."""
        return [self.value(v) for v in ctx.vertex_order]

    def row(self, ctx: GroupContext) -> dict[int, int]:
        """The functional as an index-keyed row of its nonzero values."""
        return {i: c for i, c in enumerate(self.values(ctx)) if c}

    def value_on(self, ctx: GroupContext, a: GroupElement) -> int:
        """The functional extended to group elements, in 0..p-1: sum of
        exponent times vertex value over the support; central coordinates
        contribute 0."""
        verts = ctx.vertex_order
        return sum(c * self.value(verts[v]) for v, c in a.gen.items()) % ctx.p


def in_kernel_subgroup(ctx: GroupContext, ell: EdgeFunctional, a: GroupElement) -> bool:
    return ell.value_on(ctx, a) == 0


@dataclass
class IndexReport:
    is_index_p: bool
    degenerate: bool
    surjective: bool
    additive: bool
    samples_checked: int
    message: str

    def __bool__(self) -> bool:
        return self.is_index_p


def verify_index_p(ctx: GroupContext, ell: EdgeFunctional) -> IndexReport:
    """Certify that the functional's kernel has index p in the fragment group.

    That the functional is a homomorphism needs no generator-pair check.
    By von Dyck's theorem every map from the generators into F_p extends to
    a unique homomorphism from the group: each defining relator (the
    commutator of two adjacent generators, a commutator of weight three, a
    p-th power) is a commutator or a p-th power, and F_p, abelian of
    exponent p, kills both.  On the normal form that homomorphism is the
    exponent sum value_on computes: it reads only generator coordinates,
    and central words are products of commutators.  What is left to test is
    the image and the normal-form arithmetic: surjectivity (some vertex of
    nonzero value), and additivity on a deterministic sample of composite
    elements, value_on(mul(a, b)) = value_on(a) + value_on(b), which
    exercises mul's generator part.  A fragment where the functional
    vanishes identically is reported as the degenerate "index 1 in
    fragment" case, not an error.
    """
    rng = random.Random(0)
    additive = True
    samples = 0
    for _ in range(200):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        lhs = ell.value_on(ctx, mul(ctx, a, b))
        rhs = (ell.value_on(ctx, a) + ell.value_on(ctx, b)) % ctx.p
        if lhs != rhs:
            additive = False
        samples += 1
    surjective = any(val % ctx.p != 0 for val in ell.values(ctx))
    ok = surjective and additive
    if not surjective:
        message = "index 1 in fragment: functional vanishes on every vertex"
    else:
        message = "kernel certified normal of index p" if ok else "homomorphism certification failed"
    return IndexReport(
        is_index_p=ok,
        degenerate=not surjective,
        surjective=surjective,
        additive=additive,
        samples_checked=samples,
        message=message,
    )


@dataclass
class CenterCheckResult:
    ok: bool
    witnesses: int
    failures: list[str] = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def center_of_subgroup_check(ctx: GroupContext, ell: EdgeFunctional) -> CenterCheckResult:
    """Certify Z(subgroup) = Z(whole group) at every support, by one
    elimination.

    Central elements of the big group lie in the subgroup and stay central
    there, so the content is the converse: every non-central subgroup
    element must fail to commute with some member.  Commutation against a
    fixed element is linear in the other argument mod the center, so the
    reduced basis of ker ell is a complete witness family (single
    generators are not: with R = {0-1} on the two-natural fragment, the
    R-pair hub commutes with every single-generator member), and the
    subgroup's center mod Z is the common commuting kernel of those
    witnesses inside ker ell.  The check passes when that kernel is 0;
    otherwise its basis vectors are the failures.
    """
    witnesses = commuting_kernel_basis(ctx, [], ell)
    center = commuting_kernel_basis(ctx, witnesses, ell)
    return CenterCheckResult(
        ok=not center,
        witnesses=len(witnesses),
        failures=[format_element(ctx, from_vectors(ctx, z)) for z in center],
    )


def centralizer_dim_in_subgroup(ctx: GroupContext, ell: EdgeFunctional, a: GroupElement) -> int:
    """dim of {b in subgroup, mod Z : [a, b] = e}: the commutation kernel
    intersected with the functional's kernel."""
    if not in_kernel_subgroup(ctx, ell, a):
        raise ValueError("element is not in the kernel subgroup")
    return commuting_kernel_dim(ctx, [a.gen], ell)


@dataclass
class FragmentAdequacy:
    provisioned: tuple[int, ...]
    unprovisioned: tuple[int, ...]
    separated: bool
    unprovisioned_dims: dict[int, int]

    @property
    def adequate(self) -> bool:
        return bool(self.provisioned) and self.separated

    def explain(self) -> str:
        if self.adequate:
            return f"adequate: naturals {list(self.provisioned)} have >= {PROVISION_PARTNERS} gadgeted partners"
        if not self.provisioned:
            return f"inconclusive fragment: no natural has >= {PROVISION_PARTNERS} gadgeted partners"
        bad = {n: d for n, d in self.unprovisioned_dims.items() if d >= DIM_THRESHOLD}
        return (
            "inconclusive fragment: under-provisioned naturals reach the dimension threshold: "
            + ", ".join(f"x[n:{n}] at dim {d}" for n, d in sorted(bad.items()))
        )


def assess_adequacy(ctx: GroupContext, ell: EdgeFunctional) -> FragmentAdequacy:
    """Decide whether the >= 6 / <= 5 dichotomy can be trusted here.

    Provisioned naturals (>= 7 gadgeted partners) are guaranteed at or
    above the threshold.  Every other natural is measured directly and must
    land strictly below it, otherwise the dimension test cannot tell tested
    naturals apart from bystanders and we refuse.
    """
    g = ctx.graph
    partners = g.partner_counts()
    provisioned: list[int] = []
    unprovisioned: list[int] = []
    for n in g.naturals():
        if partners[n] >= PROVISION_PARTNERS:
            provisioned.append(n)
        else:
            unprovisioned.append(n)
    dims: dict[int, int] = {}
    separated = True
    for n in unprovisioned:
        d = commuting_kernel_dim(ctx, [FpVector(ctx.p, {ctx.vindex[Natural(n)]: 1})], ell)
        dims[n] = d
        if d >= DIM_THRESHOLD:
            separated = False
    return FragmentAdequacy(
        provisioned=tuple(provisioned),
        unprovisioned=tuple(unprovisioned),
        separated=separated,
        unprovisioned_dims=dims,
    )


def natural_vertex_like_by_dimension(
    ctx: GroupContext,
    ell: EdgeFunctional,
    a: GroupElement,
    adequacy: FragmentAdequacy | None = None,
) -> bool:
    """The definable route to "a is a natural generator times a central
    element": its subgroup centralizer dimension reaches the threshold.

    Refuses with an explicit error on fragments where the threshold cannot
    separate (never a silent wrong answer).  The element must be a
    non-central member of the subgroup.
    """
    if adequacy is None:
        adequacy = assess_adequacy(ctx, ell)
    if not adequacy.adequate:
        raise AdequacyError(adequacy.explain())
    if not in_kernel_subgroup(ctx, ell, a):
        raise ValueError("element is not in the kernel subgroup")
    if is_central(a):
        raise ValueError("element is central; the dimension test applies to non-central elements")
    return centralizer_dim_in_subgroup(ctx, ell, a) >= DIM_THRESHOLD
