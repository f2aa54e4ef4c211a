"""Exact evaluation of the definable edge predicates on fragment groups.

Two first-order formulas recover a chosen edge set R on the naturals from
group structure alone.  The "up" formula lives in the group extended by the
pentagon-swapping automorphism: x and y are R-related when, besides being
power-separated, some vertex-like u commutes with x, y and with a
vertex-like v that the automorphism moves off its own coset.  The "down"
formula lives in the kernel subgroup: some non-central subgroup element
commutes with both x and y.  Every atomic condition depends on generator
cosets only, so evaluation is exact linear algebra; a full-coset
enumeration oracle certifies the restricted evaluators on tiny fragments.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fplinear import FpVector
from .group import (
    Coset,
    GroupContext,
    GroupElement,
    InducedAutomorphism,
    commutator_vector,
    commuting_kernel_basis,
    format_element,
    from_vectors,
)
from .subgroup import EdgeFunctional, in_kernel_subgroup


class BudgetError(RuntimeError):
    """Raised when an exhaustive enumeration would exceed its budget."""


DEFAULT_ORACLE_BUDGET = 3**12


@dataclass
class FormulaTrace:
    verdict: bool
    method: str  # VertexLikeEnumeration | KernelIntersection | FullCosetEnumeration
    witnesses: tuple[GroupElement, ...] = ()
    note: str = ""

    def __bool__(self) -> bool:
        return self.verdict


def power_separated(ctx: GroupContext, x: GroupElement, y: GroupElement) -> bool:
    """No 0 < alpha < p and central z with x^alpha = y z.

    Pure coset condition: y's generator vector is no nonzero multiple of
    x's.  False whenever both are central.
    """
    for alpha in range(1, ctx.p):
        if x.gen.scale(alpha) == y.gen:
            return False
    return True


def _commutes(ctx: GroupContext, a_gen: Coset, b_gen: Coset) -> bool:
    return commutator_vector(ctx, a_gen, b_gen).is_zero()


def up_edge_formula(ctx: GroupContext, aut: InducedAutomorphism, x: GroupElement, y: GroupElement) -> FormulaTrace:
    """Evaluate the automorphism-side edge formula at (x, y).

    Witness quantifiers range over vertex-like cosets x_w^alpha; that is
    sound and complete because the formula itself constrains u and v to be
    vertex-like and every atom is coset-level.  Witnesses found are
    re-verified before they are stored.
    """
    if not power_separated(ctx, x, y):
        return FormulaTrace(False, "VertexLikeEnumeration", note="power-related inputs")
    p = ctx.p
    for w in range(ctx.n):
        for alpha in range(1, p):
            u_gen = FpVector.from_reduced(p, {w: alpha})
            if not (_commutes(ctx, u_gen, x.gen) and _commutes(ctx, u_gen, y.gen)):
                continue
            for s in range(ctx.n):
                if aut.iperm[s] == s:
                    continue
                if not _commutes(ctx, u_gen, FpVector.from_reduced(p, {s: 1})):
                    continue
                for beta in range(1, p):
                    v_gen = FpVector.from_reduced(p, {s: beta})
                    if not aut.moves_coset(v_gen):
                        continue
                    u_el, v_el = from_vectors(ctx, u_gen), from_vectors(ctx, v_gen)
                    if not _recheck_up(ctx, aut, x, y, u_el, v_el):
                        raise RuntimeError(
                            f"up-formula witness pair u={format_element(ctx, u_el)}, "
                            f"v={format_element(ctx, v_el)} failed its re-check"
                        )
                    return FormulaTrace(True, "VertexLikeEnumeration", witnesses=(u_el, v_el))
    return FormulaTrace(False, "VertexLikeEnumeration")


def _recheck_up(ctx, aut, x, y, u, v) -> bool:
    return (
        _commutes(ctx, u.gen, x.gen)
        and _commutes(ctx, u.gen, y.gen)
        and _commutes(ctx, u.gen, v.gen)
        and aut.moves_coset(v.gen)
        and len(u.gen) == 1
        and len(v.gen) == 1
    )


def down_edge_formula(ctx: GroupContext, ell: EdgeFunctional, x: GroupElement, y: GroupElement) -> FormulaTrace:
    """Evaluate the subgroup-side edge formula at (x, y).

    True when some non-central element of the kernel subgroup commutes
    with both inputs: the commutation kernels of x and y intersected with
    the functional's kernel must be nonzero.  Inputs must lie in the
    subgroup.
    """
    for name, el in (("x", x), ("y", y)):
        if not in_kernel_subgroup(ctx, ell, el):
            raise ValueError(f"{name} is not in the kernel subgroup")
    if not power_separated(ctx, x, y):
        return FormulaTrace(False, "KernelIntersection", note="power-related inputs")
    basis = commuting_kernel_basis(ctx, [x.gen, y.gen], ell)
    if not basis:
        return FormulaTrace(False, "KernelIntersection")
    wit_gen = basis[0]
    wit = from_vectors(ctx, wit_gen)
    if (
        wit_gen.is_zero()
        or not in_kernel_subgroup(ctx, ell, wit)
        or not (_commutes(ctx, wit_gen, x.gen) and _commutes(ctx, wit_gen, y.gen))
    ):
        raise RuntimeError(f"down-formula witness {format_element(ctx, wit)} failed its re-check")
    return FormulaTrace(True, "KernelIntersection", witnesses=(wit,), note=f"kernel dim {len(basis)}")


def full_coset_oracle(
    ctx: GroupContext,
    formula: str,
    x: GroupElement,
    y: GroupElement,
    aut: InducedAutomorphism | None = None,
    ell: EdgeFunctional | None = None,
    budget: int = DEFAULT_ORACLE_BUDGET,
) -> bool:
    """Evaluate an edge formula with unrestricted coset quantifiers.

    Enumerates every generator coset in F_p^V (the atoms only see cosets),
    applying the formula's own vertex-like conjuncts as predicates instead
    of as enumeration shortcuts.  Certifies the restricted evaluators.
    Refuses outright when p^|V| exceeds the budget.
    """
    n = len(ctx.vertex_order)
    space = ctx.p**n
    if space > budget:
        raise BudgetError(f"refusing full coset enumeration: p^|V| = {space} exceeds budget {budget}")
    if not power_separated(ctx, x, y):
        return False
    p = ctx.p

    def cosets():
        for pattern in itertools.product(range(p), repeat=n):
            yield FpVector.from_reduced(p, {i: c for i, c in enumerate(pattern) if c})

    if formula == "up":
        if aut is None:
            raise ValueError("up formula needs the automorphism")
        # one full pass evaluates the inner quantifier's own conjuncts
        # (vertex-like, moved by the automorphism) as coset predicates
        v_candidates = [v_gen for v_gen in cosets() if len(v_gen) == 1 and aut.moves_coset(v_gen)]
        for u_gen in cosets():
            if len(u_gen) != 1:  # the formula's vertex-like conjunct on u
                continue
            if not (_commutes(ctx, u_gen, x.gen) and _commutes(ctx, u_gen, y.gen)):
                continue
            for v_gen in v_candidates:
                if _commutes(ctx, u_gen, v_gen):
                    return True
        return False
    if formula == "down":
        if ell is None:
            raise ValueError("down formula needs the functional")
        for name, el in (("x", x), ("y", y)):
            if not in_kernel_subgroup(ctx, ell, el):
                raise ValueError(f"{name} is not in the kernel subgroup")
        ell_vec = ell.vector(ctx)
        for v_gen in cosets():
            if v_gen.is_zero():
                continue
            if sum(ell_vec.get(k) * c for k, c in v_gen.items()) % p != 0:
                continue
            if _commutes(ctx, v_gen, x.gen) and _commutes(ctx, v_gen, y.gen):
                return True
        return False
    raise ValueError(f"unknown formula {formula!r}")
