"""Exact evaluation of the definable edge predicates on fragment groups.

Two first-order formulas recover a chosen edge set R on the naturals from
group structure alone.  The "up" formula lives in the group extended by the
pentagon-swapping automorphism: x and y are R-related when, besides being
power-separated, some vertex-like u commutes with x, y and with a
vertex-like v that the automorphism moves off its own coset.  The "down"
formula lives in the kernel subgroup: some non-central subgroup element
commutes with both x and y.  Every atomic condition depends on generator
cosets only, so evaluation is exact: set algebra on the neighbour bitmasks
for the up formula, linear algebra for the down one; a full-coset
enumeration oracle certifies the restricted evaluators on tiny fragments.
The oracle enumerates F_p^V in numpy blocks and reads commutation off the
alternating form directly, so it stays independent of the commutator and
the commuting-kernel engine that the evaluators use.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .graphs import mask_bits
from .group import (
    GroupContext,
    GroupElement,
    InducedAutomorphism,
    commutator_vector,
    commuting_kernel_basis,
    format_element,
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

    Pure coset condition: y's generator part is no nonzero multiple of
    x's.  False whenever both are central.
    """
    p, xgen = ctx.p, x.gen
    return all({k: c * alpha % p for k, c in xgen.items()} != y.gen for alpha in range(1, p))


def _commutes(ctx: GroupContext, a: GroupElement, b: GroupElement) -> bool:
    return not commutator_vector(ctx, a, b)


def up_edge_formula(ctx: GroupContext, aut: InducedAutomorphism, x: GroupElement, y: GroupElement) -> FormulaTrace:
    """Evaluate the automorphism-side edge formula at (x, y).

    Witness quantifiers range over vertex-like cosets x_w^alpha; that is
    sound and complete because the formula itself constrains u and v to be
    vertex-like and every atom is coset-level.  The exponents can be fixed
    at 1: x_w^alpha commutes with an element exactly when x_w does, since
    the commutator form is bilinear, and x_s^beta is moved off its coset
    exactly when s is moved, since the automorphism permutes generators.

    So the search is set algebra on the neighbour bitmasks, as x_w commutes
    with a coset exactly when its support lies in N[w] = adj[w] | 1 << w:
    u = x_w for the lowest w in U, the intersection of N[s] over supp(x)
    and supp(y), whose N[w] meets the automorphism's moved mask M, and
    v = x_s for the lowest s in N[w] & M.  Both are re-checked by the
    commutator before they are stored.
    """
    if not power_separated(ctx, x, y):
        return FormulaTrace(False, "VertexLikeEnumeration", note="power-related inputs")
    p, adj = ctx.p, ctx.adj
    common = (1 << ctx.n) - 1
    for s in x.gen.keys() | y.gen.keys():
        common &= adj[s] | 1 << s
    for w in mask_bits(common):
        hit = (adj[w] | 1 << w) & aut.moved
        if not hit:
            continue
        u_el = GroupElement(p, {w: 1}, {})
        v_el = GroupElement(p, {(hit & -hit).bit_length() - 1: 1}, {})
        if not _recheck_up(ctx, aut, x, y, u_el, v_el):
            raise RuntimeError(
                f"up-formula witness pair u={format_element(ctx, u_el)}, "
                f"v={format_element(ctx, v_el)} failed its re-check"
            )
        return FormulaTrace(True, "VertexLikeEnumeration", witnesses=(u_el, v_el))
    return FormulaTrace(False, "VertexLikeEnumeration")


def _recheck_up(ctx, aut, x, y, u, v) -> bool:
    return (
        _commutes(ctx, u, x)
        and _commutes(ctx, u, y)
        and _commutes(ctx, u, v)
        and aut.moves_coset(v)
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
    basis = commuting_kernel_basis(ctx, [x, y], ell)
    if not basis:
        return FormulaTrace(False, "KernelIntersection")
    wit = basis[0]
    if not wit.gen or not in_kernel_subgroup(ctx, ell, wit) or not (_commutes(ctx, wit, x) and _commutes(ctx, wit, y)):
        raise RuntimeError(f"down-formula witness {format_element(ctx, wit)} failed its re-check")
    return FormulaTrace(True, "KernelIntersection", witnesses=(wit,), note=f"kernel dim {len(basis)}")


_BLOCK_ROWS = 1 << 14


def _coset_blocks(p: int, n: int):
    """Every vector of F_p^n, in itertools.product(range(p), repeat=n)
    order, as int64 arrays of at most _BLOCK_ROWS rows each: row r of
    the whole sequence holds the base-p digits of r, most significant
    first."""
    total = p**n
    place = p ** np.arange(n - 1, -1, -1, dtype=np.int64)
    for start in range(0, total, _BLOCK_ROWS):
        index = np.arange(start, min(start + _BLOCK_ROWS, total), dtype=np.int64)
        yield index[:, None] // place % p


def _nonadjacent_pairs(ctx: GroupContext) -> tuple[np.ndarray, np.ndarray]:
    """The non-adjacent vertex pairs (u, w), u < w, as two index arrays."""
    pairs = [(u, w) for u in range(ctx.n) for w in range(u + 1, ctx.n) if not (ctx.adj[u] >> w) & 1]
    return np.array([u for u, _ in pairs], dtype=np.int64), np.array([w for _, w in pairs], dtype=np.int64)


def _commuting_mask(block: np.ndarray, a: np.ndarray, pairs: tuple[np.ndarray, np.ndarray], p: int) -> np.ndarray:
    """Row mask of the block's rows b with lambda(a, b) = 0, from the
    alternating form lambda(a, b)_(u,w) = a_w b_u - a_u b_w."""
    us, ws = pairs
    return ~((block[:, us] * a[ws] - block[:, ws] * a[us]) % p).any(axis=1)


def _dense(ctx: GroupContext, a: GroupElement) -> np.ndarray:
    """a's generator part as a dense vector over the vertex order."""
    out = np.zeros(ctx.n, dtype=np.int64)
    for i, c in a.gen.items():
        out[i] = c
    return out


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
    block by block, applying the formula's own vertex-like, moved-coset and
    functional-kernel conjuncts as row masks instead of as enumeration
    shortcuts.  Commutation is read straight off the alternating form
    lambda(a, b)_(u,w) = a_w b_u - a_u b_w over the non-adjacent pairs, so
    the oracle shares no code with the commutator or the kernel engine it
    certifies.  Refuses outright when p^|V| exceeds the budget.
    """
    n = len(ctx.vertex_order)
    space = ctx.p**n
    if space > budget:
        raise BudgetError(f"refusing full coset enumeration: p^|V| = {space} exceeds budget {budget}")
    if not power_separated(ctx, x, y):
        return False
    p = ctx.p
    pairs = _nonadjacent_pairs(ctx)

    def commutes(block: np.ndarray, a: np.ndarray) -> np.ndarray:
        return _commuting_mask(block, a, pairs, p)

    xd, yd = _dense(ctx, x), _dense(ctx, y)
    if formula == "up":
        if aut is None:
            raise ValueError("up formula needs the automorphism")
        target = np.array(aut.iperm, dtype=np.int64)
        # one full pass evaluates each quantifier's own conjuncts as coset
        # predicates: u and v vertex-like, then [u, x] = [u, y] = e and v
        # moved by the automorphism, on the vertex-like rows
        u_rows, v_rows = [], []
        for block in _coset_blocks(p, n):
            rows = block[(block != 0).sum(axis=1) == 1]
            image = np.empty_like(rows)
            image[:, target] = rows
            u_rows.append(rows[commutes(rows, xd) & commutes(rows, yd)])
            v_rows.append(rows[(image != rows).any(axis=1)])
        u, v = np.concatenate(u_rows), np.concatenate(v_rows)
        # [u, v] for every pair at once: lambda(u, v)_(a,b) = u_b v_a - u_a v_b
        us, ws = pairs
        form = u[:, None, ws] * v[None, :, us] - u[:, None, us] * v[None, :, ws]
        return bool((~(form % p).any(axis=2)).any())
    if formula == "down":
        if ell is None:
            raise ValueError("down formula needs the functional")
        for name, el in (("x", x), ("y", y)):
            if not in_kernel_subgroup(ctx, ell, el):
                raise ValueError(f"{name} is not in the kernel subgroup")
        ell_dense = np.array(ell.values(ctx), dtype=np.int64) % p
        for block in _coset_blocks(p, n):
            ok = block.any(axis=1) & (block @ ell_dense % p == 0) & commutes(block, xd) & commutes(block, yd)
            if ok.any():
                return True
        return False
    raise ValueError(f"unknown formula {formula!r}")
