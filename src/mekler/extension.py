"""Order-2 extension of a fragment group by the pentagon-swapping
automorphism, in semidirect normal form (h, eps) with eps in {0, 1}.

Multiplication twists the right factor's base part by the automorphism
eps-many times: (h, e) * (k, d) = (h * pi^e(k), e + d).  The base group is
recovered inside the extension by the pure power condition a^p = identity:
base elements have exponent p, while anything with eps = 1 squares into the
base and keeps its flip, so its p-th power (p odd) still flips.
"""

from __future__ import annotations

from .group import GroupContext, GroupElement, InducedAutomorphism, identity, inv, mul


class ExtElement:
    """(h, eps) with eps reduced mod 2.  An immutable value: equal pairs
    give equal elements with equal hashes."""

    __slots__ = ("h", "eps")

    def __init__(self, h: GroupElement, eps: int):
        _set_h(self, h)
        _set_eps(self, eps % 2)

    def __setattr__(self, name, value):
        raise AttributeError(f"ExtElement is immutable; cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"ExtElement is immutable; cannot delete {name!r}")

    def __eq__(self, other):
        if other.__class__ is not ExtElement:
            return NotImplemented
        return self.eps == other.eps and self.h == other.h

    def __hash__(self) -> int:
        return hash((self.h, self.eps))

    def __repr__(self) -> str:
        return f"ExtElement(h={self.h!r}, eps={self.eps!r})"


# the slot setters, which bypass the refusing __setattr__
_set_h = ExtElement.h.__set__
_set_eps = ExtElement.eps.__set__
_new = object.__new__


def _ext(h: GroupElement, eps: int) -> ExtElement:
    """Wrap a base element and a flip already reduced to 0 or 1; nothing is
    checked or reduced again."""
    a = _new(ExtElement)
    _set_h(a, h)
    _set_eps(a, eps)
    return a


def _require_involution(aut: InducedAutomorphism) -> None:
    if not aut.is_involution:
        raise ValueError("extension arithmetic needs an involutive automorphism")


def ext_identity(ctx: GroupContext) -> ExtElement:
    return _ext(identity(ctx), 0)


def ext_mul(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement, b: ExtElement) -> ExtElement:
    if not aut.is_involution:
        _require_involution(aut)
    k = aut.apply(b.h) if a.eps else b.h
    return _ext(mul(ctx, a.h, k), a.eps ^ b.eps)


def ext_inv(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement) -> ExtElement:
    _require_involution(aut)
    h_inv = inv(ctx, a.h)
    return _ext(aut.apply(h_inv) if a.eps else h_inv, a.eps)


def ext_pow(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement, k: int) -> ExtElement:
    _require_involution(aut)
    if k < 0:
        return ext_pow(ctx, aut, ext_inv(ctx, aut, a), -k)
    if k == 0:
        return ext_identity(ctx)
    acc = a
    for _ in range(k - 1):
        acc = ext_mul(ctx, aut, acc, a)
    return acc


def ext_conjugate(ctx: GroupContext, aut: InducedAutomorphism, t: ExtElement, a: ExtElement) -> ExtElement:
    return ext_mul(ctx, aut, ext_mul(ctx, aut, t, a), ext_inv(ctx, aut, t))


def in_base_by_power_formula(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement) -> bool:
    """Membership in the base group, decided by the definable condition
    a^p = identity rather than by reading the eps coordinate."""
    return ext_pow(ctx, aut, a, ctx.p) == ext_identity(ctx)
