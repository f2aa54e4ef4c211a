"""Order-2 extension of a fragment group by the pentagon-swapping
automorphism, in semidirect normal form (h, eps) with eps in {0, 1}.

Multiplication twists the right factor's base part by the automorphism
eps-many times: (h, e) * (k, d) = (h * pi^e(k), e + d).  The base group is
recovered inside the extension by the pure power condition a^p = identity:
base elements have exponent p, while anything with eps = 1 squares into the
base and keeps its flip, so its p-th power (p odd) still flips.
"""

from __future__ import annotations

import re
from dataclasses import dataclass

from .graphs import ConfigError
from .group import GroupContext, GroupElement, InducedAutomorphism, format_element, identity, inv, mul, parse_element


@dataclass(frozen=True)
class ExtElement:
    h: GroupElement
    eps: int

    def __post_init__(self):
        object.__setattr__(self, "eps", self.eps % 2)


def _require_involution(aut: InducedAutomorphism) -> None:
    if not aut.is_involution:
        raise ValueError("extension arithmetic needs an involutive automorphism")


def ext_identity(ctx: GroupContext) -> ExtElement:
    return ExtElement(identity(ctx), 0)


def ext_mul(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement, b: ExtElement) -> ExtElement:
    _require_involution(aut)
    k = aut.apply(b.h) if a.eps else b.h
    return ExtElement(mul(ctx, a.h, k), (a.eps + b.eps) % 2)


def ext_inv(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement) -> ExtElement:
    _require_involution(aut)
    h_inv = inv(ctx, a.h)
    return ExtElement(aut.apply(h_inv) if a.eps else h_inv, a.eps)


def ext_pow(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement, k: int) -> ExtElement:
    if k < 0:
        return ext_pow(ctx, aut, ext_inv(ctx, aut, a), -k)
    acc = ext_identity(ctx)
    for _ in range(k):
        acc = ext_mul(ctx, aut, acc, a)
    return acc


def ext_conjugate(ctx: GroupContext, aut: InducedAutomorphism, t: ExtElement, a: ExtElement) -> ExtElement:
    return ext_mul(ctx, aut, ext_mul(ctx, aut, t, a), ext_inv(ctx, aut, t))


def in_base_by_power_formula(ctx: GroupContext, aut: InducedAutomorphism, a: ExtElement) -> bool:
    """Membership in the base group, decided by the definable condition
    a^p = identity rather than by reading the eps coordinate."""
    return ext_pow(ctx, aut, a, ctx.p) == ext_identity(ctx)


def format_ext(ctx: GroupContext, a: ExtElement) -> str:
    return f"({format_element(ctx, a.h)}, {a.eps})"


_EXT_RE = re.compile(r"\((.*),\s*([-+]?\d{1,4000})\s*\)")


def parse_ext(ctx: GroupContext, text: str) -> ExtElement:
    m = _EXT_RE.fullmatch(text.strip())
    if not m:
        raise ConfigError(f"cannot parse extension element {text!r}")
    return ExtElement(parse_element(ctx, m.group(1).strip()), int(m.group(2)))
