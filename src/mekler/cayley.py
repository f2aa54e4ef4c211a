"""Finite groups as Cayley tables, with root-counting and coset-cover probes.

Infinite-group genericity arguments have no finite analogue, so the finite
probes ask the honest finite questions instead: how many n-th roots an
element has, what the n-th power image looks like, and how few translates
of that image cover the whole group.  Everything here is exact enumeration
on an explicit multiplication table.
"""

from __future__ import annotations

import itertools
import re
from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .fplinear import FpVector
from .graphs import ConfigError
from .group import GroupContext, from_vectors, format_element, mul as ctx_mul

DEFAULT_MAX_ORDER = 2048  # largest group tabulated
EXACT_CAP = 2000  # largest group whose covering number is searched exactly


class FiniteGroup:
    """Multiplication table with the group axioms machine-checked.

    The table is validated at construction: Latin square both ways, a
    two-sided identity, two-sided inverses, and exact associativity by
    Light's test: the g with (x g) y = x (g y) for all x, y are closed under
    products, so checking a generating set proves it, in O(n^2 |gens|).
    """

    def __init__(self, table, names: Sequence[str] | None = None):
        t = np.asarray(table, dtype=np.int64)
        if t.ndim != 2 or t.shape[0] != t.shape[1]:
            raise ConfigError("table must be square")
        n = t.shape[0]
        if n == 0:
            raise ConfigError("empty table")
        if t.min() < 0 or t.max() >= n:
            raise ConfigError("table entries must index elements")
        ar = np.arange(n)
        if not (np.sort(t, axis=1) == ar[None, :]).all():
            raise ConfigError("a row is not a permutation of the elements")
        if not (np.sort(t, axis=0) == ar[:, None]).all():
            raise ConfigError("a column is not a permutation of the elements")
        rows_id = np.flatnonzero((t == ar[None, :]).all(axis=1))
        e = -1
        for cand in rows_id:
            if (t[:, cand] == ar).all():
                e = int(cand)
                break
        if e < 0:
            raise ConfigError("no two-sided identity")
        inv = np.empty(n, dtype=np.int64)
        for g in range(n):
            hs = np.flatnonzero(t[g] == e)
            if hs.size != 1 or t[hs[0], g] != e:
                raise ConfigError(f"element {g} lacks a two-sided inverse")
            inv[g] = hs[0]
        for g in _generating_set(t, e):
            if not (t[t[:, g], :] == t[:, t[g, :]]).all():  # (x g) y against x (g y)
                raise ConfigError("table is not associative")
        if names is not None:
            names = tuple(names)
            if len(names) != n:
                raise ConfigError("names must match the element count")
        self.table = t
        self.names = names
        self.identity = e
        self.inverses = inv

    def __len__(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])

    def pow(self, a: int, k: int) -> int:
        if k < 0:
            return self.pow(self.inv(a), -k)
        acc = self.identity
        base = a
        while k:
            if k & 1:
                acc = self.mul(acc, base)
            base = self.mul(base, base)
            k >>= 1
        return acc

    def order_of(self, a: int) -> int:
        k = 1
        cur = a
        while cur != self.identity:
            cur = self.mul(cur, a)
            k += 1
        return k

    def name(self, a: int) -> str:
        return self.names[a] if self.names else str(a)


def _generating_set(t: np.ndarray, e: int) -> list[int]:
    """Elements, picked greedily (the first one not yet reached), whose
    right-multiplication closure from the identity covers the table."""
    reached = np.zeros(len(t), dtype=bool)
    reached[e] = True
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        frontier = np.flatnonzero(reached)
        while frontier.size:
            step = np.unique(t[np.ix_(frontier, gens)])
            frontier = step[~reached[step]]
            reached[frontier] = True
    return gens


def pow_all(g: FiniteGroup, n: int) -> np.ndarray:
    """Vector of y**n over all y, by table-driven square and multiply."""
    size = len(g)
    if n < 0:
        base = g.inverses.copy()
        n = -n
    else:
        base = np.arange(size, dtype=np.int64)
    acc = np.full(size, g.identity, dtype=np.int64)
    while n:
        if n & 1:
            acc = g.table[acc, base]
        base = g.table[base, base]
        n >>= 1
    return acc


def nth_roots_count(g: FiniteGroup, x: int, n: int) -> int:
    """How many y satisfy y**n = x."""
    return int((pow_all(g, n) == x).sum())


def power_image(g: FiniteGroup, n: int) -> tuple[int, ...]:
    return tuple(int(v) for v in np.unique(pow_all(g, n)))


def bounded_root_set(g: FiniteGroup, n: int, m: int) -> tuple[int, ...]:
    """Elements with at least one and at most m n-th roots."""
    counts = np.bincount(pow_all(g, n), minlength=len(g))
    return tuple(int(v) for v in np.flatnonzero((counts > 0) & (counts <= m)))


def has_unique_roots(g: FiniteGroup, n: int) -> bool:
    """True when y -> y**n is injective (n-th roots are unique)."""
    counts = np.bincount(pow_all(g, n), minlength=len(g))
    return bool((counts <= 1).all())


# --- coset covers -------------------------------------------------------------


@dataclass
class CoverCertificate:
    reps: tuple[int, ...]
    size: int
    exact: bool
    universe: int

    def verify(self, g: FiniteGroup, subset: Sequence[int]) -> bool:
        covered = set()
        for x in self.reps:
            for s in subset:
                covered.add(g.mul(x, s))
        return len(covered) == len(g)


def _translate_masks(g: FiniteGroup, subset: np.ndarray) -> list[int]:
    size = len(g)
    cols = g.table[:, subset]  # row x lists the translate x * S
    hit = np.zeros((size, size), dtype=bool)
    hit[np.arange(size)[:, None], cols] = True
    packed = np.packbits(hit, axis=1, bitorder="little")
    return [int.from_bytes(packed[i].tobytes(), "little") for i in range(size)]


def covering_number(g: FiniteGroup, subset: Iterable[int]) -> tuple[int, CoverCertificate]:
    """Fewest left translates of the subset that cover the group.

    Greedy gives the upper bound; branch and bound on bitmasks settles
    optimality exactly whenever the group order is within EXACT_CAP.
    """
    sub = np.array(sorted(set(int(s) for s in subset)), dtype=np.int64)
    if sub.size == 0:
        raise ValueError("cannot cover with an empty subset")
    size = len(g)
    full = (1 << size) - 1
    masks = _translate_masks(g, sub)
    # one representative per distinct translate
    rep_of: dict[int, int] = {}
    for x in range(size):
        rep_of.setdefault(masks[x], x)
    distinct = [(m, x) for m, x in rep_of.items()]

    # greedy upper bound
    uncovered = full
    greedy: list[int] = []
    while uncovered:
        best_m, best_x = max(distinct, key=lambda mx: (mx[0] & uncovered).bit_count())
        greedy.append(best_x)
        uncovered &= ~best_m
    ub = len(greedy)
    best_reps = list(greedy)

    exact = size <= EXACT_CAP
    if exact and ub > 1:
        per_mask = sub.size  # every translate has exactly |S| elements
        mask_by_rep = dict((x, m) for m, x in distinct)

        def find_cover(uncov: int, budget: int, chosen: list[int]) -> list[int] | None:
            if uncov == 0:
                return list(chosen)
            if budget == 0:
                return None
            need = -(-uncov.bit_count() // per_mask)
            if need > budget:
                return None
            pivot = uncov & -uncov  # lowest uncovered element: some mask must take it
            cands = [(m, x) for m, x in distinct if m & pivot]
            cands.sort(key=lambda mx: -(mx[0] & uncov).bit_count())
            for m, x in cands:
                chosen.append(x)
                got = find_cover(uncov & ~m, budget - 1, chosen)
                chosen.pop()
                if got is not None:
                    return got
            return None

        while ub > 1:
            better = find_cover(full, ub - 1, [])
            if better is None:
                break
            best_reps = better
            ub = len(better)

    cert = CoverCertificate(reps=tuple(best_reps), size=ub, exact=exact, universe=size)
    if not cert.verify(g, [int(s) for s in sub]):
        raise RuntimeError(f"cover certificate with representatives {cert.reps} does not cover the group")
    return ub, cert


@dataclass
class CoverReport:
    group_order: int
    exponent: int
    image_size: int
    covering_size: int
    reps: tuple[int, ...]
    exact: bool

    def summary(self) -> str:
        kind = "exact" if self.exact else "greedy upper bound"
        return "\n".join(
            [
                f"group order {self.group_order}, power exponent {self.exponent}",
                f"power image size {self.image_size}",
                f"translate cover size {self.covering_size} ({kind}), reps {list(self.reps)}",
                "finite groups have no generic elements; the translate covering "
                "number of the power image is the finite proxy measured here",
            ]
        )


def covering_report(g: FiniteGroup, n: int = 2) -> CoverReport:
    image = power_image(g, n)
    k, cert = covering_number(g, image)
    return CoverReport(
        group_order=len(g),
        exponent=n,
        image_size=len(image),
        covering_size=k,
        reps=cert.reps,
        exact=cert.exact,
    )


# --- constructions ------------------------------------------------------------


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ConfigError("order must be positive")
    ar = np.arange(n)
    return FiniteGroup((ar[:, None] + ar[None, :]) % n, names=tuple(str(i) for i in range(n)))


def _compose(f: tuple[int, ...], g: tuple[int, ...]) -> tuple[int, ...]:
    """Apply f first, then g."""
    return tuple(g[f[x]] for x in range(len(f)))


def from_permutation_generators(perms: Sequence[tuple[int, ...]]) -> FiniteGroup:
    """Close a set of permutations under composition and tabulate.

    The breadth-first walk from the identity records right[k][i], element
    i followed by generator k, and each new element's (parent, generator);
    column j of the table is then right[k] applied to its parent's column,
    so only |G| * |gens| compositions are made."""
    if not perms:
        raise ConfigError("need at least one generator")
    npts = len(perms[0])
    for pm in perms:
        if len(pm) != npts or sorted(pm) != list(range(npts)):
            raise ConfigError("generators must be permutations of the same point set")
    ident = tuple(range(npts))
    elems = {ident: 0}
    order = [ident]
    right: list[list[int]] = [[] for _ in perms]
    parent = [(0, 0)]
    for i, el in enumerate(order):  # order grows while it is walked
        for k, pm in enumerate(perms):
            prod = _compose(el, pm)
            j = elems.get(prod)
            if j is None:
                if len(order) >= DEFAULT_MAX_ORDER:
                    raise ConfigError(f"group order exceeds the cap of {DEFAULT_MAX_ORDER}")
                j = elems[prod] = len(order)
                order.append(prod)
                parent.append((i, k))
            right[k].append(j)
    size = len(order)
    right_np = np.array(right, dtype=np.int64)
    table = np.empty((size, size), dtype=np.int64)
    table[:, 0] = np.arange(size)
    for j in range(1, size):
        par, k = parent[j]
        table[:, j] = right_np[k][table[:, par]]
    return FiniteGroup(table, names=tuple(_cycle_notation(pm) for pm in order))


def _cycle_notation(pm: tuple[int, ...]) -> str:
    seen = [False] * len(pm)
    parts = []
    for start in range(len(pm)):
        if seen[start] or pm[start] == start:
            seen[start] = True
            continue
        cyc = [start]
        seen[start] = True
        cur = pm[start]
        while cur != start:
            seen[cur] = True
            cyc.append(cur)
            cur = pm[cur]
        parts.append("(" + " ".join(str(x + 1) for x in cyc) + ")")
    return "".join(parts) if parts else "()"


def symmetric_group(n: int) -> FiniteGroup:
    if n < 1 or n > 6:
        raise ConfigError("full symmetric tables kept to n <= 6")
    if n == 1:
        return from_permutation_generators([(0,)])
    swap = tuple([1, 0] + list(range(2, n)))
    cycle = tuple(list(range(1, n)) + [0])
    return from_permutation_generators([swap, cycle])


def dihedral_group(n: int) -> FiniteGroup:
    """Symmetries of the n-gon as permutations of its corners."""
    if n < 3:
        raise ConfigError("need at least a triangle")
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return from_permutation_generators([rot, ref])


def sl2_permutation_group(q: int) -> FiniteGroup:
    """SL2 over the prime field of size q acting on the nonzero plane vectors."""
    if q < 2 or any(q % d == 0 for d in range(2, q)):
        raise ConfigError("q must be prime")
    points = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    pidx = {pt: i for i, pt in enumerate(points)}

    def act(mat):
        (m00, m01), (m10, m11) = mat
        return tuple(
            pidx[((m00 * a + m01 * b) % q, (m10 * a + m11 * b) % q)] for a, b in points
        )

    shear = act(((1, 1), (0, 1)))
    rot = act(((0, 1), (q - 1, 0)))
    return from_permutation_generators([shear, rot])


def cayley_from_context(ctx: GroupContext) -> FiniteGroup:
    """Tabulate the fragment's whole group, names in element text form.

    Elements are listed by their generator and central coordinates.  As in
    from_permutation_generators, right[v][i] is element i followed by x_v,
    and a breadth-first walk from the identity reaches each element j from
    a parent by one x_v; column j of the table is then right[v] applied to
    its parent's column, so only |G| * |V| products are made."""
    p = ctx.p
    nv, nc = ctx.n, ctx.ncentral
    order = p ** (nv + nc)
    if order > DEFAULT_MAX_ORDER:
        raise ConfigError(f"group order {order} exceeds the cap of {DEFAULT_MAX_ORDER}")
    keys = [ctx.central_key_at(k) for k in range(nc)]
    elems = []
    index = {}
    for coeffs in itertools.product(range(p), repeat=nv + nc):
        gen = FpVector(p, dict(enumerate(coeffs[:nv])))
        cen = FpVector(p, dict(zip(keys, coeffs[nv:])))
        el = from_vectors(ctx, gen, cen)
        index[el] = len(elems)
        elems.append(el)
    size = len(elems)
    right = [
        np.array([index[ctx_mul(ctx, a, x)] for a in elems], dtype=np.int64)
        for x in (from_vectors(ctx, FpVector(p, {v: 1})) for v in range(nv))
    ]
    table = np.empty((size, size), dtype=np.int64)
    table[:, 0] = np.arange(size)  # elems[0] is the identity
    reached = [0]
    seen = {0}
    for par in reached:  # reached grows while it is walked
        for step in right:
            j = int(step[par])
            if j not in seen:
                seen.add(j)
                reached.append(j)
                table[:, j] = step[table[:, par]]
    if len(reached) != size:
        raise RuntimeError("the vertex generators do not reach every element")
    return FiniteGroup(table, names=tuple(format_element(ctx, e) for e in elems))


# --- file formats -------------------------------------------------------------


def format_cayley_text(g: FiniteGroup) -> str:
    lines = [str(len(g))]
    for row in g.table:
        lines.append(" ".join(str(int(x)) for x in row))
    return "\n".join(lines) + "\n"


def _ints(tokens: Sequence[str]) -> list[int]:
    try:
        return [int(tok) for tok in tokens]
    except ValueError as err:
        raise ConfigError(f"expected integers: {err}") from err


def parse_cayley_text(text: str) -> FiniteGroup:
    """First line the order, then that many rows of 0-based indices."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ConfigError("empty table file")
    n = _ints([lines[0]])[0]
    if len(lines) != n + 1:
        raise ConfigError(f"expected {n} rows, found {len(lines) - 1}")
    rows = []
    for ln in lines[1:]:
        row = _ints(ln.split())
        if len(row) != n:
            raise ConfigError("row length differs from the declared order")
        rows.append(row)
    try:
        table = np.array(rows, dtype=np.int64)
    except OverflowError as err:  # an entry past int64 cannot index an element
        raise ConfigError("table entries must index elements") from err
    return FiniteGroup(table)


_CYCLE_RE = re.compile(r"\(([^()]*)\)")


def parse_permutation_text(text: str) -> FiniteGroup:
    """One generator per line, 1-based: cycles like (1 2 3)(4 5), or the
    one-line image form like 2 3 1.  The point set is 1..m, m the largest
    point a cycle names or the longest image line; every image line must
    have length m."""
    raw = [ln for ln in (s.strip() for s in text.splitlines()) if ln and not ln.startswith("#")]
    if not raw:
        raise ConfigError("no generators")
    lines: list[tuple[list[list[int]], list[int]]] = []  # (cycles, image) per generator
    npts = 0
    for ln in raw:
        if ln.startswith("("):
            rest = _CYCLE_RE.sub("", ln).strip()
            if rest:
                raise ConfigError(f"unparsed text in cycle line: {rest!r}")
            cycs = []
            for body in _CYCLE_RE.findall(ln):
                pts = _ints(body.replace(",", " ").split())
                if len(pts) != len(set(pts)) or any(x < 1 for x in pts):
                    raise ConfigError(f"bad cycle {body!r}")
                npts = max(npts, max(pts, default=0))
                cycs.append(pts)
            lines.append((cycs, []))
        else:
            img = _ints(ln.replace(",", " ").split())
            if sorted(img) != list(range(1, len(img) + 1)):
                raise ConfigError(f"not a permutation of 1..{len(img)}: {ln!r}")
            npts = max(npts, len(img))
            lines.append(([], img))
    if npts < 1:
        raise ConfigError("empty point set")
    # every group under the order cap acts faithfully on at most that many
    # points (its regular action), so a larger point set only costs memory
    if npts > DEFAULT_MAX_ORDER:
        raise ConfigError(f"{npts} points exceed the cap of {DEFAULT_MAX_ORDER}")
    perms = []
    for cycs, img in lines:
        if img:
            if len(img) != npts:
                raise ConfigError("image line length differs from the point count")
            perms.append(tuple(x - 1 for x in img))
        else:
            images = list(range(npts))
            for pts in cycs:
                for a, b in zip(pts, pts[1:] + pts[:1]):
                    images[a - 1] = b - 1
            perms.append(tuple(images))
    return from_permutation_generators(perms)
