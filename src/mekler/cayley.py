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
from .group import GroupContext, from_vectors, mul as ctx_mul

DEFAULT_MAX_ORDER = 2048  # largest group tabulated
EXACT_CAP = 2000  # largest group whose covering number is searched exactly
COVER_NODE_BUDGET = 2_000_000  # search nodes an exact cover search may visit


class FiniteGroup:
    """Multiplication table with the group axioms machine-checked, its
    identity and its inverses; elements are the unnamed indices 0..n-1.

    The table is the group's own read-only, C-contiguous int32 copy: every
    order under the cap fits in int32, and so does every flat index x*n + y.
    It is validated at construction in whole-array passes: Latin square
    both ways, a two-sided identity, two-sided inverses, and exact
    associativity by Light's test: the g with (x g) y = x (g y) for all x, y
    are closed under products, so checking a generating set proves it, in
    O(n^2 |gens|).
    """

    def __init__(self, table):
        if not (isinstance(table, np.ndarray) and table.dtype == np.int32):
            table = _int64_table(table)  # bounds are checked before narrowing
        if table.ndim != 2 or table.shape[0] != table.shape[1]:
            raise ConfigError("table must be square")
        n = table.shape[0]
        if n == 0:
            raise ConfigError("empty table")
        if table.min() < 0 or table.max() >= n:
            raise ConfigError("table entries must index elements")
        t = np.array(table, dtype=np.int32, order="C")  # never the caller's array
        # the checks read a uint16 copy where the order allows: half the
        # bytes of the int32 table to stream through, and vectorised sorts
        w = t.astype(np.uint16) if n <= 1 << 16 else t
        ar = np.arange(n, dtype=w.dtype)
        if not (np.sort(w, axis=1) == ar[None, :]).all():
            raise ConfigError("a row is not a permutation of the elements")
        if not (np.sort(w, axis=0) == ar[:, None]).all():
            raise ConfigError("a column is not a permutation of the elements")
        e = int(np.argmin(w[:, 0]))  # e 0 = 0, and column 0 holds 0 once
        if not ((w[e] == ar).all() and (w[:, e] == ar).all()):
            raise ConfigError("no two-sided identity")
        inv = np.argmax(w == e, axis=1)  # the right inverse in each row
        bad = np.flatnonzero(w[inv, ar] != e)
        if bad.size:
            raise ConfigError(f"element {bad[0]} lacks a two-sided inverse")
        for g in _generating_set(w, e):
            if not (w.take(w[:, g], axis=0) == w.take(w[g], axis=1)).all():  # (x g) y against x (g y)
                raise ConfigError("table is not associative")
        t.flags.writeable = False
        inv.flags.writeable = False
        self.table = t
        self.identity = e
        self.inverses = inv

    def __len__(self) -> int:
        return self.table.shape[0]

    def mul(self, a: int, b: int) -> int:
        return int(self.table[a, b])

    def inv(self, a: int) -> int:
        return int(self.inverses[a])


def _int64_table(table) -> np.ndarray:
    """The table as int64, refusing an entry that is not a whole number
    rather than letting the cast truncate it."""
    raw = np.asarray(table)
    if raw.dtype.kind == "f" and not (np.isfinite(raw) & (raw == np.trunc(raw))).all():
        raise ConfigError("table entries must be integers")
    return np.asarray(table, dtype=np.int64)


def _generating_set(t: np.ndarray, e: int) -> list[int]:
    """Elements, picked greedily (the first one not yet reached), whose
    right-multiplication closure from the identity covers the table.

    Right multiplication by a pick is a permutation of the elements (the
    columns are Latin), so the closure is the identity's orbit under the
    picks.  Each pass labels every element with the least element it is
    known to share an orbit with, across each pick's edges both ways and
    then by pointer jumping; when no label moves, the orbit is the label
    class of the identity.  About log2 of the orbit's diameter passes, each
    over whole arrays."""
    n = len(t)
    label = np.arange(n, dtype=np.int32)
    reached = label == e
    gens: list[int] = []
    while not reached.all():
        gens.append(int(np.argmin(reached)))
        steps = t[:, gens].T  # steps[k][x] is x times pick k
        while True:
            new = label
            for step in steps:
                new = np.minimum(new, new[step])  # x takes the label of x g
                new[step] = np.minimum(new[step], new)  # x g takes the label of x
            new = new[new]
            if np.array_equal(new, label):
                break
            label = new
        reached = label == label[e]
    return gens


def pow_all(g: FiniteGroup, n: int) -> np.ndarray:
    """Vector of y**n over all y, by table-driven square and multiply."""
    size = len(g)
    if n < 0:
        base = g.inverses
        n = -n
    else:
        base = np.arange(size, dtype=np.int32)
    acc = np.full(size, g.identity, dtype=np.int32)
    while n:
        if n & 1:
            acc = g.table[acc, base]
        base = g.table[base, base]
        n >>= 1
    return acc


def root_counts(g: FiniteGroup, n: int) -> np.ndarray:
    """counts[x] is how many y satisfy y**n = x: one power map answers
    every root and image question below."""
    return np.bincount(pow_all(g, n), minlength=len(g))


# --- coset covers -------------------------------------------------------------


@dataclass
class CoverCertificate:
    reps: tuple[int, ...]
    size: int
    exact: bool
    universe: int
    nodes: int = 0  # branch-and-bound nodes visited
    budget_hit: bool = False  # the search stopped at COVER_NODE_BUDGET

    def verify(self, g: FiniteGroup, subset: Sequence[int]) -> bool:
        """Every element lies in some x * S, x a representative, read off
        the table itself and not off the search's bitmasks."""
        covered = np.zeros(len(g), dtype=bool)
        covered[g.table[np.array(self.reps, dtype=np.intp)][:, np.asarray(subset, dtype=np.intp)]] = True
        return bool(covered.all())


class _NodeBudgetHit(Exception):
    pass


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
    optimality exactly whenever the group order is within EXACT_CAP and the
    search stays within COVER_NODE_BUDGET nodes.  Past the budget the best
    cover found so far is kept, with exact=False and budget_hit=True.

    Left multiplication permutes the translates transitively and maps
    covers to covers, so if a k-cover exists, one exists through any fixed
    translate (F. Margot, Symmetry in integer linear programming, 2010).
    Each round therefore fixes the first translate through element 0, the
    one an unseeded search would try first, and looks for the rest: the
    cover found is the same, and only the proof that none is smaller shrinks.
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
    nodes = 0
    budget_hit = False
    if exact and ub > 1:
        per_mask = sub.size  # every translate has exactly |S| elements

        def find_cover(uncov: int, budget: int, chosen: list[int]) -> list[int] | None:
            nonlocal nodes
            nodes += 1
            if nodes > COVER_NODE_BUDGET:
                raise _NodeBudgetHit
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

        m0, x0 = next((m, x) for m, x in distinct if m & 1)
        try:
            while ub > 1:
                better = find_cover(full & ~m0, ub - 2, [x0])
                if better is None:
                    break
                best_reps = better
                ub = len(better)
        except _NodeBudgetHit:
            exact = False
            budget_hit = True

    cert = CoverCertificate(
        reps=tuple(best_reps), size=ub, exact=exact, universe=size, nodes=nodes, budget_hit=budget_hit
    )
    if not cert.verify(g, sub):
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
    budget_hit: bool

    def summary(self) -> str:
        if self.exact:
            kind = "exact"
        elif self.budget_hit:
            kind = "upper bound: the search hit its node budget"
        else:
            kind = "greedy upper bound"
        return "\n".join(
            [
                f"group order {self.group_order}, power exponent {self.exponent}",
                f"power image size {self.image_size}",
                f"translate cover size {self.covering_size} ({kind}), reps {list(self.reps)}",
                "finite groups have no generic elements; the translate covering "
                "number of the power image is the finite proxy measured here",
            ]
        )

    @classmethod
    def of_image(cls, g: FiniteGroup, n: int, image: Sequence[int]) -> CoverReport:
        """The report on covering g by the translates of its n-th power image."""
        k, cert = covering_number(g, image)
        return cls(
            group_order=len(g),
            exponent=n,
            image_size=len(image),
            covering_size=k,
            reps=cert.reps,
            exact=cert.exact,
            budget_hit=cert.budget_hit,
        )


def covering_report(g: FiniteGroup, n: int = 2) -> CoverReport:
    return CoverReport.of_image(g, n, np.flatnonzero(root_counts(g, n)))


# --- constructions ------------------------------------------------------------


def check_order(order: int) -> None:
    """Refuse a group whose known order is past DEFAULT_MAX_ORDER, before
    anything of it is built."""
    if order > DEFAULT_MAX_ORDER:
        raise ConfigError(f"group order {order} exceeds the cap of {DEFAULT_MAX_ORDER}")


def _tabulate(right: np.ndarray) -> np.ndarray:
    """Multiplication table from right actions: right[k][i] is element i
    followed by generator k, and element 0 is the identity.

    Column j of the table is right multiplication by j, so the column of a
    product s t is column t applied to column s, and the product's index is
    column t read at s.  The known columns start as the identity's and the
    generators' (right itself), the elements of word length at most 1.  If
    the known elements are those of length at most L and the newest those
    longer than L/2, their products are those of length at most 2L: a word
    longer than L is a known prefix times its last L letters.  So each pass
    multiplies the known elements by the newest ones and fills the new
    columns in whole-array gathers, about log2(diameter) passes in all."""
    size = right.shape[1]
    cols = np.empty((size, size), dtype=np.int32)  # cols[j] is column j of the table
    cols[right[:, 0]] = right
    cols[0] = np.arange(size)
    seen = np.zeros(size, dtype=bool)
    seen[0] = True
    seen[right[:, 0]] = True
    newest = np.flatnonzero(seen)
    slot = np.empty(size, dtype=np.intp)
    while not seen.all():
        known = np.flatnonzero(seen)
        prods = cols[newest][:, known].ravel()  # known[a] * newest[b] at b * len(known) + a
        fresh = np.flatnonzero(~seen[prods])
        if not fresh.size:
            raise RuntimeError("the generators do not reach every element")
        kids = prods[fresh]
        slot[kids] = np.arange(kids.size)
        first = slot[kids] == np.arange(kids.size)  # one factor pair per element
        b, a = np.divmod(fresh[first], known.size)
        kids = kids[first]
        cols[kids] = cols.ravel()[cols[known[a]] + size * newest[b][:, None]]
        seen[kids] = True
        newest = kids
    return cols.T


def cyclic_group(n: int) -> FiniteGroup:
    if n < 1:
        raise ConfigError("order must be positive")
    check_order(n)
    ar = np.arange(n, dtype=np.int32)
    return FiniteGroup((ar[:, None] + ar[None, :]) % n)


def from_permutation_generators(perms: Sequence[tuple[int, ...]]) -> FiniteGroup:
    """Close a set of permutations under composition and tabulate.

    Points are stored as the narrowest unsigned ints that hold them.  The
    closure walks breadth-first levels from the identity: one gather makes
    every product of a level with every generator, and one dict lookup on
    each product's bytes finds or numbers it, so the elements are numbered
    in the order a one-at-a-time walk numbers them.  That records
    right[k][i], element i followed by generator k, and _tabulate fills the
    table from these right actions."""
    if not perms:
        raise ConfigError("need at least one generator")
    npts = len(perms[0])
    for pm in perms:
        if len(pm) != npts or sorted(pm) != list(range(npts)):
            raise ConfigError("generators must be permutations of the same point set")
    gens = np.array(perms, dtype=np.min_scalar_type(max(npts - 1, 0)))
    level = np.arange(npts, dtype=gens.dtype)[None, :]
    width = level.nbytes
    index = {level.tobytes(): 0}
    right: list[int] = []  # right[i * len(perms) + k]: element i followed by generator k
    while len(level):
        buf = gens[:, level].swapaxes(0, 1).tobytes()  # level element i followed by generator k, i major
        keys = [buf[i * width:(i + 1) * width] for i in range(len(level) * len(perms))]
        new = [key for key in dict.fromkeys(keys) if key not in index]
        if len(index) + len(new) > DEFAULT_MAX_ORDER:
            raise ConfigError(f"group order exceeds the cap of {DEFAULT_MAX_ORDER}")
        index.update(zip(new, range(len(index), len(index) + len(new))))
        right.extend(map(index.__getitem__, keys))
        level = np.frombuffer(b"".join(new), dtype=gens.dtype).reshape(len(new), npts)
    return FiniteGroup(_tabulate(np.array(right, dtype=np.int32).reshape(len(index), len(perms)).T))


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
    check_order(2 * n)
    rot = tuple((i + 1) % n for i in range(n))
    ref = tuple((-i) % n for i in range(n))
    return from_permutation_generators([rot, ref])


def sl2_permutation_group(q: int) -> FiniteGroup:
    """SL2 over the prime field of size q acting on the nonzero plane vectors."""
    check_order(q * (q * q - 1))
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
    """Tabulate the fragment's whole group.

    Element i is the normal-form element whose coordinates are the base-p
    digits of i, most significant first: the generator exponents in vertex
    order, then the central exponents by ascending central key, so element
    0 is the identity.  right[v][i] is element i followed by x_v, so only
    |G| * |V| products are made; _tabulate fills the table from these right
    actions."""
    p = ctx.p
    nv, nc = ctx.n, ctx.ncentral
    check_order(p ** (nv + nc))
    keys = [ctx.central_key_at(k) for k in range(nc)]
    elems = []
    index = {}
    for coeffs in itertools.product(range(p), repeat=nv + nc):
        gen = FpVector(p, dict(enumerate(coeffs[:nv])))
        cen = FpVector(p, dict(zip(keys, coeffs[nv:])))
        el = from_vectors(ctx, gen, cen)
        index[el] = len(elems)
        elems.append(el)
    gens = [from_vectors(ctx, FpVector(p, {v: 1})) for v in range(nv)]
    right = np.array([[index[ctx_mul(ctx, a, x)] for a in elems] for x in gens], dtype=np.int64)
    return FiniteGroup(_tabulate(right))


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


def _plain_table(text: str) -> np.ndarray | None:
    """The int64 table of a text in the plain form format_cayley_text
    writes, converted in one pass, or None for any other text.

    Plain is ASCII digits, single spaces and newlines: the order alone on
    the first line as str() writes it, then that many lines of exactly that
    many tokens, each ending in a newline.  The order is read off the line
    count and compared as text, so a first line of any length costs no
    int().  The checks are whole-buffer: a body that starts with a digit
    and ends in a newline alternates digit runs and separator runs, as many
    of each; so n*n numbers and n*n separator bytes mean single separators,
    and with every n-th separator a newline, every line holds n tokens.
    numpy reads a digit run as int() does; one past int64 saturates, and
    the saturated entry fails the same index check as an int() overflow."""
    head, _, body = text.partition("\n")
    n = body.count("\n")
    if n < 1 or head != str(n) or not body.endswith("\n") or not text.isascii():
        return None
    data = body.encode()
    if data.translate(None, b"0123456789 \n") or not data[:1].isdigit():
        return None
    raw = np.frombuffer(data, dtype=np.uint8)
    seps = np.flatnonzero(raw < ord("0"))  # where the spaces and newlines are
    values = np.fromstring(data, dtype=np.int64, sep=" ")
    if values.size != n * n or seps.size != n * n or not (raw[seps[n - 1::n]] == ord("\n")).all():
        return None
    return values.reshape(n, n)


def _tokenwise_table(text: str) -> np.ndarray:
    """The int64 table of any table text, read token by token with int()
    after splitting on any whitespace, with a message for each refusal."""
    lines = [ln for ln in (s.strip() for s in text.splitlines()) if ln]
    if not lines:
        raise ConfigError("empty table file")
    n = _ints([lines[0]])[0]
    if n < 1:
        raise ConfigError(f"table order must be at least 1, got {n}")
    if len(lines) != n + 1:
        raise ConfigError(f"expected {n} rows, found {len(lines) - 1}")
    rows = [ln.split() for ln in lines[1:]]
    if any(len(row) != n for row in rows):
        raise ConfigError("row length differs from the declared order")
    try:  # numpy reads each token with int(), so it takes the same tokens
        return np.array(rows, dtype=np.int64)
    except ValueError as err:
        raise ConfigError(f"expected integers: {err}") from err
    except OverflowError as err:  # an entry past int64 cannot index an element
        raise ConfigError("table entries must index elements") from err


def parse_cayley_text(text: str) -> FiniteGroup:
    """First line the order, at least 1, then that many rows of 0-based
    indices.  The plain form that format_cayley_text writes is converted in
    one pass; any other text token by token.  Both give the same table."""
    table = _plain_table(text)
    return FiniteGroup(_tokenwise_table(text) if table is None else table)


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
