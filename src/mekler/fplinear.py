"""Exact sparse linear algebra over prime fields F_p.

Vectors are sparse maps from hashable keys to nonzero residues; matrices
are row lists over an explicit, fixed column order.  Everything is exact
integer arithmetic mod p; the modulus rides along on every object and is
checked whenever two of them meet.  The one eliminator, rref_indexed,
works on index-keyed rows, from a matrix or straight from a caller.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Hashable, Iterable, ItemsView, Mapping, Sequence


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


def _check_same_p(a, b) -> None:
    if a.p != b.p:
        raise ValueError(f"modulus mismatch: {a.p} vs {b.p}")


@dataclass(frozen=True)
class FpScalar:
    """A boxed residue mod p, for API surfaces that hand back a bare value."""

    value: int
    p: int

    def __post_init__(self):
        object.__setattr__(self, "value", self.value % self.p)

    def __add__(self, other: "FpScalar") -> "FpScalar":
        _check_same_p(self, other)
        return FpScalar(self.value + other.value, self.p)

    def __neg__(self) -> "FpScalar":
        return FpScalar(-self.value, self.p)

    def __mul__(self, other: "FpScalar") -> "FpScalar":
        _check_same_p(self, other)
        return FpScalar(self.value * other.value, self.p)

    def is_zero(self) -> bool:
        return self.value == 0


class FpVector:
    """Sparse vector over F_p keyed by arbitrary hashable keys.

    Zero coefficients are never stored, so equality and hashing are exact.
    """

    __slots__ = ("p", "_entries", "_hash")

    def __init__(self, p: int, entries: Mapping[Hashable, int] | None = None):
        if p < 2:
            raise ValueError("modulus must be at least 2")
        self.p = p
        clean = {}
        if entries:
            for k, v in entries.items():
                v %= p
                if v:
                    clean[k] = v
        self._entries = clean
        self._hash = None

    @classmethod
    def zero(cls, p: int) -> "FpVector":
        return cls(p)

    @classmethod
    def from_reduced(cls, p: int, entries: dict) -> "FpVector":
        """Wrap entries that are already reduced mod p with no zeros; the
        dict is taken over, not copied or re-normalized."""
        vec = cls.__new__(cls)
        vec.p = p
        vec._entries = entries
        vec._hash = None
        return vec

    @classmethod
    def basis(cls, p: int, key: Hashable, value: int = 1) -> "FpVector":
        return cls(p, {key: value})

    def get(self, key: Hashable) -> int:
        return self._entries.get(key, 0)

    def items(self) -> ItemsView[Hashable, int]:
        return self._entries.items()

    def support(self) -> frozenset:
        return frozenset(self._entries)

    def is_zero(self) -> bool:
        return not self._entries

    def __len__(self) -> int:
        return len(self._entries)

    def __add__(self, other: "FpVector") -> "FpVector":
        _check_same_p(self, other)
        out = dict(self._entries)
        for k, v in other._entries.items():
            s = (out.get(k, 0) + v) % self.p
            if s:
                out[k] = s
            else:
                out.pop(k, None)
        return FpVector.from_reduced(self.p, out)

    def __sub__(self, other: "FpVector") -> "FpVector":
        return self + (-other)

    def __neg__(self) -> "FpVector":
        return self.scale(-1)

    def scale(self, c: int) -> "FpVector":
        c %= self.p
        return FpVector.from_reduced(self.p, {k: (v * c) % self.p for k, v in self._entries.items()} if c else {})

    def __mul__(self, c: int) -> "FpVector":
        return self.scale(c)

    __rmul__ = __mul__

    def __eq__(self, other) -> bool:
        if not isinstance(other, FpVector):
            return NotImplemented
        return self.p == other.p and self._entries == other._entries

    def __hash__(self) -> int:
        if self._hash is None:
            self._hash = hash((self.p, frozenset(self._entries.items())))
        return self._hash

    def __repr__(self) -> str:
        inner = ", ".join(f"{k!r}: {v}" for k, v in sorted(self._entries.items(), key=repr))
        return f"FpVector(p={self.p}, {{{inner}}})"


class FpMatrix:
    """Row-sparse matrix over F_p with a fixed column order.

    The column order is part of the object: echelon forms, pivots and
    kernel bases are all deterministic relative to it.
    """

    __slots__ = ("p", "columns", "rows", "_colindex")

    def __init__(self, p: int, columns: Sequence[Hashable], rows: Iterable[FpVector] = ()):
        self.p = p
        self.columns = tuple(columns)
        if len(set(self.columns)) != len(self.columns):
            raise ValueError("duplicate column keys")
        self._colindex = {c: i for i, c in enumerate(self.columns)}
        self.rows: list[FpVector] = []
        for r in rows:
            self.append_row(r)

    def append_row(self, row: FpVector) -> None:
        if row.p != self.p:
            raise ValueError(f"modulus mismatch: {row.p} vs {self.p}")
        for k in row.support():
            if k not in self._colindex:
                raise ValueError(f"row key {k!r} is not a column of this matrix")
        self.rows.append(row)

    def _indexed_rows(self) -> list[dict[int, int]]:
        ci = self._colindex
        return [{ci[k]: v for k, v in r.items()} for r in self.rows]


def rref_indexed(rows: list[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
    """Incremental reduced row echelon form on index-keyed sparse rows.

    Returns {pivot column index: normalized row} with every pivot column
    eliminated from every other row.  Deterministic given row order.
    """
    pivots: dict[int, dict[int, int]] = {}
    for row in rows:
        r = dict(row)
        # Clear every existing pivot column from the incoming row, not just
        # leading ones; a pivot row's support is its pivot plus free columns,
        # so one increasing pass cannot reintroduce a pivot column.
        for c in sorted(r):
            prow = pivots.get(c)
            if prow is None or c not in r:
                continue
            coef = r[c]
            for k, v in prow.items():
                s = (r.get(k, 0) - coef * v) % p
                if s:
                    r[k] = s
                else:
                    r.pop(k, None)
        if not r:
            continue
        c = min(r)
        inv_lead = pow(r[c], -1, p)
        norm = {k: (v * inv_lead) % p for k, v in r.items()}
        for prow in pivots.values():
            if c in prow:
                coef = prow[c]
                for k, v in norm.items():
                    s = (prow.get(k, 0) - coef * v) % p
                    if s:
                        prow[k] = s
                    else:
                        prow.pop(k, None)
        pivots[c] = norm
    return pivots


def rank(m: FpMatrix) -> int:
    return len(rref_indexed(m._indexed_rows(), m.p))


def kernel_basis_indexed(rows: list[dict[int, int]], ncols: int, p: int) -> list[dict[int, int]]:
    """Kernel of index-keyed rows over columns 0..ncols-1 as its reduced
    echelon basis, by pivot column; that basis is unique to the subspace."""
    pivots = rref_indexed(rows, p)
    raw: list[dict[int, int]] = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: 1}
        for c, prow in pivots.items():
            coef = prow.get(f, 0)
            if coef:
                vec[c] = (-coef) % p
        raw.append(vec)
    # canonicalize: the basis itself in reduced echelon form
    reduced = rref_indexed(raw, p)
    return [reduced[c] for c in sorted(reduced)]


def kernel_basis(m: FpMatrix) -> list[FpVector]:
    """Basis of {x : m @ x = 0}, in reduced echelon form over m.columns.

    Dimension is len(m.columns) - rank(m); an all-zero matrix yields the
    full standard basis.
    """
    return [
        FpVector(m.p, {m.columns[i]: v for i, v in vec.items()})
        for vec in kernel_basis_indexed(m._indexed_rows(), len(m.columns), m.p)
    ]


def kernel_dim(m: FpMatrix) -> int:
    return len(m.columns) - rank(m)
