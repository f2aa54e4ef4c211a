"""Exact sparse linear algebra over prime fields F_p.

Vectors are sparse maps from hashable keys to nonzero residues, and the
modulus rides along on every vector and is checked whenever two meet.  A
linear system is a list of index-keyed rows, dicts from column index to
nonzero residue over columns 0..ncols-1, built once by its caller in the
columns it is to be solved in; the one eliminator, rref_indexed, works on
those rows as given, and kernel_basis and kernel_dim read its pivots.
Everything is exact integer arithmetic mod p.
"""

from __future__ import annotations

from typing import Hashable, Iterable, ItemsView, Mapping


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


def rref_indexed(rows: Iterable[dict[int, int]], p: int) -> dict[int, dict[int, int]]:
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


def kernel_basis(rows: Iterable[dict[int, int]], ncols: int, p: int) -> list[dict[int, int]]:
    """Kernel of index-keyed rows over columns 0..ncols-1, one vector per
    free column f, listed by f: each is 1 at f, which is its highest
    nonzero column, and 0 at every other free column.  That basis is unique
    to the subspace, and an empty row list yields the full standard basis.

    One elimination, read as it stands: rref_indexed pivots on the lowest
    column, so a pivot row for column c is 1 at c and nonzero elsewhere
    only at free columns above c, and free column f gives the kernel vector
    e_f - sum_c prow_c[f] e_c, read off by scattering each pivot row once."""
    pivots = rref_indexed(rows, p)
    basis = {f: {f: 1} for f in range(ncols) if f not in pivots}
    for c, prow in pivots.items():
        for k, v in prow.items():
            if k != c:
                basis[k][c] = p - v
    return list(basis.values())


def kernel_dim(rows: Iterable[dict[int, int]], ncols: int, p: int) -> int:
    """Dimension of that kernel.  The library calls it only in the
    cross-checks of verify, as the full-column oracle."""
    return ncols - len(rref_indexed(rows, p))
