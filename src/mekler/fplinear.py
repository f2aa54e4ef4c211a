"""Exact sparse linear algebra over prime fields F_p.

A linear system is a list of index-keyed rows, plain dicts from column
index to nonzero residue over columns 0..ncols-1, built once by its caller
in the columns it is to be solved in; the one eliminator, rref_indexed,
works on those rows as given, and kernel_basis and kernel_dim read its
pivots.  The module defines no vector type: a vector is such a dict, and
the modulus is passed alongside.  Everything is exact integer arithmetic
mod p.
"""

from __future__ import annotations

from typing import Iterable


def is_odd_prime(p: int) -> bool:
    if p < 3 or p % 2 == 0:
        return False
    d = 3
    while d * d <= p:
        if p % d == 0:
            return False
        d += 2
    return True


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
