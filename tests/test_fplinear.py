"""Exact linear algebra over F_p, checked against brute enumeration."""

import itertools
import random

import pytest

from mekler.fplinear import (
    is_odd_prime,
    kernel_basis,
    kernel_dim,
    rref_indexed,
)
from mekler.graphs import build_fragment
from mekler.group import GroupContext, GroupElement, commutator_vector, mul


def brute_solution_count(rows, ncols, p):
    """Count kernel vectors by trying every vector in F_p^ncols."""
    count = 0
    for vec in itertools.product(range(p), repeat=ncols):
        if all(sum(r[i] * vec[i] for i in range(ncols)) % p == 0 for r in rows):
            count += 1
    return count


def indexed_rows(rows, p):
    return [{i: v % p for i, v in enumerate(r) if v % p} for r in rows]


def test_is_odd_prime():
    assert is_odd_prime(3)
    assert is_odd_prime(5)
    assert is_odd_prime(7)
    assert is_odd_prime(101)
    for bad in (-3, 0, 1, 2, 4, 9, 15, 21, 100):
        assert not is_odd_prime(bad)


def test_vector_hash_eq():
    # a vector over F_p is a GroupElement's exponent dict; a coset is an
    # element with no central part, equal by parts whatever the key order
    a = GroupElement(3, {0: 1, 1: 2}, {})
    b = GroupElement(3, {1: 2, 0: 1}, {})
    assert a == b and hash(a) == hash(b)
    assert a != GroupElement(3, {0: 1}, {})
    assert a != GroupElement(5, {0: 1, 1: 2}, {})


def test_vector_rejects_mixed_modulus():
    # adding cosets is multiplying elements read mod Z; an operand of another
    # modulus is refused, as is one in the bilinear commutator form
    ctx = GroupContext(build_fragment([0, 1], [(0, 1)]), 3)
    with pytest.raises(ValueError, match="modulus mismatch"):
        mul(ctx, GroupElement(3, {0: 1}, {}), GroupElement(5, {0: 1}, {}))
    with pytest.raises(ValueError, match="modulus mismatch"):
        commutator_vector(ctx, GroupElement(5, {0: 1}, {}), GroupElement(3, {1: 1}, {}))


def test_kernel_of_ones_row_frozen():
    # kernel of (1 1) over F_3 is one-dimensional: column 1 is free and the
    # basis vector is 1 there, (2, 1)
    assert kernel_basis(indexed_rows([[1, 1]], 3), 2, 3) == [{0: 2, 1: 1}]


def test_rank_and_kernel_against_brute_force():
    rng = random.Random(0)
    for p in (3, 5):
        for _ in range(40):
            nrows = rng.randrange(0, 4)
            ncols = rng.randrange(1, 5)
            rows = [[rng.randrange(p) for _ in range(ncols)] for _ in range(nrows)]
            m = indexed_rows(rows, p)
            solutions = brute_solution_count(rows, ncols, p)
            assert solutions == p ** kernel_dim(m, ncols, p)
            basis = kernel_basis(m, ncols, p)
            assert len(basis) == kernel_dim(m, ncols, p)
            for vec in basis:
                dense = [vec.get(i, 0) for i in range(ncols)]
                assert all(
                    sum(r[i] * dense[i] for i in range(ncols)) % p == 0 for r in rows
                )


def test_kernel_basis_is_reduced_echelon():
    # every free coordinate is the highest entry of exactly one basis vector,
    # with value 1, and is zero in every other basis vector
    m = indexed_rows([[1, 2, 0, 1], [0, 0, 1, 2]], 3)
    basis = kernel_basis(m, 4, 3)
    assert kernel_dim(m, 4, 3) == 2
    tops = []
    for vec in basis:
        top = max(vec)
        assert vec[top] == 1
        tops.append(top)
    assert len(set(tops)) == len(basis)
    for vec in basis:
        for other in basis:
            if vec is not other:
                assert other.get(max(vec), 0) == 0


def two_elimination_kernel_basis(rows, ncols, p):
    """The oracle: eliminate with the lowest column as pivot, read one
    kernel vector off per free column, then put those vectors in reduced
    echelon form with a second elimination."""
    pivots = rref_indexed(rows, p)
    raw = []
    for f in range(ncols):
        if f in pivots:
            continue
        vec = {f: 1}
        for c, prow in pivots.items():
            coef = prow.get(f, 0)
            if coef:
                vec[c] = (-coef) % p
        raw.append(vec)
    reduced = rref_indexed(raw, p)
    return [reduced[c] for c in sorted(reduced)]


def random_system(rng, p):
    """Index-keyed rows of one of five shapes: no rows, zero rows among
    random ones, full column rank, rows with dependent combinations, and
    random rows of random density; a fifth of the systems have one column."""
    ncols = 1 if rng.random() < 0.2 else rng.randint(2, 10)
    shape = rng.randrange(5)
    if shape == 0:
        return [], ncols, shape
    if shape == 2:  # a triangular system on shuffled columns, then extra rows
        cols = rng.sample(range(ncols), ncols)
        rows = [{c: rng.randrange(1, p)} | {d: rng.randrange(1, p) for d in cols[i + 1 :] if rng.random() < 0.5}
                for i, c in enumerate(cols)]
        rows += [{c: rng.randrange(1, p) for c in range(ncols) if rng.random() < 0.5} for _ in range(rng.randrange(3))]
        rng.shuffle(rows)
        return rows, ncols, shape
    density = rng.choice((0.2, 0.5, 0.9))
    rows = [{c: rng.randrange(1, p) for c in range(ncols) if rng.random() < density} for _ in range(rng.randrange(1, ncols + 3))]
    if shape == 1:
        rows += [{} for _ in range(rng.randint(1, 3))]
    elif shape == 3:
        for _ in range(rng.randint(1, 3)):
            combo = {}
            for row in rng.sample(rows, min(2, len(rows))):
                k = rng.randrange(1, p)
                for c, v in row.items():
                    combo[c] = (combo.get(c, 0) + k * v) % p
            rows.append({c: v for c, v in combo.items() if v})
    rng.shuffle(rows)
    return rows, ncols, shape


def test_kernel_basis_matches_the_two_elimination_oracle():
    """kernel_basis on the columns reversed, c -> ncols-1-c, is the oracle's
    reduced echelon basis reversed back: its vectors, 1 at their highest
    free column and listed by it, are the oracle's, 1 at their lowest
    pivot, in the opposite order."""
    rng = random.Random(19)
    seen = set()
    for p in (3, 5, 7):
        for _ in range(800):
            rows, ncols, shape = random_system(rng, p)

            def flip(vec):
                return {ncols - 1 - c: v for c, v in vec.items()}

            basis = kernel_basis(iter([flip(r) for r in rows]), ncols, p)
            assert [flip(v) for v in reversed(basis)] == two_elimination_kernel_basis([dict(r) for r in rows], ncols, p)
            assert [max(v) for v in basis] == sorted(max(v) for v in basis)
            seen.add((shape, ncols == 1, len(basis) == 0, len(basis) == ncols))
    shapes = {s[0] for s in seen}
    assert shapes == {0, 1, 2, 3, 4}
    assert (2, False, True, False) in seen  # full rank on several columns: no kernel
    assert (0, True, False, True) in seen and (0, False, False, True) in seen  # no rows: the standard basis
    assert any(one and not empty for _, one, empty, _ in seen)  # one free column
