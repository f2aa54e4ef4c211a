"""Finite Cayley-table machinery: validation, roots, covers, file formats."""

import itertools
import random
import re

import numpy as np
import pytest

from mekler import cayley
from mekler.cayley import (
    CoverCertificate,
    FiniteGroup,
    _generating_set,
    cayley_from_context,
    covering_number,
    covering_report,
    cyclic_group,
    dihedral_group,
    format_cayley_text,
    from_permutation_generators,
    parse_cayley_text,
    parse_permutation_text,
    pow_all,
    root_counts,
    sl2_permutation_group,
    symmetric_group,
)
from mekler.fplinear import FpVector
from mekler.graphs import ConfigError, Natural, build_fragment
from mekler.group import GroupContext, from_vectors, identity, mul


def _compose(f, g):
    """Apply f first, then g: the one-product-at-a-time oracle for the
    permutation closure."""
    return tuple(g[f[x]] for x in range(len(f)))


def brute_pow(g, a, n):
    if n < 0:
        a = g.inv(a)
        n = -n
    acc = g.identity
    for _ in range(n):
        acc = g.mul(acc, a)
    return acc


def image_of(g, n):
    """The n-th powers, ascending, read off the one power map."""
    return tuple(np.flatnonzero(root_counts(g, n)).tolist())


def unique_roots(g, n):
    return bool((root_counts(g, n) <= 1).all())


def element_orders(g):
    """Each element's order, by walking its powers along the table."""
    orders = []
    for a in range(len(g)):
        k, cur = 1, a
        while cur != g.identity:
            cur = int(g.table[cur, a])
            k += 1
        orders.append(k)
    return orders


def brute_root_counts(g, n):
    counts = [0] * len(g)
    for y in range(len(g)):
        counts[brute_pow(g, y, n)] += 1
    return counts


def brute_min_cover(g, subset):
    """Smallest number of left translates covering g, by exhaustion.

    Independent of the library path: translate sets come from g.mul one
    element at a time, and minimality is settled by trying every
    combination of distinct translates in increasing size.
    """
    size = len(g)
    full = (1 << size) - 1
    masks = set()
    for x in range(size):
        m = 0
        for s in subset:
            m |= 1 << g.mul(x, s)
        masks.add(m)
    masks = sorted(masks)
    for k in range(1, len(masks) + 1):
        for combo in itertools.combinations(masks, k):
            acc = 0
            for m in combo:
                acc |= m
            if acc == full:
                return k
    raise AssertionError("translates never cover the group")


# Latin square with identity 0 and two-sided inverses (diagonal is 0)
# that is not associative: (1*1)*2 = 2 but 1*(1*2) = 4.
NONASSOC_LOOP = [
    [0, 1, 2, 3, 4],
    [1, 0, 3, 4, 2],
    [2, 4, 0, 1, 3],
    [3, 2, 4, 0, 1],
    [4, 3, 1, 2, 0],
]


def test_table_validation_errors():
    with pytest.raises(ValueError, match="square"):
        FiniteGroup([[0, 1]])
    with pytest.raises(ValueError, match="square"):
        FiniteGroup([])
    with pytest.raises(ValueError, match="index elements"):
        FiniteGroup([[0, 2], [2, 0]])
    with pytest.raises(ValueError, match="row is not a permutation"):
        FiniteGroup([[0, 0], [1, 1]])
    with pytest.raises(ValueError, match="column is not a permutation"):
        FiniteGroup([[0, 1], [0, 1]])
    # subtraction mod 3: Latin both ways, no identity row at all
    with pytest.raises(ValueError, match="identity"):
        FiniteGroup([[0, 2, 1], [1, 0, 2], [2, 1, 0]])


def test_non_integral_entries_rejected():
    with pytest.raises(ConfigError, match="table entries must be integers"):
        FiniteGroup([[0.7, 1.2], [1.9, 0.1]])
    with pytest.raises(ConfigError, match="table entries must be integers"):
        FiniteGroup(np.array([[0.0, float("nan")], [1.0, 0.0]]))
    with pytest.raises(ConfigError, match="table entries must be integers"):
        FiniteGroup([[0.0, float("inf")], [1.0, 0.0]])
    assert np.array_equal(FiniteGroup([[0.0, 1.0], [1.0, 0.0]]).table, [[0, 1], [1, 0]])


def test_one_sided_inverse_rejected():
    # Latin square with identity 0 where 2's right inverse 3 is not a
    # left inverse (3*2 = 1).
    t = [
        [0, 1, 2, 3, 4],
        [1, 0, 3, 4, 2],
        [2, 3, 4, 0, 1],
        [3, 4, 1, 2, 0],
        [4, 2, 0, 1, 3],
    ]
    with pytest.raises(ValueError, match="two-sided inverse"):
        FiniteGroup(t)


def test_nonassociative_loop_rejected():
    t = NONASSOC_LOOP
    n = len(t)
    # confirm by hand that every axiom before associativity holds, so the
    # constructor can only be failing on associativity itself
    for i in range(n):
        assert sorted(t[i]) == list(range(n))
        assert sorted(row[i] for row in t) == list(range(n))
        assert t[0][i] == i and t[i][0] == i
        assert t[i][i] == 0
    bad = [
        (a, b, c)
        for a in range(n)
        for b in range(n)
        for c in range(n)
        if t[t[a][b]][c] != t[a][t[b][c]]
    ]
    assert (1, 1, 2) in bad
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(t)


def test_large_nonassociative_latin_square_rejected():
    # Z_130 with the intercalate at rows 1, 66 and columns 2, 67 swapped:
    # still a Latin square with identity 0 and two-sided inverses (no 0 is
    # moved), but (1*1)*1 = 3 while 1*(1*1) = 1*2 = 68
    n = 130
    t = (np.arange(n)[:, None] + np.arange(n)[None, :]) % n
    t[[1, 1, 66, 66], [2, 67, 2, 67]] = t[[1, 1, 66, 66], [67, 2, 67, 2]]
    assert (np.sort(t, axis=0) == np.arange(n)[:, None]).all()
    assert (np.sort(t, axis=1) == np.arange(n)[None, :]).all()
    assert t[t[1, 1], 1] != t[1, t[1, 1]]
    with pytest.raises(ValueError, match="not associative"):
        FiniteGroup(t)
    # the untouched table of the same order is accepted
    assert len(FiniteGroup((np.arange(n)[:, None] + np.arange(n)[None, :]) % n)) == n


def brute_verdict(t):
    """The first axiom the table breaks, checked one element at a time in
    the constructor's order, or None for a group."""
    n = len(t)
    if any(sorted(row) != list(range(n)) for row in t):
        return "a row is not a permutation"
    if any(sorted(row[c] for row in t) != list(range(n)) for c in range(n)):
        return "a column is not a permutation"
    ids = [e for e in range(n) if all(t[e][x] == x and t[x][e] == x for x in range(n))]
    if not ids:
        return "no two-sided identity"
    e = ids[0]
    for g in range(n):
        if not any(t[g][h] == e and t[h][g] == e for h in range(n)):
            return f"element {g} lacks a two-sided inverse"
    if any(t[t[a][b]][c] != t[a][t[b][c]] for a in range(n) for b in range(n) for c in range(n)):
        return "not associative"
    return None


def test_validation_agrees_with_brute_force_on_perturbed_tables():
    """Groups with intercalates swapped away from the identity's row and
    column, then relabelled: loops that break associativity or two-sided
    inverses, and some that are still groups."""
    rng = random.Random(3)
    ar = np.arange(8)
    bases = [ar[:, None] ^ ar[None, :], cyclic_group(8).table, dihedral_group(4).table, symmetric_group(3).table]
    verdicts = set()
    for _ in range(150):
        t = np.array(rng.choice(bases), dtype=np.int64)
        n = len(t)
        for _ in range(rng.randrange(1, 4)):
            for _ in range(100):
                (r1, r2), (c1, c2) = rng.sample(range(1, n), 2), rng.sample(range(1, n), 2)
                if t[r1, c1] == t[r2, c2] and t[r1, c2] == t[r2, c1]:
                    t[[r1, r1, r2, r2], [c1, c2, c1, c2]] = t[[r1, r1, r2, r2], [c2, c1, c2, c1]]
                    break
        p = np.array(rng.sample(range(n), n))
        relabelled = np.empty_like(t)
        relabelled[p[:, None], p[None, :]] = p[t]
        want = brute_verdict(relabelled.tolist())
        verdicts.add(want if want is None or "inverse" not in want else "inverse")
        if want is None:
            assert len(FiniteGroup(relabelled)) == n
        else:
            with pytest.raises(ConfigError, match=want):
                FiniteGroup(relabelled)
    assert verdicts == {None, "not associative", "inverse"}


def test_validated_table_is_a_frozen_int32_copy():
    mine = ((np.arange(6)[:, None] + np.arange(6)[None, :]) % 6).astype(np.int32)
    before = mine.copy()
    g = FiniteGroup(mine)
    assert g.table.dtype == np.int32 and g.table.flags.c_contiguous
    with pytest.raises(ValueError, match="read-only"):
        g.table[0, 0] = 5
    with pytest.raises(ValueError, match="read-only"):
        g.inverses[0] = 5
    assert mine.flags.writeable and np.array_equal(mine, before)
    mine[0, 0] = 5  # the caller's array is still the caller's
    assert g.mul(0, 0) == 0
    for build in (lambda: sl2_permutation_group(3), lambda: cyclic_group(4), lambda: parse_cayley_text("1\n0\n")):
        t = build().table
        assert t.dtype == np.int32 and t.flags.c_contiguous and not t.flags.writeable


def _right_closure(t, gens, e):
    """Every element reached from e by right multiplications, one at a time."""
    reached = {e}
    todo = [e]
    for x in todo:
        for k in gens:
            y = int(t[x][k])
            if y not in reached:
                reached.add(y)
                todo.append(y)
    return reached


def test_generating_set_picks_greedily_and_generates():
    # Z2^5 as xor on bit vectors: each greedy pick doubles the closure
    ar = np.arange(32)
    z2 = ar[:, None] ^ ar[None, :]
    assert _generating_set(z2, 0) == [1, 2, 4, 8, 16]
    assert _right_closure(z2, [1, 2, 4, 8, 16], 0) == set(range(32))
    c108 = cyclic_group(108).table
    assert _generating_set(c108, 0) == [1]
    assert _right_closure(c108, [1], 0) == set(range(108))
    for g in (symmetric_group(4), sl2_permutation_group(5), dihedral_group(53)):
        gens = _generating_set(g.table, g.identity)
        assert _right_closure(g.table, gens, g.identity) == set(range(len(g)))
        # greedy: each pick is the least element the earlier picks miss
        for i, pick in enumerate(gens):
            missed = set(range(len(g))) - _right_closure(g.table, gens[:i], g.identity)
            assert pick == min(missed)


def test_cyclic_group_basics():
    g = cyclic_group(6)
    assert len(g) == 6
    assert g.identity == 0
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    orders = element_orders(g)
    for a in range(6):
        assert pow_all(g, -1)[a] == g.inv(a)
        assert pow_all(g, 0)[a] == g.identity
        assert 6 % orders[a] == 0 if a else orders[a] == 1
    with pytest.raises(ValueError, match="positive"):
        cyclic_group(0)


def test_pow_all_and_root_counts_match_brute_force():
    groups = [cyclic_group(6), symmetric_group(3), dihedral_group(4)]
    for g in groups:
        size = len(g)
        for n in range(-3, 7):
            expected = [brute_pow(g, a, n) for a in range(size)]
            assert pow_all(g, n).tolist() == expected
            counts = brute_root_counts(g, n)
            got = root_counts(g, n)
            assert got.tolist() == counts
            assert image_of(g, n) == tuple(sorted(set(expected)))
            for m in (1, 2, size):
                want = tuple(x for x in range(size) if 1 <= counts[x] <= m)
                assert tuple(np.flatnonzero((got > 0) & (got <= m)).tolist()) == want


def test_power_zero_degenerates():
    g = dihedral_group(5)
    assert image_of(g, 0) == (g.identity,)
    assert root_counts(g, 0)[g.identity] == len(g)


def test_unique_roots():
    assert not unique_roots(cyclic_group(2), 2)
    assert unique_roots(cyclic_group(3), 2)
    assert unique_roots(cyclic_group(6), 5)
    assert not unique_roots(symmetric_group(3), 3)
    assert unique_roots(symmetric_group(3), 1)


def test_s3_square_roots_frozen():
    g = symmetric_group(3)
    # y^2 = e has the identity and the three transpositions as solutions
    assert root_counts(g, 2)[g.identity] == 4
    img = image_of(g, 2)
    assert len(img) == 3
    # the square image is closed under multiplication (it is the
    # rotation subgroup), which is what makes its cover a coset count
    for a in img:
        for b in img:
            assert g.mul(a, b) in img


def test_symmetric_group_matches_explicit_generators():
    direct = from_permutation_generators([(1, 0, 2), (1, 2, 0)])
    assert np.array_equal(symmetric_group(3).table, direct.table)
    assert len(symmetric_group(4)) == 24
    assert len(symmetric_group(1)) == 1
    assert symmetric_group(3).identity == 0  # the identity permutation comes first
    with pytest.raises(ValueError):
        symmetric_group(0)
    with pytest.raises(ValueError):
        symmetric_group(7)


def test_dihedral_group():
    g = dihedral_group(7)
    assert len(g) == 14
    orders = sorted(element_orders(g))
    assert orders == [1] + [2] * 7 + [7] * 6
    with pytest.raises(ValueError, match="triangle"):
        dihedral_group(2)


def test_permutation_generator_errors():
    with pytest.raises(ValueError, match="at least one"):
        from_permutation_generators([])
    with pytest.raises(ValueError, match="same point set"):
        from_permutation_generators([(1, 0), (0, 1, 2)])
    with pytest.raises(ValueError, match="permutations"):
        from_permutation_generators([(0, 0, 1)])
    swap = (1, 0, 2, 3, 4, 5, 6)
    cycle = (1, 2, 3, 4, 5, 6, 0)
    with pytest.raises(ValueError, match="exceeds the cap of 2048"):
        from_permutation_generators([swap, cycle])  # S7 has order 5040


def _pairwise_table(perms_of):
    """The table rebuilt by composing every pair of listed elements, a
    first and then b, as point arrays."""
    arr = np.array(perms_of)
    index = {row.tobytes(): i for i, row in enumerate(arr)}
    return np.array([[index[row.tobytes()] for row in arr[:, a]] for a in arr])


def _sl2_generators(q):
    """The shear and the quarter turn of SL2 over F_q, as permutations of
    the nonzero plane vectors listed in lexicographic order."""
    points = [(a, b) for a in range(q) for b in range(q) if (a, b) != (0, 0)]
    index = {pt: i for i, pt in enumerate(points)}
    return [
        tuple(index[((a + b) % q, b)] for a, b in points),
        tuple(index[(b, (q - 1) * a % q)] for a, b in points),
    ]


def _s5_on(npts):
    """(1 2 3 4 5), (1 2) and the identity, 0-based, on npts points."""
    fixed = tuple(range(5, npts))
    return [(1, 2, 3, 4, 0) + fixed, (1, 0, 2, 3, 4) + fixed, tuple(range(npts))]


@pytest.mark.parametrize(
    "build, gens",
    [
        (lambda: symmetric_group(4), [(1, 0, 2, 3), (1, 2, 3, 0)]),
        (lambda: dihedral_group(7), [tuple((i + 1) % 7 for i in range(7)), tuple((-i) % 7 for i in range(7))]),
        (lambda: sl2_permutation_group(3), _sl2_generators(3)),
        (lambda: sl2_permutation_group(7), _sl2_generators(7)),
        (
            lambda: from_permutation_generators([(1, 2, 0, 3), (0, 1, 2, 3), (1, 2, 0, 3), (3, 1, 2, 0)]),
            [(1, 2, 0, 3), (0, 1, 2, 3), (1, 2, 0, 3), (3, 1, 2, 0)],
        ),
        (lambda: parse_permutation_text("(1 2 3 4 5)\n(1 2)\n(2000)"), _s5_on(2000)),
    ],
    ids=["sym4", "dihedral7", "sl2-3", "sl2-7", "repeated-and-identity", "s5-on-2000-points"],
)
def test_permutation_table_equals_pairwise_composition(build, gens):
    g = build()
    elems = _breadth_first_elements(gens)
    assert len(elems) == len(g)
    assert np.array_equal(g.table, _pairwise_table(elems))


@pytest.mark.parametrize(
    "gens",
    [
        [(1, 0, 2, 3), (1, 2, 3, 0)],
        [(1, 2, 3, 4, 5, 6, 0), (0, 3, 6, 2, 5, 1, 4)],  # x + 1 and 3x mod 7: order 42
        [(1, 2, 0, 3), (0, 1, 2, 3), (1, 2, 0, 3), (3, 1, 2, 0)],
    ],
    ids=["sym4", "affine7", "repeated-and-identity"],
)
def test_permutation_closure_makes_one_product_per_element_and_generator(gens, monkeypatch):
    """The closure hands _tabulate exactly |G| * |gens| products, element i
    followed by generator k at right[k][i], each the one the oracle
    composition makes, with the elements in breadth-first order."""
    seen = []
    tabulate = cayley._tabulate
    monkeypatch.setattr(cayley, "_tabulate", lambda right: seen.append(right.copy()) or tabulate(right))
    g = from_permutation_generators(gens)
    (right,) = seen
    elems = _breadth_first_elements(gens)
    assert right.shape == (len(gens), len(g)) == (len(gens), len(elems))
    index = {el: i for i, el in enumerate(elems)}
    assert right.tolist() == [[index[_compose(el, pm)] for el in elems] for pm in gens]


def _breadth_first_elements(gens):
    """Every element as a point tuple, in the builder's breadth-first order:
    each listed element followed by each generator in turn."""
    order = [tuple(range(len(gens[0])))]
    seen = set(order)
    for el in order:
        for pm in gens:
            prod = _compose(el, pm)
            if prod not in seen:
                seen.add(prod)
                order.append(prod)
    return order


def test_sl2_orders():
    assert len(sl2_permutation_group(2)) == 6
    assert len(sl2_permutation_group(3)) == 24
    assert len(sl2_permutation_group(5)) == 120
    g2 = sl2_permutation_group(2)
    assert sorted(element_orders(g2)) == [1, 2, 2, 2, 3, 3]
    for q in (1, 4, 6):
        with pytest.raises(ValueError, match="prime"):
            sl2_permutation_group(q)


def test_covering_number_s3():
    g = symmetric_group(3)
    img = image_of(g, 2)
    k, cert = covering_number(g, img)
    assert k == 2
    assert cert.exact
    assert cert.size == 2 and cert.universe == 6 and len(cert.reps) == 2
    assert cert.verify(g, img)
    assert brute_min_cover(g, img) == 2
    # dropping a representative must break the certificate
    broken = CoverCertificate(reps=cert.reps[:-1], size=1, exact=True, universe=6)
    assert not broken.verify(g, img)


def test_covering_number_edges():
    g = cyclic_group(5)
    k, cert = covering_number(g, range(5))
    assert k == 1 and cert.verify(g, range(5))
    k, _ = covering_number(g, [g.identity])
    assert k == 5
    with pytest.raises(ValueError, match="empty subset"):
        covering_number(g, [])


def test_sl2_square_covers_are_brute_minimal():
    g3 = sl2_permutation_group(3)
    img3 = image_of(g3, 2)
    assert len(img3) == 10
    k3, cert3 = covering_number(g3, img3)
    assert k3 == 3 and cert3.exact
    assert cert3.verify(g3, img3)
    assert brute_min_cover(g3, img3) == 3

    g5 = sl2_permutation_group(5)
    img5 = image_of(g5, 2)
    assert len(img5) == 46
    k5, cert5 = covering_number(g5, img5)
    assert k5 == 4 and cert5.exact
    assert cert5.verify(g5, img5)
    # independent minimality: no three translates suffice, these four do
    size = len(g5)
    full = (1 << size) - 1
    masks = sorted(
        {
            sum(1 << g5.mul(x, s) for s in set(img5))
            for x in range(size)
        }
    )
    assert all(a | b | c != full for a, b, c in itertools.combinations(masks, 3))
    reps_mask = 0
    for x in cert5.reps:
        for s in img5:
            reps_mask |= 1 << g5.mul(x, s)
    assert reps_mask == full


def _unseeded_cover(g, subset):
    """The cover search without translate seeding: greedy, then rounds of
    branch and bound over every translate through the lowest uncovered
    element.  Returns (size, reps, nodes)."""
    sub = sorted(set(subset))
    size = len(g)
    full = (1 << size) - 1
    rep_of = {}
    for x in range(size):
        rep_of.setdefault(sum(1 << g.mul(x, s) for s in sub), x)
    distinct = list(rep_of.items())
    uncovered, reps = full, []
    while uncovered:
        best_m, best_x = max(distinct, key=lambda mx: (mx[0] & uncovered).bit_count())
        reps.append(best_x)
        uncovered &= ~best_m
    nodes = 0

    def find_cover(uncov, budget, chosen):
        nonlocal nodes
        nodes += 1
        if uncov == 0:
            return list(chosen)
        if budget == 0 or -(-uncov.bit_count() // len(sub)) > budget:
            return None
        pivot = uncov & -uncov
        cands = [(m, x) for m, x in distinct if m & pivot]
        cands.sort(key=lambda mx: -(mx[0] & uncov).bit_count())
        for m, x in cands:
            chosen.append(x)
            got = find_cover(uncov & ~m, budget - 1, chosen)
            chosen.pop()
            if got is not None:
                return got
        return None

    while len(reps) > 1:
        better = find_cover(full, len(reps) - 1, [])
        if better is None:
            break
        reps = better
    return len(reps), tuple(reps), nodes


def _renamed_product(a, b, seed):
    """Z_a x Z_b as a Cayley table with its elements renamed by a seeded
    permutation, so element 0 is seldom the identity."""
    i, j = np.divmod(np.arange(a * b), b)
    table = ((i[:, None] + i[None, :]) % a) * b + (j[:, None] + j[None, :]) % b
    rename = np.array(random.Random(seed).sample(range(a * b), a * b))
    out = np.empty_like(table)
    out[rename[:, None], rename[None, :]] = rename[table]
    return FiniteGroup(out)


def _mekler27():
    return cayley_from_context(GroupContext(build_fragment([0, 1], []), 3))


COVER_CASES = [
    ("sl2:3", lambda: sl2_permutation_group(3), (2, 3)),
    ("sl2:5", lambda: sl2_permutation_group(5), (2, 3)),
    ("sl2:7", lambda: sl2_permutation_group(7), (3,)),
    ("sym:4", lambda: symmetric_group(4), (2, 3)),
    ("sym:5", lambda: symmetric_group(5), (2, 3)),
    ("dihedral:53", lambda: dihedral_group(53), (2, 3)),
    ("cyclic:108", lambda: cyclic_group(108), (2, 3)),
    ("mekler:3", _mekler27, (2, 3)),
    ("Z8xZ12", lambda: _renamed_product(8, 12, 1), (2, 3)),
    ("Z9xZ14", lambda: _renamed_product(9, 14, 2), (2, 3)),
    ("Z6xZ6", lambda: _renamed_product(6, 6, 3), (2, 3)),
]


@pytest.mark.parametrize("build, exponents", [c[1:] for c in COVER_CASES], ids=[c[0] for c in COVER_CASES])
def test_seeded_cover_search_matches_unseeded_oracle(build, exponents):
    g = build()
    for n in exponents:
        img = image_of(g, n)
        k, cert = covering_number(g, img)
        want_k, want_reps, oracle_nodes = _unseeded_cover(g, img)
        assert (k, cert.reps) == (want_k, want_reps)
        assert cert.exact and not cert.budget_hit
        assert cert.nodes <= oracle_nodes


def test_seeded_cover_search_node_count():
    """Seeding proves SL2(F5)'s square cover optimal in a few thousand nodes;
    the unseeded search needs many times more."""
    g = sl2_permutation_group(5)
    img = image_of(g, 2)
    k, cert = covering_number(g, img)
    assert k == 4 and cert.exact
    assert 0 < cert.nodes < 5_000
    assert _unseeded_cover(g, img)[2] > 10 * cert.nodes


def test_cover_node_budget_keeps_the_best_verified_cover(monkeypatch):
    g = sl2_permutation_group(5)
    img = image_of(g, 2)
    monkeypatch.setattr(cayley, "COVER_NODE_BUDGET", 50)
    k, cert = covering_number(g, img)
    assert cert.exact is False and cert.budget_hit
    assert cert.nodes == 51  # the node that crossed the budget stopped the search
    assert k == cert.size == len(cert.reps) >= 4
    assert cert.verify(g, img)
    text = covering_report(g, 2).summary()
    assert f"translate cover size {k} (upper bound: the search hit its node budget)" in text
    assert "greedy" not in text


def test_covering_report_summary():
    rep = covering_report(symmetric_group(3))
    assert rep.group_order == 6 and rep.exponent == 2
    assert rep.image_size == 3 and rep.covering_size == 2 and rep.exact
    text = rep.summary()
    assert "translate cover size 2 (exact)" in text
    assert "finite groups have no generic elements" in text


def test_cayley_text_round_trip():
    g = symmetric_group(3)
    text = format_cayley_text(g)
    assert text.splitlines()[0] == "6"
    g2 = parse_cayley_text(text)
    assert np.array_equal(g.table, g2.table)
    assert parse_cayley_text("1\n0\n").identity == 0
    with pytest.raises(ValueError, match="empty"):
        parse_cayley_text("")
    with pytest.raises(ValueError, match="expected 2 rows"):
        parse_cayley_text("2\n0 1\n")
    with pytest.raises(ValueError, match="row length"):
        parse_cayley_text("2\n0 1\n1 0 0\n")
    for order in ("0", "-1"):
        with pytest.raises(ConfigError, match=f"^table order must be at least 1, got {order}$"):
            parse_cayley_text(f"{order}\n")


def _plain_spellings():
    """Plain texts of groups of one- to three-digit orders."""
    return [format_cayley_text(g) for g in (cyclic_group(1), symmetric_group(3), cyclic_group(12), sl2_permutation_group(5))]


def _arabic_indic(text):
    return text.translate({ord(d): 0x660 + int(d) for d in "0123456789"})


@pytest.mark.parametrize(
    "respell",
    [
        lambda t: t.replace(" ", "\t"),
        lambda t: t.replace(" ", "  "),
        lambda t: "\n".join(" ".join("+" + tok for tok in ln.split()) for ln in t.split("\n")),
        lambda t: "\n".join(" ".join("00" + tok for tok in ln.split()) for ln in t.split("\n")),
        lambda t: t.replace("\n", "\r\n"),
        lambda t: "\n" + t.replace("\n", "\n\n"),
        lambda t: t.rstrip("\n"),
        lambda t: " " + t.replace("\n", " \n"),
        _arabic_indic,
    ],
    ids=["tabs", "double-spaces", "plus-signs", "leading-zeros", "crlf", "blank-lines", "no-final-newline",
         "edge-spaces", "arabic-indic"],
)
def test_non_plain_spellings_read_token_by_token_to_the_same_table(respell):
    for plain in _plain_spellings():
        text = respell(plain)
        if text == plain:  # the order-1 table has no space to respell
            continue
        assert cayley._plain_table(text) is None
        assert np.array_equal(parse_cayley_text(text).table, parse_cayley_text(plain).table)


def test_one_pass_conversion_agrees_with_the_per_token_reader():
    """Seeded edits of plain texts: whatever the one-pass conversion takes,
    the per-token reader takes too, into the same table."""
    rng = random.Random(3)
    taken = 0
    for _ in range(3000):
        n = rng.randint(1, 4)
        rows = [" ".join(str(rng.randint(0, 12)) for _ in range(n)) for _ in range(n)]
        chars = list(f"{n}\n" + "".join(row + "\n" for row in rows))
        for _ in range(rng.randint(0, 2)):
            at = rng.randrange(len(chars))
            if rng.random() < 0.5:
                chars.insert(at, rng.choice("0123456789  \n\n+\t"))
            else:
                del chars[at]
        text = "".join(chars)
        fast = cayley._plain_table(text)
        if fast is not None:
            taken += 1
            assert np.array_equal(fast, cayley._tokenwise_table(text)), text
    assert taken > 500


@pytest.mark.parametrize(
    "text, message",
    [
        ("", "empty table file"),
        ("2\n0 1\n1\n", "row length differs from the declared order"),
        ("2\n0 1\n1 0 1\n", "row length differs from the declared order"),
        ("2\n0 1 1\n0\n", "row length differs from the declared order"),
        ("2\n0 1\n", "expected 2 rows, found 1"),
        ("2\n0 1\n1 0\n0 1\n", "expected 2 rows, found 3"),
        ("2\n0 2\n2 0\n", "table entries must index elements"),
        ("2\n0 1\n0 1\n", "a column is not a permutation of the elements"),
        ("1" * 4500 + "\n0\n", "expected integers: Exceeds the limit"),
    ],
)
def test_malformed_plain_texts_keep_their_messages(text, message):
    with pytest.raises(ConfigError, match="^" + re.escape(message)):
        parse_cayley_text(text)


def test_plain_text_is_converted_in_one_pass(monkeypatch):
    """format_cayley_text's output never reaches the per-token reader."""
    plains = _plain_spellings()
    want = [cayley._tokenwise_table(text) for text in plains]

    def refuse(text):
        raise AssertionError("plain text went through the per-token reader")

    monkeypatch.setattr(cayley, "_tokenwise_table", refuse)
    for text, table in zip(plains, want):
        assert np.array_equal(parse_cayley_text(text).table, table)
    overflow = "2\n0 " + "9" * 30 + "\n" + "9" * 30 + " 0\n"
    with pytest.raises(ConfigError, match="table entries must index elements"):
        parse_cayley_text(overflow)


def test_permutation_text_forms():
    cyc = parse_permutation_text("(1 2 3)\n(1 2)\n")
    assert len(cyc) == 6
    img = parse_permutation_text("# generators\n2 3 1\n2 1 3\n")
    assert len(img) == 6
    assert np.array_equal(cyc.table, img.table)
    mixed = parse_permutation_text("(1 2)\n2 3 1\n")
    assert len(mixed) == 6
    single = parse_permutation_text("2 3 1")
    assert len(single) == 3


def test_permutation_text_errors():
    with pytest.raises(ValueError, match="no generators"):
        parse_permutation_text("# only a comment\n")
    with pytest.raises(ValueError, match="unparsed text"):
        parse_permutation_text("(1 2) junk")
    with pytest.raises(ValueError, match="bad cycle"):
        parse_permutation_text("(1 1)")
    with pytest.raises(ValueError, match="not a permutation"):
        parse_permutation_text("2 2 1")
    with pytest.raises(ValueError, match="image line length"):
        parse_permutation_text("2 1\n2 3 1")
    with pytest.raises(ValueError, match="empty point set"):
        parse_permutation_text("()")


def _context_elements(ctx):
    """Element i of cayley_from_context, rebuilt from the base-p digits of
    i, most significant first: the generator exponents in vertex order,
    then the central exponents by ascending central key u * n + w."""
    p, n = ctx.p, ctx.n
    keys = sorted(u * n + w for u in range(n) for w in range(u + 1, n) if ctx.nonadjacent(u, w))
    elems = []
    for digits in itertools.product(range(p), repeat=n + len(keys)):
        gen = FpVector(p, {v: d for v, d in enumerate(digits[:n]) if d})
        cen = FpVector(p, {k: d for k, d in zip(keys, digits[n:]) if d})
        elems.append(from_vectors(ctx, gen, cen))
    return elems


def test_cayley_from_context_heisenberg():
    graph = build_fragment(naturals=[0, 1], gadget_pairs=[])
    ctx = GroupContext(graph, 3)
    g = cayley_from_context(ctx)
    assert len(g) == 27
    elems = _context_elements(ctx)
    assert g.identity == 0 and elems[0] == identity(ctx)
    assert len(set(elems)) == 27
    # exponent three and non-abelian
    assert (pow_all(g, 3) == g.identity).all()
    assert any(g.mul(a, b) != g.mul(b, a) for a in range(27) for b in range(27))
    # table entries agree with the symbolic product, located by coordinates
    index = {el: i for i, el in enumerate(elems)}
    for i in range(0, 27, 5):
        for j in range(0, 27, 7):
            assert g.mul(i, j) == index[mul(ctx, elems[i], elems[j])]
    # cubing collapses to the identity, so unique roots fail wholesale
    assert not unique_roots(g, 3)
    assert image_of(g, 3) == (g.identity,)
    k, _ = covering_number(g, [g.identity])
    assert k == 27


@pytest.mark.parametrize(
    "naturals, extra, p",
    [([0, 1], [], 3), ([0, 1], [], 5), ([0, 1], [(Natural(0), Natural(1))], 3), ([0], [], 7)],
)
def test_cayley_from_context_equals_pairwise_products(naturals, extra, p):
    ctx = GroupContext(build_fragment(naturals, [], extra_edges=extra), p)
    g = cayley_from_context(ctx)
    elems = _context_elements(ctx)
    index = {el: i for i, el in enumerate(elems)}
    pairwise = np.array([[index[mul(ctx, a, b)] for b in elems] for a in elems])
    assert np.array_equal(g.table, pairwise)
    # element order: coordinates in lexicographic order, generators first
    assert elems[0] == identity(ctx) and len(index) == len(g) == p ** (ctx.n + ctx.ncentral)


def test_cayley_from_context_multiplies_once_per_element_and_vertex(monkeypatch):
    ctx = GroupContext(build_fragment([0, 1, 2], []), 3)
    calls = []
    monkeypatch.setattr(cayley, "ctx_mul", lambda *args: calls.append(1) or mul(*args))
    g = cayley_from_context(ctx)
    assert len(g) == 729
    assert len(calls) == len(g) * ctx.n


def test_cayley_from_context_cap():
    big = build_fragment(naturals=[0, 1], gadget_pairs=[(0, 1)])
    with pytest.raises(ValueError, match="exceeds the cap"):
        cayley_from_context(GroupContext(big, 3))


@pytest.mark.parametrize(
    "tok", ["1", "+1", "-0", "007", "1_0", "١", "1.0", "0x1", "1e3", "x", "1" * 30, "-" + "1" * 30]
)
def test_cayley_text_reads_each_token_as_int_does(tok):
    """The whole table is converted by numpy at once; it must accept and
    reject the same tokens as a per-token int() parse."""
    text = f"2\n0 {tok}\n{tok} 0\n"
    try:
        value = int(tok)
    except ValueError:
        with pytest.raises(ConfigError, match="expected integers"):
            parse_cayley_text(text)
        return
    if not -(2**63) <= value < 2**63:
        with pytest.raises(ConfigError, match="table entries must index elements"):
            parse_cayley_text(text)
        return
    try:
        want = FiniteGroup([[0, value], [value, 0]]).table
    except ConfigError as err:
        with pytest.raises(ConfigError, match=str(err)):
            parse_cayley_text(text)
    else:
        assert np.array_equal(parse_cayley_text(text).table, want)


def test_known_orders_are_capped_before_building(monkeypatch):
    def unreachable(*args):
        raise AssertionError("a group past the cap was built")

    monkeypatch.setattr(cayley, "from_permutation_generators", unreachable)
    for build, arg in ((cyclic_group, 2049), (dihedral_group, 1025), (sl2_permutation_group, 13)):
        with pytest.raises(ConfigError, match="exceeds the cap of 2048"):
            build(arg)
    cayley.check_order(2048)


def test_tabulate_refuses_generators_that_do_not_reach_every_element():
    with pytest.raises(RuntimeError, match="do not reach every element"):
        cayley._tabulate(np.array([[0, 2, 1]]))
