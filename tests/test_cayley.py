"""Finite Cayley-table machinery: validation, roots, covers, file formats."""

import itertools
import json
import random

import numpy as np
import pytest

from mekler import cayley
from mekler.cayley import (
    CoverCertificate,
    FiniteGroup,
    _compose,
    _cycle_notation,
    bounded_root_set,
    cayley_from_context,
    covering_number,
    covering_report,
    cyclic_group,
    dihedral_group,
    format_cayley_text,
    from_permutation_generators,
    has_unique_roots,
    nth_roots_count,
    parse_cayley_text,
    parse_permutation_text,
    pow_all,
    power_image,
    sl2_permutation_group,
    symmetric_group,
)
from mekler.cli import _load_probe_group
from mekler.cli import main as cli_main
from mekler.graphs import ConfigError, Natural, build_fragment
from mekler.group import GroupContext, format_element, mul, parse_element


def brute_pow(g, a, n):
    if n < 0:
        a = g.inv(a)
        n = -n
    acc = g.identity
    for _ in range(n):
        acc = g.mul(acc, a)
    return acc


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
    with pytest.raises(ValueError, match="names must match"):
        FiniteGroup([[0, 1], [1, 0]], names=("e",))


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


def test_cyclic_group_basics():
    g = cyclic_group(6)
    assert len(g) == 6
    assert g.identity == 0
    assert g.name(4) == "4"
    assert g.mul(4, 5) == 3
    assert g.inv(2) == 4
    for a in range(6):
        assert g.pow(a, -1) == g.inv(a)
        assert g.pow(a, 0) == g.identity
        assert 6 % g.order_of(a) == 0 if a else g.order_of(a) == 1
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
            for x in range(size):
                assert nth_roots_count(g, x, n) == counts[x]
            assert power_image(g, n) == tuple(sorted(set(expected)))
            for m in (1, 2, size):
                want = tuple(x for x in range(size) if 1 <= counts[x] <= m)
                assert bounded_root_set(g, n, m) == want


def test_power_zero_degenerates():
    g = dihedral_group(5)
    assert power_image(g, 0) == (g.identity,)
    assert nth_roots_count(g, g.identity, 0) == len(g)


def test_unique_roots():
    assert not has_unique_roots(cyclic_group(2), 2)
    assert has_unique_roots(cyclic_group(3), 2)
    assert has_unique_roots(cyclic_group(6), 5)
    assert not has_unique_roots(symmetric_group(3), 3)
    assert has_unique_roots(symmetric_group(3), 1)


def test_s3_square_roots_frozen():
    g = symmetric_group(3)
    # y^2 = e has the identity and the three transpositions as solutions
    assert nth_roots_count(g, g.identity, 2) == 4
    img = power_image(g, 2)
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
    assert symmetric_group(3).name(symmetric_group(3).identity) == "()"
    with pytest.raises(ValueError):
        symmetric_group(0)
    with pytest.raises(ValueError):
        symmetric_group(7)


def test_dihedral_group():
    g = dihedral_group(7)
    assert len(g) == 14
    orders = sorted(g.order_of(a) for a in range(len(g)))
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


def _elements_of(g, npts):
    """Each element's permutation, read back from its cycle-notation name."""
    out = []
    for name in g.names:
        images = list(range(npts))
        for body in name.strip("()").split(")("):
            pts = [int(x) - 1 for x in body.split()]
            for a, b in zip(pts, pts[1:] + pts[:1]):
                images[a] = b
        out.append(tuple(images))
    return out


@pytest.mark.parametrize(
    "build, npts",
    [
        (lambda: symmetric_group(4), 4),
        (lambda: dihedral_group(7), 7),
        (lambda: sl2_permutation_group(3), 8),
        (lambda: parse_permutation_text("(1 2 3 4 5)\n(1 2)\n(2000)"), 2000),
    ],
    ids=["sym4", "dihedral7", "sl2-3", "s5-on-2000-points"],
)
def test_permutation_table_equals_pairwise_composition(build, npts):
    g = build()
    perms_of = _elements_of(g, npts)
    assert len(set(perms_of)) == len(g)
    assert perms_of[0] == tuple(range(npts))
    assert np.array_equal(g.table, _pairwise_table(perms_of))


def test_permutation_table_composes_once_per_element_and_generator(monkeypatch):
    calls = []

    def counting(f, h):
        calls.append(1)
        return _compose(f, h)

    monkeypatch.setattr(cayley, "_compose", counting)
    g = sl2_permutation_group(7)  # two generators
    assert len(g) == 336
    assert len(calls) <= len(g) * 2


def _breadth_first_elements(gens):
    """Every element as a point tuple, in the builder's breadth-first order:
    each listed element followed by each generator in turn."""
    order = [tuple(range(len(gens[0])))]
    seen = set(order)
    for el in order:
        for pm in gens:
            prod = tuple(pm[el[x]] for x in range(len(el)))
            if prod not in seen:
                seen.add(prod)
                order.append(prod)
    return order


@pytest.mark.parametrize(
    "build, gens",
    [
        (lambda tmp: symmetric_group(4), [(1, 0, 2, 3), (1, 2, 3, 0)]),
        (lambda tmp: dihedral_group(7), [tuple((i + 1) % 7 for i in range(7)), tuple((-i) % 7 for i in range(7))]),
        (lambda tmp: _load_probe_group(f"perm:{tmp}"), [(1, 2, 3, 4, 0), (1, 0, 2, 3, 4)]),
    ],
    ids=["sym4", "dihedral7", "perm-file"],
)
def test_lazy_names_equal_eager_cycle_notation(build, gens, tmp_path, monkeypatch):
    path = tmp_path / "s5.perms"
    path.write_text("(1 2 3 4 5)\n(1 2)\n")
    calls = []
    monkeypatch.setattr(cayley, "_cycle_notation", lambda pm: calls.append(1) or _cycle_notation(pm))
    g = build(path)
    assert calls == []  # nothing named at construction
    want = tuple(_cycle_notation(pm) for pm in _breadth_first_elements(gens))
    assert g.names == want
    assert g.name(len(g) - 1) == want[-1] and g.name(g.identity) == "()"
    assert len(calls) == len(g)  # named once, on first read


def test_structured_qprobe_names_no_element(monkeypatch, capsys):
    calls = []
    monkeypatch.setattr(cayley, "_cycle_notation", lambda pm: calls.append(1) or _cycle_notation(pm))
    assert cli_main(["qprobe", "--group", "sl2:7", "--n", "3", "--format", "structured"]) == 0
    assert json.loads(capsys.readouterr().out)["order"] == 336
    assert calls == []


def test_sl2_orders():
    assert len(sl2_permutation_group(2)) == 6
    assert len(sl2_permutation_group(3)) == 24
    assert len(sl2_permutation_group(5)) == 120
    g2 = sl2_permutation_group(2)
    assert sorted(g2.order_of(a) for a in range(6)) == [1, 2, 2, 2, 3, 3]
    for q in (1, 4, 6):
        with pytest.raises(ValueError, match="prime"):
            sl2_permutation_group(q)


def test_covering_number_s3():
    g = symmetric_group(3)
    img = power_image(g, 2)
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
    img3 = power_image(g3, 2)
    assert len(img3) == 10
    k3, cert3 = covering_number(g3, img3)
    assert k3 == 3 and cert3.exact
    assert cert3.verify(g3, img3)
    assert brute_min_cover(g3, img3) == 3

    g5 = sl2_permutation_group(5)
    img5 = power_image(g5, 2)
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
    return cayley_from_context(GroupContext(build_fragment([0, 1], []), 3, warn_not_nice=False))


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
        img = power_image(g, n)
        k, cert = covering_number(g, img)
        want_k, want_reps, oracle_nodes = _unseeded_cover(g, img)
        assert (k, cert.reps) == (want_k, want_reps)
        assert cert.exact and not cert.budget_hit
        assert cert.nodes <= oracle_nodes


def test_seeded_cover_search_node_count():
    """Seeding proves SL2(F5)'s square cover optimal in a few thousand nodes;
    the unseeded search needs many times more."""
    g = sl2_permutation_group(5)
    img = power_image(g, 2)
    k, cert = covering_number(g, img)
    assert k == 4 and cert.exact
    assert 0 < cert.nodes < 5_000
    assert _unseeded_cover(g, img)[2] > 10 * cert.nodes


def test_cover_node_budget_keeps_the_best_verified_cover(monkeypatch):
    g = sl2_permutation_group(5)
    img = power_image(g, 2)
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


def test_cayley_from_context_heisenberg():
    graph = build_fragment(naturals=[0, 1], gadget_pairs=[])
    ctx = GroupContext(graph, 3, warn_not_nice=False)
    g = cayley_from_context(ctx)
    assert len(g) == 27
    assert g.name(g.identity) == "e"
    assert len(set(g.names)) == 27
    # exponent three and non-abelian
    assert all(g.pow(a, 3) == g.identity for a in range(27))
    assert any(g.mul(a, b) != g.mul(b, a) for a in range(27) for b in range(27))
    # table entries agree with the symbolic product, located by name
    index = {name: i for i, name in enumerate(g.names)}
    for i in range(0, 27, 5):
        for j in range(0, 27, 7):
            a = parse_element(ctx, g.name(i))
            b = parse_element(ctx, g.name(j))
            want = format_element(ctx, mul(ctx, a, b))
            assert g.name(g.mul(i, j)) == want
    # cubing collapses to the identity, so unique roots fail wholesale
    assert not has_unique_roots(g, 3)
    assert power_image(g, 3) == (g.identity,)
    k, _ = covering_number(g, [g.identity])
    assert k == 27


@pytest.mark.parametrize(
    "naturals, extra, p",
    [([0, 1], [], 3), ([0, 1], [], 5), ([0, 1], [(Natural(0), Natural(1))], 3), ([0], [], 7)],
)
def test_cayley_from_context_equals_pairwise_products(naturals, extra, p):
    ctx = GroupContext(build_fragment(naturals, [], extra_edges=extra), p, warn_not_nice=False)
    g = cayley_from_context(ctx)
    elems = [parse_element(ctx, name) for name in g.names]
    index = {el: i for i, el in enumerate(elems)}
    pairwise = np.array([[index[mul(ctx, a, b)] for b in elems] for a in elems])
    assert np.array_equal(g.table, pairwise)
    # element order: coordinates in lexicographic order, generators first
    assert g.name(0) == "e" and len(index) == len(g) == p ** (ctx.n + ctx.ncentral)


def test_cayley_from_context_multiplies_once_per_element_and_vertex(monkeypatch):
    ctx = GroupContext(build_fragment([0, 1, 2], []), 3, warn_not_nice=False)
    calls = []
    monkeypatch.setattr(cayley, "ctx_mul", lambda *args: calls.append(1) or mul(*args))
    g = cayley_from_context(ctx)
    assert len(g) == 729
    assert len(calls) == len(g) * ctx.n


def test_cayley_from_context_cap():
    big = build_fragment(naturals=[0, 1], gadget_pairs=[(0, 1)])
    with pytest.raises(ValueError, match="exceeds the cap"):
        cayley_from_context(GroupContext(big, 3, warn_not_nice=False))


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
