"""Edge formulas: grid truth tables, oracle agreement, traces, budgets."""

import itertools
import os
import random
import subprocess
import sys
import textwrap

import numpy as np
import pytest

import mekler
from mekler import group
from mekler.formulas import (
    _BLOCK_ROWS,
    BudgetError,
    FormulaTrace,
    _coset_blocks,
    _commuting_mask,
    _nonadjacent_pairs,
    down_edge_formula,
    full_coset_oracle,
    power_separated,
    up_edge_formula,
)
from mekler.graphs import Gadget, Natural, all_pairs, build_fragment, pair_swap_automorphism
from mekler.group import (
    GroupContext,
    GroupElement,
    InducedAutomorphism,
    central_generator,
    commutator_vector,
    generator,
    identity,
    mul,
    pow_,
    random_central,
    random_element,
)
from mekler.interpret import build_down_fragment, build_up_fragment
from mekler.subgroup import EdgeFunctional, in_kernel_subgroup

R_SUBSETS = [
    tuple(r)
    for k in range(4)
    for r in itertools.combinations(((0, 1), (0, 2), (1, 2)), k)
]


def test_power_separated():
    ctx = GroupContext(build_fragment([0, 1], [(0, 1)]), 3)
    x0, x1 = generator(ctx, Natural(0)), generator(ctx, Natural(1))
    assert power_separated(ctx, x0, x1)
    assert not power_separated(ctx, x0, x0)
    assert not power_separated(ctx, x0, pow_(ctx, x0, 2))
    # central translates never matter
    z = central_generator(ctx, Natural(0), Natural(1))
    assert not power_separated(ctx, x0, mul(ctx, pow_(ctx, x0, 2), z))
    # both central: the zero coset is a multiple of itself
    assert not power_separated(ctx, z, identity(ctx))
    assert power_separated(ctx, z, x0)


def test_up_formula_truth_table():
    g = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    ctx = GroupContext(g, 3)
    rng = random.Random(1)
    for r_edges in R_SUBSETS:
        aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, r_edges))
        rset = set(r_edges)
        for i, j in itertools.permutations((0, 1, 2), 2):
            for gamma, delta in itertools.product((1, 2), repeat=2):
                x = mul(ctx, pow_(ctx, generator(ctx, Natural(i)), gamma), random_central(ctx, rng))
                y = mul(ctx, pow_(ctx, generator(ctx, Natural(j)), delta), random_central(ctx, rng))
                tr = up_edge_formula(ctx, aut, x, y)
                assert tr.verdict == ((min(i, j), max(i, j)) in rset), (r_edges, i, j)


def test_up_formula_trace_and_witnesses():
    g = build_fragment([0, 1], [(0, 1)])
    ctx = GroupContext(g, 3)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, [(0, 1)]))
    x, y = generator(ctx, Natural(0)), generator(ctx, Natural(1))
    tr = up_edge_formula(ctx, aut, x, y)
    assert isinstance(tr, FormulaTrace)
    assert tr.verdict and bool(tr)
    assert tr.method == "VertexLikeEnumeration"
    u, v = tr.witnesses
    assert commutator_vector(ctx, u, x) == {}
    assert commutator_vector(ctx, u, y) == {}
    assert commutator_vector(ctx, u, v) == {}
    assert aut.moves_coset(v)
    # same vertex twice: blocked by power separation before any search
    tr2 = up_edge_formula(ctx, aut, x, pow_(ctx, x, 2))
    assert not tr2.verdict
    assert tr2.note == "power-related inputs"


def all_exponent_up_formula(ctx, aut, x, y):
    """The up formula with its witness exponents enumerated in full, over
    every alpha for u = x_w^alpha and every beta for v = x_s^beta; the
    evaluator fixes both at 1."""
    if not power_separated(ctx, x, y):
        return FormulaTrace(False, "VertexLikeEnumeration", note="power-related inputs")
    p = ctx.p

    def commutes(a, b):
        return not commutator_vector(ctx, a, b)

    for w in range(ctx.n):
        for alpha in range(1, p):
            u = GroupElement(p, {w: alpha}, {})
            if not (commutes(u, x) and commutes(u, y)):
                continue
            for s in range(ctx.n):
                if aut.iperm[s] == s or not commutes(u, GroupElement(p, {s: 1}, {})):
                    continue
                for beta in range(1, p):
                    v = GroupElement(p, {s: beta}, {})
                    if aut.moves_coset(v):
                        return FormulaTrace(True, "VertexLikeEnumeration", witnesses=(u, v))
    return FormulaTrace(False, "VertexLikeEnumeration")


@pytest.mark.parametrize("k", [2, 3, 4])
@pytest.mark.parametrize("p", [3, 5])
def test_up_formula_matches_all_exponent_enumeration(k, p):
    """Verdict, witnesses and note agree with the full exponent loops on
    every R over k naturals: x and y run over all powers of the naturals
    (x's natural not after y's) and over seeded random elements."""
    naturals = list(range(k))
    g = build_up_fragment(naturals)
    ctx = GroupContext(g, p)
    rng = random.Random(k * p)
    powers = {n: [generator(ctx, Natural(n), e) for e in range(1, p)] for n in naturals}
    queries = [
        (x, y)
        for n, m in itertools.combinations_with_replacement(naturals, 2)
        for x, y in itertools.product(powers[n], powers[m])
    ]
    queries += [(random_element(ctx, rng), rng.choice(powers[rng.choice(naturals)])) for _ in range(10)]
    queries += [(random_element(ctx, rng), random_element(ctx, rng)) for _ in range(10)]
    pairs = all_pairs(naturals)
    checked = 0
    for size in range(len(pairs) + 1):
        for r_edges in itertools.combinations(pairs, size):
            aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, r_edges))
            for x, y in queries:
                assert up_edge_formula(ctx, aut, x, y) == all_exponent_up_formula(ctx, aut, x, y)
                checked += 1
    assert checked == 2 ** len(pairs) * len(queries)


def test_up_formula_reaches_the_commutator_only_through_the_recheck(monkeypatch):
    """The witness search is set algebra on the neighbour bitmasks: a false
    verdict computes no commutator, and a true one only the re-check's."""
    g = build_up_fragment([0, 1, 2, 3])
    ctx = GroupContext(g, 3)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, [(0, 1), (1, 2)]))
    calls = []
    real = mekler.formulas.commutator_vector
    monkeypatch.setattr(mekler.formulas, "commutator_vector", lambda *args: calls.append(args) or real(*args))
    rng = random.Random(4)
    verdicts = set()
    for i, j in itertools.permutations(range(4), 2):
        queries = [(generator(ctx, Natural(i)), generator(ctx, Natural(j)))]
        queries += [(random_element(ctx, rng), random_element(ctx, rng)) for _ in range(5)]
        for x, y in queries:
            calls.clear()
            verdict = up_edge_formula(ctx, aut, x, y).verdict
            assert 0 < len(calls) <= 3 if verdict else calls == []
            verdicts.add(verdict)
    assert verdicts == {True, False}


def test_down_formula_truth_table():
    g = build_down_fragment([0, 1, 2])
    ctx = GroupContext(g, 3)
    for r_edges in R_SUBSETS:
        ell = EdgeFunctional.from_edges(r_edges)
        rset = set(r_edges)
        for i, j in itertools.combinations((0, 1, 2), 2):
            for gamma, delta in itertools.product((1, 2), repeat=2):
                x = pow_(ctx, generator(ctx, Natural(i)), gamma)
                y = pow_(ctx, generator(ctx, Natural(j)), delta)
                tr = down_edge_formula(ctx, ell, x, y)
                assert tr.verdict == ((i, j) in rset), (r_edges, i, j)
                if tr.verdict:
                    assert tr.method == "KernelIntersection"
                    assert "kernel dim" in tr.note
                    (wit,) = tr.witnesses
                    assert wit.gen
    # a tested-helper pair is never in R, so never an edge
    ell = EdgeFunctional.from_edges([(0, 1)])
    tr = down_edge_formula(ctx, ell, generator(ctx, Natural(0)), generator(ctx, Natural(3)))
    assert not tr.verdict


def test_down_formula_requires_membership():
    g = build_fragment([0, 1], [(0, 1)])
    ctx = GroupContext(g, 3)
    ell = EdgeFunctional.from_edges([])
    pent = generator(ctx, Gadget(0, 1, "1"))
    with pytest.raises(ValueError, match="x is not"):
        down_edge_formula(ctx, ell, pent, generator(ctx, Natural(1)))
    with pytest.raises(ValueError, match="y is not"):
        down_edge_formula(ctx, ell, generator(ctx, Natural(0)), pent)


def test_formulas_agree_with_full_coset_oracle():
    g = build_fragment([0, 1], [(0, 1)])
    ctx = GroupContext(g, 3)
    rng = random.Random(2)
    for r_edges in ([], [(0, 1)]):
        aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, r_edges))
        ell = EdgeFunctional.from_edges(r_edges)
        for gamma, delta in itertools.product((1, 2), repeat=2):
            x = mul(ctx, pow_(ctx, generator(ctx, Natural(0)), gamma), random_central(ctx, rng))
            y = mul(ctx, pow_(ctx, generator(ctx, Natural(1)), delta), random_central(ctx, rng))
            up = up_edge_formula(ctx, aut, x, y).verdict
            assert up == full_coset_oracle(ctx, "up", x, y, aut=aut)
            down = down_edge_formula(ctx, ell, x, y).verdict
            assert down == full_coset_oracle(ctx, "down", x, y, ell=ell)
            assert up == down == (len(r_edges) == 1)
        # power-related inputs are false everywhere, oracle included
        x = generator(ctx, Natural(0))
        assert not full_coset_oracle(ctx, "up", x, pow_(ctx, x, 2), aut=aut)
        assert not full_coset_oracle(ctx, "down", x, pow_(ctx, x, 2), ell=ell)


def brute_force_oracle(ctx, formula, x, y, aut=None, ell=None):
    """The full coset enumeration one coset at a time: itertools over
    F_p^V, commutator_vector for every commutation."""
    if not power_separated(ctx, x, y):
        return False
    p = ctx.p

    def commutes(a, b):
        return not commutator_vector(ctx, a, b)

    def cosets():
        for pattern in itertools.product(range(p), repeat=ctx.n):
            yield GroupElement(p, dict(enumerate(pattern)), {})

    if formula == "up":
        v_candidates = [v for v in cosets() if len(v.gen) == 1 and aut.moves_coset(v)]
        return any(
            len(u.gen) == 1 and commutes(u, x) and commutes(u, y) and any(commutes(u, v) for v in v_candidates)
            for u in cosets()
        )
    for name, el in (("x", x), ("y", y)):
        if not in_kernel_subgroup(ctx, ell, el):
            raise ValueError(f"{name} is not in the kernel subgroup")
    ell_row = ell.row(ctx)
    return any(
        v.gen
        and sum(ell_row.get(k, 0) * c for k, c in v.gen.items()) % p == 0
        and commutes(v, x)
        and commutes(v, y)
        for v in cosets()
    )


def outcome(oracle, *args, **kwargs):
    """The verdict, or which input a ValueError refused."""
    try:
        return oracle(*args, **kwargs)
    except ValueError as err:
        return str(err)[0]


@pytest.mark.parametrize("p", [3, 5])
def test_full_coset_oracle_matches_brute_force(p):
    g = build_fragment([0, 1], [(0, 1)])
    ctx = GroupContext(g, p)
    rng = random.Random(10 + p)
    n0, n1 = generator(ctx, Natural(0)), generator(ctx, Natural(1))
    hub = generator(ctx, Gadget(0, 1, "0"))
    seen = set()
    for r_edges in ([], [(0, 1)]):
        aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, r_edges))
        ell = EdgeFunctional.from_edges(r_edges)
        pairs = [
            (n0, mul(ctx, pow_(ctx, n1, 2), random_central(ctx, rng))),
            (mul(ctx, n1, hub), n0),
            (n0, pow_(ctx, n0, 2)),
        ]
        pairs += [(random_element(ctx, rng), random_element(ctx, rng)) for _ in range(4 if p == 3 else 2)]
        for x, y in pairs:
            for formula, kw in (("up", {"aut": aut}), ("down", {"ell": ell})):
                got = outcome(full_coset_oracle, ctx, formula, x, y, **kw)
                assert got == outcome(brute_force_oracle, ctx, formula, x, y, **kw)
                seen.add((formula, got))
    # both verdicts of both formulas, and the refusal of non-members, were compared
    assert seen == {("up", True), ("up", False), ("down", True), ("down", False), ("down", "x"), ("down", "y")}


@pytest.mark.parametrize("p, n", [(3, 0), (3, 1), (5, 3), (3, 7), (3, 10), (5, 7)])
def test_coset_blocks_yield_every_vector_once_in_product_order(p, n):
    blocks = list(_coset_blocks(p, n))
    assert all(0 < len(b) <= _BLOCK_ROWS for b in blocks)
    assert len(blocks) == -(-(p**n) // _BLOCK_ROWS)
    rows = [tuple(int(c) for c in row) for block in blocks for row in block]
    assert rows == list(itertools.product(range(p), repeat=n))


@pytest.mark.parametrize("p", [3, 5])
def test_commuting_mask_matches_the_commutator(monkeypatch, p):
    """The mask is the zero set of lambda(a, -) over every coset b, with
    a's own multiples among the zeros."""
    ctx = GroupContext(build_fragment([0, 1], [(0, 1)]), p)
    rng = random.Random(p)
    pairs = _nonadjacent_pairs(ctx)
    block = np.array(list(itertools.product(range(p), repeat=ctx.n))[:: 1 if p == 3 else 13], dtype=np.int64)
    monkeypatch.setattr(group, "SAMPLE_SUPPORT", 7)
    for _ in range(6):
        a = random_element(ctx, rng)
        dense = np.array([a.gen.get(i, 0) for i in range(ctx.n)], dtype=np.int64)
        want = [not commutator_vector(ctx, a, GroupElement(p, dict(enumerate(map(int, b))), {})) for b in block]
        assert _commuting_mask(block, dense, pairs, p).tolist() == want
        assert _commuting_mask(np.array([dense, 2 * dense % p]), dense, pairs, p).all()


def test_verdicts_are_translate_invariant():
    g = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    ctx = GroupContext(g, 3)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, [(0, 1)]))
    ell = EdgeFunctional.from_edges([(0, 1)])
    gd = GroupContext(build_down_fragment([0, 1, 2]), 3)
    rng = random.Random(3)
    for i, j in itertools.combinations((0, 1, 2), 2):
        base_up = up_edge_formula(ctx, aut, generator(ctx, Natural(i)), generator(ctx, Natural(j))).verdict
        base_down = down_edge_formula(gd, ell, generator(gd, Natural(i)), generator(gd, Natural(j))).verdict
        for _ in range(5):
            gamma, delta = rng.randint(1, 2), rng.randint(1, 2)
            xu = mul(ctx, pow_(ctx, generator(ctx, Natural(i)), gamma), random_central(ctx, rng))
            yu = mul(ctx, pow_(ctx, generator(ctx, Natural(j)), delta), random_central(ctx, rng))
            assert up_edge_formula(ctx, aut, xu, yu).verdict == base_up
            xd = mul(gd, pow_(gd, generator(gd, Natural(i)), gamma), random_central(gd, rng))
            yd = mul(gd, pow_(gd, generator(gd, Natural(j)), delta), random_central(gd, rng))
            assert down_edge_formula(gd, ell, xd, yd).verdict == base_down


def test_oracle_budget_and_validation():
    g = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    ctx = GroupContext(g, 3)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, [(0, 1)]))
    x, y = generator(ctx, Natural(0)), generator(ctx, Natural(1))
    with pytest.raises(BudgetError):
        full_coset_oracle(ctx, "up", x, y, aut=aut, budget=10)
    with pytest.raises(BudgetError):
        # 3^18 cosets overrun the default budget of 3^12
        full_coset_oracle(ctx, "up", x, y, aut=aut)
    small = GroupContext(build_fragment([0, 1], [(0, 1)]), 3)
    xs, ys = generator(small, Natural(0)), generator(small, Natural(1))
    with pytest.raises(ValueError):
        full_coset_oracle(small, "sideways", xs, ys)
    with pytest.raises(ValueError):
        full_coset_oracle(small, "up", xs, ys)  # no automorphism given
    with pytest.raises(ValueError):
        full_coset_oracle(small, "down", xs, ys)  # no functional given


def test_witness_rechecks_survive_python_O():
    """The witness re-checks raise instead of asserting, so they still run
    when python -O strips asserts."""
    script = textwrap.dedent(
        """
        import mekler.formulas as f
        from mekler.graphs import Natural, build_fragment, pair_swap_automorphism
        from mekler.group import GroupContext, InducedAutomorphism, generator
        from mekler.interpret import build_down_fragment
        from mekler.subgroup import EdgeFunctional

        assert False, "asserts are live: not running under -O"
        g = build_fragment([0, 1], [(0, 1)])
        ctx = GroupContext(g, 3)
        aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, [(0, 1)]))
        x, y = generator(ctx, Natural(0)), generator(ctx, Natural(1))
        print("up", f.up_edge_formula(ctx, aut, x, y).verdict)
        f._recheck_up = lambda *args: False
        try:
            f.up_edge_formula(ctx, aut, x, y)
        except RuntimeError as err:
            print("up raised:", err)

        dctx = GroupContext(build_down_fragment([0, 1]), 3)
        ell = EdgeFunctional.from_edges([(0, 1)])
        dx, dy = generator(dctx, Natural(0)), generator(dctx, Natural(1))
        print("down", f.down_edge_formula(dctx, ell, dx, dy).verdict)
        f._commutes = lambda *args: False
        try:
            f.down_edge_formula(dctx, ell, dx, dy)
        except RuntimeError as err:
            print("down raised:", err)
        """
    )
    src = os.path.dirname(os.path.dirname(mekler.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    r = subprocess.run([sys.executable, "-O", "-c", script], env=env, capture_output=True, text=True, timeout=120)
    assert r.returncode == 0, r.stderr
    lines = r.stdout.splitlines()
    assert lines[0] == "up True" and lines[2] == "down True"
    assert lines[1].startswith("up raised: up-formula witness pair u=x[")
    assert lines[3].startswith("down raised: down-formula witness x[")
    assert len(lines) == 4
