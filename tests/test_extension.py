"""Semidirect extension arithmetic and the power route back to the base."""

import random

import pytest

from mekler.extension import (
    ExtElement,
    ext_conjugate,
    ext_identity,
    ext_inv,
    ext_mul,
    ext_pow,
    in_base_by_power_formula,
)
from mekler.graphs import Natural, all_pairs, build_fragment, pair_swap_automorphism
from mekler.group import (
    GroupContext,
    InducedAutomorphism,
    generator,
    identity,
    inv,
    mul,
    random_element,
)


def make_ctx(p=3):
    g = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    ctx = GroupContext(g, p)
    aut = InducedAutomorphism(ctx, pair_swap_automorphism(g, [(0, 1)]))
    return ctx, aut


def random_ext(ctx, rng):
    return ExtElement(random_element(ctx, rng), rng.randint(0, 1))


def test_extension_group_laws_sampled():
    for p in (3, 5):
        ctx, aut = make_ctx(p)
        rng = random.Random(p)
        e = ext_identity(ctx)
        for _ in range(60):
            a, b, c = (random_ext(ctx, rng) for _ in range(3))
            lhs = ext_mul(ctx, aut, ext_mul(ctx, aut, a, b), c)
            rhs = ext_mul(ctx, aut, a, ext_mul(ctx, aut, b, c))
            assert lhs == rhs
            assert ext_mul(ctx, aut, a, e) == a
            assert ext_mul(ctx, aut, e, a) == a
            assert ext_mul(ctx, aut, a, ext_inv(ctx, aut, a)) == e
            assert ext_mul(ctx, aut, ext_inv(ctx, aut, a), a) == e


def test_eps_is_mod_two():
    ctx, _ = make_ctx()
    h = generator(ctx, Natural(0))
    assert ExtElement(h, 3).eps == 1
    assert ExtElement(h, -1).eps == 1
    assert ExtElement(h, 4).eps == 0


def test_base_membership_iff_no_flip():
    ctx, aut = make_ctx()
    rng = random.Random(7)
    for _ in range(60):
        a = random_ext(ctx, rng)
        assert in_base_by_power_formula(ctx, aut, a) == (a.eps == 0)
    # a flipped element squares into the base but is not itself in it
    t = ExtElement(random_element(ctx, rng), 1)
    assert not in_base_by_power_formula(ctx, aut, t)
    assert ext_mul(ctx, aut, t, t).eps == 0
    assert in_base_by_power_formula(ctx, aut, ext_mul(ctx, aut, t, t))


def test_ext_pow_matches_iterated_mul():
    ctx, aut = make_ctx()
    rng = random.Random(8)
    for _ in range(10):
        a = random_ext(ctx, rng)
        acc = ext_identity(ctx)
        for k in range(8):
            assert ext_pow(ctx, aut, a, k) == acc
            assert ext_pow(ctx, aut, a, -k) == ext_inv(ctx, aut, acc)
            acc = ext_mul(ctx, aut, acc, a)
    # flipped elements have order dividing 2p
    t = ExtElement(random_element(ctx, rng), 1)
    assert ext_pow(ctx, aut, t, 2 * ctx.p) == ext_identity(ctx)
    assert ext_pow(ctx, aut, t, ctx.p).eps == 1


def test_conjugation_by_the_flip_applies_the_automorphism():
    ctx, aut = make_ctx()
    rng = random.Random(9)
    flip = ExtElement(identity(ctx), 1)
    for _ in range(20):
        h = random_element(ctx, rng)
        conj = ext_conjugate(ctx, aut, flip, ExtElement(h, 0))
        assert conj == ExtElement(aut.apply(h), 0)
    # base-by-base conjugation is ordinary conjugation
    g_el = random_element(ctx, rng)
    h_el = random_element(ctx, rng)
    conj = ext_conjugate(ctx, aut, ExtElement(g_el, 0), ExtElement(h_el, 0))
    assert conj == ExtElement(mul(ctx, mul(ctx, g_el, h_el), inv(ctx, g_el)), 0)


def test_conjugation_preserves_base_membership():
    ctx, aut = make_ctx()
    rng = random.Random(10)
    for _ in range(25):
        t = random_ext(ctx, rng)
        a = random_ext(ctx, rng)
        conj = ext_conjugate(ctx, aut, t, a)
        assert in_base_by_power_formula(ctx, aut, conj) == in_base_by_power_formula(ctx, aut, a)


def test_extension_requires_an_involution():
    g = build_fragment([0, 1, 2], all_pairs([0, 1, 2]))
    ctx = GroupContext(g, 3)
    shift = {0: 1, 1: 2, 2: 0}
    perm = {}
    for v in g.vertices:
        if isinstance(v, Natural):
            perm[v] = Natural(shift[v.n])
        else:
            a, b = sorted((shift[v.a], shift[v.b]))
            perm[v] = type(v)(a, b, v.level)
    aut = InducedAutomorphism(ctx, perm)
    assert not aut.is_involution
    a = ExtElement(generator(ctx, Natural(0)), 1)
    with pytest.raises(ValueError):
        ext_mul(ctx, aut, a, a)
    with pytest.raises(ValueError):
        ext_inv(ctx, aut, a)
    for k in (0, 1, 2, -1):  # a^1 makes no product, and is refused all the same
        with pytest.raises(ValueError):
            ext_pow(ctx, aut, a, k)
    with pytest.raises(ValueError):
        in_base_by_power_formula(ctx, aut, a)


def test_extension_elements_are_immutable_values():
    ctx, aut = make_ctx()
    rng = random.Random(7)
    h = random_element(ctx, rng)
    a, b = ExtElement(h, 3), ExtElement(mul(ctx, h, identity(ctx)), 1)
    assert a == b and hash(a) == hash(b)
    assert a != ExtElement(h, 0) and a != (h, 1)
    with pytest.raises(AttributeError):
        a.eps = 0
    with pytest.raises(AttributeError):
        del a.h
    assert a.eps == 1 and a == b


def test_arithmetic_results_are_the_constructors_values():
    """ext_mul, ext_inv, ext_identity and ext_pow wrap their results without
    the constructor; each result is the value the constructor makes."""
    ctx, aut = make_ctx()
    rng = random.Random(11)
    for _ in range(20):
        a, b = random_ext(ctx, rng), random_ext(ctx, rng)
        results = [ext_mul(ctx, aut, a, b), ext_inv(ctx, aut, a), ext_identity(ctx), ext_pow(ctx, aut, a, 2)]
        for r in results:
            assert type(r) is ExtElement and r.eps in (0, 1)
            same = ExtElement(r.h, r.eps)
            assert r == same and hash(r) == hash(same)
            with pytest.raises(AttributeError):
                r.eps = 0
        assert results[0].eps == (a.eps + b.eps) % 2
