"""Named verification suites over concrete fragments.

Each suite re-checks one finitary statement by direct computation: group
axioms on random samples, defining relations exhaustively, the degree and
dimension scans, formula grids against the encoded edge set, and agreement
between the optimized formula evaluators and the full coset enumeration on
a small subfragment.  Reports are deterministic for a fixed configuration
and seed: no timestamps, no unsorted set iteration.
"""

from __future__ import annotations

import json
import random
from dataclasses import asdict, dataclass, field, replace

from .extension import ExtElement, ext_conjugate, ext_identity, ext_inv, ext_mul, ext_pow, in_base_by_power_formula
from .formulas import DEFAULT_ORACLE_BUDGET, BudgetError, down_edge_formula, full_coset_oracle, up_edge_formula
from .fplinear import kernel_dim
from .graphs import ConfigError, Natural, build_fragment, check_nice, pair_swap_automorphism
from .group import (
    GroupContext,
    InducedAutomorphism,
    _below,
    centralizer_dim_mod_center,
    commutation_matrix,
    commutator,
    generator,
    identity,
    inv,
    is_central,
    mul,
    pow_,
    random_central,
    random_element,
)
from .interpret import (
    DEFAULT_P, DEFAULT_SEED, DEFAULT_TRANSLATES, build_down_fragment, build_up_fragment, natural_graph, roundtrip
)
from .kernels import check_support_budget, scan_group_bound, scan_subgroup_dichotomy
from .subgroup import (
    EdgeFunctional,
    assess_adequacy,
    center_of_subgroup_check,
    centralizer_dim_in_subgroup,
    verify_index_p,
)


@dataclass
class CheckResult:
    name: str
    passed: bool | None  # None: skipped, neither passed nor failed
    detail: str = ""

    def line(self) -> str:
        mark = "SKIP" if self.passed is None else "PASS" if self.passed else "FAIL"
        tail = f"  [{self.detail}]" if self.detail else ""
        return f"{mark}  {self.name}{tail}"


@dataclass(frozen=True)
class VerifyConfig:
    p: int = DEFAULT_P
    seed: int = DEFAULT_SEED
    naturals: tuple[int, ...] = (0, 1, 2)
    r_edges: tuple[tuple[int, int], ...] = ((0, 1),)
    samples: int = 200
    support_budget: int = 3
    oracle_budget: int = DEFAULT_ORACLE_BUDGET
    translates: int = DEFAULT_TRANSLATES

    def normalized(self) -> "VerifyConfig":
        nats = tuple(sorted(set(self.naturals)))
        edges = tuple(sorted((min(a, b), max(a, b)) for a, b in self.r_edges))
        if len(nats) < 2:
            raise ConfigError("need at least two naturals")
        if self.samples < 1:
            raise ConfigError(f"sample budget must be at least 1, got {self.samples}")
        if self.translates < 1:
            raise ConfigError(f"translates must be at least 1, got {self.translates}")
        if self.oracle_budget < 1:
            raise ConfigError(f"oracle budget must be at least 1, got {self.oracle_budget}")
        check_support_budget(self.support_budget)
        for a, b in edges:
            if a == b or a not in nats or b not in nats:
                raise ConfigError(f"edge {a}-{b} is not a pair of configured naturals")
        return replace(self, naturals=nats, r_edges=edges)


@dataclass
class SuiteResult:
    config: VerifyConfig
    checks: list[CheckResult] = field(default_factory=list)

    @property
    def ok(self) -> bool:
        """No check failed; skipped checks do not count against it."""
        return all(c.passed is not False for c in self.checks)

    def __bool__(self) -> bool:
        return self.ok

    def render_text(self) -> str:
        cfg = self.config
        head = [
            f"fragment naturals {list(cfg.naturals)}, encoded edges {[f'{a}-{b}' for a, b in cfg.r_edges]}",
            f"p={cfg.p} seed={cfg.seed} samples={cfg.samples} support_budget={cfg.support_budget} "
            f"oracle_budget={cfg.oracle_budget}",
            "",
        ]
        body = [c.line() for c in self.checks]
        passed = sum(1 for c in self.checks if c.passed)
        skipped = sum(1 for c in self.checks if c.passed is None)
        counts = f"{passed}/{len(self.checks)} checks passed" + (f", {skipped} skipped" if skipped else "")
        tail = ["", f"{counts}: {'ok' if self.ok else 'FAILURE'}"]
        return "\n".join(head + body + tail) + "\n"

    def render_json(self) -> str:
        payload = {
            "config": asdict(self.config),
            "ok": self.ok,
            "checks": [asdict(c) for c in self.checks],
        }
        return json.dumps(payload, indent=2, sort_keys=True) + "\n"


def _check(res: SuiteResult, name: str, passed: bool | None, detail: str = "") -> None:
    res.checks.append(CheckResult(name=name, passed=None if passed is None else bool(passed), detail=detail))


def _group_axiom_checks(res, ctx, rng, samples):
    e = identity(ctx)
    bad_assoc = bad_id = bad_inv = bad_exp = bad_central = 0
    for _ in range(samples):
        a = random_element(ctx, rng)
        b = random_element(ctx, rng)
        c = random_element(ctx, rng)
        if mul(ctx, mul(ctx, a, b), c) != mul(ctx, a, mul(ctx, b, c)):
            bad_assoc += 1
        if mul(ctx, a, e) != a or mul(ctx, e, a) != a:
            bad_id += 1
        if mul(ctx, a, inv(ctx, a)) != e:
            bad_inv += 1
        if pow_(ctx, a, ctx.p) != e:
            bad_exp += 1
        if not is_central(commutator(ctx, a, b)):
            bad_central += 1
    _check(res, "associativity on random triples", bad_assoc == 0, f"{samples} triples")
    _check(res, "two-sided identity", bad_id == 0, f"{samples} samples")
    _check(res, "inverses", bad_inv == 0, f"{samples} samples")
    _check(res, f"every element has order dividing {ctx.p}", bad_exp == 0, f"{samples} samples")
    _check(res, "commutators are central (class 2)", bad_central == 0, f"{samples} pairs")


def _defining_relation_checks(res, ctx):
    e = identity(ctx)
    bad_adj = bad_non = 0
    n_adj = n_non = 0
    n = ctx.n
    gens = [generator(ctx, v) for v in ctx.vertex_order]
    for i in range(n):
        for j in range(i + 1, n):
            c = commutator(ctx, gens[i], gens[j])
            if not ctx.nonadjacent(i, j):
                n_adj += 1
                if c != e:
                    bad_adj += 1
            else:
                n_non += 1
                # the pair's own central key, i * n + j for i < j
                ok = len(c.gen) == 0 and len(c.cen) == 1 and c.cen.get(i * n + j) in (1, ctx.p - 1)
                rev = commutator(ctx, gens[j], gens[i])
                if not ok or mul(ctx, c, rev) != e:
                    bad_non += 1
    _check(res, "adjacent generators commute", bad_adj == 0, f"{n_adj} adjacent pairs")
    _check(
        res,
        "non-adjacent generators give independent central basis elements",
        bad_non == 0,
        f"{n_non} non-adjacent pairs",
    )


def _centralizer_bound_checks(res, ctx, rng, support_budget):
    try:
        scan = scan_group_bound(ctx, max_support=support_budget)
    except BudgetError as err:  # the scan's rank tables are past their budget
        passed, detail = None, f"skipped: {err}"
    else:
        passed, detail = scan.ok, f"{scan.elements_checked} elements, {scan.violation_count} violations"
    _check(res, "centralizer dimension of non-natural small supports stays at most 5", passed, detail)
    agree = True
    verts = list(ctx.vertex_order)
    for _ in range(20):
        size = rng.randrange(1, min(3, len(verts)) + 1)
        support = rng.sample(verts, size)
        support.sort(key=ctx.vindex.__getitem__)
        exps = [1 + rng.randrange(ctx.p - 1) for _ in support]
        a = identity(ctx)
        for v, k in zip(support, exps):
            a = mul(ctx, a, generator(ctx, v, k))
        dim_fast = centralizer_dim_mod_center(ctx, a)
        dim_generic = kernel_dim(commutation_matrix(ctx, a.gen), ctx.n, ctx.p)  # over all |V| columns
        if dim_fast != dim_generic:
            agree = False
    _check(res, "fast dimension formula matches the generic eliminator", agree, "20 random supports")


def _edge_grid_check(res, ctx, naturals, r_set, rng, evaluate, name):
    """Query the edge formula on every ordered pair of distinct naturals,
    each generator power times a random central element, against R."""
    bad = 0
    total = 0
    for n in naturals:
        for m in naturals:
            if n == m:
                continue
            expected = (min(n, m), max(n, m)) in r_set
            for gamma in range(1, min(ctx.p, 3)):
                for delta in range(1, min(ctx.p, 3)):
                    x = mul(ctx, generator(ctx, Natural(n), gamma), random_central(ctx, rng))
                    y = mul(ctx, generator(ctx, Natural(m), delta), random_central(ctx, rng))
                    total += 1
                    if bool(evaluate(x, y)) != expected:
                        bad += 1
    _check(res, name, bad == 0, f"{total} ordered queries")


def _extension_checks(res, ctx, aut, rng, samples):
    e2 = ext_identity(ctx)
    bad_assoc = bad_inv = bad_base = bad_conj = bad_hom = 0
    bits = rng.getrandbits
    for _ in range(samples):  # each flip takes the draw rng.randrange(2) would
        a = ExtElement(random_element(ctx, rng), _below(bits, 2))
        b = ExtElement(random_element(ctx, rng), _below(bits, 2))
        c = ExtElement(random_element(ctx, rng), _below(bits, 2))
        if ext_mul(ctx, aut, ext_mul(ctx, aut, a, b), c) != ext_mul(ctx, aut, a, ext_mul(ctx, aut, b, c)):
            bad_assoc += 1
        if ext_mul(ctx, aut, a, ext_inv(ctx, aut, a)) != e2:
            bad_inv += 1
        if in_base_by_power_formula(ctx, aut, a) != (a.eps == 0):
            bad_base += 1
        if aut.apply(mul(ctx, a.h, b.h)) != mul(ctx, aut.apply(a.h), aut.apply(b.h)):
            bad_hom += 1
        if aut.apply(aut.apply(a.h)) != a.h:
            bad_hom += 1
    t = ExtElement(identity(ctx), 1)
    for _ in range(max(1, samples // 4)):
        h = ExtElement(random_element(ctx, rng), 0)
        conj = ext_conjugate(ctx, aut, t, h)
        if conj != ExtElement(aut.apply(h.h), 0):
            bad_conj += 1
    two = ext_pow(ctx, aut, t, 2)
    _check(res, "twist is an involutive group automorphism", bad_hom == 0, f"{samples} samples")
    _check(res, "extension associativity and inverses", bad_assoc == 0 and bad_inv == 0, f"{samples} samples")
    _check(res, "index-2 base membership equals the p-th power formula", bad_base == 0, f"{samples} samples")
    _check(res, "conjugation by the twist acts as the graph automorphism", bad_conj == 0)
    _check(res, "the twist squares to the identity", two == e2)


def _functional_checks(res, ctx, ell):
    rep = verify_index_p(ctx, ell)
    _check(
        res,
        "edge functional is a surjective homomorphism onto the prime field",
        bool(rep),
        rep.message,
    )
    cres = center_of_subgroup_check(ctx, ell)
    _check(
        res,
        "kernel subgroup center equals the commutator subgroup",
        cres.ok,
        f"{cres.witnesses} witnesses",
    )
    adequacy = assess_adequacy(ctx, ell)
    _check(
        res,
        "fragment adequately provisions every tested natural",
        adequacy.adequate,
        adequacy.explain(),
    )


def _dichotomy_checks(res, ctx, ell, support_budget):
    try:
        scan = scan_subgroup_dichotomy(ctx, ell, max_support=support_budget)
    except BudgetError as err:  # the scan's rank tables are past their budget
        passed, detail = None, f"skipped: {err}"
    else:
        passed, detail = scan.ok, f"{scan.members_checked} members, {scan.violation_count} violations"
    _check(res, "subgroup dimension dichotomy holds on all small supports", passed, detail)
    sample_dims = []
    agree = True
    for n in ctx.graph.naturals()[:2]:
        x = generator(ctx, Natural(n))
        d = centralizer_dim_in_subgroup(ctx, ell, x)
        full = commutation_matrix(ctx, x.gen) + [ell.row(ctx)]  # over all |V| columns
        agree = agree and d == kernel_dim(full, ctx.n, ctx.p)
        sample_dims.append(f"x[n:{n}]:{d}")
    _check(res, "generic eliminator reproduces natural dimensions", agree, ", ".join(sample_dims))


def _oracle_checks(res, cfg):
    n0, n1 = cfg.naturals[0], cfg.naturals[1]
    pair = (n0, n1)
    frag = build_fragment([n0, n1], [pair])
    ctx = GroupContext(frag, cfg.p)
    x = generator(ctx, Natural(n0))
    y = generator(ctx, Natural(n1))
    for r_sub, tag in (((), "empty"), ((pair,), "full")):
        aut = InducedAutomorphism(ctx, pair_swap_automorphism(frag, r_sub))
        ell = EdgeFunctional.from_edges(r_sub)
        try:
            fast_up = bool(up_edge_formula(ctx, aut, x, y))
            slow_up = bool(full_coset_oracle(ctx, "up", x, y, aut=aut, budget=cfg.oracle_budget))
            fast_down = bool(down_edge_formula(ctx, ell, x, y))
            slow_down = bool(full_coset_oracle(ctx, "down", x, y, ell=ell, budget=cfg.oracle_budget))
        except BudgetError as err:
            _check(res, f"formula evaluators agree with full enumeration (R {tag})", None, f"skipped: {err}")
            continue
        agree = fast_up == slow_up and fast_down == slow_down
        expected = tag == "full"
        faithful = fast_up == expected and fast_down == expected
        _check(
            res,
            f"formula evaluators agree with full enumeration (R {tag})",
            agree and faithful,
            f"up={fast_up} down={fast_down}",
        )


def _roundtrip_check(res, cfg):
    gamma = natural_graph(list(cfg.naturals), list(cfg.r_edges))
    result = roundtrip(gamma, p=cfg.p, pipeline="both", seed=cfg.seed, translates=cfg.translates)
    _check(res, "round trip recovers the encoded graph through both pipelines", result.ok, "; ".join(result.messages))


def verify_lemmas(cfg: VerifyConfig) -> SuiteResult:
    cfg = cfg.normalized()
    if len(cfg.naturals) < 3:
        raise ConfigError("verify-lemmas needs at least three naturals: the up fragment on two is not nice")
    res = SuiteResult(config=cfg)
    rng = random.Random(cfg.seed)

    up_frag = build_up_fragment(list(cfg.naturals))
    ctx_up = GroupContext(up_frag, cfg.p)
    nice = check_nice(up_frag)
    _check(res, "gadgeted fragment is a nice graph", nice.is_nice, nice.summary())

    _group_axiom_checks(res, ctx_up, rng, cfg.samples)
    _defining_relation_checks(res, ctx_up)
    _centralizer_bound_checks(res, ctx_up, rng, cfg.support_budget)

    r_set = set(cfg.r_edges)
    aut = InducedAutomorphism(ctx_up, pair_swap_automorphism(up_frag, cfg.r_edges))
    _edge_grid_check(
        res,
        ctx_up,
        up_frag.naturals(),
        r_set,
        rng,
        lambda x, y: up_edge_formula(ctx_up, aut, x, y),
        "twisted-pair formula matches the encoded edge set",
    )
    _extension_checks(res, ctx_up, aut, rng, cfg.samples)

    down_frag = build_down_fragment(list(cfg.naturals))
    ctx_down = GroupContext(down_frag, cfg.p)
    ell = EdgeFunctional.from_edges(cfg.r_edges)
    _functional_checks(res, ctx_down, ell)
    _edge_grid_check(
        res,
        ctx_down,
        cfg.naturals,
        r_set,
        rng,
        lambda x, y: down_edge_formula(ctx_down, ell, x, y),
        "kernel-intersection formula matches the encoded edge set",
    )
    _dichotomy_checks(res, ctx_down, ell, cfg.support_budget)

    _oracle_checks(res, cfg)
    _roundtrip_check(res, cfg)
    return res
