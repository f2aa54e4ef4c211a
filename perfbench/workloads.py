"""The four benchmark workloads: seeded inputs, jobs and verdict checks.

A job is one user-visible verdict: one ``mekler`` subcommand called
in-process through ``mekler.cli.main(argv)`` with stdout captured, or one
public scan call.  Every job carries a check that returns ``None`` when the
verdict is right and a short reason when it is not.

Each workload builds its inputs once, from a ``random.Random`` seeded by
the benchmark's ``--seed``: ``jobs`` is a fixed list with the same mix of
job types whatever the seed.  The timed loop repeats that list, in a fresh
seeded order each time, so every input runs several times in a run.

Library functions are looked up on their modules at call time
(``kernels.scan_group_bound``, not a name bound here), so the tracer's
wrappers see the harness's own calls as well as the library's.
"""

from __future__ import annotations

import contextlib
import io
import itertools
import json
import math
import os
import warnings
from dataclasses import dataclass
from time import perf_counter
from typing import Callable

import numpy as np

from mekler import cayley, cli, graphs, group, kernels, subgroup


@dataclass
class Job:
    label: str
    run: Callable[[], object]
    check: Callable[[object], "str | None"]
    elements: int = 0  # ScanResult.elements_checked the job must report (scan jobs only)


def cli_call(argv: list[str]) -> tuple[int, str]:
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf):
        rc = cli.main(argv)
    return rc, buf.getvalue()


def _edge_arg(edges) -> str:
    return ",".join(f"{a}-{b}" for a, b in edges)


def _random_edges(rng, naturals) -> list[tuple[int, int]]:
    """A nonempty edge set, each pair present with probability 1/2."""
    pairs = list(itertools.combinations(naturals, 2))
    while True:
        edges = [pr for pr in pairs if rng.random() < 0.5]
        if edges:
            return edges


def _structured(out) -> tuple[dict | None, str | None]:
    rc, text = out
    if rc != 0:
        return None, f"exit code {rc}"
    return json.loads(text), None


# --- roundtrip ------------------------------------------------------------------


class Roundtrip:
    """``mekler roundtrip --pipeline both`` on labelled graphs.

    The inputs are a seeded quarter of the 64 labelled graphs on 4 naturals
    at p=3, stratified by edge count so that every run holds the same number
    of graphs of each size, plus four 5-cycles on 5 naturals (the largest
    tested down fragment) with seeded labels, two at p=3 and two at p=5.
    Fixed shapes keep a run's cost mix the same whatever the seed.
    """

    name = "roundtrip"

    def __init__(self, rng, smoke: bool, plant_wrong: bool, workdir: str):
        if smoke:
            labels = [0, 1, 2]
            specs = [(labels, [], 3), (labels, [(0, 1)], 3)]
        else:
            labels = [0, 1, 2, 3]
            pairs = list(itertools.combinations(labels, 2))
            graphs4 = [list(edges) for size in range(len(pairs) + 1) for edges in itertools.combinations(pairs, size)]
            graphs4.sort(key=lambda edges: (len(edges), rng.random()))
            specs = [(labels, edges, 3) for edges in graphs4[rng.randrange(4) :: 4]]
            five = [0, 1, 2, 3, 4]
            for p in (3, 3, 5, 5):
                ring = rng.sample(five, 5)
                specs.append((five, sorted((min(a, b), max(a, b)) for a, b in zip(ring, ring[1:] + ring[:1])), p))
        self.jobs = [self._job(labels, edges, p, rng.randrange(2**31)) for labels, edges, p in specs]
        if plant_wrong:
            self.jobs[0] = self._job(*specs[0], 0, wrong=True)

    def warmup(self) -> list[Job]:
        return [self._job([0, 1, 2, 3], [(0, 1), (1, 2)], 3, 0), self._job([0, 1, 2, 3, 4], [(0, 4)], 5, 0)]

    def _job(self, labels, edges, p, seed, wrong=False) -> Job:
        argv = [
            "roundtrip", "--naturals", ",".join(map(str, labels)), "--r-edges", _edge_arg(edges),
            "--pipeline", "both", "--format", "structured", "--p", str(p), "--seed", str(seed),
        ]
        want_edges = sorted([a, b] for a, b in edges)
        if wrong:  # a planted wrong expectation: one extra edge
            missing = [list(pr) for pr in itertools.combinations(labels, 2) if list(pr) not in want_edges]
            want_edges = sorted(want_edges + missing[:1]) if missing else want_edges[1:]

        def check(out):
            payload, err = _structured(out)
            if err:
                return err
            if payload["input"] != {"naturals": labels, "edges": sorted([a, b] for a, b in edges)}:
                return "input echo differs from the generated graph"
            for pipe in ("up", "down"):
                rec = payload["pipelines"].get(pipe)
                if rec is None:
                    return f"{pipe} pipeline missing"
                if rec["labels"] != labels or rec["edges"] != want_edges:
                    return f"{pipe} pipeline recovered a different graph"
            if payload["ok"] is not True:
                return "report says not ok"
            return None

        size = "rt5" if len(labels) == 5 else f"rt{len(labels)}"
        return Job(f"{size}.p{p}", lambda: cli_call(argv), check)


# --- scan -----------------------------------------------------------------------


def expected_elements(nverts: int, p: int, max_support: int) -> int:
    """Supports of size 1..max_support times nonzero exponent patterns."""
    return sum(math.comb(nverts, s) * (p - 1) ** s for s in range(1, max_support + 1))


def expected_members(zeros: int, ones: int, p: int, max_support: int) -> int:
    """Kernel-subgroup members among the scanned elements, counted by
    combinatorics alone: an element is a member when the exponents on its
    value-1 support vertices sum to 0 mod p; value-0 vertices are free."""
    total = 0
    for s in range(1, max_support + 1):
        for j in range(s + 1):
            k = s - j
            vanishing = sum(1 for exps in itertools.product(range(1, p), repeat=k) if sum(exps) % p == 0)
            total += math.comb(zeros, j) * math.comb(ones, k) * (p - 1) ** j * vanishing
    return total


def zero_value_count(ctx, ell) -> int:
    return sum(1 for v in ctx.vertex_order if ell.value(v) == 0)


class Scan:
    """One ``scan_group_bound`` or ``scan_subgroup_dichotomy`` call at
    ``max_support=3`` per job, on two fully gadgeted fragments: 11 naturals
    (286 vertices) at p=3 and 8 naturals (148 vertices) at p=5: one bound
    scan and one dichotomy scan per fragment.  The seed draws the edge set
    R of each dichotomy scan; R barely moves a scan's cost, so a second
    dichotomy per fragment would only halve the passes in a run."""

    name = "scan"
    MAX_SUPPORT = 3

    def __init__(self, rng, smoke: bool, plant_wrong: bool, workdir: str):
        configs = ((5, 3), (5, 5)) if smoke else ((11, 3), (8, 5))
        self.contexts = [self._context(n, p) for n, p in configs]
        self.jobs = []
        for ctx in self.contexts:
            self.jobs.append(self._bound(ctx, wrong=plant_wrong and not self.jobs))
            self.jobs.append(self._dichotomy(ctx, _random_edges(rng, range(4))))

    @staticmethod
    def _context(naturals: int, p: int):
        nats = list(range(naturals))
        frag = graphs.build_fragment(nats, graphs.all_pairs(nats))
        return group.GroupContext(frag, p)

    def warmup(self) -> list[Job]:
        small = [self._context(5, 3), self._context(5, 5)]
        return [j for ctx in small for j in (self._bound(ctx), self._dichotomy(ctx, [(0, 1)]))]

    def _bound(self, ctx, wrong=False) -> Job:
        ms = self.MAX_SUPPORT
        elements = expected_elements(len(ctx.vertex_order), ctx.p, ms)
        want = elements + 1 if wrong else elements
        return Job(
            f"bound.v{len(ctx.vertex_order)}.p{ctx.p}",
            lambda: kernels.scan_group_bound(ctx, max_support=ms),
            lambda res: _check_scan(res, want, want),
            elements,
        )

    def _dichotomy(self, ctx, edges) -> Job:
        ms = self.MAX_SUPPORT
        ell = subgroup.EdgeFunctional.from_edges(edges)
        nverts = len(ctx.vertex_order)
        zeros = zero_value_count(ctx, ell)
        elements = expected_elements(nverts, ctx.p, ms)
        members = expected_members(zeros, nverts - zeros, ctx.p, ms)
        return Job(
            f"dichotomy.v{nverts}.p{ctx.p}",
            lambda: kernels.scan_subgroup_dichotomy(ctx, ell, max_support=ms),
            lambda res: _check_scan(res, elements, members),
            elements,
        )

    def size_split(self) -> dict[str, float]:
        """Seconds per scan for each support size, from differences of public
        calls at max_support 1, 2 (medians of three) and 3, averaged over a
        bound and a dichotomy scan per fragment; plus the size-3 element rate."""
        per_size = [0.0, 0.0, 0.0]
        size3_elements = 0
        calls = 0
        for ctx in self.contexts:
            ell = subgroup.EdgeFunctional.from_edges([(0, 1)])
            for scan in (
                lambda ms: kernels.scan_group_bound(ctx, max_support=ms),
                lambda ms: kernels.scan_subgroup_dichotomy(ctx, ell, max_support=ms),
            ):
                t = [0.0] + [_median_time(lambda: scan(ms), 3 if ms < 3 else 1) for ms in (1, 2, 3)]
                for s in range(3):
                    per_size[s] += t[s + 1] - t[s]
                size3_elements += math.comb(len(ctx.vertex_order), 3) * (ctx.p - 1) ** 3
                calls += 1
        return {
            "kernels.size1.s": per_size[0] / calls,
            "kernels.size2.s": per_size[1] / calls,
            "kernels.size3.s": per_size[2] / calls,
            "kernels.size3.elements_per_s": size3_elements / per_size[2],
        }


def _median_time(fn, repeat: int) -> float:
    times = []
    for _ in range(repeat):
        t0 = perf_counter()
        fn()
        times.append(perf_counter() - t0)
    return sorted(times)[len(times) // 2]


def _check_scan(res, elements: int, members: int) -> str | None:
    if not res.ok:
        return f"{len(res.violations)} violations"
    if res.elements_checked != elements:
        return f"elements_checked {res.elements_checked}, expected {elements}"
    if res.members_checked != members:
        return f"members_checked {res.members_checked}, expected {members}"
    return None


# --- verify ---------------------------------------------------------------------


class Verify:
    """``mekler verify-lemmas`` at p=3, once on 3 naturals and once on 4.
    A job on 5 naturals takes 2.5-4.5 s alone, which leaves too few passes
    for a steady median per input in one run, so that size is left out; a
    second input of each size would halve the passes as well.
    The encoded edge set R is a path through all the naturals in a seeded
    order, so its shape, which sets much of a job's cost, is the same
    whatever the seed; the job seed is seeded too."""

    name = "verify"

    def __init__(self, rng, smoke: bool, plant_wrong: bool, workdir: str):
        sizes = (3,) if smoke else (3, 4)
        self.jobs = []
        for k in sizes:
            order = rng.sample(range(k), k)
            path = sorted((min(a, b), max(a, b)) for a, b in zip(order, order[1:]))
            self.jobs.append(self._job(k, path, rng.randrange(2**31)))
        if plant_wrong:
            self.jobs[0] = self._job(sizes[0], [(0, 1)], 7, claimed_seed=8)

    def warmup(self) -> list[Job]:
        return [self._job(3, [(0, 1)], 0)]

    def _job(self, k, edges, seed, claimed_seed=None) -> Job:
        naturals = list(range(k))
        argv = [
            "verify-lemmas", "--naturals", ",".join(map(str, naturals)), "--r-edges", _edge_arg(edges),
            "--p", "3", "--seed", str(seed), "--format", "structured",
        ]
        want_config = {"p": 3, "seed": seed if claimed_seed is None else claimed_seed, "naturals": naturals,
                       "r_edges": sorted([a, b] for a, b in edges)}

        def check(out):
            payload, err = _structured(out)
            if err:
                return err
            config = {key: payload["config"][key] for key in want_config}
            if config != want_config:
                return f"report configuration {config} differs from the request"
            if not payload["checks"]:
                return "no checks ran"
            failed = [c["name"] for c in payload["checks"] if c["passed"] is not True]
            if failed:
                return f"failed checks: {failed}"
            if payload["ok"] is not True:
                return "report says not ok"
            return None

        return Job(f"verify.n{k}", lambda: cli_call(argv), check)


# --- qprobe ---------------------------------------------------------------------

# Cover sizes of the power image at n = 2 and n = 3, frozen from the
# acceptance gate (SL2(F3) -> 3, SL2(F5) -> 4) and the first measured runs.
FROZEN_COVERS = {
    "sl2:3": (3, 3),
    "sl2:5": (4, 3),
    "sl2:7": (4, 3),
    "sym:4": (2, 2),
    "sym:5": (2, 3),
    "mekler:3": (1, 27),
}


def dihedral_cover(corners: int, n: int) -> int:
    """Squares of D_N form the rotation subgroup <r^2>, of index 2 or 4;
    cubes are <r^3> plus every reflection, which one extra translate
    completes when 3 divides N."""
    if n == 2:
        return 2 if corners % 2 else 4
    if n == 3:
        return 1 if corners % 3 else 2
    raise ValueError("frozen dihedral covers exist for n = 2 and 3 only")


# Permutation groups on 5 points, as (order, generators in cycle notation):
# A5 from two generating pairs and S5.  Tables of order 60 to 128 keep the
# median job on table building rather than on millisecond-sized probes.
PERM_GROUPS = (
    (60, ("(1 2 3 4 5)", "(1 2 3)")),
    (60, ("(1 2 3)", "(3 4 5)")),
    (120, ("(1 2 3 4 5)", "(1 2)")),
)

# Products of two cyclic groups written as Cayley tables, of order at most
# 128 so that table validation checks associativity exhaustively.
PRODUCTS = ((8, 12), (10, 12), (9, 14))


def product_table(a: int, b: int) -> np.ndarray:
    """Cayley table of Z_a x Z_b, element (i, j) at index i*b + j."""
    i, j = np.divmod(np.arange(a * b), b)
    return ((i[:, None] + i[None, :]) % a) * b + (j[:, None] + j[None, :]) % b


# SL2(F7) at n=2 alone takes about 3 s, three times every other input
# together; with it a run held only about six passes, too few for a steady
# median per input.  SL2(F7) stays in at n=3 (about 0.4 s, the largest
# cover search).
LEFT_OUT = {("sl2:7", 2)}


class Qprobe:
    """``mekler qprobe`` at n=2 and n=3 on named groups (SL2 over F3, F5
    and F7, S4, S5, D53, Z108, the 27-element Mekler group; SL2(F7) at
    n=3 only), permutation groups on 5 points with seeded point names, and
    products of two cyclic groups written as Cayley tables with seeded
    element names.  The table sizes are fixed: a table's order sets the cost
    of validating it, and a seeded order moved the median and 90th
    percentile from run to run."""

    name = "qprobe"

    def __init__(self, rng, smoke: bool, plant_wrong: bool, workdir: str):
        self.workdir = workdir
        os.makedirs(workdir, exist_ok=True)
        self.tables: dict[str, np.ndarray] = {}
        self.expected: dict[str, Callable[[int], int | None]] = {}
        if smoke:
            named = ["sym:4", "cyclic:108"]
            perms, products = PERM_GROUPS[:1], PRODUCTS[:1]
        else:
            named = ["sl2:3", "sl2:5", "sl2:7", "sym:4", "sym:5", "dihedral:53", "cyclic:108", "mekler:3"]
            perms, products = PERM_GROUPS, PRODUCTS
        self.specs = list(named)
        for spec in named:
            kind, _, arg = spec.partition(":")
            if kind == "dihedral":
                self.expected[spec] = lambda n, c=int(arg): dihedral_cover(c, n)
            elif kind == "cyclic":
                self.expected[spec] = lambda n, c=int(arg): math.gcd(n, c)
            else:
                self.expected[spec] = lambda n, s=spec: FROZEN_COVERS[s][n - 2]
        self.orders: dict[str, int] = {}
        for t, (order, gens) in enumerate(perms):
            # the same group with its five points renamed and its generators reordered
            rename = dict(zip(range(1, 6), rng.sample(range(1, 6), 5)))
            lines = ["".join("(" + " ".join(str(rename[int(x)]) for x in cyc.split()) + ")" for cyc in gen.strip("()").split(")("))
                     for gen in gens]
            rng.shuffle(lines)
            spec = self._write(f"perm{t}.txt", "perm", "\n".join(lines) + "\n")
            self.orders[spec] = order
            self.expected[spec] = lambda n: None
        for t, (a, b) in enumerate(products):
            # Z_a x Z_b with its elements renamed by a seeded permutation
            rename = np.array(rng.sample(range(a * b), a * b))
            table = np.empty((a * b, a * b), dtype=np.int64)
            table[rename[:, None], rename[None, :]] = rename[product_table(a, b)]
            text = f"{a * b}\n" + "".join(" ".join(map(str, row)) + "\n" for row in table)
            spec = self._write(f"cayley{t}.txt", "cayley", text)
            self.tables[spec] = table
            self.orders[spec] = a * b
            self.expected[spec] = lambda n, a=a, b=b: math.gcd(n, a) * math.gcd(n, b)
        self.jobs = [self._job(spec, n) for spec in self.specs for n in (2, 3) if (spec, n) not in LEFT_OUT]
        if plant_wrong:
            self.jobs[0] = self._job(self.specs[0], 2, wrong=True)

    def _write(self, name: str, kind: str, text: str) -> str:
        path = os.path.join(self.workdir, name)
        with open(path, "w") as fh:
            fh.write(text)
        spec = f"{kind}:{path}"
        self.specs.append(spec)
        return spec

    def warmup(self) -> list[Job]:
        return [self._job("sym:4", 2), self._job(self.specs[-1], 3)]

    def _table(self, spec: str) -> np.ndarray:
        """The reference table, indexed as the CLI indexes the group."""
        if spec not in self.tables:
            kind, _, arg = spec.partition(":")
            with warnings.catch_warnings():
                warnings.simplefilter("ignore")
                if kind == "sl2":
                    g = cayley.sl2_permutation_group(int(arg))
                elif kind == "sym":
                    g = cayley.symmetric_group(int(arg))
                elif kind == "dihedral":
                    g = cayley.dihedral_group(int(arg))
                elif kind == "cyclic":
                    g = cayley.cyclic_group(int(arg))
                elif kind == "mekler":
                    g = cayley.cayley_from_context(group.GroupContext(graphs.build_fragment([0, 1]), int(arg)))
                else:
                    with open(arg) as fh:
                        g = cayley.parse_permutation_text(fh.read())
            self.tables[spec] = np.asarray(g.table)
        return self.tables[spec]

    def _job(self, spec, n, wrong=False) -> Job:
        argv = ["qprobe", "--group", spec, "--n", str(n), "--format", "structured"]

        def check(out):
            payload, err = _structured(out)
            if err:
                return err
            if spec in self.orders and payload["order"] != self.orders[spec]:
                return f"order {payload['order']}, expected {self.orders[spec]}"
            return check_probe(self._table(spec), n, payload, self.expected[spec](n), wrong)

        kind, _, arg = spec.partition(":")
        label = spec if kind in ("sl2", "sym", "mekler") else kind if kind in ("dihedral", "cyclic") else os.path.basename(arg)[:-4]
        return Job(f"{label}.n{n}", lambda: cli_call(argv), check)


def check_probe(table: np.ndarray, n: int, payload: dict, cover: int | None, wrong: bool = False) -> str | None:
    """Re-derive the probe's verdict from the table: n-th powers by repeated
    multiplication, root counts, and that the returned representatives'
    translates cover the group."""
    order = len(table)
    elems = np.arange(order)
    identity = int(np.flatnonzero((table == elems[None, :]).all(axis=1))[0])
    powers = np.full(order, identity)
    for _ in range(n):
        powers = table[powers, elems]
    image = np.unique(powers)
    counts = np.bincount(powers, minlength=order)
    reps = payload["cover_reps"]
    covered = np.unique(table[np.array(reps, dtype=np.int64)[:, None], image[None, :]]) if reps else image[:0]
    want_order = order + 1 if wrong else order
    if payload["order"] != want_order:
        return f"order {payload['order']}, expected {want_order}"
    if payload["power_image_size"] != len(image):
        return f"power image size {payload['power_image_size']}, expected {len(image)}"
    if payload["identity_root_count"] != int(counts[identity]):
        return f"identity root count {payload['identity_root_count']}, expected {int(counts[identity])}"
    if payload["unique_roots"] != bool((counts <= 1).all()):
        return "unique-roots verdict differs"
    if len(covered) != order or len(reps) != payload["cover_size"]:
        return "cover representatives do not cover the group"
    if payload["cover_exact"] is not True:
        return "cover not certified exact"
    if cover is not None and payload["cover_size"] != cover:
        return f"cover size {payload['cover_size']}, expected {cover}"
    return None


WORKLOADS = {w.name: w for w in (Roundtrip, Scan, Verify, Qprobe)}
