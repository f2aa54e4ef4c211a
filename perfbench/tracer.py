"""Boundary tracer: times calls into each module's public functions from outside.

``Tracer.install()`` replaces each listed function at every module of the
``mekler`` package that binds it (modules import names with
``from .x import y``, so one replacement is not enough), and wraps the
listed classes at ``__init__`` and the listed methods on their class.  A
boundary that no longer exists is reported as absent instead of failing.

Calls are recorded only while a job is open.  Each job is a root span with
a job id; every wrapped call becomes a span with its name, start, end and
parent span, kept in memory until the run writes them out.  The hot
per-operation boundaries are aggregated as counts and self time only.
Self time is a span's duration minus the durations of the wrapped calls it
contains.
"""

from __future__ import annotations

import functools
import importlib
import sys
from time import perf_counter

BOUNDARIES = (
    "graphs.build_fragment",
    "graphs.check_nice",
    "graphs.pair_swap_automorphism",
    "group.GroupContext",
    "group.mul",
    "group.commutator_vector",
    "group.commutation_matrix",
    "group.centralizer_dim_mod_center",
    "group.InducedAutomorphism",
    "group.InducedAutomorphism.apply",
    "fplinear.kernel_intersection_dim",
    "fplinear.kernel_basis",
    "fplinear.kernel_dim",
    "extension.ext_mul",
    "extension.ext_inv",
    "extension.in_base_by_power_formula",
    "subgroup.assess_adequacy",
    "subgroup.centralizer_dim_in_subgroup",
    "subgroup.natural_vertex_like_by_dimension",
    "subgroup.verify_index_p",
    "subgroup.center_of_subgroup_check",
    "formulas.up_edge_formula",
    "formulas.down_edge_formula",
    "formulas.full_coset_oracle",
    "kernels.scan_group_bound",
    "kernels.scan_subgroup_dichotomy",
    "kernels.element_dims",
    "interpret.roundtrip",
    "interpret.recover_graph_up",
    "interpret.recover_graph_down",
    "cayley.FiniteGroup",
    "cayley.from_permutation_generators",
    "cayley.parse_cayley_text",
    "cayley.parse_permutation_text",
    "cayley.power_image",
    "cayley.has_unique_roots",
    "cayley.covering_report",
    "cayley.covering_number",
    "verify.verify_lemmas",
    "cli.main",
)

HOT = frozenset({"group.mul", "group.commutator_vector", "extension.ext_mul", "group.InducedAutomorphism.apply"})


def _arg(args, kwargs, index, name):
    return args[index] if len(args) > index else kwargs.get(name)


def _count_central_pairs(tr, res, args, kwargs):
    tr.add("group.GroupContext.central_pairs", len(getattr(args[0], "central_basis", ())))


def _count_rows(tr, res, args, kwargs):
    mats = _arg(args, kwargs, 0, "matrices") or ()
    tr.add("fplinear.kernel_intersection_dim.rows", sum(len(getattr(m, "rows", ())) for m in mats))


def _count_true(name):
    def extra(tr, res, args, kwargs):
        tr.add(name, 1 if res else 0)

    return extra


def _count_scan(tr, res, args, kwargs):
    tr.add("kernels.elements_checked", getattr(res, "elements_checked", 0))
    tr.add("kernels.members_checked", getattr(res, "members_checked", 0))


# Counters read when a boundary returns: boundary name -> hook(tracer, result, args, kwargs).
EXTRAS = {
    "group.GroupContext": _count_central_pairs,
    "fplinear.kernel_intersection_dim": _count_rows,
    "subgroup.natural_vertex_like_by_dimension": _count_true("subgroup.natural_vertex_like_by_dimension.kept"),
    "formulas.up_edge_formula": _count_true("formulas.up_edge_formula.true"),
    "formulas.down_edge_formula": _count_true("formulas.down_edge_formula.true"),
    "kernels.scan_group_bound": _count_scan,
    "kernels.scan_subgroup_dichotomy": _count_scan,
}


class Tracer:
    def __init__(self):
        self.stats: dict[str, list] = {name: [0, 0.0] for name in BOUNDARIES}  # calls, self seconds
        self.counters: dict[str, int] = {}
        self.spans: list[tuple] = []  # (span id, parent id, job id, name, start, end)
        self.absent: list[str] = []
        self.stack: list[list] = []  # open frames: [child seconds, nearest stored span id]
        self.jobs = 0
        self.next_id = 0

    def add(self, name: str, value: int) -> None:
        self.counters[name] = self.counters.get(name, 0) + value

    # --- installation ---------------------------------------------------------

    def install(self) -> None:
        for name in BOUNDARIES:
            mod_name, _, path = name.partition(".")
            try:
                module = importlib.import_module(f"mekler.{mod_name}")
            except ImportError:
                self.absent.append(name)
                continue
            head, _, method = path.partition(".")
            target = getattr(module, head, None)
            if target is None or (method and not hasattr(target, method)):
                self.absent.append(name)
            elif method:
                setattr(target, method, self._wrap(name, getattr(target, method)))
            elif isinstance(target, type):
                target.__init__ = self._wrap(name, target.__init__)
            else:
                wrapper = self._wrap(name, target)
                for mod in list(sys.modules.values()):
                    if mod is None or not (mod.__name__ == "mekler" or mod.__name__.startswith("mekler.")):
                        continue
                    for attr, value in list(vars(mod).items()):
                        if value is target:
                            setattr(mod, attr, wrapper)

    def _wrap(self, name, fn):
        stats = self.stats[name]
        hot = name in HOT
        extra = EXTRAS.get(name)
        stack = self.stack
        spans = self.spans

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not stack:  # outside a job: not recorded
                return fn(*args, **kwargs)
            parent = stack[-1]
            if hot:
                frame = [0.0, parent[1]]
            else:
                self.next_id += 1
                frame = [0.0, self.next_id]
            stack.append(frame)
            t0 = perf_counter()
            try:
                res = fn(*args, **kwargs)
            finally:
                t1 = perf_counter()
                stack.pop()
                stats[0] += 1
                stats[1] += t1 - t0 - frame[0]
                parent[0] += t1 - t0
                if not hot:
                    spans.append((frame[1], parent[1], self.jobs, name, t0, t1))
            if extra is not None:
                extra(self, res, args, kwargs)
            return res

        return wrapper

    # --- jobs -------------------------------------------------------------------

    def begin_job(self) -> None:
        self.jobs += 1
        self.next_id += 1
        self.stack.append([0.0, self.next_id])
        self._job_start = perf_counter()

    def end_job(self, label: str) -> None:
        frame = self.stack.pop()
        self.stack.clear()
        self.spans.append((frame[1], None, self.jobs, f"job:{label}", self._job_start, perf_counter()))

    # --- results ----------------------------------------------------------------

    def metrics(self) -> dict[str, float]:
        """Per-job calls and self milliseconds per boundary, plus the ratios
        and per-call counters read at the boundaries."""
        jobs = max(self.jobs, 1)
        out = {}
        for name in BOUNDARIES:
            calls, self_s = self.stats[name]
            out[f"{name}.calls"] = calls / jobs
            out[f"{name}.self_ms"] = self_s * 1000.0 / jobs
        c = self.counters

        def ratio(num, den):
            return c.get(num, 0) / self.stats[den][0] if self.stats[den][0] else 0.0

        out["group.GroupContext.central_pairs"] = ratio("group.GroupContext.central_pairs", "group.GroupContext")
        out["fplinear.kernel_intersection_dim.rows"] = ratio(
            "fplinear.kernel_intersection_dim.rows", "fplinear.kernel_intersection_dim"
        )
        out["subgroup.natural_vertex_like_by_dimension.kept_ratio"] = ratio(
            "subgroup.natural_vertex_like_by_dimension.kept", "subgroup.natural_vertex_like_by_dimension"
        )
        out["formulas.up_edge_formula.true_ratio"] = ratio("formulas.up_edge_formula.true", "formulas.up_edge_formula")
        out["formulas.down_edge_formula.true_ratio"] = ratio(
            "formulas.down_edge_formula.true", "formulas.down_edge_formula"
        )
        out["kernels.elements_checked"] = c.get("kernels.elements_checked", 0) / jobs
        out["kernels.members_checked"] = c.get("kernels.members_checked", 0) / jobs
        return out

    def dump(self) -> dict:
        return {
            "jobs": self.jobs,
            "absent": self.absent,
            "stats": {name: {"calls": s[0], "self_s": s[1]} for name, s in self.stats.items()},
            "counters": self.counters,
            "span_fields": ["id", "parent", "job", "name", "start", "end"],
            "spans": self.spans,
        }
