"""Outside-in per-module trace of ``preloss``, installed from the benchmark.

Nothing under ``src/`` knows about this module.  ``Tracer.install`` replaces
the public functions of each traced ``preloss`` module (and the listed class
attributes) by wrappers that time every call.  A name imported with
``from .losses import loss_add`` is a second binding of the same function in
the importing module, so every binding found in any ``preloss`` module is
rebound, not only the defining one.

Each wrapped call is a span.  Its self time is its duration minus the
durations of the wrapped calls it made; time spent in untraced helpers
(``predicates``, ``contexts``, ``scalars``, ...) stays with the caller.  Only
per-key aggregates are kept in memory, because hot keys such as
``Transformer.apply`` open hundreds of thousands of spans in one pass.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, Optional

# The modules whose public functions are wrapped, one layer each.
MODULES = ("parsing", "typecheck", "families", "refinement", "semantics",
           "losses", "kernels", "lp", "adversary", "cli")

# Public methods reached as class attributes rather than module globals.
CLASS_ATTRS = {
    "kernels": {"Kernel": ("compose", "tensor", "dual", "dual_apply"),
                "Transformer": ("apply", "compose", "tensor")},
    "refinement": {"Verdict": ("certificate_ok",)},
}

# Counts that must repeat exactly between two traced runs of the same inputs.
EXACT_COUNTS = ("lp.lp_solves", "lp.member_queries", "semantics.wpl_clauses",
                "losses.canonicalize.gens_in", "losses.canonicalize.gens_out")


class Tracer:
    def __init__(self):
        self.self_s: Dict[str, float] = defaultdict(float)
        self.total_s: Dict[str, float] = defaultdict(float)  # self plus children
        self.calls: Counter = Counter()
        self.counts: Counter = Counter()
        self.maxima: Counter = Counter()
        self._stack = []

    # ------------------------------------------------------------ recording
    def _wrap(self, key: str, fn: Callable, observe: Optional[Callable]) -> Callable:
        stack, clock = self._stack, time.perf_counter
        self_s, total_s, calls = self.self_s, self.total_s, self.calls

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            frame = [0.0]  # time covered by this span's child spans
            stack.append(frame)
            start = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][0] += elapsed
                self_s[key] += elapsed - frame[0]
                total_s[key] += elapsed
                calls[key] += 1
            if observe is not None:
                observe(args, result)
            return result

        return traced

    def _observers(self) -> Dict[str, Callable]:
        counts, maxima = self.counts, self.maxima

        def canonicalize(args, result):
            counts["losses.canonicalize.gens_in"] += len(args[0].gens)
            counts["losses.canonicalize.gens_out"] += len(result.gens)
            maxima["losses.canonicalize.max_gens"] = max(
                maxima["losses.canonicalize.max_gens"], len(result.gens))

        def cover(args, result):
            counts["lp.member_answers"] += bool(result.member)
            maxima["lp.cover_cells_max"] = max(
                maxima["lp.cover_cells_max"], len(args[0]) * len(args[1]))

        def family(args, result):
            counts["families.entries"] += len(result)

        def refines(args, result):
            counts["refinement.entries_checked"] += result.checked

        def wpl(args, result):
            counts["semantics.loop_terms"] += sum(s.n for s in result.loop_status.values())

        def choice_points(args, result):
            counts["adversary.choice_points"] += len(result)

        return {"losses.loss_canonicalize": canonicalize, "lp.convex_cover": cover,
                "families.resolve_family": family, "refinement.program_refines": refines,
                "semantics.weakest_preloss": wpl, "adversary.choice_points": choice_points}

    # ----------------------------------------------------------- installing
    def install(self) -> None:
        """Wrap every public function of MODULES and rebind all its bindings."""
        observers = self._observers()
        mods = {name: sys.modules[f"preloss.{name}"] for name in MODULES}
        wrapped = {}
        for name, mod in mods.items():
            for attr, value in list(vars(mod).items()):
                if (callable(value) and not attr.startswith("_") and not isinstance(value, type)
                        and getattr(value, "__module__", None) == mod.__name__):
                    key = f"{name}.{attr}"
                    wrapped[value] = self._wrap(key, value, observers.get(key))
            for cls_name, attrs in CLASS_ATTRS.get(name, {}).items():
                cls = getattr(mod, cls_name)
                for attr in attrs:
                    fn = cls.__dict__[attr]
                    setattr(cls, attr, self._wrap(f"{name}.{cls_name}.{attr}", fn, None))
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == "preloss" or mod_name.startswith("preloss.")):
                continue
            for attr, value in list(vars(mod).items()):
                try:
                    replacement = wrapped.get(value)
                except TypeError:  # unhashable module attribute
                    continue
                if replacement is not None:
                    setattr(mod, attr, replacement)

    # ------------------------------------------------------------ reporting
    def reset(self) -> None:
        """Forget everything recorded; the wrappers keep these same objects."""
        for table in (self.self_s, self.total_s, self.calls, self.counts, self.maxima):
            table.clear()

    def merge(self, other: dict, counts: bool) -> None:
        """Add a child process's ``snapshot()``; counts only if it finished."""
        for key, value in other["self_s"].items():
            self.self_s[key] += value
        for key, value in other["total_s"].items():
            self.total_s[key] += value
        if counts:
            self.calls.update(other["calls"])
            self.counts.update(other["counts"])
            for key, value in other["maxima"].items():
                self.maxima[key] = max(self.maxima[key], value)

    def snapshot(self) -> dict:
        return {"self_s": dict(self.self_s), "total_s": dict(self.total_s),
                "calls": dict(self.calls),
                "counts": dict(self.counts), "maxima": dict(self.maxima)}

    def module_self_s(self) -> Dict[str, float]:
        out = {name: 0.0 for name in MODULES}
        for key, value in self.self_s.items():
            out[key.split(".", 1)[0]] += value
        return out

    def layer_metrics(self, passes: int) -> Dict[str, dict]:
        """Per-layer metrics as in BENCHMARK.json, per pass over ``passes`` passes.

        Times and counts are divided by ``passes``; maxima and shares are not.
        """
        s, c, n = self.self_s, self.calls, self.counts

        def total(*keys):
            return sum(s.get(k, 0.0) for k in keys)

        def count(*keys):
            return sum(c.get(k, 0) for k in keys)

        mod = self.module_self_s()
        queries = n.get("lp.member_queries", 0)
        raw = {
            "parsing.self_s": mod["parsing"],
            "parsing.calls": sum(v for k, v in c.items() if k.startswith("parsing.")),
            "typecheck.self_s": mod["typecheck"],
            "typecheck.calls": count("typecheck.typecheck_program", "typecheck.inline",
                                     "typecheck.validate_datatype"),
            "families.self_s": mod["families"],
            "families.entries": n.get("families.entries", 0),
            "refinement.self_s": mod["refinement"],
            "refinement.entries_checked": n.get("refinement.entries_checked", 0),
            "refinement.certificate_s": self.total_s.get("refinement.Verdict.certificate_ok",
                                                         0.0),
            "semantics.self_s": mod["semantics"],
            "semantics.wpl_calls": count("semantics.weakest_preloss"),
            "semantics.wpl_clauses": n.get("semantics.wpl_clauses", 0),
            "semantics.loop_terms": n.get("semantics.loop_terms", 0),
            "losses.self_s": mod["losses"],
            "losses.canonicalize.self_s": total("losses.loss_canonicalize"),
            "losses.canonicalize.calls": count("losses.loss_canonicalize"),
            "losses.canonicalize.gens_in": n.get("losses.canonicalize.gens_in", 0),
            "losses.canonicalize.gens_out": n.get("losses.canonicalize.gens_out", 0),
            "losses.canonicalize.max_gens": self.maxima.get("losses.canonicalize.max_gens", 0),
            "losses.add.self_s": total("losses.loss_add"),
            "losses.conj.self_s": total("losses.loss_conj"),
            "losses.map.self_s": total("losses.loss_map"),
            "losses.min.self_s": total("losses.loss_min"),
            "losses.is_zero.self_s": total("losses.is_zero_loss"),
            "losses.member.self_s": total("losses.loss_member", "losses.loss_member_certified",
                                          "losses.loss_refines", "losses.loss_equal"),
            "kernels.self_s": mod["kernels"],
            "kernels.apply.self_s": total("kernels.Transformer.apply"),
            "kernels.apply.calls": count("kernels.Transformer.apply"),
            "kernels.compose.self_s": total("kernels.Transformer.compose",
                                            "kernels.Kernel.compose"),
            "lp.self_s": mod["lp"],
            "lp.convex_cover.self_s": total("lp.convex_cover"),
            "lp.member_queries": queries,
            "lp.lp_solves": n.get("lp.lp_solves", 0),
            "lp.member_share": n.get("lp.member_answers", 0) / queries if queries else 0.0,
            "lp.cover_cells_max": self.maxima.get("lp.cover_cells_max", 0),
            "lp.certificate.self_s": total("lp.check_cover", "lp.check_separation"),
            "adversary.self_s": mod["adversary"],
            "adversary.calls": sum(v for k, v in c.items() if k.startswith("adversary.")),
            "adversary.choice_points": n.get("adversary.choice_points", 0),
            "cli.self_s": mod["cli"],
        }
        out = {}
        for name, value in raw.items():
            if name.endswith("_s"):
                out[name] = {"value": value / passes, "unit": "s"}
            elif name.endswith("_share"):
                out[name] = {"value": value, "unit": "ratio"}
            elif name.endswith("_max") or name.endswith("max_gens"):
                out[name] = {"value": value, "unit": "count"}
            else:
                out[name] = {"value": value / passes, "unit": "count"}
        return out
