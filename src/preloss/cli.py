"""Command-line front door.

Subcommands: check (parse+typecheck), wpl (weakest pre-loss), refine
(program refinement on a family), datatype (copy-rule refinement),
simulate (forward/backward simulation with healthiness gates) and oracle
(forward-semantics Bayes risk).  ``--json`` switches to a machine-readable
report that is byte-identical for identical inputs and seed; the timings
field holds deterministic operation counters, wall-clock is shown only in
the human output.

Exit codes: 0 success/holds, 1 syntax error, 2 type error, 3 refinement
fails, 4 inconclusive (healthiness gate or loop truncation), 5 internal
error (a failed certificate re-check or another unexpected exception).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from typing import Callable, List, Optional

from . import lp
from . import semantics as _semantics
from .adversary import min_bayes_risk, min_bayes_risk_exhaustive
from .contexts import VarContext, fmt_state
from .exprs import EvalError
from .families import FamilyOptions
from .losses import LossFunction
from .parsing import (
    ParseError, parse_context_file, parse_datatype_file, parse_decls_text,
    parse_loss_text, parse_prior_text, parse_program_file, sniff_kind,
)
from .refinement import (
    Verdict, check_backward_simulation, check_forward_simulation,
    data_refines, program_refines,
)
from .scalars import fmt_scalar
from .semantics import DEFAULT_LOOP_BUDGET, weakest_preloss
from .typecheck import TypecheckError, typecheck_program, validate_datatype

SCHEMA_VERSION = 1

EXIT_OK = 0
EXIT_SYNTAX = 1
EXIT_TYPE = 2
EXIT_FAILS = 3
EXIT_INCONCLUSIVE = 4
EXIT_INTERNAL = 5


class _Inputs:
    """Collects input file digests and the operation-counter baseline."""

    def __init__(self):
        self.digests = {}
        self.baseline = _counters_snapshot()

    def read(self, path: str) -> str:
        with open(path, "rb") as fh:
            data = fh.read()
        self.digests[path] = hashlib.sha256(data).hexdigest()
        return data.decode("utf-8")


def _tables(E: LossFunction) -> List[str]:
    """Each generator's table ("" for 0), in the canonical loss's own order."""
    return [g.table() if not g.is_zero else "" for g in E.gens]


def loss_literal(E: LossFunction) -> str:
    return "\n".join([f"context {E.ctx.pretty()}"]
                     + [f"table: {t}" if t else "table:" for t in _tables(E)])


def _loss_json(E: Optional[LossFunction]):
    if E is None:
        return None
    return {"context": E.ctx.pretty(), "generators": _tables(E)}


def _prior_text(ctx: VarContext, dist) -> str:
    parts = [f"{fmt_state(s)}={w}" for s, w in zip(ctx.states(), dist) if w]
    return " ".join(parts)


def _verdict_json(v: Verdict):
    out = {"kind": v.kind, "checked": v.checked}
    if v.reason:
        out["reason"] = v.reason
    if v.context_name:
        out["at"] = v.context_name
    if v.kind == "fails":
        out["witness_loss"] = _loss_json(v.witness_loss)
        out["witness_prior"] = _prior_text(v.lhs_pre.ctx, v.witness_prior)
        out["lhs"] = fmt_scalar(v.lhs_value)
        out["rhs"] = fmt_scalar(v.rhs_value)
        out["certificate_checked"] = v.certificate_ok()
    if v.loop_notes:
        out["loop_notes"] = list(v.loop_notes)
    if v.squares:
        out["squares"] = [
            {"name": s.name, "kind": s.verdict.kind, "checked": s.verdict.checked}
            for s in v.squares
        ]
    return out


def _verdict_lines(v: Verdict) -> List[str]:
    lines = [f"verdict: {v.kind}" + (f" ({v.reason})" if v.reason else "")]
    if v.context_name:
        lines.append(f"  at: {v.context_name}")
    for s in v.squares:
        lines.append(f"  square {s.name}: {s.verdict.kind}")
    if v.kind == "holds":
        lines.append(f"  checked {v.checked} family losses (holds for this family only)")
    if v.kind == "fails":
        lines.append("  witness loss:")
        lines += [f"    {line}" for line in loss_literal(v.witness_loss).splitlines()]
        lines.append(f"  witness prior: {_prior_text(v.lhs_pre.ctx, v.witness_prior)}")
        lines.append(f"  lhs value: {fmt_scalar(v.lhs_value)}  "
                     f"rhs value: {fmt_scalar(v.rhs_value)}")
        lines.append(f"  certificate re-checked: {v.certificate_ok()}")
    return lines


def _verdict_exit(v: Verdict) -> int:
    return {"holds": EXIT_OK, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}[v.kind]


def _counters_snapshot():
    return {
        "lp_solves": lp.counters["lp_solves"],
        "member_queries": lp.counters["member_queries"],
        "wpl_clauses": _semantics.counters["wpl_clauses"],
    }


def _emit(args, report: dict, started: float, human: Callable[[], List[str]]):
    """Print the report under --json, else the lines ``human()`` builds."""
    if getattr(args, "json", False):
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for line in human():
            print(line)
        print(f"[{time.monotonic() - started:.2f}s elapsed]")


def _report(inputs: _Inputs, command: str, result: dict, base: dict) -> dict:
    now = _counters_snapshot()
    return {
        "schema_version": SCHEMA_VERSION,
        "command": command,
        "inputs": inputs.digests,
        "options": base,
        "result": result,
        "timings": {k: now[k] - inputs.baseline[k] for k in now},
    }


def _load_program(inputs: _Inputs, path: str, expected: Optional[VarContext] = None):
    initial, prog = parse_program_file(inputs.read(path))
    if expected is not None:
        if len(initial.vars) == 0:
            initial = expected
        elif {n: d for n, d in initial.vars} != {n: d for n, d in expected.vars}:
            raise TypecheckError(
                f"{path}: declared vars [{initial.pretty()}] do not match the "
                f"expected context [{expected.pretty()}]")
        else:
            initial = expected
    typecheck_program(prog, initial)
    return initial, prog


def _family_options(args, inputs: _Inputs) -> FamilyOptions:
    opts = FamilyOptions.parse(getattr(args, "family", "") or "")
    extra = []
    for path in getattr(args, "witness", None) or []:
        ctx, gens = parse_loss_text(inputs.read(path))
        extra.append(LossFunction(ctx, tuple(gens)))
    if extra:
        opts = replace(opts, extra=tuple(extra))
    return opts


def _default_budget() -> int:
    value = os.environ.get("PRELOSS_LOOP_BUDGET", str(DEFAULT_LOOP_BUDGET))
    try:
        return int(value)
    except ValueError:
        raise ValueError(f"PRELOSS_LOOP_BUDGET must be an integer, got {value!r}") from None


# ----------------------------------------------------------------- commands

def cmd_check(args) -> int:
    inputs = _Inputs()
    text = inputs.read(args.file)
    kind = sniff_kind(text)
    if kind == "datatype":
        d = parse_datatype_file(text, name=args.file)
        validate_datatype(d)
        print(f"ok: datatype with shared [{d.shared.pretty()}], "
              f"encapsulated [{d.encap.pretty()}], ops {list(d.op_names())}")
    elif kind == "context":
        c = parse_context_file(text, name=args.file)
        print(f"ok: program context with client [{c.client.pretty()}]")
    elif kind == "loss":
        ctx, gens = parse_loss_text(text)
        print(f"ok: loss function with {len(gens)} generators over [{ctx.pretty()}]")
    else:
        initial, prog = parse_program_file(text)
        post = typecheck_program(prog, initial)
        print(f"ok: program [{initial.pretty()}] -> [{post.pretty()}]")
    return EXIT_OK


def cmd_wpl(args) -> int:
    started = time.monotonic()
    inputs = _Inputs()
    initial, prog = _load_program(inputs, args.file)
    lctx, gens = parse_loss_text(inputs.read(args.post))
    ext = parse_decls_text(args.ext) if args.ext else VarContext(())
    post = LossFunction(lctx, tuple(gens))
    res = weakest_preloss(prog, post, ext, args.loop_budget)
    loops = {k: f"{v.kind}({v.n})" for k, v in sorted(res.loop_status.items())}
    result = {"pre_loss": _loss_json(res.pre), "loops": loops,
              "truncated": res.truncated}
    human = ["pre-loss (canonical generators):"]
    human += ["  " + line for line in loss_literal(res.pre).splitlines()]
    for k, v in loops.items():
        human.append(f"loop {k}: {v}")
    if res.truncated:
        human.append("warning: truncated loops give a refinement lower bound only")
    _emit(args, _report(inputs, "wpl", result,
                        {"ext": args.ext or "", "loop_budget": args.loop_budget}),
          started, lambda: human)
    return EXIT_OK


def cmd_refine(args) -> int:
    started = time.monotonic()
    inputs = _Inputs()
    initial_p, p = _load_program(inputs, args.p)
    _initial_q, q = _load_program(inputs, args.q, expected=initial_p)
    ext = parse_decls_text(args.ext) if args.ext else VarContext(())
    opts = _family_options(args, inputs)
    verdict = program_refines(p, q, opts, ext, args.loop_budget)
    _emit(args, _report(inputs, "refine", _verdict_json(verdict),
                        {"family": args.family or "", "ext": args.ext or "",
                         "loop_budget": args.loop_budget}),
          started, lambda: _verdict_lines(verdict))
    return _verdict_exit(verdict)


def cmd_datatype(args) -> int:
    started = time.monotonic()
    inputs = _Inputs()
    da = parse_datatype_file(inputs.read(args.abstract), name=args.abstract)
    dc = parse_datatype_file(inputs.read(args.concrete), name=args.concrete)
    contexts = [parse_context_file(inputs.read(p), name=p) for p in args.context]
    opts = _family_options(args, inputs)
    verdict = data_refines(da, dc, contexts, opts, args.loop_budget)
    _emit(args, _report(inputs, "datatype", _verdict_json(verdict),
                        {"family": args.family or "", "loop_budget": args.loop_budget}),
          started, lambda: _verdict_lines(verdict))
    return _verdict_exit(verdict)


def cmd_simulate(args) -> int:
    started = time.monotonic()
    inputs = _Inputs()
    da = parse_datatype_file(inputs.read(args.abstract), name=args.abstract)
    dc = parse_datatype_file(inputs.read(args.concrete), name=args.concrete)
    expected = da.encap if args.direction == "forward" else dc.encap
    _rep_ctx, rep = _load_program(inputs, args.rep, expected=expected)
    opts = _family_options(args, inputs)
    if args.direction == "forward":
        verdict = check_forward_simulation(da, dc, rep, opts, args.loop_budget)
    else:
        verdict = check_backward_simulation(da, dc, rep, opts, args.loop_budget)
    _emit(args, _report(inputs, f"simulate --{args.direction}",
                        _verdict_json(verdict),
                        {"family": args.family or "", "loop_budget": args.loop_budget}),
          started, lambda: _verdict_lines(verdict))
    return _verdict_exit(verdict)


def cmd_oracle(args) -> int:
    started = time.monotonic()
    inputs = _Inputs()
    initial, prog = _load_program(inputs, args.file)
    lctx, gens = parse_loss_text(inputs.read(args.post))
    post = LossFunction(lctx, tuple(gens))
    prior = parse_prior_text(initial, args.prior)
    risk = min_bayes_risk(prog, prior, post)
    result = {"risk": fmt_scalar(risk)}
    human = [f"optimal adversary risk: {fmt_scalar(risk)}"]
    if args.exhaustive:
        exhaustive = min_bayes_risk_exhaustive(prog, prior, post)
        result["exhaustive"] = fmt_scalar(exhaustive)
        result["agrees"] = exhaustive == risk
        human.append(f"exhaustive strategy enumeration: {fmt_scalar(exhaustive)} "
                     f"(agrees: {exhaustive == risk})")
    _emit(args, _report(inputs, "oracle", result,
                        {"prior": args.prior, "exhaustive": bool(args.exhaustive)}),
          started, lambda: human)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="preloss",
        description="Exact analyzer for probabilistic programs with hidden "
                    "state: weakest pre-loss, refinement, simulations.")
    sub = ap.add_subparsers(dest="command", required=True)

    def common(p, family=True):
        p.add_argument("--loop-budget", type=int, default=None,
                       help="loop budget (default: $PRELOSS_LOOP_BUDGET or "
                            f"{DEFAULT_LOOP_BUDGET})")
        p.add_argument("--json", action="store_true")
        if family:
            p.add_argument("--family", default="",
                           help="family spec, e.g. 'k=2,random=50,seed=7'")
            p.add_argument("--witness", action="append",
                           help="loss literal file added to the family")

    p = sub.add_parser("check", help="parse and typecheck a file")
    p.add_argument("file")
    p.set_defaults(fn=cmd_check)

    p = sub.add_parser("wpl", help="compute a weakest pre-loss")
    p.add_argument("file")
    p.add_argument("--post", required=True, help="post loss literal file")
    p.add_argument("--ext", default="", help="correlated context, e.g. 'z : {0,1}'")
    common(p, family=False)
    p.set_defaults(fn=cmd_wpl)

    p = sub.add_parser("refine", help="check program refinement on a family")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--ext", default="")
    common(p)
    p.set_defaults(fn=cmd_refine)

    p = sub.add_parser("datatype", help="check datatype refinement via the copy rule")
    p.add_argument("abstract")
    p.add_argument("concrete")
    p.add_argument("--context", action="append", required=True)
    common(p)
    p.set_defaults(fn=cmd_datatype)

    p = sub.add_parser("simulate", help="verify a forward/backward simulation")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--forward", dest="direction", action="store_const", const="forward")
    group.add_argument("--backward", dest="direction", action="store_const", const="backward")
    p.add_argument("abstract")
    p.add_argument("concrete")
    p.add_argument("--rep", required=True)
    common(p)
    p.set_defaults(fn=cmd_simulate)

    p = sub.add_parser("oracle", help="forward-semantics optimal adversary risk")
    p.add_argument("file")
    p.add_argument("--post", required=True)
    p.add_argument("--prior", default="uniform")
    p.add_argument("--exhaustive", action="store_true")
    common(p, family=False)
    p.set_defaults(fn=cmd_oracle)

    return ap


_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[List[str]] = None) -> int:
    global _parser
    if _parser is None:  # built on first use: building it costs 20 times a parse
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        if "loop_budget" in vars(args) and args.loop_budget is None:
            args.loop_budget = _default_budget()
        return args.fn(args)
    except ParseError as exc:
        print(f"syntax error: {exc}", file=sys.stderr)
        return EXIT_SYNTAX
    except (TypecheckError, EvalError) as exc:
        print(f"type error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TYPE
    except Exception as exc:  # a defect, e.g. a certificate that fails its re-check
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
