"""Command-line front door.

Subcommands: check (parse+typecheck), wpl (weakest pre-loss), refine
(program refinement on a family), datatype (copy-rule refinement),
simulate (forward/backward simulation with healthiness gates) and oracle
(forward-semantics Bayes risk).  ``--json`` switches to a machine-readable
report that is byte-identical for identical inputs and seed; the timings
field holds deterministic operation counters (``wpl_clauses``: statements
``wpl`` evaluated, none for a part mapped by its history transformers),
wall-clock is shown only in the human output.

One runner, ``_run_report``, makes the report of every subcommand but
check and is the request boundary: it takes the start time and the counter
baseline, hands the command an ``_Inputs`` that digests each file it reads,
and prints the command's outcome once.  Commands only compute.

Exit codes: 0 success/holds, 1 syntax error, 2 type error, 3 refinement
fails, 4 inconclusive (healthiness gate, loop truncation or family cap), 5
internal error (a failed certificate re-check or an unexpected exception).
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
from dataclasses import replace
from typing import List, Optional

from . import lp
from . import semantics as _semantics
from .adversary import min_bayes_risk, min_bayes_risk_exhaustive
from .contexts import EMPTY, VarContext
from .exprs import EvalError
from .families import FamilyCapError, FamilyOptions
from .losses import LossFunction
from .parsing import (
    ParseError, parse_context_file, parse_datatype_file, parse_decls_text,
    parse_loss_text, parse_prior_text, parse_program_file, sniff_kind,
)
from .predicates import Predicate
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
    """Reads input files and collects their digests."""

    def __init__(self):
        self.digests = {}

    def read(self, path: str) -> str:
        with open(path, "rb") as fh:
            data = fh.read()
        self.digests[path] = hashlib.sha256(data).hexdigest()
        return data.decode("utf-8")


def _loss_json(E: LossFunction) -> dict:
    """The context and each generator's table ("" for 0), in the canonical
    loss's own order."""
    return {"context": E.ctx.pretty(),
            "generators": [g.table() if not g.is_zero else "" for g in E.gens]}


def _loss_lines(loss: dict) -> List[str]:
    """A ``_loss_json`` dict as the lines of a loss literal."""
    return ([f"context {loss['context']}"]
            + [f"table: {t}" if t else "table:" for t in loss["generators"]])


def _verdict_json(v: Verdict):
    out = {"kind": v.kind, "checked": v.checked}
    if v.reason:
        out["reason"] = v.reason
    if v.context_name:
        out["at"] = v.context_name
    if v.kind == "fails":
        out["witness_loss"] = _loss_json(v.witness_loss)
        out["witness_prior"] = Predicate.from_entries(v.lhs_pre.ctx, v.witness_prior).table()
        out["lhs"] = fmt_scalar(v.lhs_value)
        out["rhs"] = fmt_scalar(v.rhs_value)
        out["certificate_checked"] = v.certificate_ok()
    if v.loop_notes:
        out["loop_notes"] = list(v.loop_notes)
    if v.squares:
        out["squares"] = [{"name": s.context_name, "kind": s.kind, "checked": s.checked}
                          for s in v.squares]
    return out


def _verdict_lines(result: dict) -> List[str]:
    """The human lines of a ``_verdict_json`` result."""
    kind = result["kind"]
    lines = [f"verdict: {kind}" + (f" ({result['reason']})" if "reason" in result else "")]
    if "at" in result:
        lines.append(f"  at: {result['at']}")
    for s in result.get("squares", ()):
        lines.append(f"  square {s['name']}: {s['kind']}")
    if kind == "holds":
        lines.append(f"  checked {result['checked']} family losses (holds for this family only)")
    if kind == "fails":
        lines.append("  witness loss:")
        lines += [f"    {line}" for line in _loss_lines(result["witness_loss"])]
        lines.append(f"  witness prior: {result['witness_prior']}")
        lines.append(f"  lhs value: {result['lhs']}  rhs value: {result['rhs']}")
        lines.append(f"  certificate re-checked: {result['certificate_checked']}")
    return lines


def _counters_snapshot():
    return {
        "lp_solves": lp.counters["lp_solves"],
        "member_queries": lp.counters["member_queries"],
        "wpl_clauses": _semantics.counters["wpl_clauses"],
    }


def _verdict_outcome(args, v: Verdict) -> tuple:
    command = f"simulate --{args.direction}" if args.command == "simulate" else args.command
    options = {"family": args.family or "", **({"ext": args.ext or ""} if "ext" in args else {}),
               "loop_budget": args.loop_budget}
    exit_code = {"holds": EXIT_OK, "fails": EXIT_FAILS, "inconclusive": EXIT_INCONCLUSIVE}[v.kind]
    result = _verdict_json(v)
    return command, result, options, lambda: _verdict_lines(result), exit_code


def _run_report(args) -> int:
    """Run every subcommand but ``check``: the one place a request starts and ends.

    ``args.fn(args, inputs)`` returns the outcome ``(command, result,
    options, human, exit_code)``.  The counters are read before the first
    input and after the result is built; ``human()`` builds the lines
    printed without --json, so --json never builds them.
    """
    started = time.monotonic()
    baseline = _counters_snapshot()
    inputs = _Inputs()
    try:
        command, result, options, human, exit_code = args.fn(args, inputs)
    except FamilyCapError as exc:  # a resource limit: the verdict is inconclusive
        command, result, options, human, exit_code = _verdict_outcome(args, Verdict(
            kind="inconclusive", reason=f"the family's {exc}; --family k=1 builds none"))
    if args.json:
        now = _counters_snapshot()
        report = {"schema_version": SCHEMA_VERSION, "command": command,
                  "inputs": inputs.digests, "options": options, "result": result,
                  "timings": {k: now[k] - baseline[k] for k in now}}
        print(json.dumps(report, indent=2, sort_keys=False))
    else:
        for line in human():
            print(line)
        print(f"[{time.monotonic() - started:.2f}s elapsed]")
    return exit_code


def _load_program(inputs: _Inputs, path: str, expected: Optional[VarContext] = None):
    """Parse ``path``, then typecheck it or only match its declared vars to ``expected``."""
    initial, prog = parse_program_file(inputs.read(path))
    if expected is None:
        typecheck_program(prog, initial)
    elif initial.vars and dict(initial.vars) != dict(expected.vars):
        raise TypecheckError(
            f"{path}: declared vars [{initial.pretty()}] do not match the "
            f"expected context [{expected.pretty()}]")
    return initial, prog


def _family_options(args, inputs: _Inputs) -> FamilyOptions:
    opts = FamilyOptions.parse(args.family)
    extra = []
    for path in args.witness or []:
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
    text = _Inputs().read(args.file)
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


def cmd_wpl(args, inputs: _Inputs) -> tuple:
    initial, prog = _load_program(inputs, args.file)
    lctx, gens = parse_loss_text(inputs.read(args.post))
    ext = parse_decls_text(args.ext) if args.ext else EMPTY
    post = LossFunction(lctx, tuple(gens))
    res = weakest_preloss(prog, post, ext, args.loop_budget)
    loops = {k: f"{v.kind}({v.n})" for k, v in sorted(res.loop_status.items())}
    result = {"pre_loss": _loss_json(res.pre), "loops": loops,
              "truncated": res.truncated}
    human = ["pre-loss (canonical generators):"]
    human += ["  " + line for line in _loss_lines(result["pre_loss"])]
    for k, v in loops.items():
        human.append(f"loop {k}: {v}")
    if res.truncated:
        human.append("warning: truncated loops give a refinement lower bound only")
    options = {"ext": args.ext or "", "loop_budget": args.loop_budget}
    return "wpl", result, options, lambda: human, EXIT_OK


def cmd_refine(args, inputs: _Inputs) -> tuple:
    initial_p, p = _load_program(inputs, args.p)
    q = _load_program(inputs, args.q, expected=initial_p)[1]
    typecheck_program(q, initial_p)
    ext = parse_decls_text(args.ext) if args.ext else EMPTY
    opts = _family_options(args, inputs)
    return _verdict_outcome(args, program_refines(p, q, opts, ext, args.loop_budget))


def cmd_datatype(args, inputs: _Inputs) -> tuple:
    da = parse_datatype_file(inputs.read(args.abstract), name=args.abstract)
    dc = parse_datatype_file(inputs.read(args.concrete), name=args.concrete)
    contexts = [parse_context_file(inputs.read(p), name=p) for p in args.context]
    opts = _family_options(args, inputs)
    return _verdict_outcome(args, data_refines(da, dc, contexts, opts, args.loop_budget))


def cmd_simulate(args, inputs: _Inputs) -> tuple:
    da = parse_datatype_file(inputs.read(args.abstract), name=args.abstract)
    dc = parse_datatype_file(inputs.read(args.concrete), name=args.concrete)
    forward = args.direction == "forward"
    rep = _load_program(inputs, args.rep, da.encap if forward else dc.encap)[1]
    opts = _family_options(args, inputs)
    check = check_forward_simulation if forward else check_backward_simulation
    return _verdict_outcome(args, check(da, dc, rep, opts, args.loop_budget))


def cmd_oracle(args, inputs: _Inputs) -> tuple:
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
    options = {"prior": args.prior, "exhaustive": bool(args.exhaustive)}
    return "oracle", result, options, lambda: human, EXIT_OK


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
    p.add_argument("--json", action="store_true")  # the oracle runs no loop: no budget
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
        return args.fn(args) if args.command == "check" else _run_report(args)
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
