"""Typechecking and elaboration: context flow, kernel construction, guard
validation, syntactic classifiers, and datatype inlining (the copy rule).

Typechecking annotates each node's ``meta`` with pre/post contexts and the
elaborated kernels/guards the evaluator consumes.  Contexts are finite, so
every expression is evaluated at every state up front: all type errors
(unbound names, bad guard ranges, arity mismatches) surface here.

Classifiers and inlining visit statements with ``syntax.walk``.  Inlining
edits one copy of the datatype and one of the context body in place,
splicing a copy of an operation's body at each `call`.
"""

from __future__ import annotations

import copy
import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple

from .contexts import Value, VarContext, fmt_value
from .exprs import Bin, EvalError, Index, Lit, Name, TupleE, Unary, evaluate, predicate_of
from .kernels import Kernel
from .syntax import (
    Abort, Assert, Assign, CallOp, Datatype, DistBranch, DistExpr, HidVar, If,
    NonDet, Print, Program, ProgramContext, Skip, Stmt, Unvar, While, sub_programs, walk,
)


class TypecheckError(ValueError):
    def __init__(self, message: str, pos=None):
        if pos:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)
        self.pos = pos


@dataclass(frozen=True)
class ObsKernel:
    """Observation emitter for print: per state, (value index, weight) pairs."""

    values: Tuple[Value, ...]
    rows: Tuple[Tuple[Tuple[int, Fraction], ...], ...]


def clone(node):
    """Deep copy with annotations reset (only source positions survive)."""
    return copy.deepcopy(node)


# ------------------------------------------------------------- distributions

def _branch_weights(dist: DistExpr, pos) -> List[Fraction]:
    if dist.uniform:
        k = len(dist.branches)
        return [Fraction(1, k)] * k
    weights: List[Optional[Fraction]] = [b.weight for b in dist.branches]
    explicit = sum((w for w in weights if w is not None), Fraction(0))
    if explicit > 1:
        raise TypecheckError(f"branch weights sum to {explicit} > 1", pos)
    if weights and weights[-1] is None:
        weights[-1] = Fraction(1) - explicit
    out = []
    for w in weights:
        if w is None or w <= 0:
            raise TypecheckError("every branch needs a positive weight", pos)
        out.append(w)
    return out


def _normalize_value(v: Value) -> Value:
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    if isinstance(v, tuple):
        return tuple(_normalize_value(x) for x in v)
    return v


def eval_dist(dist: DistExpr, ctx: VarContext, pos) -> List[List[Tuple[Value, Fraction]]]:
    """Per pre-state list of (value, weight) outcomes, weights accumulated."""
    weights = _branch_weights(dist, pos)
    rows = []
    for state in ctx.states():
        acc: Dict[Value, Fraction] = {}
        for branch, w in zip(dist.branches, weights):
            try:
                v = evaluate(branch.expr, ctx, state)
            except EvalError as exc:
                raise TypecheckError(f"{exc} (at state {fmt_value(state)})", pos) from None
            v = _normalize_value(v)
            acc[v] = acc.get(v, Fraction(0)) + w
        rows.append(list(acc.items()))
    return rows


def _kernel_of_assign(ctx: VarContext, targets: Tuple[str, ...], dist: DistExpr, pos) -> Kernel:
    positions = [ctx.position_of(t) for t in targets]
    domains = [ctx.domain_of(t) for t in targets]
    rows = []
    for state, outcomes in zip(ctx.states(), eval_dist(dist, ctx, pos)):
        row: Dict[int, Fraction] = {}
        for value, w in outcomes:
            if len(targets) > 1:
                if not isinstance(value, tuple) or len(value) != len(targets):
                    raise TypecheckError(
                        f"assignment to {len(targets)} variables needs a "
                        f"{len(targets)}-tuple, got {fmt_value(value)}", pos)
                parts = value
            else:
                parts = (value,)
            if any(p not in dom for p, dom in zip(parts, domains)):
                continue  # value outside the target domain: abort mass
            new_state = list(state)
            for p, v in zip(positions, parts):
                new_state[p] = v
            idx = ctx.index_of(tuple(new_state))
            row[idx] = row.get(idx, Fraction(0)) + w
        rows.append(row)
    return Kernel.from_rows(ctx, ctx, rows)


def _kernel_of_hidvar(ctx: VarContext, domain: Tuple[Value, ...], dist: DistExpr, pos) -> Kernel:
    target = VarContext((("_new", domain),))
    rows = []
    for outcomes in eval_dist(dist, ctx, pos):
        row: Dict[int, Fraction] = {}
        for value, w in outcomes:
            if value not in domain:
                continue  # outside the declared domain: abort mass
            idx = target.index_of((value,))
            row[idx] = row.get(idx, Fraction(0)) + w
        rows.append(row)
    return Kernel.from_rows(ctx, target, rows)


def _obs_of_print(ctx: VarContext, dist: DistExpr, pos) -> ObsKernel:
    values: List[Value] = []
    index: Dict[Value, int] = {}
    rows = []
    for outcomes in eval_dist(dist, ctx, pos):
        row = []
        for value, w in outcomes:
            if value not in index:
                index[value] = len(values)
                values.append(value)
            row.append((index[value], w))
        rows.append(tuple(row))
    return ObsKernel(tuple(values), tuple(rows))


def _infer_domain(s: HidVar, ctx: VarContext) -> Tuple[Value, ...]:
    dists = s.domain_hint if s.domain_hint is not None else (s.dist,)
    seen: Dict[Value, None] = {}
    for d in dists:
        for outcomes in eval_dist(d, ctx, s.meta.pos):
            for value, _ in outcomes:
                seen.setdefault(value)
    if not seen:
        raise TypecheckError(f"cannot infer a domain for {s.name!r}", s.meta.pos)
    return tuple(seen)


# ----------------------------------------------------------------- programs

def typecheck_program(
    prog: Program,
    initial: VarContext,
    *,
    op_names: Optional[Sequence[str]] = None,
) -> VarContext:
    """Annotate every node with pre/post contexts and elaborations.

    Returns the post context.  ``op_names`` permits `call` holes (used when
    checking a program context standalone; holes preserve the context).
    """
    counter = itertools.count()
    post = _check_program(prog, initial, op_names, counter)
    return post


def _check_program(prog: Program, pre: VarContext, op_names, counter) -> VarContext:
    prog.meta.pre = pre
    ctx = pre
    for s in prog.stmts:
        ctx = _check_stmt(s, ctx, op_names, counter)
    prog.meta.post = ctx
    return ctx


def _check_stmt(s: Stmt, pre: VarContext, op_names, counter) -> VarContext:
    pos = s.meta.pos
    s.meta.pre = pre
    if isinstance(s, (Skip, Abort)):
        post = pre
    elif isinstance(s, Assign):
        if len(set(s.targets)) != len(s.targets):
            raise TypecheckError(f"duplicate assignment targets {s.targets}", pos)
        for t in s.targets:
            if t not in pre:
                raise TypecheckError(f"assignment to undeclared variable {t!r}", pos)
        s.meta.kernel = _kernel_of_assign(pre, s.targets, s.dist, pos)
        post = pre
    elif isinstance(s, HidVar):
        if s.name in pre:
            raise TypecheckError(f"hidvar re-declares {s.name!r}", pos)
        domain = s.domain if s.domain is not None else _infer_domain(s, pre)
        s.meta.kernel = _kernel_of_hidvar(pre, domain, s.dist, pos)
        post = pre.append(s.name, domain)
    elif isinstance(s, Unvar):
        if s.name not in pre:
            raise TypecheckError(f"unvar of undeclared variable {s.name!r}", pos)
        post = pre.remove(s.name)
    elif isinstance(s, If):
        s.meta.guard = _guard_pred(s.guard, pre, pos)
        post_then = _check_program(s.then, pre, op_names, counter)
        post_else = _check_program(s.orelse, pre, op_names, counter)
        if post_then != post_else:
            raise TypecheckError(
                f"if branches end in different contexts: "
                f"[{post_then.pretty()}] vs [{post_else.pretty()}]", pos)
        post = post_then
    elif isinstance(s, While):
        s.meta.guard = _guard_pred(s.guard, pre, pos)
        s.meta.label = f"while#{next(counter)}" + (f"@{pos[0]}:{pos[1]}" if pos else "")
        body_post = _check_program(s.body, pre, op_names, counter)
        if body_post != pre:
            raise TypecheckError(
                f"while body must preserve its context, got [{body_post.pretty()}]", pos)
        post = pre
    elif isinstance(s, Print):
        s.meta.obs = _obs_of_print(pre, s.dist, pos)
        post = pre
    elif isinstance(s, Assert):
        s.meta.guard = _guard_pred(s.guard, pre, pos)
        post = pre
    elif isinstance(s, NonDet):
        post_l = _check_program(s.left, pre, op_names, counter)
        post_r = _check_program(s.right, pre, op_names, counter)
        if post_l != post_r:
            raise TypecheckError(
                f"nondeterministic branches end in different contexts: "
                f"[{post_l.pretty()}] vs [{post_r.pretty()}]", pos)
        post = post_l
    elif isinstance(s, CallOp):
        if op_names is None or s.name not in op_names:
            raise TypecheckError(f"unknown operation hole {s.name!r}", pos)
        post = pre  # operations preserve their working context
    else:
        raise TypecheckError(f"unknown statement {s!r}", pos)
    s.meta.post = post
    return post


def _guard_pred(expr, ctx: VarContext, pos):
    try:
        return predicate_of(ctx, expr, mode="unit")
    except EvalError as exc:
        raise TypecheckError(str(exc), pos) from None


# -------------------------------------------------------------- classifiers

def classify_hidden(prog: Program) -> bool:
    """No if/while/print: the program reveals nothing (assert counts hidden)."""
    return not any(isinstance(s, (If, While, Print)) for s in walk(prog))


def classify_choiceless(prog: Program) -> bool:
    """No nondeterministic choice anywhere."""
    return not any(isinstance(s, NonDet) for s in walk(prog))


# ------------------------------------------------------------------ datatypes

def validate_datatype(d: Datatype) -> VarContext:
    """Check operation signatures; returns the working context S x A."""
    for name, _ in d.encap.vars:
        if name in d.shared:
            raise TypecheckError(f"encapsulated variable {name!r} shadows shared state")
    init_post = typecheck_program(d.init, d.shared)
    expected = {n: dom for n, dom in d.shared.vars} | {n: dom for n, dom in d.encap.vars}
    actual = {n: dom for n, dom in init_post.vars}
    if actual != expected:
        raise TypecheckError(
            f"init must build shared+encapsulated state "
            f"[{d.shared.pretty()} {d.encap.pretty()}], got [{init_post.pretty()}]")
    for name, prog in d.ops:
        post = typecheck_program(prog, init_post)
        if post != init_post:
            raise TypecheckError(
                f"op {name!r} must preserve the working context, got [{post.pretty()}]")
    final_post = typecheck_program(d.final, init_post)
    if {n: dom for n, dom in final_post.vars} != {n: dom for n, dom in d.shared.vars}:
        raise TypecheckError(
            f"final must return to shared state [{d.shared.pretty()}], "
            f"got [{final_post.pretty()}]")
    return init_post


def _declared_names(prog: Program) -> List[str]:
    return [s.name for s in walk(prog) if isinstance(s, HidVar)]


def _rename_expr(e, mapping):
    if isinstance(e, Name):
        return Name(mapping[e.id]) if e.id in mapping else e
    if isinstance(e, Unary):
        return Unary(e.op, _rename_expr(e.operand, mapping))
    if isinstance(e, Bin):
        return Bin(e.op, _rename_expr(e.left, mapping), _rename_expr(e.right, mapping))
    if isinstance(e, Index):
        return Index(_rename_expr(e.base, mapping), _rename_expr(e.index, mapping))
    if isinstance(e, TupleE):
        return TupleE(tuple(_rename_expr(x, mapping) for x in e.items))
    if isinstance(e, Lit):
        return e
    raise TypeError(f"unknown expression {e!r}")


def _rename_dist(d: DistExpr, mapping) -> DistExpr:
    return DistExpr(
        tuple(DistBranch(_rename_expr(b.expr, mapping), b.weight) for b in d.branches),
        uniform=d.uniform,
    )


def _rename(prog: Program, mapping: Dict[str, str]) -> None:
    """Rewrite variable names in place (declaration sites and expression uses)."""
    for s in walk(prog):
        if isinstance(s, Assign):
            s.targets = tuple(mapping.get(t, t) for t in s.targets)
        if isinstance(s, (HidVar, Unvar)):
            s.name = mapping.get(s.name, s.name)
        if isinstance(s, HidVar) and s.domain_hint is not None:
            s.domain_hint = tuple(_rename_dist(d, mapping) for d in s.domain_hint)
        if isinstance(s, (Assign, HidVar, Print)):
            s.dist = _rename_dist(s.dist, mapping)
        if isinstance(s, (If, While, Assert)):
            s.guard = _rename_expr(s.guard, mapping)


def _splice_calls(body: Program, bodies: Dict[str, Program]) -> None:
    """Replace, in place, every `call` in ``body`` by a clone of its operation."""
    progs = [body]
    for s in walk(body):
        if isinstance(s, CallOp) and s.name not in bodies:
            raise TypecheckError(f"unknown operation {s.name!r}", s.meta.pos)
        progs.extend(sub_programs(s))
    for p in progs:
        p.stmts = tuple(t for s in p.stmts
                        for t in (clone(bodies[s.name]).stmts if isinstance(s, CallOp) else (s,)))


def inline(ctx_prog: ProgramContext, d: Datatype) -> Program:
    """The copy rule: init ; body-with-holes-substituted ; final.

    Encapsulated variables (and operation-local declarations) are renamed
    with prime suffixes when they collide with shared or client names; the
    composite is typechecked over shared+client.
    """
    clash = set(ctx_prog.client.names) & set(d.shared.names)
    if clash:
        raise TypecheckError(f"client variables shadow shared state: {sorted(clash)}")

    d = clone(d)
    validate_datatype(d)
    progs = (d.init, *(p for _, p in d.ops), d.final)
    internal = list(dict.fromkeys(
        [*d.encap.names, *(n for p in progs for n in _declared_names(p))]))
    reserved = set(d.shared.names) | set(ctx_prog.client.names) | set(internal)
    atom_names = d.shared.atoms | d.encap.atoms | ctx_prog.client.atoms
    mapping: Dict[str, str] = {}
    for name in internal:
        if name not in ctx_prog.client:
            continue
        candidate = name + "'"
        tries = 0
        while candidate in reserved or candidate in mapping.values():
            tries += 1
            if tries > 100:
                raise TypecheckError(f"cannot find a fresh name for {name!r}")
            candidate = f"{name}'{tries + 1}"
        if candidate in atom_names:
            raise TypecheckError(f"fresh name {candidate!r} would capture an atom")
        mapping[name] = candidate

    for p in progs:
        _rename(p, mapping)
    body = clone(ctx_prog.body)
    _splice_calls(body, dict(d.ops))
    composite = Program(d.init.stmts + body.stmts + d.final.stmts)
    typecheck_program(composite, d.shared.merge(ctx_prog.client))
    return composite
