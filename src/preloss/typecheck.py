"""Typechecking and elaboration: context flow, kernel construction, guard
validation, syntactic classifiers, and datatype inlining (the copy rule).

Typechecking annotates each node's ``meta`` with pre/post contexts and the
elaborated kernels the evaluator consumes.  Contexts are finite, so every
expression is evaluated up front, once per valuation of what it reads
(``exprs.evaluation_points``): all type errors (unbound names, bad guard
ranges, arity mismatches) surface here.  Expressions are compiled once per
context, and branch weights summed as integers over their common denominator.

The statements of ``syntax.KERNEL_STMTS`` elaborate to one kernel from
their pre to their post context (``meta.kernel``).  One builder
(``_kernel``) makes each kernel that draws values: an assignment writes
them into its targets, a `hidvar` into the new variable, a `print` into
one variable of the values it may show (first-met order), and an `unvar`
draws none.  The other post variables keep their pre-state values, at the
indices ``VarContext.layout`` finds.  `skip` is the identity kernel,
`abort` the zero kernel, and an `assert` keeps each state's mass times its
guard; an `if` or `while` shows its guard through a kernel onto the
two-valued ``BRANCH`` context, column 0 the guard and column 1 its
complement.  So every observation is one channel.

A choice whose limbs, through nested choices, are each one `hidvar` of one
name with no declared domain (the brace expansion of `hidvar x := d1 [] ...
[] dk`) declares it over one domain inferred from all limbs.  The same
preorder pass labels each `print`, `if` and `[]` as `pr#n`, `if#n` or `nd#n`
(one counter) and each `while` as `while#n@line:col` (its own counter).

Classifiers visit statements with ``syntax.walk``.  ``validate_datatype``
checks a datatype once; inlining takes a validated one and builds each
composite from fresh copies (``copy_program``), renaming clashing names and
splicing a copy of an operation's body at each `call`: no parsed tree is edited.
"""

from __future__ import annotations

import itertools
from dataclasses import replace
from fractions import Fraction
from math import gcd, lcm
from typing import Dict, Iterator, List, NamedTuple, Optional, Sequence, Tuple

from .contexts import Value, VarContext, fmt_value
from .exprs import (Bin, EvalError, Index, Lit, Name, TupleE, Unary, compile_expr,
                    evaluation_points, predicate_of)
from .kernels import Kernel
from .syntax import (
    PROGRAM_FIELDS, Abort, Assert, Assign, CallOp, Datatype, DistBranch, DistExpr, HidVar,
    If, Meta, NonDet, Print, Program, ProgramContext, Skip, Stmt, Unvar, While, walk,
)


class TypecheckError(ValueError):
    def __init__(self, message: str, pos=None):
        if pos:
            message = f"{pos[0]}:{pos[1]}: {message}"
        super().__init__(message)
        self.pos = pos


# ------------------------------------------------------------- distributions

def _branch_weights(dist: DistExpr, pos) -> Tuple[int, List[int]]:
    """The branch weights as integers over one common denominator."""
    if dist.uniform:
        k = len(dist.branches)
        return k, [1] * k
    weights = [b.weight for b in dist.branches]
    den = lcm(*(w.denominator for w in weights if w is not None))
    nums = [None if w is None else w.numerator * (den // w.denominator) for w in weights]
    explicit = sum(n for n in nums if n is not None)
    if explicit > den:
        raise TypecheckError(f"branch weights sum to {Fraction(explicit, den)} > 1", pos)
    if nums and nums[-1] is None:
        nums[-1] = den - explicit
    for n in nums:
        if n is None or n <= 0:
            raise TypecheckError("every branch needs a positive weight", pos)
    return den, nums


def _normalize_value(v: Value) -> Value:
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    if isinstance(v, tuple):
        return tuple(_normalize_value(x) for x in v)
    return v


def eval_dist(dist: DistExpr, ctx: VarContext, pos) -> Tuple[int, List[list], Sequence[int]]:
    """``(den, outcomes, index)``: state i's (value, weight) outcomes, weights summed
    as integers over ``den``, are ``outcomes[index[i]]``; all branches are evaluated
    together, so each error names the state that per-state evaluation would."""
    den, weights = _branch_weights(dist, pos)
    branches = [(compile_expr(b.expr, ctx), w) for b, w in zip(dist.branches, weights)]
    points, index = evaluation_points(ctx, [b.expr for b in dist.branches])
    outcomes = []
    for state in points:
        acc: Dict[Value, int] = {}
        for value_of, w in branches:
            try:
                v = value_of(state)
            except EvalError as exc:
                raise TypecheckError(f"{exc} (at state {fmt_value(state)})", pos) from None
            if type(v) is not int:
                v = _normalize_value(v)
            acc[v] = acc.get(v, 0) + w
        outcomes.append(list(acc.items()))
    return den, outcomes, index


def _kernel(pre: VarContext, post: VarContext, targets: Tuple[str, ...], den: int,
            outcomes: List[list], index: Sequence[int], pos=None) -> Kernel:
    """The kernel that writes each ``eval_dist`` outcome into ``targets``.

    A tuple is spread over several targets.  Every other variable of
    ``post`` keeps its value from the pre state (``VarContext.layout``), and
    a value outside its target's domain is abort mass.  Each outcome list's
    steps are sorted and reduced once; each state adds its base to them.
    """
    bases, offsets = pre.layout(post, targets)
    rows = []
    for pairs in outcomes:
        row: Dict[int, int] = {}
        for value, w in pairs:
            step = offsets[0].get(value) if len(offsets) == 1 else _tuple_step(value, offsets, pos)
            if step is not None:  # else a value outside its target's domain: abort mass
                row[step] = row.get(step, 0) + w
        rows.append(row)
    g = gcd(den, *(w for row in rows for w in row.values()))
    steps = [sorted((j, w // g) for j, w in row.items()) for row in rows]
    return Kernel(pre, post, den // g, tuple(
        tuple([(j + base, w) for j, w in steps[c]]) for base, c in zip(bases, index)))


def _tuple_step(value: Value, offsets, pos) -> Optional[int]:
    """The offset of a tuple spread over the targets; None if a part is outside."""
    if not isinstance(value, tuple) or len(value) != len(offsets):
        raise TypecheckError(f"assignment to {len(offsets)} variables needs a "
                             f"{len(offsets)}-tuple, got {fmt_value(value)}", pos)
    steps = [offset.get(part) for part, offset in zip(value, offsets)]
    return None if None in steps else sum(steps)


def _infer_domain(outcome_lists: Sequence[List[list]]) -> Tuple[Value, ...]:
    """Every value in the ``eval_dist`` outcome lists, in first-met order."""
    return tuple(dict.fromkeys(value for outcomes in outcome_lists
                               for pairs in outcomes for value, _ in pairs))


# ----------------------------------------------------------------- programs

def typecheck_program(prog: Program, initial: VarContext) -> VarContext:
    """Annotate every node with pre/post contexts, elaborations and labels.

    Returns the post context.  A `call` is an error: only inlining fills it.
    """
    return _check_program(prog, initial, _Pass(itertools.count(), itertools.count(), {}))


class _Pass(NamedTuple):
    """One typecheck's state: the `while` and the site label counters, and the
    outcomes of the `hidvar` limbs whose choice infers their domain."""
    loops: Iterator[int]
    sites: Iterator[int]
    limbs: Dict[int, tuple]


# The labels of the sites the forward oracle's histories and strategies name.
_SITES = {Print: "pr", If: "if", NonDet: "nd"}


def _check_program(prog: Program, pre: VarContext, run: _Pass) -> VarContext:
    prog.meta.pre = pre
    prog.meta.cache = None
    ctx = pre
    for s in prog.stmts:
        ctx = _check_stmt(s, ctx, run)
    prog.meta.post = ctx
    return ctx


def _check_stmt(s: Stmt, pre: VarContext, run: _Pass) -> VarContext:
    pos = s.meta.pos
    s.meta.pre = pre
    s.meta.cache = None
    if type(s) in _SITES:
        s.meta.label = f"{_SITES[type(s)]}#{next(run.sites)}"
    if isinstance(s, (Skip, Abort)):  # the identity kernel, or the zero kernel
        s.meta.kernel = (Kernel.identity(pre) if isinstance(s, Skip)
                         else Kernel(pre, pre, 1, ((),) * pre.n_states))
        post = pre
    elif isinstance(s, Assign):
        if len(set(s.targets)) != len(s.targets):
            raise TypecheckError(f"duplicate assignment targets {s.targets}", pos)
        for t in s.targets:
            if t not in pre:
                raise TypecheckError(f"assignment to undeclared variable {t!r}", pos)
        s.meta.kernel = _kernel(pre, pre, s.targets, *eval_dist(s.dist, pre, pos), pos)
        post = pre
    elif isinstance(s, HidVar):
        if s.name in pre:
            raise TypecheckError(f"hidvar re-declares {s.name!r}", pos)
        if id(s) in run.limbs:
            domain, den, outcomes, index = run.limbs.pop(id(s))
        else:
            den, outcomes, index = eval_dist(s.dist, pre, pos)
            domain = s.domain if s.domain is not None else _infer_domain([outcomes])
        if not domain:
            raise TypecheckError(f"cannot infer a domain for {s.name!r}", pos)
        post = pre.append(s.name, domain)
        s.meta.kernel = _kernel(pre, post, (s.name,), den, outcomes, index)
    elif isinstance(s, Unvar):
        if s.name not in pre:
            raise TypecheckError(f"unvar of undeclared variable {s.name!r}", pos)
        post = pre.remove(s.name)
        s.meta.kernel = _kernel(pre, post, (), 1, [[((), 1)]], (0,) * pre.n_states)
    elif isinstance(s, If):
        s.meta.kernel = _branch_kernel(s.guard, pre, pos)
        post_then = _check_program(s.then, pre, run)
        post_else = _check_program(s.orelse, pre, run)
        if post_then != post_else:
            raise TypecheckError(
                f"if branches end in different contexts: "
                f"[{post_then.pretty()}] vs [{post_else.pretty()}]", pos)
        post = post_then
    elif isinstance(s, While):
        s.meta.kernel = _branch_kernel(s.guard, pre, pos)
        s.meta.label = f"while#{next(run.loops)}" + (f"@{pos[0]}:{pos[1]}" if pos else "")
        body_post = _check_program(s.body, pre, run)
        if body_post != pre:
            raise TypecheckError(
                f"while body must preserve its context, got [{body_post.pretty()}]", pos)
        post = pre
    elif isinstance(s, Print):
        den, outcomes, index = eval_dist(s.dist, pre, pos)
        shown = VarContext((("_new", _infer_domain([outcomes])),))
        s.meta.kernel = _kernel(pre, shown, ("_new",), den, outcomes, index)
        post = pre
    elif isinstance(s, Assert):
        g = _guard_pred(s.guard, pre, pos)  # in lowest terms, each weight at most 1
        s.meta.kernel = Kernel.diagonal(g)
        post = pre
    elif isinstance(s, NonDet):
        # `hidvar x := d1 [] ... [] dk` is typed once, over one domain for all
        # limbs.  A re-declared name is left to the first limb's check, and an
        # inner choice of the chain to the outer one, which typed it already.
        limbs = _limbs(s)
        first = limbs[0]
        if (all(type(h) is HidVar and h.domain is None and h.name == first.name for h in limbs)
                and first.name not in pre and id(first) not in run.limbs):
            dists = [eval_dist(h.dist, pre, h.meta.pos) for h in limbs]
            domain = _infer_domain([outcomes for _, outcomes, _ in dists])
            for h, (den, outcomes, index) in zip(limbs, dists):
                run.limbs[id(h)] = domain, den, outcomes, index
        post_l = _check_program(s.left, pre, run)
        post_r = _check_program(s.right, pre, run)
        if post_l != post_r:
            raise TypecheckError(
                f"nondeterministic branches end in different contexts: "
                f"[{post_l.pretty()}] vs [{post_r.pretty()}]", pos)
        post = post_l
    elif isinstance(s, CallOp):
        raise TypecheckError(f"unknown operation hole {s.name!r}", pos)
    else:
        raise TypecheckError(f"unknown statement {s!r}", pos)
    s.meta.post = post
    return post


def _limbs(s: NonDet) -> List[Optional[Stmt]]:
    """The limbs of a choice through nested choices, in order: each limb's one
    statement, or None for a limb of more or fewer statements."""
    limbs = []
    for prog in (s.left, s.right):
        limb = prog.stmts[0] if len(prog.stmts) == 1 else None
        limbs += _limbs(limb) if type(limb) is NonDet else [limb]
    return limbs


# The values a branch point shows: its guard held (column 0) or failed (column 1).
BRANCH = VarContext((("_branch", (True, False)),))


def _branch_kernel(expr, pre: VarContext, pos) -> Kernel:
    """The channel of an `if` or `while` guard, over the guard's denominator."""
    g = _guard_pred(expr, pre, pos)  # in lowest terms, each weight at most 1
    den = g.den
    held, failed = ((0, den),), ((1, den),)  # shared by every state they fit
    return Kernel(pre, BRANCH, den, tuple(
        held if n == den else failed if not n else ((0, n), (1, den - n)) for n in g.nums))


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
    if not mapping or isinstance(e, Lit):
        return e
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
    raise TypeError(f"unknown expression {e!r}")


def _rename_dist(d: DistExpr, mapping) -> DistExpr:
    if not mapping:
        return d
    return DistExpr(
        tuple(DistBranch(_rename_expr(b.expr, mapping), b.weight) for b in d.branches),
        uniform=d.uniform,
    )


def copy_program(prog: Program, mapping: Optional[Dict[str, str]] = None,
                 ops: Optional[Dict[str, Program]] = None) -> Program:
    """A fresh copy of ``prog`` that shares no statement node or ``Meta`` with it.

    Each node's ``meta`` keeps only its source position.  Variables named in
    ``mapping`` are renamed, at declarations, targets and uses.  With ``ops``,
    each `call` becomes a fresh copy of its operation's body; an unknown one
    is an error at the first such `call` in preorder.
    """
    mapping = mapping or {}

    def program(p: Program) -> Program:
        stmts = []
        for s in p.stmts:
            if ops is not None and type(s) is CallOp:
                if s.name not in ops:
                    raise TypecheckError(f"unknown operation {s.name!r}", s.meta.pos)
                stmts += copy_program(ops[s.name]).stmts
            else:
                stmts.append(stmt(s))
        return Program(tuple(stmts), Meta(p.meta.pos))

    def stmt(s: Stmt) -> Stmt:
        kind = type(s)
        fields = {f: program(getattr(s, f)) for f in PROGRAM_FIELDS.get(kind, ())}
        if kind is Assign:
            fields["targets"] = tuple(mapping.get(t, t) for t in s.targets)
        if kind in (HidVar, Unvar):
            fields["name"] = mapping.get(s.name, s.name)
        if kind in (Assign, HidVar, Print):
            fields["dist"] = _rename_dist(s.dist, mapping)
        if kind in (If, While, Assert):
            fields["guard"] = _rename_expr(s.guard, mapping)
        return replace(s, meta=Meta(s.meta.pos), **fields)

    return program(prog)


def inline(ctx_prog: ProgramContext, d: Datatype) -> Program:
    """The copy rule: init ; body-with-holes-substituted ; final.

    ``d`` must have passed ``validate_datatype``: this checks only the
    client against it.  Encapsulated variables (and operation-local
    declarations) are renamed with prime suffixes when they collide with
    shared or client names; the composite is typechecked over shared+client.
    """
    clash = set(ctx_prog.client.names) & set(d.shared.names)
    if clash:
        raise TypecheckError(f"client variables shadow shared state: {sorted(clash)}")

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

    ops = {name: copy_program(p, mapping) for name, p in d.ops}
    composite = Program(copy_program(d.init, mapping).stmts
                        + copy_program(ctx_prog.body, ops=ops).stmts
                        + copy_program(d.final, mapping).stmts)
    typecheck_program(composite, d.shared.merge(ctx_prog.client))
    return composite
