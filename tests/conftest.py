"""Seeded random generators for contexts, losses, kernels and programs."""

from __future__ import annotations

import os
import pathlib
import random
from fractions import Fraction

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


@pytest.fixture(autouse=True, scope="session")
def _run_from_repo_root():
    """Corpus files are referenced relative to the repository root."""
    old = os.getcwd()
    os.chdir(ROOT)
    yield
    os.chdir(old)

from preloss.contexts import VarContext
from preloss.exprs import Bin, Lit, Name
from preloss.kernels import Kernel
from preloss.losses import LossFunction
from preloss.predicates import Predicate
from preloss.syntax import (
    Abort, Assert, Assign, DistBranch, DistExpr, HidVar, If, NonDet, Print, Program,
    Skip, Unvar, While, sub_programs, walk,
)
from preloss.typecheck import typecheck_program


def gen_context(rng: random.Random, max_states: int = 12, max_vars: int = 3,
                prefix: str = "") -> VarContext:
    names = [prefix + n for n in ("u", "v", "w", "t")]
    rng.shuffle(names)
    decls = []
    budget = max_states
    for name in names[: rng.randint(1, max_vars)]:
        if budget < 2:
            break
        size = rng.randint(2, min(4, budget))
        decls.append((name, tuple(range(size))))
        budget //= size
    if not decls:
        decls = [(prefix + "u", (0, 1))]
    return VarContext(tuple(decls))


def gen_scalar(rng: random.Random, bound: int = 2, inf_prob: float = 0.0):
    if inf_prob and rng.random() < inf_prob:
        from preloss.scalars import INF

        return INF
    return Fraction(rng.randint(0, 4 * bound), 4)


def gen_predicate(rng, ctx, bound: int = 2, inf_prob: float = 0.0) -> Predicate:
    values = [gen_scalar(rng, bound, inf_prob) for _ in range(ctx.n_states)]
    return Predicate.from_entries(ctx, values)


def gen_loss(rng, ctx, max_gens: int = 4, bound: int = 2, inf_prob: float = 0.0) -> LossFunction:
    k = rng.randint(1, max_gens)
    return LossFunction(ctx, tuple(gen_predicate(rng, ctx, bound, inf_prob) for _ in range(k)))


def gen_dist(rng, ctx, total: bool = True):
    weights = [rng.randint(0, 4) for _ in range(ctx.n_states)]
    if not any(weights):
        weights[rng.randrange(ctx.n_states)] = 1
    denom = sum(weights) + (0 if total else rng.randint(0, 3))
    return tuple(Fraction(w, denom) for w in weights)


def gen_kernel(rng, src: VarContext, dst: VarContext, total: bool = False) -> Kernel:
    rows = []
    for _ in range(src.n_states):
        k = rng.randint(1, min(3, dst.n_states))
        targets = rng.sample(range(dst.n_states), k)
        weights = [rng.randint(1, 4) for _ in targets]
        denom = sum(weights) + (0 if total else rng.randint(0, 3))
        rows.append({t: Fraction(w, denom) for t, w in zip(targets, weights)})
    return Kernel.from_rows(src, dst, rows)


# ------------------------------------------------------------------ programs

class ProgramShape:
    def __init__(self, nondet=True, visible=True, loops=True,
                 max_nondet=99, max_prints=99, max_states=12):
        self.nondet = nondet
        self.visible = visible
        self.loops = loops
        self.max_nondet = max_nondet
        self.max_prints = max_prints
        self.max_states = max_states
        self.nondet_used = 0
        self.prints_used = 0
        self.fresh = 0


def _int_expr(rng, ctx, target_size):
    """An expression over ctx whose value stays inside 0..target_size-1."""
    choice = rng.randrange(3)
    if choice == 0 or not ctx.vars:
        return Lit(rng.randrange(target_size))
    name, dom = ctx.vars[rng.randrange(len(ctx.vars))]
    if choice == 1:
        return Bin("mod", Name(name), Lit(target_size))
    return Bin("mod", Bin("+", Name(name), Lit(rng.randrange(3))), Lit(target_size))


def _gen_dexpr(rng, ctx, target_size) -> DistExpr:
    n = rng.randint(1, 2)
    branches = []
    remaining = Fraction(1)
    for i in range(n):
        expr = _int_expr(rng, ctx, target_size)
        if i == n - 1:
            weight = None if rng.random() < 0.7 else remaining * Fraction(1, rng.randint(1, 2))
        else:
            weight = remaining * Fraction(1, rng.randint(2, 3))
            remaining -= weight
        branches.append(DistBranch(expr, weight))
    return DistExpr(tuple(branches))


def _bool_guard(rng, ctx):
    name, dom = ctx.vars[rng.randrange(len(ctx.vars))]
    value = dom[rng.randrange(len(dom))]
    op = rng.choice(["=", "!=", "<="])
    return Bin(op, Name(name), Lit(value))


def _guard(rng, ctx):
    if rng.random() < 0.2:
        return Lit(Fraction(rng.randint(0, 4), 4))
    return _bool_guard(rng, ctx)


def gen_program(rng, ctx, depth, shape: ProgramShape, preserve_ctx=False):
    """Random program; returns (Program, post_ctx)."""
    n_stmts = rng.randint(1, 3)
    stmts = []
    cur = ctx
    for _ in range(n_stmts):
        s, cur = _gen_stmt(rng, cur, depth, shape, preserve_ctx)
        stmts.append(s)
    return Program(tuple(stmts)), cur


def _gen_stmt(rng, ctx, depth, shape: ProgramShape, preserve_ctx):
    options = ["assign", "assign", "assert", "skip"]
    if not preserve_ctx:
        if ctx.n_states * 2 <= shape.max_states:
            options += ["hidvar", "hidvar"]
        if len(ctx.vars) > 1:
            options.append("unvar")
    if shape.visible and shape.prints_used < shape.max_prints:
        options += ["print"]
    if depth > 0:
        if shape.visible:
            options += ["if"]
        if shape.nondet and shape.nondet_used < shape.max_nondet:
            options += ["nondet"]
        if shape.loops and shape.visible:
            options += ["while"]
    kind = rng.choice(options)

    if kind == "skip":
        return Skip(), ctx
    if kind == "assign":
        name, dom = ctx.vars[rng.randrange(len(ctx.vars))]
        s = Assign((name,), _gen_dexpr(rng, ctx, len(dom)))
        return s, ctx
    if kind == "assert":
        return Assert(_guard(rng, ctx)), ctx
    if kind == "hidvar":
        shape.fresh += 1
        name = f"h{shape.fresh}"
        s = HidVar(name, (0, 1), _gen_dexpr(rng, ctx, 2))
        return s, ctx.append(name, (0, 1))
    if kind == "unvar":
        name = ctx.vars[rng.randrange(len(ctx.vars))][0]
        return Unvar(name), ctx.remove(name)
    if kind == "print":
        shape.prints_used += 1
        name, dom = ctx.vars[rng.randrange(len(ctx.vars))]
        return Print(_gen_dexpr(rng, ctx, len(dom))), ctx
    if kind == "if":
        then, _ = gen_program(rng, ctx, depth - 1, shape, preserve_ctx=True)
        orelse, _ = gen_program(rng, ctx, depth - 1, shape, preserve_ctx=True)
        return If(_guard(rng, ctx), then, orelse), ctx
    if kind == "nondet":
        shape.nondet_used += 1
        left, _ = gen_program(rng, ctx, depth - 1, shape, preserve_ctx=True)
        right, _ = gen_program(rng, ctx, depth - 1, shape, preserve_ctx=True)
        return NonDet(left, right), ctx
    if kind == "while":
        body, _ = gen_program(rng, ctx, depth - 1, shape, preserve_ctx=True)
        return While(_bool_guard(rng, ctx), body), ctx
    raise AssertionError(kind)


def with_aborts(rng, prog: Program) -> Program:
    """``prog`` with about half of its ``skip``s, nested ones too, made ``abort``s.

    It edits ``prog`` in place, so typecheck it afterwards.
    """
    for p in [prog] + [sub for s in walk(prog) for sub in sub_programs(s)]:
        p.stmts = tuple(Abort() if isinstance(s, Skip) and rng.random() < 0.5 else s
                        for s in p.stmts)
    return prog


def gen_typed_program(rng, depth=3, shape: ProgramShape = None, max_states=12):
    """A typechecked random program together with its contexts."""
    shape = shape or ProgramShape(max_states=max_states)
    ctx = gen_context(rng, max_states=max(2, max_states // 2))
    prog, post = gen_program(rng, ctx, depth, shape)
    typecheck_program(prog, ctx)
    assert prog.meta.post == post
    return ctx, prog, post


@pytest.fixture
def rng():
    return random.Random(20260808)


# ---------------------------------------------------------------- refinement

def entry_decisions(p, q, family, extension=None, loop_budget=64):
    """``program_refines``' verdict and how it decided each entry it reached.

    Each part's pre-loss comes from ``refinement._preloss``, by ``wpl`` or
    by the part's history transformers (an empty part's is the identity).
    A decision is "heads" when both heads were evaluated, "tail" when only
    the nonempty shared tail was (the tail's pre-loss repeated), and "none"
    when no part was (an implied entry) or only an empty tail was (a
    repeat).  Returns the verdict, the decisions, and the tail's results.
    """
    from preloss import refinement
    from preloss.contexts import EMPTY
    from preloss.families import resolve_family

    extension = EMPTY if extension is None else extension
    fam = resolve_family(p.meta.post.merge(extension), family)
    split, preloss = refinement._split, refinement._preloss
    parts, calls = [], []

    def recording_split(p, q):
        parts[:] = split(p, q)
        return tuple(parts)

    def recording_preloss(prog, post, *args):
        result = preloss(prog, post, *args)
        calls.append(("head" if prog is not parts[2] else "tail", post, result))
        return result

    with pytest.MonkeyPatch.context() as m:
        m.setattr(refinement, "_split", recording_split)
        m.setattr(refinement, "_preloss", recording_preloss)
        verdict = refinement.program_refines(p, q, fam, extension, loop_budget)
    tails = [result for role, _, result in calls if role == "tail"]

    def take(role, post):
        if calls and calls[0][0] == role and calls[0][1] is post:
            return calls.pop(0)[2]
        return None

    decisions = []
    for E, _ in fam.entries:
        shared = take("tail", E)
        mid = shared.pre if shared else E
        if take("head", mid) and take("head", mid):
            decisions.append("heads")
        else:
            decisions.append("tail" if shared and parts[2].stmts else "none")
    assert not calls, "a wpl run that no entry accounts for"
    if verdict.witness_loss is not None:  # the check ended at its last "heads" entry
        del decisions[len(decisions) - decisions[::-1].index("heads"):]
    return verdict, decisions, tails
