"""Every `skip`, `abort`, assignment, declaration, discard and assertion
elaborates to one kernel.

* The kernel runs from the statement's pre to its post context.
* An `if` or `while` elaborates to a branch kernel: every row sums to 1,
  and column 0 is the guard, with the guard's denominator.
* ``semantics._kernel_tf``, the one transformer builder, equals private
  copies of the four per-kind builders it replaced, fed from the reference
  elaborations of ``test_frontend``, and the identity for `skip` and the
  zero matrix for `abort`; so does ``linear_transformer`` on straight-line
  bodies.
* ``adversary._push``, one row push through the kernel, equals a private
  copy of the per-kind push it replaced, with `skip` keeping the
  sub-distribution and `abort` zeroing it.

Programs: seeded ``gen_typed_program`` programs (with `hidvar`, `unvar`,
`assert`, and `abort` for about half the `skip`s), every corpus ``.prog``
and the parts of every corpus datatype.
"""

from __future__ import annotations

import pathlib
import random
from operator import mul
from typing import Optional

from conftest import ProgramShape, gen_context, gen_program, gen_typed_program, with_aborts
from preloss.adversary import _push
from preloss.contexts import EMPTY, VarContext
from preloss.kernels import Kernel, Transformer
from preloss.predicates import Predicate
from preloss.parsing import parse_datatype_file, parse_program_file
from preloss.semantics import _kernel_tf, linear_transformer
from preloss.syntax import (
    KERNEL_STMTS, Abort, Assert, Assign, HidVar, If, Program, Skip, Unvar, While, sub_programs,
    walk,
)
from preloss.typecheck import typecheck_program, validate_datatype
from test_frontend import _reference_assign, _reference_guard, _reference_hidvar

ROOT = pathlib.Path(__file__).resolve().parent.parent
Z = VarContext.of(("_ext", (0, 1, 2)))


def _programs():
    """Typechecked programs: seeded, corpus programs, corpus datatype parts."""
    rng = random.Random(20261018)
    progs = []
    for _ in range(120):
        ctx, prog, _ = gen_typed_program(rng, depth=3, shape=ProgramShape(max_states=16))
        typecheck_program(with_aborts(rng, prog), ctx)
        progs.append(prog)
    for path in sorted((ROOT / "corpus").glob("*.prog")):
        initial, prog = parse_program_file(path.read_text(encoding="utf-8"))
        typecheck_program(prog, initial)
        progs.append(prog)
    for path in sorted((ROOT / "corpus").glob("*.dt")):
        d = parse_datatype_file(path.read_text(encoding="utf-8"))
        validate_datatype(d)
        progs += [d.init, *(p for _, p in d.ops), d.final]
    return progs


PROGRAMS = _programs()


def _kernel_statements():
    return [s for prog in PROGRAMS for s in walk(prog) if isinstance(s, KERNEL_STMTS)]


def _form(t: Transformer):
    return t.src, t.dst, t.den, t.nums


def test_every_kernel_statement_runs_from_pre_to_post():
    kinds = {kind: 0 for kind in KERNEL_STMTS}
    for s in _kernel_statements():
        assert s.meta.kernel.src == s.meta.pre, s
        assert s.meta.kernel.dst == s.meta.post, s
        kinds[type(s)] += 1
    assert min(kinds.values()) >= 20, kinds


def test_every_branch_kernel_shows_its_guard():
    kinds = {If: 0, While: 0}
    for s in (s for prog in PROGRAMS for s in walk(prog) if isinstance(s, (If, While))):
        k, guard = s.meta.kernel, _reference_guard(s.meta.pre, s.guard)
        assert k.src == s.meta.pre and k.den == guard.den, s
        assert all(sum(w for _, w in row) == k.den for row in k.nums), s
        assert Predicate.from_ints(k.src, k.den, k.columns[0]) == guard, s
        kinds[type(s)] += 1
    assert min(kinds.values()) >= 20, kinds


# ------------------------------------------- the per-kind builders, kept as a reference
# Private copies of the transformer builders ``_kernel_tf`` replaced, each
# fed from the reference elaboration of its statement.

def _working(ctx: VarContext, z: VarContext) -> VarContext:
    return ctx.merge(z) if len(z.vars) else ctx


def _old_assign_tf(kernel: Kernel, z: VarContext) -> Transformer:
    if not len(z.vars):
        return kernel.dual()
    zn = z.n_states
    src = kernel.src.merge(z)
    rows = tuple(tuple((j * zn + zi, w) for j, w in row)
                 for row in kernel.nums for zi in range(zn))
    return Transformer(src, src, kernel.den, rows)


def _old_declare_tf(s: HidVar, kernel: Kernel, z: VarContext) -> Transformer:
    d = kernel.dst.n_states
    zn = z.n_states
    rows = tuple(tuple(((y * d + x) * zn + zi, w) for x, w in base)
                 for y, base in enumerate(kernel.nums) for zi in range(zn))
    return Transformer(_working(s.meta.pre, z), _working(s.meta.post, z), kernel.den, rows)


def _old_unvar_tf(s: Unvar, z: VarContext) -> Transformer:
    pre_w = _working(s.meta.pre, z)
    post_w = _working(s.meta.post, z)
    return Transformer(pre_w, post_w, 1, tuple(((j, 1),) for j in post_w.projection(pre_w)))


def _old_assert_tf(s: Assert, z: VarContext) -> Transformer:
    working = _working(s.meta.pre, z)
    guard = _reference_guard(s.meta.pre, s.guard).extend_to(working)
    return Transformer(working, working, guard.den,
                       tuple(((i, n),) if n else () for i, n in enumerate(guard.nums)))


def _old_tf(s, z: VarContext) -> Transformer:
    pre = s.meta.pre
    if isinstance(s, Skip):
        return Transformer.identity(_working(pre, z))
    if isinstance(s, Abort):
        working = _working(pre, z)
        return Transformer(working, working, 1, ((),) * working.n_states)
    if isinstance(s, Assign):
        return _old_assign_tf(_reference_assign(pre, s.targets, s.dist), z)
    if isinstance(s, HidVar):
        domain = s.meta.post.domain_of(s.name)
        return _old_declare_tf(s, _reference_hidvar(pre, domain, s.dist), z)
    if isinstance(s, Unvar):
        return _old_unvar_tf(s, z)
    return _old_assert_tf(s, z)


def _old_linear_transformer(prog: Program, z: VarContext) -> Optional[Transformer]:
    acc = None
    for s in prog.stmts:
        if isinstance(s, Skip):
            continue
        if not isinstance(s, KERNEL_STMTS):
            return None
        t = _old_tf(s, z)
        acc = t if acc is None else acc.compose(t)
    return Transformer.identity(_working(prog.meta.pre, z)) if acc is None else acc


def test_kernel_transformer_matches_the_per_kind_builders():
    for s in _kernel_statements():
        for z in (EMPTY, Z):
            assert _form(_kernel_tf(s, z)) == _form(_old_tf(s, z)), (s, z)


def test_linear_transformer_matches_the_per_kind_composition():
    rng = random.Random(20261019)
    bodies = []
    for _ in range(60):
        ctx = gen_context(rng, max_states=6)
        body, _ = gen_program(rng, ctx, 0, ProgramShape(nondet=False, visible=False,
                                                        loops=False))
        typecheck_program(body, ctx)
        bodies.append(body)
    for prog in PROGRAMS:
        bodies += [prog, *(p for s in walk(prog) for p in sub_programs(s))]
    compiled = 0
    for body in bodies:
        for z in (EMPTY, Z):
            new, old = linear_transformer(body, z), _old_linear_transformer(body, z)
            assert (new is None) == (old is None), body
            if new is not None:
                assert _form(new) == _form(old), body
                compiled += 1
    assert compiled >= 100, compiled


# ------------------------------------------------ the per-kind push, kept as a reference

def _old_push(s, nums, den):
    pre, post = s.meta.pre, s.meta.post
    if isinstance(s, Skip):
        return nums, den
    if isinstance(s, Abort):
        return [0] * len(nums), den
    if isinstance(s, Assign):
        k = _reference_assign(pre, s.targets, s.dist)
        out = [0] * len(nums)
        for i, w in enumerate(nums):
            if w:
                for j, p in k.nums[i]:
                    out[j] += w * p
        return out, den * k.den
    if isinstance(s, HidVar):
        k = _reference_hidvar(pre, post.domain_of(s.name), s.dist)
        d = k.dst.n_states
        out = [0] * (len(nums) * d)
        for y, w in enumerate(nums):
            if w:
                for x, p in k.nums[y]:
                    out[y * d + x] = w * p
        return out, den * k.den
    if isinstance(s, Unvar):
        out = [0] * post.n_states
        for i, j in enumerate(post.projection(pre)):
            out[j] += nums[i]
        return out, den
    g = _reference_guard(pre, s.guard)
    return list(map(mul, nums, g.nums)), den * g.den


def test_push_matches_the_per_kind_push():
    rng = random.Random(20261020)
    for s in _kernel_statements():
        for _ in range(3):
            nums = [rng.choice((0, 0, 1, 2, 5)) for _ in range(s.meta.pre.n_states)]
            den = rng.randint(max(1, sum(nums)), 3 * max(1, sum(nums)))
            assert _push(s, list(nums), den) == _old_push(s, list(nums), den), s
    b = VarContext.of(("b", (0, 1)))
    skip, abort = Skip(), Abort()
    typecheck_program(Program((skip, abort)), b)
    assert _push(skip, [1, 2], 3) == ([1, 2], 3)
    assert _push(abort, [1, 2], 3) == ([0, 0], 3)
