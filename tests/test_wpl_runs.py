"""``wpl`` over composed kernel runs against the statement-by-statement route.

``weakest_preloss`` maps each maximal run of kernel statements by one
composed transformer, and folds a loop's guard into the body's first run.
``_reference_wpl`` below is the evaluator that did neither: it maps the
loss through every statement's own transformer and canonicalizes after
each, and multiplies each branch and each loop term by its column
pointwise (``loss_conj``), columns it reads off the kernel itself.  Both
must give the same generator list, in the same order, the same loop
statuses and the same ``wpl_clauses`` count (one per source statement
evaluated), on seeded programs with loops, prints, choices, discards,
`abort`s inside and outside longer kernel runs, an extension context and
``INF`` entries.  The reference keeps its own rules for `skip`, `abort`
and `unvar`, so it does not map them by their kernels.
"""

import random

from preloss.contexts import EMPTY
from preloss.losses import (
    LossFunction, is_zero_loss, loss_add, loss_canonicalize, loss_conj, loss_map, loss_min,
    zero_loss,
)
from preloss import semantics
from preloss.predicates import INF_NUM, Predicate
from preloss.semantics import LoopStatus, _kernel_tf, _loop_body, _Run, _segments, weakest_preloss
from preloss.syntax import KERNEL_STMTS, Abort, If, NonDet, Print, Program, Skip, Unvar, While
from preloss.typecheck import typecheck_program

from conftest import ProgramShape, gen_context, gen_loss, gen_typed_program, with_aborts


def _working(ctx, z):
    return ctx.merge(z) if len(z.vars) else ctx


def _reference_wpl(prog, E, z, budget):
    """(pre-loss, loop statuses, statements evaluated); until the end,
    ``statuses`` also holds the count, under a key no loop label takes."""
    statuses = {"clauses": 0}
    pre = _ref_program(prog, loss_canonicalize(E), z, budget, statuses)
    return pre, statuses, statuses.pop("clauses")


def _ref_program(prog, E, z, budget, statuses):
    for s in reversed(prog.stmts):
        E = _ref_stmt(s, E, z, budget, statuses)
    return E


def _ref_columns(s, z):
    """The columns of the statement's kernel, as predicates over its working context."""
    k, working = s.meta.kernel, _working(s.meta.pre, z)
    return [Predicate.from_ints(k.src, k.den, column).extend_to(working) for column in k.columns]


def _ref_observe(s, branch_losses, z):
    total = None
    for column, loss in zip(_ref_columns(s, z), branch_losses):
        term = loss_conj(column, loss)
        total = term if total is None else loss_add(total, term)
    return total


def _ref_stmt(s, E, z, budget, statuses):
    statuses["clauses"] += 1
    if isinstance(s, Skip):
        return E
    if isinstance(s, Abort):
        return zero_loss(_working(s.meta.pre, z))
    if isinstance(s, Unvar):
        working = _working(s.meta.pre, z)
        return loss_canonicalize(LossFunction(working,
                                              tuple(g.extend_to(working) for g in E.gens)))
    if isinstance(s, KERNEL_STMTS):
        return loss_map(_kernel_tf(s, z), E)
    if isinstance(s, If):
        return _ref_observe(s, [_ref_program(b, E, z, budget, statuses)
                                for b in (s.then, s.orelse)], z)
    if isinstance(s, NonDet):
        return loss_min(_ref_program(s.left, E, z, budget, statuses),
                        _ref_program(s.right, E, z, budget, statuses))
    if isinstance(s, Print):
        return _ref_observe(s, [E] * len(_ref_columns(s, z)), z)
    if isinstance(s, While):
        g, not_g = _ref_columns(s, z)
        term = total = loss_conj(not_g, E)
        n = 0
        while not is_zero_loss(term):
            if n >= budget:
                status = LoopStatus("truncated", budget)
                break
            term = loss_conj(g, _ref_program(s.body, term, z, budget, statuses))
            total = loss_add(total, term)
            n += 1
        else:
            status = LoopStatus("converged", n)
        label = s.meta.label
        statuses[label] = status if label not in statuses else statuses[label].merge(status)
        return total
    raise AssertionError(s)


def _programs(prog):
    """The program and every program nested in it."""
    yield prog
    for s in prog.stmts:
        for name in ("then", "orelse", "left", "right", "body"):
            child = getattr(s, name, None)
            if isinstance(child, Program):
                yield from _programs(child)


def test_runs_match_the_statement_by_statement_route():
    rng = random.Random(20261020)
    seen = dict.fromkeys(["long run", "fused loop", "guard alone", "discard", "abort",
                          "abort in a long run", "print", "choice", "INF", "extension",
                          "multi"], 0)
    for i in range(300):
        ctx, prog, post = gen_typed_program(rng, depth=2, shape=ProgramShape(max_states=12))
        typecheck_program(with_aborts(rng, prog), ctx)
        z = gen_context(rng, max_states=3, max_vars=1, prefix="z") if i % 2 else EMPTY
        E = gen_loss(rng, post.merge(z), max_gens=3, inf_prob=0.15)
        budget = rng.randint(1, 4)
        clauses = semantics.counters["wpl_clauses"]
        got = weakest_preloss(prog, E, z, loop_budget=budget)
        clauses = semantics.counters["wpl_clauses"] - clauses
        pre, statuses, ref_clauses = _reference_wpl(prog, E, z, budget)
        assert got.pre.ctx == pre.ctx
        assert got.pre.gens == pre.gens, i
        assert got.loop_status == statuses, i
        assert clauses == ref_clauses, i

        seen["INF"] += any(INF_NUM in g.nums for g in E.gens)
        seen["extension"] += bool(z.vars)
        seen["multi"] += len(pre.gens) >= 2
        for p in _programs(prog):
            seen["long run"] += any(isinstance(seg, _Run) and seg.length >= 2
                                    for seg in _segments(p, z))
            kernel = [isinstance(s, KERNEL_STMTS) for s in p.stmts] + [False]
            for j, s in enumerate(p.stmts):
                if isinstance(s, Abort):
                    seen["abort"] += 1
                    seen["abort in a long run"] += kernel[j - 1] or kernel[j + 1]
                seen["print"] += isinstance(s, Print)
                seen["choice"] += isinstance(s, NonDet)
                seen["discard"] += isinstance(s, Unvar)
                if isinstance(s, While):
                    seen["fused loop" if _loop_body(s, z)[0].length else "guard alone"] += 1
    assert min(seen.values()) >= 10, seen
