"""Sums of blocks (``losses.loss_add``) against sums expanded at once.

The reference route adds two losses by canonicalizing every pairwise sum
of their generators, so each loss it builds is one block.  ``wpl`` over
both routes must give the same generator lists in the same order, the
same zero tests and the same values.
"""

import random
from fractions import Fraction

from preloss import losses, semantics
from preloss.contexts import VarContext
from preloss.exprs import Name
from preloss.losses import (
    LossFunction, embed, eval_loss, is_zero_loss, loss_add, loss_canonicalize,
    loss_conj, zero_loss,
)
from preloss.parsing import parse_program_text
from preloss.predicates import Predicate
from preloss.semantics import weakest_preloss
from preloss.syntax import DistBranch, DistExpr, Print, Program, Skip
from preloss.typecheck import typecheck_program

from conftest import ProgramShape, gen_context, gen_dist, gen_loss, gen_typed_program

N4 = VarContext.of(("n", range(4)))


def _expanded_add(E1, E2):
    """Every pairwise sum, canonicalized by the LP: one block, always."""
    sums = tuple(a + b for a in E1.gens for b in E2.gens)
    return loss_canonicalize(LossFunction(E1.ctx, sums))


def _checking_add(sizes):
    """``loss_add``, asserting the block invariants on each result and
    appending its number of blocks to ``sizes``."""
    def add(E1, E2):
        total = loss_add(E1, E2)
        n = len(total.blocks)
        assert total.canonical and n <= total.ctx.n_states
        if n > 1:
            supports = total.supports
            assert all(supports) and not any(
                a & b for i, a in enumerate(supports) for b in supports[i + 1:])
        sizes.append(n)
        return total

    return add


def _wpl_expanded(monkeypatch, prog, post, budget):
    with monkeypatch.context() as m:
        m.setattr(semantics, "loss_add", _expanded_add)
        m.setattr(losses, "loss_add", _expanded_add)
        return weakest_preloss(prog, post, loop_budget=budget)


def _shown_first(rng, prog, ctx):
    """``print v; prog`` for a variable v of the pre context: the print is
    the last sum ``wpl`` forms, so its blocks reach the pre-loss."""
    name = ctx.vars[rng.randrange(len(ctx.vars))][0]
    shown = Program((Print(DistExpr((DistBranch(Name(name), None),))),) + prog.stmts)
    typecheck_program(shown, ctx)
    return shown


def _bits_loss(rng, ctx):
    """Four generators of 0/1 entries: their sums often tie on a block's
    first state, so a product's order is not its blocks' order."""
    return LossFunction(ctx, tuple(
        Predicate.from_entries(ctx, [rng.randint(0, 1) for _ in range(ctx.n_states)])
        for _ in range(4)))


def _cases(rng, n):
    """Seeded programs with their pre contexts and post losses, in turn: a
    random program, the same kind shown first, and ``print v`` alone."""
    for i in range(n):
        if i % 3 == 2:
            ctx = gen_context(rng, max_states=8)
            prog = _shown_first(rng, Program((Skip(),)), ctx)
            yield ctx, prog, _bits_loss(rng, ctx)
            continue
        shape = ProgramShape(max_nondet=1, max_states=12)
        ctx, prog, post_ctx = gen_typed_program(rng, depth=rng.randint(1, 3), shape=shape)
        if i % 3 == 0:
            yield ctx, prog, gen_loss(rng, post_ctx, max_gens=3, inf_prob=0.1)
        else:
            yield ctx, _shown_first(rng, prog, ctx), _bits_loss(rng, post_ctx)


def test_factored_and_expanded_wpl_agree(monkeypatch):
    sizes = []
    monkeypatch.setattr(semantics, "loss_add", _checking_add(sizes))
    monkeypatch.setattr(losses, "loss_add", _checking_add(sizes))
    rng = random.Random(20261019)
    factored = factored_pre = 0
    for ctx, prog, post in _cases(rng, 300):
        sizes.clear()
        budget = rng.randint(1, 6)
        got = weakest_preloss(prog, post, loop_budget=budget)
        want = _wpl_expanded(monkeypatch, prog, post, budget)
        assert len(want.pre.blocks) == 1
        factored += max(sizes, default=1) > 1
        factored_pre += len(got.pre.blocks) > 1
        assert got.pre.gens == want.pre.gens
        assert got.loop_status == want.loop_status
        assert is_zero_loss(got.pre) == is_zero_loss(want.pre)
        for _ in range(3):
            dist = gen_dist(rng, ctx, total=rng.random() < 0.5)
            assert eval_loss(got.pre, dist) == eval_loss(want.pre, dist)
    assert factored >= 50 and factored_pre >= 30


def test_zero_blocks_are_dropped():
    u = [Predicate.unit(N4, (n,)) for n in range(4)]
    zero = zero_loss(N4)
    total = zero
    for summand in (zero, embed(u[0]), zero, embed(u[2]), zero):
        total = loss_add(total, summand)
    assert total.blocks == ((u[0],), (u[2],))
    assert loss_add(zero, zero).blocks == zero.blocks
    # A column that kills a block leaves no {0} block behind either.
    killed = loss_conj(u[0] + u[1], total)
    assert killed.blocks == ((u[0],),)


def test_zero_plus_nonzero_is_not_zero():
    e = Predicate.unit(N4, (3,))
    for total in (loss_add(zero_loss(N4), embed(e)), loss_add(embed(e), zero_loss(N4))):
        assert not is_zero_loss(total)
        assert total.gens == (e,)
    assert is_zero_loss(loss_add(zero_loss(N4), zero_loss(N4)))


def test_blocks_never_outnumber_states():
    rng = random.Random(7)
    ctx = VarContext.of(("x", range(6)))
    units = [Predicate.unit(ctx, (x,)) for x in range(6)]
    add = _checking_add([])
    for _ in range(50):
        total = zero_loss(ctx)
        for _ in range(rng.randint(1, 12)):
            x = rng.randrange(6)
            summand = embed(units[x].scale(Fraction(rng.randint(0, 3))))
            if rng.random() < 0.3:
                summand = loss_canonicalize(LossFunction(
                    ctx, (units[x], units[(x + 1) % 6])))
            total = add(total, summand)
        assert 1 <= len(total.blocks) <= ctx.n_states


def test_long_print_run_keeps_two_blocks(monkeypatch):
    """60 rounds of a sample, an assert and a print over two states: without
    the zero-block rule each print would double the blocks."""
    sizes = []
    monkeypatch.setattr(semantics, "loss_add", _checking_add(sizes))
    x2 = VarContext.of(("x", (0, 1)))
    prog = parse_program_text("; ".join(["x := 0 @ 1/3 | 1; assert x = 1; print x"] * 60))
    typecheck_program(prog, x2)
    post = LossFunction(x2, (Predicate.from_entries(x2, (Fraction(5), Fraction(7))),))
    pre = weakest_preloss(prog, post).pre
    assert max(sizes) == 2 and len(pre.blocks) <= 2
    assert eval_loss(pre, (Fraction(1, 2), Fraction(1, 2))) == 7 * Fraction(2, 3) ** 60
