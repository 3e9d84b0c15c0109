"""A choiceless program's history transformers against its weakest pre-loss.

``semantics.history_transformers`` compiles a program into the nonzero
matrices M_h of its observation histories h, so that
wpl(P, E) = sum_h M_h * E for every loss E, or gives up (None) on a choice,
on a loop still running at the budget, or on more histories than states.
On seeded programs with prints, conditionals and loops at small budgets,
``refinement._preloss`` sums the images wherever the walk compiles, and
the sum must be ``weakest_preloss``'s generator list, with no truncation.
"""

import operator
import random

import pytest

from conftest import ProgramShape, gen_context, gen_loss, gen_program
from preloss import semantics
from preloss.contexts import EMPTY, VarContext
from preloss.exprs import Bin, Lit, Name
from preloss.losses import loss_canonicalize, one_loss
from preloss.parsing import parse_program_text
from preloss.refinement import _preloss
from preloss.semantics import history_transformers, weakest_preloss
from preloss.syntax import Abort, If, NonDet, Print, Program, Skip, While, walk
from preloss.typecheck import copy_program, typecheck_program

Z = VarContext.of(("z", (0, 1)))


def program(rng, case):
    """A typechecked program, choiceless but for one case in six, with an
    `if` whose one branch aborts in one case in seven, and two coin prints
    in front, which multiply its histories by four, in one case in eight."""
    ctx = gen_context(rng, max_states=6)
    shape = ProgramShape(nondet=case % 6 == 5, max_nondet=1, max_prints=3, max_states=12)
    prog, _ = gen_program(rng, ctx, 2, shape)
    if case % 8 == 6:
        prog = Program(parse_program_text("print 0 @ 1/2 | 1; print 0 @ 1/3 | 1").stmts
                       + prog.stmts)
    if case % 7 == 3:
        name, domain = ctx.vars[0]
        guard = Bin("=", Name(name), Lit(domain[0]))
        prog = Program((If(guard, Program((Abort(),)), Program((Skip(),))),) + prog.stmts)
    typecheck_program(prog, ctx)
    return prog


def unbounded(monkeypatch):
    """Lift the state-count bound, so only a choice or the budget stops the walk."""
    monkeypatch.setattr(semantics, "_HISTORIES", semantics._HISTORIES._replace(add=operator.add))


def test_history_sums_match_wpl(monkeypatch):
    rng = random.Random(29)
    seen = dict(compiled=0, zero=0, choice=0, budget=0, states=0)
    kinds = set()
    for case in range(400):
        prog = program(rng, case)
        extension = Z if case % 5 == 2 else EMPTY
        budget = 1 + case % 4
        post = prog.meta.post.merge(extension)
        histories = history_transformers(prog, extension, budget)
        assert history_transformers(prog, extension, budget) is histories  # kept on the program
        if histories is None:
            if any(isinstance(s, NonDet) for s in walk(prog)):
                seen["choice"] += 1
            elif weakest_preloss(prog, one_loss(post), extension, budget).truncated:
                seen["budget"] += 1
            else:
                # Only the bound stopped the walk: without it, a fresh copy compiles.
                seen["states"] += 1
                fresh = copy_program(prog)
                typecheck_program(fresh, prog.meta.pre)
                with monkeypatch.context() as m:
                    unbounded(m)
                    assert history_transformers(fresh, extension, budget) is not None, case
            continue
        seen["compiled"] += 1
        seen["zero"] += not histories
        kinds |= {type(s) for s in walk(prog)}
        assert all(m.src == prog.meta.pre.merge(extension) and m.dst == post for m in histories)
        for _ in range(3):
            E = gen_loss(rng, post, max_gens=3, inf_prob=0.15)
            expected = weakest_preloss(prog, E, extension, budget)
            got = _preloss(prog, E, extension, budget)
            assert not expected.truncated and not got.truncated, case
            assert got.pre.gens == expected.pre.gens, case
    assert kinds >= {Print, If, While}
    assert seen["compiled"] >= 100 and seen["zero"] >= 3, seen
    assert min(seen["choice"], seen["budget"], seen["states"]) >= 15, seen


def test_an_empty_part_is_its_post_loss():
    E = loss_canonicalize(gen_loss(random.Random(1), Z, max_gens=2))
    empty = Program(())
    empty.meta.pre = empty.meta.post = Z
    assert _preloss(empty, E, EMPTY, 4).pre is E


@pytest.mark.parametrize("budget, compiles", [(2, False), (3, True)])
def test_a_loop_compiles_only_within_its_budget(budget, compiles):
    """``while c != 0 { c := (c + 2) mod 3 }`` from c = 2 runs twice: its term list
    is empty only after three terms, so budget 2 gives up, as ``wpl`` truncates."""
    ctx = VarContext.of(("c", (0, 1, 2)))
    prog = parse_program_text("while c != 0 { c := (c + 2) mod 3 }")
    typecheck_program(prog, ctx)
    histories = history_transformers(prog, EMPTY, budget)
    assert (histories is not None) == compiles
    assert weakest_preloss(prog, one_loss(ctx), EMPTY, budget).truncated != compiles
    if compiles:
        assert len(histories) == 3  # one per iteration count


@pytest.mark.parametrize("prints, compiles", [(1, True), (2, False)])
def test_the_history_count_is_bounded_by_the_state_count(prints, compiles):
    """Over b : {0,1}, one coin print has two histories, two of them four:
    more than the two states, so that part gives up and runs ``wpl``."""
    ctx = VarContext.of(("b", (0, 1)))
    prog = parse_program_text("; ".join(["print 0 @ 1/2 | 1"] * prints))
    typecheck_program(prog, ctx)
    histories = history_transformers(prog, EMPTY, 4)
    assert (len(histories) == 2) if compiles else histories is None
    E = gen_loss(random.Random(prints), ctx, max_gens=3, inf_prob=0.15)
    clauses = semantics.counters["wpl_clauses"]
    got = _preloss(prog, E, EMPTY, 4)
    assert semantics.counters["wpl_clauses"] - clauses == (0 if compiles else prints)
    assert got.pre.gens == weakest_preloss(prog, E, EMPTY, 4).pre.gens
