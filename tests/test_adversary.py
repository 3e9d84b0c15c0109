import itertools
import random
from fractions import Fraction

import pytest

from preloss.adversary import (
    LoopFreeError, StrategyError, choice_points, min_bayes_risk,
    min_bayes_risk_exhaustive, run_strategy,
)
from preloss.contexts import VarContext
from preloss.losses import embed, eval_loss, one_loss, uniform_dist
from preloss.parsing import parse_program_text
from preloss.predicates import Predicate
from preloss.semantics import weakest_preloss
from preloss.typecheck import typecheck_program

from conftest import ProgramShape, gen_dist, gen_loss, gen_typed_program

N4 = VarContext.of(("n", range(4)))
B = VarContext.of(("b", (0, 1)))


def typed(src, ctx):
    prog = parse_program_text(src)
    typecheck_program(prog, ctx)
    return prog


def test_skip_single_branch():
    prog = typed("skip", B)
    branches = run_strategy(prog, uniform_dist(B), {})
    assert len(branches) == 1
    (b,) = branches
    assert b.mass == 1 and b.posterior == uniform_dist(B) and b.history == ()


def test_print_splits_with_point_posteriors():
    prog = typed("print b", B)
    branches = run_strategy(prog, uniform_dist(B), {})
    assert len(branches) == 2
    for br in branches:
        assert br.mass == Fraction(1, 2)
        assert sorted(br.posterior) == [0, 1]
        assert br.history[0][0] == "print"


def test_reveal_then_choice_branch_structure():
    prog = typed("print (n div 2); hidvar b : {0,1} := {0} [] {1}", N4)
    prior = uniform_dist(N4)
    points = choice_points(prog, prior)
    assert len(points) == 2  # one nondet site, reachable under two histories
    histories = {h for h, _ in points}
    assert len(histories) == 2
    strategy = {p: "left" for p in points}
    branches = run_strategy(prog, prior, strategy)
    assert len(branches) == 2
    assert all(b.mass == Fraction(1, 2) for b in branches)


def test_strategy_must_be_total():
    prog = typed("{ b := 0 } [] { b := 1 }", B)
    with pytest.raises(StrategyError):
        run_strategy(prog, uniform_dist(B), {})


def test_loops_rejected():
    prog = typed("while b = 1 { b := 0 @ 1/2 | 1 }", B)
    with pytest.raises(LoopFreeError):
        min_bayes_risk(prog, uniform_dist(B), one_loss(B))


def test_abort_contributes_zero_risk():
    prog = typed("assert b = 0", B)
    assert min_bayes_risk(prog, uniform_dist(B), one_loss(B)) == Fraction(1, 2)
    prog2 = typed("abort", B)
    assert min_bayes_risk(prog2, uniform_dist(B), one_loss(B)) == 0


def test_skip_total_risk_is_one():
    prog = typed("skip", B)
    assert min_bayes_risk(prog, uniform_dist(B), one_loss(B)) == 1


def test_highbit_reveal_risk_formula():
    """With d(0) <= d(1) and d(3) <= d(2), the optimal resolver achieves
    exactly d(0) + d(3) against the parity loss."""
    prog = typed("print (n div 2); hidvar b : {0,1} := {0} [] {1}", N4)
    post = prog.meta.post
    parity = embed(Predicate.from_function(post, lambda s: 1 if (s[0] + s[1]) % 2 == 0 else 0))
    cases = [
        (Fraction(1, 8), Fraction(3, 8), Fraction(3, 8), Fraction(1, 8)),
        (Fraction(0), Fraction(1, 2), Fraction(1, 4), Fraction(1, 4)),
        (Fraction(1, 4), Fraction(1, 4), Fraction(1, 4), Fraction(1, 4)),
    ]
    for d in cases:
        assert d[0] <= d[1] and d[3] <= d[2]
        assert min_bayes_risk(prog, d, parity) == d[0] + d[3]


def test_greedy_equals_exhaustive_small():
    rng = random.Random(100)
    prog = typed(
        "print b; { b := 0 } [] { b := 1 @ 1/2 | 0 }; { skip } [] { b := 1 }", B)
    for _ in range(20):
        E = gen_loss(rng, B)
        assert min_bayes_risk(prog, uniform_dist(B), E) == \
            min_bayes_risk_exhaustive(prog, uniform_dist(B), E)


def test_exhaustive_cap():
    prog = typed("; ".join(["{ skip } [] { b := 1 }"] * 5), B)
    with pytest.raises(ValueError, match="cap"):
        min_bayes_risk_exhaustive(prog, uniform_dist(B), one_loss(B), cap=3)


def test_duality_on_handpicked_programs():
    programs = [
        ("skip", B),
        ("print b", B),
        ("{ b := 0 } [] { b := 1 }", B),
        ("assert b = 0; print b", B),
        ("hidvar x : {0,1} := b; print x; unvar x", B),
        ("if n <= 1 { n := 0 } else { n := n - 2 @ 1/2 | n }", N4),
        ("print (n div 2); hidvar b : {0,1} := {0} [] {1}", N4),
    ]
    rng = random.Random(55)
    for src, ctx in programs:
        prog = typed(src, ctx)
        for _ in range(10):
            E = gen_loss(rng, prog.meta.post)
            prior = uniform_dist(ctx)
            risk = min_bayes_risk(prog, prior, E)
            value = eval_loss(weakest_preloss(prog, E).pre, prior)
            assert risk == value, src


def test_walker_branches_are_consistent():
    """Every strategy over the choice points runs to branches with distinct
    histories, and the least total branch mass over all strategies is the
    optimal risk against the all-ones loss, which is also wpl at the prior."""
    split_cases = 0  # cases whose choices meet split histories
    for i in range(120):
        rng = random.Random(90_000 + i)
        shape = ProgramShape(loops=False, max_nondet=3)
        ctx, prog, post = gen_typed_program(rng, depth=rng.randint(2, 4), shape=shape,
                                            max_states=8)
        prior = gen_dist(rng, ctx, total=True)
        points = choice_points(prog, prior)
        if len(points) > 8:
            continue
        masses, widths = [], []
        for sides in itertools.product(("left", "right"), repeat=len(points)):
            branches = run_strategy(prog, prior, dict(zip(points, sides)))
            histories = [b.history for b in branches]
            assert len(set(histories)) == len(histories), f"case {i}"
            masses.append(sum(b.mass for b in branches))
            widths.append(len(branches))
        risk = min_bayes_risk(prog, prior, one_loss(post))
        assert min(masses) == risk, f"case {i}"
        assert eval_loss(weakest_preloss(prog, one_loss(post)).pre, prior) == risk, f"case {i}"
        split_cases += bool(points) and max(widths) > 1
    assert split_cases >= 15
