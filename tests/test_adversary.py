import itertools
import random
from fractions import Fraction

import pytest

from preloss.adversary import (
    LoopFreeError, StrategyError, choice_points, min_bayes_risk,
    min_bayes_risk_exhaustive, run_strategy,
)
from preloss.contexts import VarContext
from preloss.losses import LossFunction, embed, eval_loss, one_loss, uniform_dist
from preloss.parsing import parse_program_text
from preloss.predicates import Predicate
from preloss.scalars import INF, ZERO
from preloss.semantics import weakest_preloss
from preloss.typecheck import typecheck_program

from conftest import (
    ProgramShape, gen_context, gen_dist, gen_loss, gen_program, gen_typed_program, with_aborts,
)

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


# ------------------------------------------------ the Fraction walker, kept as a reference
# A private copy of the forward oracle as it computed before it ran on
# integer numerators: every step in ``Fraction``s, recursing at every split.

def _ref_push(s, mu):
    from preloss.exprs import predicate_of
    from preloss.syntax import Assert, Assign, HidVar, Skip, Unvar

    if isinstance(s, Skip):
        return mu
    if isinstance(s, Assign):
        k = s.meta.kernel
        out = [Fraction(0)] * k.dst.n_states
        for i, w in enumerate(mu):
            if w:
                for j, p in k.rows[i]:
                    out[j] += w * p
        return out
    if isinstance(s, HidVar):
        k = s.meta.kernel
        d = len(s.meta.post.domain_of(s.name))
        out = [Fraction(0)] * (len(mu) * d)
        for y, w in enumerate(mu):
            if w:
                for j, p in k.rows[y]:
                    out[y * d + j % d] += w * p
        return out
    if isinstance(s, Unvar):
        pre, post = s.meta.pre, s.meta.post
        positions = [pre.position_of(n) for n in post.names]
        out = [Fraction(0)] * post.n_states
        for i, w in enumerate(mu):
            if w:
                state = pre.state(i)
                out[post.index_of(tuple(state[p] for p in positions))] += w
        return out
    assert isinstance(s, Assert)
    g = predicate_of(s.meta.pre, s.guard, mode="unit")
    return [w * Fraction(g.entries[i]) if w else w for i, w in enumerate(mu)]


def _ref_walk(cont, mu, history, leaf, choose):
    from preloss.exprs import predicate_of
    from preloss.syntax import Abort, Assert, Assign, HidVar, If, NonDet, Print, Skip, Unvar

    i = 0
    while any(mu):
        if i == len(cont):
            return leaf(history, mu)
        s = cont[i]
        if not isinstance(s, (Skip, Assign, HidVar, Unvar, Assert)):
            break
        mu = _ref_push(s, mu)
        i += 1
    else:
        return ZERO
    rest = cont[i + 1:]
    if isinstance(s, Abort):
        return ZERO
    if isinstance(s, Print):
        k = s.meta.kernel
        total = ZERO
        for w_idx, value in enumerate(k.dst.vars[0][1]):
            split = [Fraction(0)] * len(mu)
            for j, w in enumerate(mu):
                if w:
                    for idx, p in k.rows[j]:
                        if idx == w_idx:
                            split[j] += w * p
            total = total + _ref_walk(rest, split, history + (("print", s.meta.label, value),),
                                      leaf, choose)
        return total
    if isinstance(s, If):
        g = predicate_of(s.meta.pre, s.guard, mode="unit")
        mu_t = [w * Fraction(g.entries[j]) for j, w in enumerate(mu)]
        mu_f = [w - t for w, t in zip(mu, mu_t)]
        return (_ref_walk(s.then.stmts + rest, mu_t, history + (("branch", s.meta.label, True),),
                          leaf, choose)
                + _ref_walk(s.orelse.stmts + rest, mu_f,
                            history + (("branch", s.meta.label, False),), leaf, choose))
    assert isinstance(s, NonDet)
    return choose((history, s.meta.label),
                  lambda: _ref_walk(s.left.stmts + rest, mu, history, leaf, choose),
                  lambda: _ref_walk(s.right.stmts + rest, mu, history, leaf, choose))


def _ref_final_risk(mu, loss):
    best = None
    for g in loss.gens:
        total = ZERO
        for e, w in zip(g.entries, mu):
            if w:
                total = total + e * w
        if best is None or total < best:
            best = total
    return best


def _ref_min_bayes_risk(prog, prior, loss):
    return _ref_walk(prog.stmts, list(prior), (),
                     lambda history, mu: _ref_final_risk(mu, loss),
                     lambda key, left, right: min(left(), right()))


def _ref_run_strategy(prog, prior, strategy):
    from preloss.adversary import Branch

    done = []

    def leaf(history, mu):
        total = sum(mu)
        done.append(Branch(history, total, prog.meta.post, tuple(w / total for w in mu)))
        return ZERO

    _ref_walk(prog.stmts, list(prior), (), leaf,
              lambda key, left, right: left() if strategy[key] == "left" else right())
    return done


def _ref_choice_points(prog, prior):
    found = {}

    def choose(key, left, right):
        found.setdefault(key)
        return left() + right()

    _ref_walk(prog.stmts, list(prior), (), lambda history, mu: ZERO, choose)
    return list(found)


def _ref_exhaustive(prog, prior, loss, points):
    best = None
    for sides in itertools.product(("left", "right"), repeat=len(points)):
        strategy = dict(zip(points, sides))
        total = ZERO
        for b in _ref_run_strategy(prog, prior, strategy):
            total = total + _ref_final_risk([w * b.mass for w in b.posterior], loss)
        if best is None or total < best:
            best = total
    return best


def _loop_free_case(rng):
    """A typechecked loop-free program where about half the ``skip``s are ``abort``s."""
    shape = ProgramShape(loops=False, max_nondet=3, max_states=8)
    ctx = gen_context(rng, max_states=6)
    prog, _ = gen_program(rng, ctx, rng.randint(1, 4), shape)
    typecheck_program(with_aborts(rng, prog), ctx)
    return ctx, prog


def test_integer_walker_matches_fraction_walker():
    """Risks, choice points, branches and the exhaustive audit equal the Fraction walker's.

    The cases have ``abort``, ``assert``, fractional guards, zero-mass
    branches, priors with zero and point weights and losses with ``INF``;
    a point prior makes many prints and conditionals leave mass on one part.
    Typechecking labels the sites both walkers name.
    """
    counts = dict.fromkeys(("inf_risk", "abort", "one_part", "strategies"), 0)
    for i in range(400):
        rng = random.Random(31_000 + i)
        ctx, prog = _loop_free_case(rng)
        post = prog.meta.post
        if rng.random() < 0.3:
            prior = [Fraction(0)] * ctx.n_states
            prior[rng.randrange(ctx.n_states)] = Fraction(1)
            prior = tuple(prior)
        else:
            prior = gen_dist(rng, ctx, total=True)
        points = _ref_choice_points(prog, prior)
        assert choice_points(prog, prior) == points, f"case {i}"
        for _ in range(3):
            loss = gen_loss(rng, post, max_gens=3, inf_prob=0.15)
            risk = _ref_min_bayes_risk(prog, prior, loss)
            assert min_bayes_risk(prog, prior, loss) == risk, f"case {i}"
            if len(points) <= 6:
                assert min_bayes_risk_exhaustive(prog, prior, loss) == \
                    _ref_exhaustive(prog, prior, loss, points) == risk, f"case {i}"
            counts["inf_risk"] += risk == INF
        sides_list = list(itertools.product(("left", "right"), repeat=len(points)))
        for sides in rng.sample(sides_list, min(4, len(sides_list))):
            strategy = dict(zip(points, sides))
            branches = run_strategy(prog, prior, strategy)
            assert branches == _ref_run_strategy(prog, prior, strategy), f"case {i}"
            counts["strategies"] += 1
            counts["one_part"] += any(len(b.history) > 0 for b in branches) and len(branches) == 1
        counts["abort"] += "Abort" in repr(prog)
    assert min(counts.values()) >= 20, counts


def test_sites_are_labelled_once_per_program(monkeypatch):
    """Typechecking labels the sites; the exhaustive audit looks for loops once
    per program, not once per strategy, and rejects a looping program each time."""
    from preloss import adversary
    from preloss.syntax import walk

    calls = []
    real = adversary.walk
    monkeypatch.setattr(adversary, "walk", lambda prog: calls.append(prog) or real(prog))
    prog = typed("print b; { b := 0 } [] { b := 1 }; { skip } [] { b := 1 - b }", B)
    assert [s.meta.label for s in walk(prog)] == ["pr#0", "nd#1", None, None, "nd#2", None, None]
    assert min_bayes_risk_exhaustive(prog, uniform_dist(B), one_loss(B)) == 1
    assert min_bayes_risk(prog, uniform_dist(B), one_loss(B)) == 1
    assert len(calls) == 1
    looping = typed("while b = 1 { b := 0 }", B)
    for _ in range(2):
        with pytest.raises(LoopFreeError):
            choice_points(looping, uniform_dist(B))
    assert len(calls) == 2


def test_long_random_runs_stay_exact():
    """Denominators past 2**64 are reduced without changing any value.

    Each round keeps 2/3 of the mass, so the numerators' gcd does not
    divide the denominator; prints in the run leave mass on one value.
    """
    x2 = VarContext.of(("x", (0, 1)))
    prog = typed("; ".join(["x := 0 @ 1/3 | 1; assert x = 1; print x"] * 60), x2)
    loss = LossFunction(x2, (Predicate.from_entries(x2, (Fraction(5), Fraction(7))),))
    prior = (Fraction(1, 2), Fraction(1, 2))
    risk = min_bayes_risk(prog, prior, loss)
    assert risk == 7 * Fraction(2, 3) ** 60
    assert risk == min_bayes_risk_exhaustive(prog, prior, loss) == \
        eval_loss(weakest_preloss(prog, loss).pre, prior)
    (branch,) = run_strategy(prog, prior, {})
    assert branch.mass == Fraction(2, 3) ** 60 and branch.posterior == (0, 1)
    assert len(branch.history) == 60
