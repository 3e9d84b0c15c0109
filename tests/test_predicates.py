import random
from fractions import Fraction
from math import gcd

import pytest

from preloss.contexts import ContextError, VarContext
from preloss.exprs import Bin, Lit, Name, indicator, predicate_of
from preloss.parsing import parse_expr_text
from preloss.predicates import INF_NUM, Predicate
from preloss.scalars import INF, fmt_scalar

from conftest import gen_predicate

Z4B = VarContext.of(("n", range(4)), ("b", range(2)))


def test_conj_idempotent_on_indicators():
    ctx = VarContext.of(("b", (0, 1)))
    e = indicator(ctx, Bin("=", Name("b"), Lit(0)))
    assert e.conj(e) == e


def test_add_of_disjoint_indicators():
    ctx = VarContext.of(("n", range(4)))
    e = Predicate.unit(ctx, (0,)) + Predicate.unit(ctx, (2,))
    assert e.entries == (Fraction(1), Fraction(0), Fraction(1), Fraction(0))


def test_scale_by_zero_kills_infinities():
    ctx = VarContext.of(("x", (0, 1)))
    e = Predicate(ctx, (INF, Fraction(3)))
    assert e.scale(0).is_zero


def test_indicator_parity_example():
    e = indicator(Z4B, parse_expr_text("(n + b) mod 2 = 0"))
    expected = {(0, 0), (1, 1), (2, 0), (3, 1)}
    for s in Z4B.states():
        assert e.at(s) == (1 if s in expected else 0)


def test_indicator_true_and_disjunction():
    ctx = VarContext.of(("n", range(4)))
    assert indicator(ctx, parse_expr_text("true")) == Predicate.ones(ctx)
    e = indicator(ctx, parse_expr_text("n = 0 || n = 3"))
    assert [e.at((i,)) for i in range(4)] == [1, 0, 0, 1]


def test_indicator_errors():
    ctx = VarContext.of(("n", range(4)))
    from preloss.exprs import EvalError

    with pytest.raises(EvalError, match="unbound"):
        indicator(ctx, Name("m"))
    with pytest.raises(EvalError):
        indicator(ctx, parse_expr_text("n + 1"))  # not boolean-valued
    with pytest.raises(EvalError):
        predicate_of(ctx, parse_expr_text("n - 2"))  # negative


def test_complement():
    ctx = VarContext.of(("b", (0, 1)))
    b0 = indicator(ctx, parse_expr_text("b = 0"))
    assert b0.complement() == indicator(ctx, parse_expr_text("b = 1"))
    assert Predicate.ones(ctx).complement().is_zero
    third = Predicate.constant(ctx, Fraction(1, 3))
    assert third.complement() == Predicate.constant(ctx, Fraction(2, 3))
    with pytest.raises(ValueError):
        Predicate.constant(ctx, 2).complement()
    assert (third + third.complement()) == Predicate.ones(ctx)


def test_extension_is_independent_of_new_vars():
    ctx = VarContext.of(("n", range(4)))
    extra = VarContext.of(("b", (0, 1)))
    even = indicator(ctx, parse_expr_text("n mod 2 = 0"))
    ext = even.extend(extra)
    assert ext.ctx == ctx.merge(extra)
    for n in range(4):
        for b in range(2):
            assert ext.at((n, b)) == even.at((n,))
    assert Predicate.zero(ctx).extend(extra).is_zero
    c = Predicate.constant(ctx, Fraction(2, 5)).extend(extra)
    assert c == Predicate.constant(ctx.merge(extra), Fraction(2, 5))


def test_extend_to_arbitrary_position():
    small = VarContext.of(("b", (0, 1)))
    big = VarContext.of(("n", range(3)), ("b", (0, 1)), ("z", (0, 1)))
    e = indicator(small, parse_expr_text("b = 1")).extend_to(big)
    for s in big.states():
        assert e.at(s) == (1 if s[1] == 1 else 0)


def test_expectation_with_inf():
    ctx = VarContext.of(("x", (0, 1)))
    e = Predicate(ctx, (INF, Fraction(1, 2)))
    assert e.expectation((Fraction(0), Fraction(1))) == Fraction(1, 2)
    assert e.expectation((Fraction(1, 2), Fraction(1, 2))) is INF


def test_cone_monotonicity_sampled():
    rng = random.Random(11)
    ctx = VarContext.of(("u", range(3)), ("v", (0, 1)))
    for _ in range(100):
        a, b, c = (gen_predicate(rng, ctx) for _ in range(3))
        if a.le(b):
            assert (a + c).le(b + c)
            assert a.scale(Fraction(3, 2)).le(b.scale(Fraction(3, 2)))
        assert Predicate.zero(ctx).le(a)


def _mixed_predicate(rng, ctx):
    """Entries drawn from 0, 1, INF and proper fractions, so every fast path runs."""
    pool = [Fraction(0), Fraction(1), INF, Fraction(1, 3), Fraction(5, 2), Fraction(7, 12)]
    return Predicate(ctx, tuple(rng.choice(pool) for _ in range(ctx.n_states)))


def test_add_and_conj_equal_the_entrywise_formulas():
    rng = random.Random(17)
    for _ in range(300):
        a, b = _mixed_predicate(rng, Z4B), _mixed_predicate(rng, Z4B)
        for x, y in ((a, b), (b, a), (a, Predicate.zero(Z4B)), (Predicate.ones(Z4B), a)):
            total = x + y
            product = x.conj(y)
            assert total.entries == tuple(p + q for p, q in zip(x.entries, y.entries))
            assert product.entries == tuple(p * q for p, q in zip(x.entries, y.entries))
            assert total == Predicate(Z4B, total.entries)
            assert product == Predicate(Z4B, product.entries)


def test_cached_hash_keeps_equality_and_repr():
    from dataclasses import replace

    rng = random.Random(23)
    preds = [_mixed_predicate(rng, Z4B) for _ in range(200)]
    for p in preds:
        q = Predicate(p.ctx, tuple(p.entries))
        text, equal = repr(p), p == q
        assert hash(p) == hash(q) == hash((p.ctx, p.entries))
        assert (repr(p), p == q) == (text, equal) == (text, True)
        assert replace(p) == p and hash(replace(p)) == hash(p)
    copies = [Predicate(p.ctx, p.entries) for p in preds]
    assert len(set(preds + copies)) == len(set(p.entries for p in preds))


# Plain entrywise formulas over Fractions and INF: the reference for the
# integer form, which every operation below runs on.
POOL = [Fraction(0), Fraction(1), INF, Fraction(1, 3), Fraction(5, 2), Fraction(7, 12),
        Fraction(3, 4), Fraction(2), Fraction(1, 6)]


def _pool_predicate(rng, ctx, pool=POOL):
    return Predicate(ctx, tuple(rng.choice(pool) for _ in range(ctx.n_states)))


def _via_ints(p):
    """An equal predicate whose entries come out of integer operations."""
    return p + Predicate.zero(p.ctx)


def _assert_lowest_terms(p):
    finite = [n for n in p.nums if n != INF_NUM]
    assert p.den > 0 and min(finite, default=0) >= 0
    assert gcd(p.den, *finite) == 1


def test_integer_form_equals_the_entrywise_formulas():
    rng = random.Random(29)
    small = [Fraction(0), Fraction(1), Fraction(1, 3), Fraction(2, 3), Fraction(1, 2)]
    for _ in range(400):
        a, b = _pool_predicate(rng, Z4B), _pool_predicate(rng, Z4B)
        for x, y in ((a, b), (_via_ints(a), b), (a, _via_ints(b)), (a, a), (b, Predicate.ones(Z4B))):
            X, Y = x.entries, y.entries
            for result, expected in ((x + y, [p + q for p, q in zip(X, Y)]),
                                     (x.conj(y), [p * q for p, q in zip(X, Y)]),
                                     (x.scale(Fraction(3, 4)), [Fraction(3, 4) * p for p in X]),
                                     (x.scale(0), [p * 0 for p in X]),
                                     (x.scale(INF), [INF * p for p in X])):
                assert result.entries == tuple(expected)
                _assert_lowest_terms(result)
            assert x.le(y) == all(p <= q for p, q in zip(X, Y))
            assert y.le(x) == all(q <= p for p, q in zip(X, Y))
            assert x.is_zero == all(p == 0 for p in X)
        c = _pool_predicate(rng, Z4B, small + [Fraction(5, 4)] * (rng.random() < 0.3)
                            + [INF] * (rng.random() < 0.3))
        bad = [p for p in c.entries if p is INF or p > 1]
        if bad:
            with pytest.raises(ValueError, match=f"entry {fmt_scalar(bad[0])} > 1"):
                c.complement()
        else:
            assert c.complement().entries == tuple(1 - p for p in c.entries)
            _assert_lowest_terms(c.complement())
    assert Predicate.zero(Z4B).is_zero and not Predicate.constant(Z4B, INF).is_zero


def test_extend_to_equals_the_projection_formula():
    rng = random.Random(31)
    small = VarContext.of(("b", (0, 1)), ("m", ("x", "y", "z")))
    big = VarContext.of(("n", range(3)), ("m", ("x", "y", "z")), ("c", (0, 1)), ("b", (0, 1)))
    positions = [big.position_of(name) for name in small.names]
    for _ in range(60):
        p = _pool_predicate(rng, small)
        for q in (p, _via_ints(p)):
            e = q.extend_to(big)
            assert e.entries == tuple(q.at([s[i] for i in positions]) for s in big.states())
            _assert_lowest_terms(e)
    with pytest.raises(ContextError, match="domain mismatch"):
        p.extend_to(VarContext.of(("b", (0, 1, 2)), ("m", ("x", "y", "z"))))
    with pytest.raises(ContextError, match="unknown variable"):
        p.extend_to(VarContext.of(("b", (0, 1)), ("k", (0, 1))))


def test_fraction_built_and_integer_built_predicates_are_one_value():
    rng = random.Random(37)
    built, derived = [], []
    for _ in range(300):
        p = _pool_predicate(rng, Z4B)
        q = _via_ints(p).conj(Predicate.ones(Z4B))
        assert "entries" not in q.__dict__   # the integer route builds no Fractions
        assert p == q and q == p and hash(p) == hash(q)
        assert hash(q) == hash((q.ctx, q.entries))
        assert (p.den, p.nums) == (q.den, q.nums)
        built.append(p)
        derived.append(q)
    assert len(set(built + derived)) == len(set(built)) == len({p.entries for p in built})
    assert Predicate(Z4B, (1,) * 8) == Predicate.ones(Z4B)
    assert Predicate(Z4B, (Fraction(2, 4),) * 8) == Predicate.constant(Z4B, Fraction(1, 2))
    with pytest.raises(ValueError, match="nonnegative"):
        Predicate(Z4B, (Fraction(-1),) + (Fraction(0),) * 7).nums
