import random
from fractions import Fraction

import pytest

from preloss.contexts import VarContext
from preloss.kernels import Kernel, Transformer, diag_dual, diag_kernel
from preloss.predicates import Predicate

from conftest import gen_context, gen_kernel, gen_predicate


def test_identity_dual_is_identity():
    ctx = VarContext.of(("x", range(3)))
    k = Kernel.identity(ctx)
    rng = random.Random(0)
    for _ in range(20):
        e = gen_predicate(rng, ctx)
        assert k.dual_apply(e) == e


def test_fair_coin_dual():
    src = VarContext.of(("b", (0, 1)))
    coin = Kernel.from_rows(src, src, [
        {0: Fraction(1, 2), 1: Fraction(1, 2)},
        {0: Fraction(1, 2), 1: Fraction(1, 2)},
    ])
    b0 = Predicate.unit(src, (0,))
    assert coin.dual_apply(b0) == Predicate.constant(src, Fraction(1, 2))


def test_substochastic_dual_of_ones():
    src = VarContext.of(("x", (0, 1)))
    half = Kernel.from_rows(src, src, [{0: Fraction(1, 2)}, {1: Fraction(1, 2)}])
    assert not half.is_total
    assert half.dual_apply(Predicate.ones(src)) == Predicate.constant(src, Fraction(1, 2))
    total = Kernel.identity(src)
    assert total.is_total
    assert total.dual_apply(Predicate.ones(src)) == Predicate.ones(src)


def test_dual_linearity_random():
    rng = random.Random(5)
    for _ in range(100):
        src = gen_context(rng, max_states=8)
        dst = gen_context(rng, max_states=8)
        f = gen_kernel(rng, src, dst)
        e1, e2 = gen_predicate(rng, dst), gen_predicate(rng, dst)
        r = Fraction(rng.randint(0, 8), 4)
        lhs = f.dual_apply(e1.scale(r) + e2)
        rhs = f.dual_apply(e1).scale(r) + f.dual_apply(e2)
        assert lhs == rhs


def test_row_sum_and_positivity_invariants():
    ctx = VarContext.of(("x", (0, 1)))
    with pytest.raises(ValueError):
        Kernel.from_rows(ctx, ctx, [{0: Fraction(3, 4), 1: Fraction(1, 2)}, {}])
    with pytest.raises(ValueError):
        Kernel.from_rows(ctx, ctx, [{0: Fraction(0)}, {}])


def test_kernel_composition_stays_substochastic():
    rng = random.Random(9)
    for _ in range(100):
        a = gen_context(rng, max_states=6)
        b = gen_context(rng, max_states=6)
        c = gen_context(rng, max_states=6)
        f = gen_kernel(rng, a, b)
        g = gen_kernel(rng, b, c)
        fg = f.compose(g)  # row sums <= 1 checked by the constructor
        assert fg.src == a and fg.dst == c


def test_tensor_identity_law():
    x = VarContext.of(("x", (0, 1)))
    y = VarContext.of(("y", range(3)))
    t = Transformer.identity(x).tensor(Transformer.identity(y))
    assert t.rows == Transformer.identity(x.merge(y)).rows


def test_tensor_on_rectangles():
    rng = random.Random(3)
    x, y = VarContext.of(("x", (0, 1))), VarContext.of(("y", range(3)))
    z, w = VarContext.of(("z", (0, 1))), VarContext.of(("w", (0, 1)))
    f = gen_kernel(rng, x, z).dual()
    g = gen_kernel(rng, y, w).dual()
    e1, e2 = gen_predicate(rng, z), gen_predicate(rng, w)
    # (f (x) g)(e1 (x) e2) = f(e1) (x) g(e2)
    prod = Predicate(z.merge(w), tuple(
        a * b for a in e1.entries for b in e2.entries))
    lhs = f.tensor(g).apply(prod)
    fa, gb = f.apply(e1), g.apply(e2)
    rhs = Predicate(x.merge(y), tuple(a * b for a in fa.entries for b in gb.entries))
    assert lhs == rhs


def test_tensor_functoriality_random():
    rng = random.Random(17)
    for _ in range(100):
        a1, a2, a3 = (gen_context(rng, max_states=4, prefix="a") for _ in range(3))
        b1, b2, b3 = (gen_context(rng, max_states=4, prefix="b") for _ in range(3))
        f = gen_kernel(rng, a1, a2).dual()
        f2 = gen_kernel(rng, a2, a3).dual()
        g = gen_kernel(rng, b1, b2).dual()
        g2 = gen_kernel(rng, b2, b3).dual()
        lhs = f.tensor(g).compose(f2.tensor(g2))
        rhs = f.compose(f2).tensor(g.compose(g2))
        assert lhs.rows == rhs.rows and lhs.src == rhs.src and lhs.dst == rhs.dst


def test_tensor_partiality_closure():
    rng = random.Random(23)
    for _ in range(100):
        a, b = gen_context(rng, max_states=6, prefix="a"), gen_context(rng, max_states=6, prefix="a")
        c, d = gen_context(rng, max_states=6, prefix="c"), gen_context(rng, max_states=6, prefix="c")
        f = gen_kernel(rng, a, b).dual()
        g = gen_kernel(rng, c, d).dual()
        assert f.is_partial and g.is_partial
        assert f.tensor(g).is_partial


def test_diag_dual_on_equality_predicate():
    ctx = VarContext.of(("y", range(3)))
    k = diag_kernel(ctx)
    pair_ctx = k.dst
    eq = Predicate.from_function(pair_ctx, lambda s: 1 if s[0] == s[1] else 0)
    assert k.dual_apply(eq) == Predicate.ones(ctx)


def test_diag_dual_on_products_is_conjunction():
    rng = random.Random(31)
    ctx = VarContext.of(("y", range(3)))
    k = diag_kernel(ctx)
    e1, e2 = gen_predicate(rng, ctx), gen_predicate(rng, ctx)
    prod = Predicate(k.dst, tuple(a * b for a in e1.entries for b in e2.entries))
    assert k.dual_apply(prod) == e1.conj(e2)


def test_diag_route_matches_direct_summation():
    """diag-dual . (id (x) f-dual) equals the declaration clause's action."""
    rng = random.Random(41)
    y = VarContext.of(("n", range(4)))
    y_copy = VarContext.of(("n$", range(4)))  # diag's copy coordinate
    x = VarContext.of(("b", (0, 1)))
    f = gen_kernel(rng, y_copy, x)
    composed = diag_dual(y).compose(Transformer.identity(y).tensor(f.dual()))
    pair = y.merge(x)
    assert composed.dst == pair and composed.src == y
    for _ in range(25):
        e = gen_predicate(rng, pair)

        def direct_fn(s):
            row = f.rows[y_copy.index_of((s[0],))]
            return sum((w * e.at((s[0], x.state(j)[0])) for j, w in row), Fraction(0))

        assert composed.apply(e) == Predicate.from_function(y, direct_fn)


def test_apply_equals_the_row_sum():
    """Point-mass rows are copied; every row must still equal its plain sum."""
    from preloss.scalars import INF, ZERO

    rng = random.Random(31)
    pool = [Fraction(0), Fraction(1), INF, Fraction(1, 3), Fraction(5, 2)]
    weights = [Fraction(1), Fraction(1), Fraction(1, 2), Fraction(3, 4), Fraction(2)]
    for _ in range(200):
        src = gen_context(rng, max_states=8)
        dst = gen_context(rng, max_states=8)
        rows = []
        for _ in range(src.n_states):
            targets = rng.sample(range(dst.n_states), rng.randint(0, min(3, dst.n_states)))
            rows.append({j: rng.choice(weights) for j in targets})
        f = Transformer.from_rows(src, dst, rows)
        e = Predicate(dst, tuple(rng.choice(pool) for _ in range(dst.n_states)))
        expected = []
        for row in f.rows:
            total = ZERO
            for j, w in row:
                total = total + e.entries[j] * w
            expected.append(total)
        assert f.apply(e).entries == tuple(expected)


def test_integer_rows_apply_equals_the_row_sum():
    """Copy-only transformers, zero weights, int weights and INF sources."""
    from preloss.scalars import INF, ZERO

    rng = random.Random(41)
    pool = [Fraction(0), Fraction(1), INF, Fraction(1, 3), Fraction(5, 2), Fraction(7, 6)]
    weights = [1, Fraction(1), Fraction(0), Fraction(1, 2), Fraction(3, 4), Fraction(2, 7), 2]
    for case in range(300):
        src = gen_context(rng, max_states=8)
        dst = gen_context(rng, max_states=8)
        if case % 3 == 0:   # every row a single weight 1: the rows are copied
            rows = [{rng.randrange(dst.n_states): Fraction(1)} for _ in range(src.n_states)]
        else:
            rows = [{j: rng.choice(weights)
                     for j in rng.sample(range(dst.n_states), rng.randint(0, min(3, dst.n_states)))}
                    for _ in range(src.n_states)]
        f = Transformer.from_rows(src, dst, rows)
        e = Predicate(dst, tuple(rng.choice(pool) for _ in range(dst.n_states)))
        expected = []
        for row in f.rows:
            total = ZERO
            for j, w in row:
                total = total + e.entries[j] * w
            expected.append(total)
        for source in (e, e + Predicate.zero(dst)):
            image = f.apply(source)
            assert image.entries == tuple(expected)
            assert image == Predicate(src, tuple(expected))
