import random
from fractions import Fraction

import pytest

from preloss.contexts import ContextError, VarContext
from preloss.kernels import Kernel, Transformer, diag_kernel
from preloss.losses import loss_canonicalize, loss_map
from preloss.predicates import INF_NUM, Predicate

from conftest import gen_context, gen_kernel, gen_loss, gen_predicate


def row_sums(m):
    """Each row's weight total, from the integer form."""
    return [Fraction(sum(w for _, w in row), m.den) for row in m.nums]


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
    assert row_sums(half) == [Fraction(1, 2)] * 2
    assert half.dual_apply(Predicate.ones(src)) == Predicate.constant(src, Fraction(1, 2))
    total = Kernel.identity(src)
    assert row_sums(total) == [1, 1]
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


def test_a_kernel_is_a_transformer():
    """A kernel applies, and maps losses, exactly as its dual transformer does."""
    rng = random.Random(61)
    with_inf = 0
    for case in range(120):
        src, dst = gen_context(rng, max_states=6), gen_context(rng, max_states=6)
        f = gen_kernel(rng, src, dst, total=case % 3 == 0)
        assert isinstance(f, Transformer) and type(f.dual()) is Transformer
        inf_prob = 0.3 if case % 2 else 0.0
        e = gen_predicate(rng, dst, inf_prob=inf_prob)
        assert f.apply(e) == f.dual().apply(e) == f.dual_apply(e)
        E = loss_canonicalize(gen_loss(rng, dst, inf_prob=inf_prob))
        assert loss_map(f, E).gens == loss_map(f.dual(), E).gens
        with_inf += any(INF_NUM in g.nums for g in (e,) + E.gens)
    assert with_inf >= 30


MATRIX_CLASSES = pytest.mark.parametrize("cls", [Kernel, Transformer], ids=lambda c: c.__name__)


@MATRIX_CLASSES
def test_constructors_and_products_build_the_class_they_are_called_on(cls):
    rng = random.Random(67)
    x, y = VarContext.of(("x", (0, 1))), VarContext.of(("y", range(3)))
    f = cls.from_rows(x, y, [dict(row) for row in gen_kernel(rng, x, y).rows])
    g = cls.from_ints(y, x, 4, [{0: 1, 1: 3}, {1: 2}, {}])
    built = [cls.identity(x), f, g, f.compose(g), f.tensor(g)]
    assert [type(m) for m in built] == [cls] * len(built)


@MATRIX_CLASSES
def test_a_wrong_row_count_names_the_class(cls):
    x = VarContext.of(("x", (0, 1)))
    with pytest.raises(ContextError, match=f"^{cls.__name__.lower()} row count mismatch$"):
        cls(x, x, 1, (((0, 1),),))


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
    prod = Predicate.from_entries(z.merge(w), tuple(
        a * b for a in e1.entries for b in e2.entries))
    lhs = f.tensor(g).apply(prod)
    fa, gb = f.apply(e1), g.apply(e2)
    rhs = Predicate.from_entries(x.merge(y), tuple(a * b for a in fa.entries for b in gb.entries))
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
        assert all(s <= 1 for s in row_sums(f) + row_sums(g))
        assert all(s <= 1 for s in row_sums(f.tensor(g)))


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
    prod = Predicate.from_entries(k.dst, tuple(a * b for a in e1.entries for b in e2.entries))
    assert k.dual_apply(prod) == e1.conj(e2)


def test_diag_route_matches_direct_summation():
    """diag-dual . (id (x) f-dual) equals the declaration clause's action."""
    rng = random.Random(41)
    y = VarContext.of(("n", range(4)))
    y_copy = VarContext.of(("n$", range(4)))  # diag's copy coordinate
    x = VarContext.of(("b", (0, 1)))
    f = gen_kernel(rng, y_copy, x)
    composed = diag_kernel(y).dual().compose(Transformer.identity(y).tensor(f.dual()))
    pair = y.merge(x)
    assert composed.dst == pair and composed.src == y
    for _ in range(25):
        e = gen_predicate(rng, pair)

        def direct_fn(s):
            row = f.rows[y_copy.index_of((s[0],))]
            return sum((w * e.at((s[0], x.state(j)[0])) for j, w in row), Fraction(0))

        assert composed.apply(e) == Predicate.from_function(y, direct_fn)


def _fraction_apply(f, e):
    """The reference: each row's sum of ``e.entries[j] * w`` in ``Fraction``s."""
    from preloss.scalars import ZERO

    out = []
    for row in f.rows:
        total = ZERO
        for j, w in row:
            total = total + e.entries[j] * w
        out.append(total)
    return Predicate.from_entries(f.src, tuple(out))


def test_apply_equals_the_row_sum():
    """Point-mass rows are copied; every row must still equal its plain sum."""
    from preloss.scalars import INF

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
        e = Predicate.from_entries(dst, tuple(rng.choice(pool) for _ in range(dst.n_states)))
        assert f.apply(e).entries == _fraction_apply(f, e).entries


def test_integer_rows_apply_equals_the_row_sum():
    """Copy-only transformers, zero weights, int weights and INF sources."""
    from preloss.scalars import INF

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
        e = Predicate.from_entries(dst, tuple(rng.choice(pool) for _ in range(dst.n_states)))
        expected = _fraction_apply(f, e).entries
        for source in (e, e + Predicate.zero(dst)):
            image = f.apply(source)
            assert image.entries == expected
            assert image == Predicate.from_entries(src, expected)


def test_ell_plan_matches_the_fraction_row_sum():
    """Every matrix shape the plan distinguishes, with and without INF inputs."""
    rng = random.Random(53)
    shapes = ("mixed", "uniform", "single", "empty", "partial")
    seen = {shape: set() for shape in shapes}
    for case in range(500):
        shape = shapes[case % len(shapes)]
        src = VarContext(()) if case % 7 == 0 else gen_context(rng, max_states=8)   # one row
        dst = gen_context(rng, max_states=8)
        w = Fraction(rng.randint(1, 6), rng.randint(1, 4))
        rows = []
        for _ in range(src.n_states):
            if shape == "empty" or (shape == "partial" and rng.random() < 0.4):
                rows.append({})
            elif shape in ("single", "partial"):   # one weight-1 entry: a copy
                rows.append({rng.randrange(dst.n_states): Fraction(1)})
            else:
                cols = rng.sample(range(dst.n_states), rng.randint(0, min(4, dst.n_states)))
                rows.append({j: w if shape == "uniform" else
                             Fraction(rng.randint(1, 6), rng.randint(1, 4)) for j in cols})
        f = Transformer.from_rows(src, dst, rows)
        seen[shape].update(type(weights).__name__ for _, weights in f.plan)
        inf_prob = 0.3 if case % 2 else 0.0
        for e in (gen_predicate(rng, dst, inf_prob=inf_prob), Predicate.zero(dst)):
            assert f.apply(e) == _fraction_apply(f, e)
    assert seen["empty"] == set() and seen["single"] == {"int"}
    assert seen["uniform"] == {"int"} and seen["mixed"] == {"int", "tuple"}


def test_ell_plan_on_the_statement_transformers():
    """Assign, declare, unvar and assert, with and without a correlated extension."""
    from preloss.parsing import parse_program_text
    from preloss.semantics import linear_transformer
    from preloss.syntax import Assert, Assign, HidVar, Program, Unvar, walk
    from preloss.typecheck import typecheck_program

    rng = random.Random(59)
    n4 = VarContext.of(("n", range(4)), ("b", (0, 1)))
    z = VarContext.of(("z", range(3)))
    programs = [
        ("n := n + 1", Assign), ("n := n @ 1/3 | 0", Assign), ("b := 1 - b", Assign),
        ("hidvar x := n [] 2", HidVar), ("hidvar x := uniform(0..2)", HidVar),
        ("hidvar x : {0,1} := b @ 1/4 | 1", HidVar),
        ("hidvar x : {0,1} := b; unvar x", Unvar),
        ("assert n = 2", Assert), ("assert 1/3", Assert),
    ]
    for text, kind in programs:
        prog = parse_program_text(text)
        typecheck_program(prog, n4)
        stmt = next(s for s in walk(prog) if isinstance(s, kind))   # a choice's first limb
        for ext in (VarContext(()), z):
            f = linear_transformer(Program((stmt,)), ext)
            for _ in range(10):
                e = gen_predicate(rng, f.dst, inf_prob=0.2 if rng.random() < 0.5 else 0.0)
                assert f.apply(e) == _fraction_apply(f, e)
