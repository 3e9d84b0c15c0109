import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from preloss import lp
from preloss.contexts import ContextError, VarContext
from preloss.losses import (
    LossFunction, embed, eval_loss, is_zero_loss, loss_add, loss_canonicalize,
    loss_conj, loss_equal, loss_map, loss_member_certified,
    loss_min, loss_refines, loss_scale, one_loss, point_dist, uniform_dist,
    zero_loss, _int_vectors, _prune,
)
from preloss.predicates import Predicate
from preloss.scalars import INF

from conftest import gen_context, gen_dist, gen_kernel, gen_loss, gen_scalar

X123 = VarContext.of(("x", (1, 2, 3)))


def units(ctx):
    return [Predicate.unit(ctx, s) for s in ctx.states()]


def full_query(E, e):
    """E's generators and e on every state, as ``lp.convex_cover`` takes them."""
    den, vectors = _int_vectors(E.gens + (e,), range(E.ctx.n_states))
    return vectors[:-1], vectors[-1], den


def test_member_generator_itself():
    u = units(X123)
    E = LossFunction(X123, (u[0], u[1]))
    assert loss_member_certified(u[0], E).member


def test_member_convex_combination():
    u = units(X123)
    E = LossFunction(X123, (u[0], u[1]))
    mid = u[0].scale(Fraction(1, 2)) + u[1].scale(Fraction(1, 2))
    res = loss_member_certified(mid, E)
    assert res.member
    gens, target, _ = full_query(E, mid)
    assert lp.check_cover(gens, target, res.weights)


def test_non_member_with_separation_certificate():
    u = units(X123)
    E = LossFunction(X123, (u[0], u[1]))
    res = loss_member_certified(u[2], E)
    assert not res.member
    gens, target, _ = full_query(E, u[2])
    assert lp.check_separation(gens, target, res.witness)


def test_refines_reflexive_and_zero_least():
    rng = random.Random(1)
    for _ in range(25):
        E = gen_loss(rng, X123)
        assert loss_refines(E, E)
        assert loss_refines(zero_loss(X123), E)
    assert not loss_refines(one_loss(X123), zero_loss(X123))


def test_reveal_refines_into_commitment():
    ctx = VarContext.of(("n", range(4)))
    even = Predicate.from_function(ctx, lambda s: 1 if s[0] % 2 == 0 else 0)
    both = loss_min(embed(even), embed(even.complement()))
    assert loss_refines(both, embed(even))
    assert not loss_refines(embed(even), both)


def test_equal_is_representation_independent():
    u = units(X123)
    E = LossFunction(X123, (u[0], u[1]))
    shuffled = LossFunction(X123, (u[1], u[0], u[1]))
    assert loss_equal(E, shuffled)
    assert E == shuffled  # semantic equality operator


def test_canonicalize_redundancy_example():
    ctx = VarContext.of(("x", (1, 2)))
    u1, u2 = units(ctx)
    mid = u1.scale(Fraction(1, 2)) + u2.scale(Fraction(1, 2))
    ge2 = Predicate.from_function(ctx, lambda s: 1 if s[0] >= 2 else 0)
    E = LossFunction(ctx, (u1, u2, mid, ge2))
    C = loss_canonicalize(E)
    assert set(C.gens) == {u1, u2}
    assert loss_equal(C, E)
    assert loss_canonicalize(C) is C  # idempotent (already canonical)


def test_canonicalize_single_generator_unchanged():
    e = Predicate.constant(X123, Fraction(1, 3))
    assert loss_canonicalize(embed(e)).gens == (e,)


def test_canonicalize_preserves_evaluation():
    rng = random.Random(6)
    ctx = VarContext.of(("u", range(3)), ("v", (0, 1)))
    for _ in range(10):
        E = gen_loss(rng, ctx, max_gens=6)
        C = loss_canonicalize(E)
        for _ in range(50):
            d = gen_dist(rng, ctx, total=rng.random() < 0.5)
            assert eval_loss(E, d) == eval_loss(C, d)


def test_add_identity_and_scale_zero():
    rng = random.Random(8)
    E = gen_loss(rng, X123)
    assert loss_equal(loss_add(E, zero_loss(X123)), E)
    assert is_zero_loss(loss_scale(0, E))
    infinite = Predicate.from_entries(X123, (INF, INF, INF))
    assert is_zero_loss(loss_scale(0, LossFunction(X123, (infinite,))))


def test_min_of_pairs_distributes_into_four_sums():
    ctx = VarContext.of(("n", range(4)))
    u = units(ctx)
    left = loss_min(embed(u[0]), embed(u[1]))
    right = loss_min(embed(u[2]), embed(u[3]))
    total = loss_add(left, right)
    expected = LossFunction(ctx, (u[0] + u[2], u[0] + u[3], u[1] + u[2], u[1] + u[3]))
    assert loss_equal(total, expected)
    assert len(loss_canonicalize(expected).gens) == 4


def test_min_laws():
    rng = random.Random(12)
    for _ in range(25):
        a, b, c = (gen_loss(rng, X123) for _ in range(3))
        assert loss_equal(loss_min(a, a), a)
        assert loss_equal(loss_min(a, b), loss_min(b, a))
        assert loss_equal(loss_min(loss_min(a, b), c), loss_min(a, loss_min(b, c)))
        # meet property for the refinement order
        m = loss_min(a, b)
        assert loss_refines(m, a) and loss_refines(m, b)
        if loss_refines(c, a) and loss_refines(c, b):
            assert loss_refines(c, m)


def test_conj_examples():
    ctx = VarContext.of(("n", range(4)))
    u = units(ctx)
    even = Predicate.from_function(ctx, lambda s: 1 if s[0] % 2 == 0 else 0)
    pair = loss_min(embed(even), embed(even.complement()))
    low = Predicate.from_function(ctx, lambda s: 1 if s[0] <= 1 else 0)
    assert loss_equal(loss_conj(low, pair), loss_min(embed(u[0]), embed(u[1])))
    rng = random.Random(2)
    E = gen_loss(rng, ctx)
    assert loss_equal(loss_conj(Predicate.ones(ctx), E), E)
    assert is_zero_loss(loss_conj(Predicate.zero(ctx), E))


def test_map_identity_and_min_preservation():
    from preloss.kernels import Kernel

    rng = random.Random(3)
    ctx = VarContext.of(("u", range(3)), ("v", (0, 1)))
    ident = Kernel.identity(ctx).dual()
    E = gen_loss(rng, ctx)
    assert loss_equal(loss_map(ident, E), E)
    for _ in range(30):
        f = gen_kernel(rng, ctx, ctx).dual()
        E1, E2 = gen_loss(rng, ctx), gen_loss(rng, ctx)
        assert loss_equal(loss_map(f, loss_min(E1, E2)),
                          loss_min(loss_map(f, E1), loss_map(f, E2)))
        # linearity
        r = Fraction(rng.randint(0, 6), 2)
        lhs = loss_map(f, loss_add(loss_scale(r, E1), E2))
        rhs = loss_add(loss_scale(r, loss_map(f, E1)), loss_map(f, E2))
        assert loss_equal(lhs, rhs)


def test_map_of_fair_coin_on_guess_loss():
    from preloss.kernels import Kernel

    ctx = VarContext.of(("b", (0, 1)))
    coin = Kernel.from_rows(ctx, ctx, [
        {0: Fraction(1, 2), 1: Fraction(1, 2)},
        {0: Fraction(1, 2), 1: Fraction(1, 2)},
    ]).dual()
    guess = loss_min(embed(Predicate.unit(ctx, (0,))), embed(Predicate.unit(ctx, (1,))))
    image = loss_map(coin, guess)
    assert loss_equal(image, embed(Predicate.constant(ctx, Fraction(1, 2))))


def test_eval_loss_examples():
    assert eval_loss(one_loss(X123), uniform_dist(X123)) == 1
    assert eval_loss(gen_loss(random.Random(0), X123), (Fraction(0),) * 3) == 0
    u = units(X123)
    E = LossFunction(X123, (u[0], u[1]))
    assert eval_loss(E, point_dist(X123, (3,))) == 0
    assert eval_loss(E, uniform_dist(X123)) == Fraction(1, 3)


def test_eval_invariant_under_adding_members():
    rng = random.Random(4)
    ctx = VarContext.of(("u", range(3)))
    for _ in range(20):
        E = gen_loss(rng, ctx)
        lam = [Fraction(rng.randint(0, 3)) for _ in E.gens]
        total = sum(lam)
        if not total:
            continue
        lam = [l / total for l in lam]
        member = Predicate.zero(ctx)
        for g, l in zip(E.gens, lam):
            member = member + g.scale(l)
        bigger = LossFunction(ctx, E.gens + (member,))
        for _ in range(10):
            d = gen_dist(rng, ctx)
            assert eval_loss(E, d) == eval_loss(bigger, d)


def test_add_scale_monotone_in_refinement():
    rng = random.Random(14)
    for _ in range(20):
        a, b, c = (gen_loss(rng, X123) for _ in range(3))
        if loss_refines(a, b):
            assert loss_refines(loss_add(a, c), loss_add(b, c))
            assert loss_refines(loss_scale(Fraction(3, 2), a), loss_scale(Fraction(3, 2), b))


def test_member_with_inf_target_and_generators():
    ctx = VarContext.of(("x", (0, 1, 2)))
    gi = Predicate.from_entries(ctx, (INF, Fraction(1), Fraction(0)))
    g2 = Predicate.unit(ctx, (1,))
    E = LossFunction(ctx, (gi, g2))
    # target finite at state 0 excludes gi; separation must still cover it
    target = Predicate.from_entries(ctx, (Fraction(0), Fraction(1, 2), Fraction(0)))
    res = loss_member_certified(target, E)
    assert not res.member
    gens, vector, _ = full_query(E, target)
    assert lp.check_separation(gens, vector, res.witness)
    # target infinite at state 0 admits gi
    assert loss_member_certified(Predicate.from_entries(ctx, (INF, Fraction(1), Fraction(0))),
                                 E).member


def test_context_mismatch_errors():
    other = VarContext.of(("y", (1, 2, 3)))
    with pytest.raises(ContextError):
        loss_min(one_loss(X123), one_loss(other))
    with pytest.raises(ContextError):
        loss_member_certified(Predicate.ones(other), one_loss(X123))


def test_membership_order_antisymmetry_on_samples():
    rng = random.Random(18)
    for _ in range(20):
        a, b = gen_loss(rng, X123), gen_loss(rng, X123)
        if loss_refines(a, b) and loss_refines(b, a):
            assert loss_equal(a, b)


def _canonical_gens_on_full_states(E):
    """Reference: every redundancy query, screen then LP, on the full state vectors."""
    gens = _prune(E.gens)
    if len(gens) > 1:
        kept = []
        for i, g in enumerate(gens):
            others = kept + gens[i + 1:]
            if not lp.covered(*full_query(LossFunction(E.ctx, tuple(others)), g)):
                kept.append(g)
        gens = kept
    return tuple(gens)


def _loss_with_duplicate_states(rng):
    """Random generators whose entries repeat across states by construction.

    Each state copies a class's column, so whole columns repeat.  Some
    generators are midpoints of others, so the LP decides their redundancy.
    Also returns a maker of random predicates with the same repeated columns.
    """
    ctx = gen_context(rng, max_states=12)
    n = ctx.n_states
    classes = [rng.randrange(max(1, n // 2)) for _ in range(n)]

    def make(inf_prob=0.05):
        values = [gen_scalar(rng, inf_prob=inf_prob) for _ in range(n)]
        return Predicate.from_entries(ctx, tuple(values[c] for c in classes))

    gens = [make() for _ in range(rng.randint(2, 6))]
    for _ in range(rng.randint(0, 3)):
        a, b = rng.sample(gens, 2)
        gens.append(a.scale(Fraction(1, 2)) + b.scale(Fraction(1, 2)))
    rng.shuffle(gens)
    return LossFunction(ctx, tuple(gens)), make


def test_canonicalize_on_state_classes_matches_full_states():
    rng = random.Random(20260808)
    for _ in range(150):
        E, _ = _loss_with_duplicate_states(rng)
        before = dict(lp.counters)
        expected = _canonical_gens_on_full_states(E)
        reference_delta = {k: lp.counters[k] - before[k] for k in before}
        before = dict(lp.counters)
        got = loss_canonicalize(E).gens
        delta = {k: lp.counters[k] - before[k] for k in before}
        assert got == expected
        assert delta == reference_delta


def _canonical_gens_lp_only(E):
    """Reference: ``loss_canonicalize`` with one ``convex_cover`` call per query."""
    gens = _prune(E.gens)
    if len(gens) > 1:
        states = lp.state_classes([g.nums for g in gens])
        den, vectors = _int_vectors(gens, states)
        kept = []
        for i, v in enumerate(vectors):
            others = [vectors[j] for j in kept] + vectors[i + 1:]
            if not lp.convex_cover(others, v, den).member:
                kept.append(i)
        gens = [gens[i] for i in kept]
    return tuple(gens)


def test_screened_canonicalization_matches_lp_only(monkeypatch):
    """The screen changes no generator and no order, and decides most queries."""
    calls = [0]
    convex_cover = lp.convex_cover

    def counted(*args):
        calls[0] += 1
        return convex_cover(*args)

    monkeypatch.setattr(lp, "convex_cover", counted)
    rng = random.Random(20261019)
    reference_queries = screened = 0
    for _ in range(330):
        _, make = _loss_with_duplicate_states(rng)
        n = rng.randint(2, 8)
        gens = [make(0.15) for _ in range(max(2, n - rng.randint(0, 3)))]
        while len(gens) < n:
            a, b = rng.sample(gens, 2)
            gens.append(a.scale(Fraction(1, 2)) + b.scale(Fraction(1, 2)))
        rng.shuffle(gens)
        E = LossFunction(gens[0].ctx, tuple(gens))
        before = calls[0]
        expected = _canonical_gens_lp_only(E)
        queries = calls[0] - before
        before = calls[0]
        assert loss_canonicalize(E).gens == expected
        reference_queries += queries
        screened += queries - (calls[0] - before)
    assert 2 * screened >= reference_queries > 0


def test_member_on_state_classes_matches_full_states():
    """Class queries give the member, weights and full-length witness of full ones."""
    rng = random.Random(20261018)
    answers = {True: 0, False: 0}
    collapsed_witnesses = 0
    for _ in range(200):
        E, make = _loss_with_duplicate_states(rng)
        a, b = rng.sample(E.gens, 2)
        targets = [make(), make(0.3), make(0.0), Predicate.zero(E.ctx), rng.choice(E.gens),
                   a.scale(Fraction(1, 3)) + b.scale(Fraction(2, 3)),
                   Predicate.from_entries(E.ctx, [gen_scalar(rng) for _ in range(E.ctx.n_states)])]
        for e in targets:
            before = dict(lp.counters)
            expected = lp.convex_cover(*full_query(E, e))
            reference_delta = {k: lp.counters[k] - before[k] for k in before}
            before = dict(lp.counters)
            got = loss_member_certified(e, E)
            delta = {k: lp.counters[k] - before[k] for k in before}
            assert got == expected
            assert delta == reference_delta
            answers[got.member] += 1
            classes = lp.state_classes([g.nums for g in E.gens + (e,)])
            collapsed_witnesses += not got.member and len(classes) < E.ctx.n_states
    assert min(answers.values()) > 200
    assert collapsed_witnesses > 200


def _prune_reference(gens):
    """The entrywise prune: dedupe, sort by sort_token, drop dominated ones."""
    def below(h, g):
        return all(a <= b for a, b in zip(h.entries, g.entries))

    distinct = {}
    for g in gens:
        distinct.setdefault(g.entries, g)
    kept = []
    for g in sorted(distinct.values(), key=Predicate.sort_token):
        if any(below(h, g) for h in kept):
            continue
        kept = [h for h in kept if not below(g, h)]
        kept.append(g)
    return kept


def test_prune_on_integer_keys_matches_the_entrywise_reference():
    rng = random.Random(43)
    pool = [Fraction(0), Fraction(1), INF, Fraction(1, 3), Fraction(5, 2), Fraction(7, 12),
            Fraction(2, 9)]
    for _ in range(300):
        ctx = gen_context(rng, max_states=6)
        gens = [Predicate.from_entries(ctx, tuple(rng.choice(pool) for _ in range(ctx.n_states)))
                for _ in range(rng.randint(1, 7))]
        for _ in range(rng.randint(0, 4)):   # duplicates and dominating copies, via ints
            g = rng.choice(gens)
            gens.append(g + Predicate.zero(ctx) if rng.random() < 0.5
                        else g + Predicate.from_entries(ctx, tuple(rng.choice(pool[:2] + pool[3:])
                                                      for _ in range(ctx.n_states))))
        rng.shuffle(gens)
        got = _prune(gens)
        assert isinstance(got, list)
        assert [g.entries for g in got] == [g.entries for g in _prune_reference(gens)]


def _queries(fn, *args):
    """``fn(*args)`` and the LP member queries it made: one per ``lp.covered``
    call in ``loss_canonicalize``."""
    before = lp.counters["member_queries"]
    result = fn(*args)
    return result, lp.counters["member_queries"] - before


def _add_by_lp(E1, E2):
    """Reference: every pairwise sum through ``loss_canonicalize``, with its
    member queries."""
    sums = LossFunction(E1.ctx, tuple(a + b for a in E1.gens for b in E2.gens))
    canonical, queries = _queries(loss_canonicalize, sums)
    return canonical.gens, queries


# Mixed denominators, zero and INF.
SUM_VALUES = [Fraction(0), Fraction(1), Fraction(1, 2), Fraction(2, 3), Fraction(5, 4),
              Fraction(7, 6), INF]


def _canonical_loss_on(rng, ctx, states):
    """A canonical loss that is zero off ``states``: the zero loss, one
    generator, or the canonical form of up to six.  Generator j is zero at
    the j-th state, so that several of them tend to stay irredundant."""
    k = rng.randint(0, 6)
    if k == 0:
        return zero_loss(ctx)
    gens = []
    for j in range(k):
        entries = [Fraction(0)] * ctx.n_states
        for x in states:
            entries[x] = rng.choice(SUM_VALUES)
        if states:
            entries[states[j % len(states)]] = Fraction(0)
        gens.append(Predicate.from_entries(ctx, entries))
    return loss_canonicalize(LossFunction(ctx, tuple(gens)))


def _unmarked(E):
    """E's generators plus a redundant copy, not marked canonical."""
    return LossFunction(E.ctx, E.gens + (E.gens[0] + E.gens[0],))


def _nonzero_states(E):
    return {x for g in E.gens for x, n in enumerate(g.nums) if n}


@seed(20261019)
@settings(max_examples=500, deadline=None)
@given(case=st.integers(0, 2 ** 32 - 1), overlap=st.booleans(),
       marked=st.tuples(st.booleans(), st.booleans()))
def test_disjoint_sums_skip_the_lp_and_match_it(case, overlap, marked):
    """Canonical losses with disjoint supports add to every pairwise sum, in
    ``loss_canonicalize``'s order, with no LP query; any other pair makes
    the same ``lp.covered`` queries as canonicalizing the sums."""
    rng = random.Random(case)
    ctx = VarContext.of(("x", tuple(range(rng.randint(1, 10)))))
    sides = [rng.choice("aaabbb-+" if overlap else "aaabbb-") for _ in range(ctx.n_states)]
    E1, E2 = (_canonical_loss_on(rng, ctx, [x for x, s in enumerate(sides) if s in side])
              for side in ("a+", "b+"))
    E1, E2 = (E if m else _unmarked(E) for E, m in zip((E1, E2), marked))
    expected, reference_queries = _add_by_lp(E1, E2)
    got, queries = _queries(loss_add, E1, E2)
    assert got.canonical and got.gens == expected
    structural = all(marked) and not _nonzero_states(E1) & _nonzero_states(E2)
    assert queries == (0 if structural else reference_queries)


def test_overlapping_or_unmarked_sums_reach_the_lp():
    ctx = VarContext.of(("n", range(4)))
    u = units(ctx)
    left = loss_min(embed(u[0]), embed(u[1]))
    for E1, E2 in [(left, loss_min(embed(u[1]), embed(u[2]))),   # overlap at state 1
                   (left, _unmarked(loss_min(embed(u[2]), embed(u[3])))),
                   (_unmarked(left), loss_min(embed(u[2]), embed(u[3])))]:
        expected, reference_queries = _add_by_lp(E1, E2)
        got, queries = _queries(loss_add, E1, E2)
        assert got.gens == expected
        assert queries == reference_queries > 0
    right = loss_min(embed(u[2]), embed(u[3].scale(INF)))
    total, queries = _queries(loss_add, left, right)
    assert queries == 0
    assert total.gens == _add_by_lp(left, right)[0] and len(total.gens) == 4
