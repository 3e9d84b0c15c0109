from fractions import Fraction

import pytest

from preloss.contexts import VarContext
from preloss.families import FamilyCapError, FamilyOptions, standard_family
from preloss.losses import loss_equal

N4 = VarContext.of(("n", range(4)))


def test_singleton_and_builtin_counts():
    fam = standard_family(N4, FamilyOptions(max_subset=1, random=0, witnesses=False))
    # 4 singletons + all-ones + 4 complements, deduplicated semantically? no:
    # dedup is by canonical generator lists, so all nine are distinct here.
    assert len(fam) == 9
    assert all(p == "builtin" for _, p in fam.entries)


def test_subset_indicators_counted():
    fam0 = standard_family(N4, FamilyOptions(max_subset=1, random=0, witnesses=False))
    fam2 = standard_family(N4, FamilyOptions(max_subset=2, random=0, witnesses=False))
    # all six 2-subsets are new (singleton complements are 3-subsets here)
    assert len(fam2) == len(fam0) + 6


def test_seed_stability():
    a = standard_family(N4, FamilyOptions(random=10, seed=42))
    b = standard_family(N4, FamilyOptions(random=10, seed=42))
    assert len(a) == len(b)
    for (l1, p1), (l2, p2) in zip(a.entries, b.entries):
        assert p1 == p2
        assert [g.entries for g in l1.gens] == [g.entries for g in l2.gens]
    c = standard_family(N4, FamilyOptions(random=10, seed=43))
    assert any(
        [g.entries for g in l1.gens] != [g.entries for g in l2.gens]
        for (l1, _), (l2, _) in zip(a.entries, c.entries)
    )


def test_guess_state_witness_included():
    fam = standard_family(N4, FamilyOptions(max_subset=1, random=0, witnesses=True))
    witnesses = [l for l, p in fam.entries if p == "witness"]
    assert any(len(w.gens) == 4 for w in witnesses)  # the guess-the-state meet


def test_registered_parity_witness():
    ctx = VarContext.of(("n", range(4)), ("b", (0, 1)))
    fam = standard_family(ctx, FamilyOptions(max_subset=1, random=0, witnesses=True))
    from preloss.predicates import Predicate
    from preloss.losses import embed

    parity = embed(Predicate.from_function(ctx, lambda s: 1 if (s[0] + s[1]) % 2 == 0 else 0))
    assert any(loss_equal(l, parity) for l, p in fam.entries if p == "witness")


def test_subset_cap_errors():
    big = VarContext.of(("n", range(16)))  # 14876 subsets of 2 to 6 states
    with pytest.raises(ValueError, match="14876 subset indicators exceed the cap 4096"):
        standard_family(big, FamilyOptions(max_subset=6, random=0))
    with pytest.raises(ValueError, match="10001 random losses exceed the cap 10000"):
        standard_family(N4, FamilyOptions(max_subset=1, random=10001))


def test_the_subset_cap_is_its_own_error():
    """The subset cap is met by a large context, and the random cap only by
    the option itself, so only the first is a ``FamilyCapError``."""
    with pytest.raises(FamilyCapError, match="4560 subset indicators exceed the cap 4096") as info:
        standard_family(VarContext.of(("x", range(96))))
    assert isinstance(info.value, ValueError)
    with pytest.raises(ValueError) as info:
        standard_family(N4, FamilyOptions(max_subset=1, random=10001))
    assert not isinstance(info.value, FamilyCapError)


def test_random_losses_within_bounds():
    from fractions import Fraction

    fam = standard_family(N4, FamilyOptions(max_subset=1, random=30, seed=5, witnesses=False))
    randoms = [l for l, p in fam.entries if p.startswith("random")]
    assert randoms
    for loss in randoms:
        assert 1 <= len(loss.gens) <= 4
        for g in loss.gens:
            assert all(Fraction(0) <= e <= Fraction(2) for e in g.entries)


def test_family_context_consistency():
    fam = standard_family(N4, FamilyOptions(random=3))
    assert all(l.ctx == N4 for l, _ in fam.entries)
    with pytest.raises(ValueError):
        from preloss.families import TestFamily

        TestFamily(N4, ())


def _reference_family(ctx, opts):
    """The first ``standard_family``: it deduped entries on ``sort_token``."""
    import itertools
    import random
    from fractions import Fraction

    from preloss import families
    from preloss.losses import LossFunction, embed, loss_canonicalize
    from preloss.predicates import Predicate

    entries, seen = [], set()

    def push(loss, provenance):
        loss = loss_canonicalize(loss)
        key = tuple(sorted(g.sort_token() for g in loss.gens))
        if key not in seen:
            seen.add(key)
            entries.append((loss, provenance))

    n = ctx.n_states
    units = [Predicate.unit(ctx, s) for s in ctx.states()]
    for u in units:
        push(embed(u), "builtin")
    push(embed(Predicate.ones(ctx)), "builtin")
    for u in units:
        push(embed(u.complement()), "builtin")
    for size in range(2, min(opts.max_subset, n) + 1):
        for combo in itertools.combinations(range(n), size):
            push(embed(sum((units[i] for i in combo[1:]), units[combo[0]])), "builtin")
    if opts.witnesses:
        if n <= 16:
            push(families._guess_state_loss(ctx), "witness")
        for witness_ctx, indicator in families._WITNESSES:
            if ctx == witness_ctx:
                push(embed(Predicate.from_function(ctx, indicator)), "witness")
    for loss in opts.extra:
        if loss.ctx == ctx:
            push(loss, "user")
    rng = random.Random(opts.seed)
    for _ in range(opts.random):
        gens = [Predicate.from_entries(ctx, [Fraction(rng.randint(0, 8), 4) for _ in range(n)])
                for _ in range(rng.randint(1, 4))]
        push(LossFunction(ctx, tuple(gens)), f"random({opts.seed})")
    return entries


def test_dedupe_on_integer_forms_matches_sort_token():
    """Corpus post contexts: the same entries, order and provenances."""
    import pathlib

    from preloss.losses import LossFunction
    from preloss.parsing import parse_context_file, parse_datatype_file
    from preloss.predicates import Predicate
    from preloss.typecheck import inline

    def post(datatype, context):
        d = parse_datatype_file(pathlib.Path("corpus", datatype).read_text())
        c = parse_context_file(pathlib.Path("corpus", context).read_text())
        return inline(c, d).meta.post

    parity = VarContext.of(("n", range(4)), ("b", (0, 1)))
    half = Predicate.constant(parity, Fraction(1, 2))
    extra = (LossFunction(parity, (half, half + half)), LossFunction(parity, (half,)))
    cases = [
        (post("encdb_membership.dt", "ctx_lookup_probe.ctx"), FamilyOptions()),
        (post("encdb_membership.dt", "ctx_lookup_probe.ctx"), FamilyOptions(max_subset=1, random=0)),
        (post("randbit_direct.dt", "ctx_sample_then_read.ctx"),
         FamilyOptions.parse("k=2,random=50,seed=7")),
        (parity, FamilyOptions(random=40, seed=3, extra=extra)),
    ]
    for ctx, opts in cases:
        fam = standard_family(ctx, opts)
        reference = _reference_family(ctx, opts)
        assert [p for _, p in fam.entries] == [p for _, p in reference]
        assert [l.gens for l, _ in fam.entries] == [l.gens for l, _ in reference]
