import random
from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple, Optional, Tuple

import pytest
from hypothesis import given, settings, strategies as st

from preloss import lp
from preloss.predicates import INF_NUM
from preloss.scalars import INF, ONE, ZERO

F = Fraction


def int_form(vectors):
    """Vectors of rationals and INF as numerators over one denominator."""
    den = lcm(*(F(v).denominator for vec in vectors for v in vec if v is not INF))
    return den, [[INF_NUM if v is INF else int(F(v) * den) for v in vec] for vec in vectors]


def cover(gens, target):
    den, (*gens, target) = int_form([*gens, target])
    return lp.convex_cover(gens, target, den)


def covered(gens, target):
    den, (*gens, target) = int_form([*gens, target])
    return lp.covered(gens, target, den)


def test_trivial_unit_membership():
    res = cover([[1, 0], [0, 1]], [1, 0])
    assert res.member and res.weights == (F(1), F(0))


def test_strict_convex_combination_needed():
    res = cover([[1, 0], [0, 1]], [F(1, 2), F(1, 2)])
    assert res.member
    assert res.weights == (F(1, 2), F(1, 2))


def test_infeasible_with_witness():
    res = cover([[1, 0, 0], [0, 1, 0]], [0, 0, 1])
    assert not res.member
    assert sum(res.witness) > 0


def test_scaling_down_when_sum_exceeds_one():
    # a single generator far below the target: any lambda <= 2 works, the
    # solver must still return weights summing to exactly 1
    res = cover([[1, 1]], [2, 2])
    assert res.member and sum(res.weights) == 1


def test_generator_below_target_is_taken_without_a_solve():
    # the zero generator lies below the target: the fast path returns it as
    # the whole convex certificate, and the simplex never runs
    solves = lp.counters["lp_solves"]
    res = cover([[0, 0], [5, 5]], [1, 1])
    assert res.member and res.weights == (F(1), F(0))
    assert lp.counters["lp_solves"] == solves


def test_all_generators_excluded_by_infinities():
    res = cover([[INF, 1], [1, INF]], [0, 0])
    assert not res.member


def test_excluded_generator_covered_by_witness_bump():
    # second generator has an infinity at a constrained state and must be
    # separated too
    res = cover([[2, 2], [INF, 0]], [1, 0])
    assert not res.member  # lambda1*2 <= 1 and lambda1*2 <= 0 force lambda1 = 0
    assert lp.check_separation([(2, 2), (INF_NUM, 0)], (1, 0), res.witness)


def test_inf_target_drops_constraints():
    res = cover([[INF, 1]], [INF, 2])
    assert res.member


def test_degenerate_no_constraints():
    res = cover([[3, 4]], [INF, INF])
    assert res.member and sum(res.weights) == 1


def test_duplicate_rows_are_collapsed(monkeypatch):
    # Five constrained states, but only two distinct (coeffs, e) pairs.
    row_counts = []
    simplex = lp._simplex_max_sum

    def counted(matrix, rhs, den):
        row_counts.append(len(matrix))
        return simplex(matrix, rhs, den)

    monkeypatch.setattr(lp, "_simplex_max_sum", counted)
    before = lp.counters["lp_solves"]
    res = cover([[1, 1, 1, 1, 0], [0, 0, 0, 0, 1]],
                [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
    assert res.member and res.weights == (F(1, 2), F(1, 2))
    assert lp.counters["lp_solves"] - before == 1
    assert row_counts == [2]


# One query per exit of ``convex_cover``: (exit, gens, target, member, solves).
EXITS = [
    ("unconstrained", [[3, 4]], [INF, INF], True, 0),
    ("all excluded", [[INF, 1], [1, INF]], [0, 0], False, 0),
    ("fast path", [[1, 0], [0, 1]], [1, 0], True, 0),
    ("lp member", [[1, 0], [0, 1]], [F(1, 2), F(1, 2)], True, 1),
    ("lp separation", [[1, 0, 0], [0, 1, 0]], [0, 0, 1], False, 1),
    ("inf bump", [[2, 2], [INF, 0]], [1, 0], False, 1),
]


def test_every_answer_is_rechecked(monkeypatch):
    """Each exit re-checks its certificate with the check of its kind, and only that one.

    ``lp.covered`` gives the same answers.  Its screen decides each separation
    here without a solve, and only through ``check_separation``: with that
    check failing, every non-member goes on to raise in ``convex_cover``.
    """
    for name, gens, target, member, solves in EXITS:
        before = lp.counters["lp_solves"]
        assert cover(gens, target).member is member, name
        assert lp.counters["lp_solves"] - before == solves, name
        before = lp.counters["lp_solves"]
        assert covered(gens, target) is member, name
        assert lp.counters["lp_solves"] - before == (solves if member else 0), name
        for check in ("check_cover", "check_separation"):
            with monkeypatch.context() as patched:
                patched.setattr(lp, check, lambda *args: False)
                if (check == "check_cover") == member:
                    for entry in (cover, covered):
                        with pytest.raises(RuntimeError,
                                           match="LP certificate failed verification"):
                            entry(gens, target)
                else:
                    assert cover(gens, target).member is member, name
                    assert covered(gens, target) is member, name


def test_random_queries_always_certified():
    rng = random.Random(99)
    for _ in range(300):
        m = rng.randint(1, 6)
        k = rng.randint(1, 5)
        gens = [[rng.randint(0, 8) for _ in range(m)] for _ in range(k)]
        target = [rng.randint(0, 8) for _ in range(m)]
        res = lp.convex_cover(gens, target, 4)
        if res.member:
            assert lp.check_cover(gens, target, res.weights)
        else:
            assert lp.check_separation(gens, target, res.witness)


def test_no_generators_rejected():
    with pytest.raises(ValueError):
        lp.convex_cover([], [1], 1)


# --------------------------------------------------------------------------
# Reference: the plain Fraction simplex on the full tableau, which the
# integer and then the condensed one replaced.  It is kept verbatim apart
# from the ``seen`` argument, which records the exits and ratio ties a case
# reached, so the test can show its cases reach them all.

def _reference_simplex_max_sum(matrix, rhs, seen):
    m = len(matrix)
    k = len(matrix[0])
    one = F(1)
    zero = F(0)

    tab = [[*map(F, matrix[r]), *[zero] * m, F(rhs[r])] for r in range(m)]
    for r in range(m):
        tab[r][k + r] = one
    obj = [one] * k + [zero] * m
    z = zero
    basis = list(range(k, k + m))

    def current_lambda():
        lam = [zero] * k
        for r, b in enumerate(basis):
            if b < k:
                lam[b] = tab[r][-1]
        return lam

    while True:
        if z >= 1:
            seen.add("reaches 1")
            lam = current_lambda()
            if z > 1:
                lam = [v / z for v in lam]
            return lam, None

        enter = next((j for j in range(k + m) if obj[j] > 0), None)
        if enter is None:
            seen.add("optimum below 1")
            dual = [-obj[k + r] for r in range(m)]
            return None, (dual, z)

        best_ratio = None
        pivot_row = None
        for r in range(m):
            coeff = tab[r][enter]
            if coeff > 0:
                ratio = tab[r][-1] / coeff
                if ratio == best_ratio:
                    seen.add("tied ratio")
                if best_ratio is None or ratio < best_ratio or (
                    ratio == best_ratio and basis[r] < basis[pivot_row]
                ):
                    best_ratio = ratio
                    pivot_row = r

        if pivot_row is None:
            seen.add("unbounded ray")
            lam = current_lambda()
            direction = [zero] * k
            if enter < k:
                direction[enter] = one
            for r, b in enumerate(basis):
                if b < k:
                    direction[b] -= tab[r][enter]
            t = (one - z) / obj[enter]
            lam = [v + t * d for v, d in zip(lam, direction)]
            return lam, None

        _reference_pivot(tab, obj, basis, pivot_row, enter)
        z = sum((tab[r][-1] for r, b in enumerate(basis) if b < k), zero)


def _reference_pivot(tab, obj, basis, r, c):
    piv = tab[r][c]
    tab[r] = [v / piv for v in tab[r]]
    for r2 in range(len(tab)):
        if r2 != r and tab[r2][c]:
            factor = tab[r2][c]
            tab[r2] = [v - factor * w for v, w in zip(tab[r2], tab[r])]
    if obj[c]:
        factor = obj[c]
        for j in range(len(obj)):
            obj[j] -= factor * tab[r][j]
    basis[r] = c


def _as_fractions(answer):
    """The integer simplex's answer in the Fraction form the reference returns."""
    weights, dual = answer
    if weights is not None:
        total = sum(weights)
        return [F(w, total) for w in weights], None
    duals, optimum, den = dual
    return None, ([F(y, den) for y in duals], F(optimum, den))


# The simplex cases' (m, k) ranges: small tableaux, then tall (many rows,
# few weights) and wide ones, the shapes where the condensed and the full
# tableau differ most.
SIMPLEX_SHAPES = ([((1, 8), (1, 6))] * 2400 + [((9, 40), (1, 4))] * 200
                  + [((1, 4), (7, 20))] * 200)


def test_integer_simplex_matches_fraction_reference():
    rng = random.Random(2024)
    seen = set()
    for case, (m_range, k_range) in enumerate(SIMPLEX_SHAPES):
        m = rng.randint(*m_range)
        k = rng.randint(*k_range)
        den = rng.choice([1, 2, 3, 4, 6, 7, 12, 60, 120])
        sparsity = rng.choice([0.0, 0.3, 0.6])
        matrix = [[F(0) if rng.random() < sparsity else F(rng.randint(0, 3 * den), den)
                   for _ in range(k)] for _ in range(m)]
        if case % 5 == 0:
            rhs = [F(1)] * m
        else:
            rhs = [F(rng.randint(0, 2 * den), den) for _ in range(m)]
        if case % 7 == 0:
            matrix[rng.randrange(m)] = [F(0)] * k           # a zero row
        if case % 11 == 0:
            col = rng.randrange(k)                           # a ray along col
            for row in matrix:
                row[col] = F(0)
        if case % 13 == 0 and m > 1:
            matrix[1] = list(matrix[0])                      # tied ratios
            rhs[1] = rhs[0]
        exits = set()
        expected = _reference_simplex_max_sum(matrix, rhs, exits)
        seen |= exits
        den, (*int_matrix, int_rhs) = int_form([*matrix, rhs])
        if "unbounded ray" in exits:
            # A column with no positive entry breaks the precondition.
            with pytest.raises(RuntimeError, match="unbounded"):
                lp._simplex_max_sum(int_matrix, int_rhs, den)
            continue
        got = _as_fractions(lp._simplex_max_sum(int_matrix, int_rhs, den))
        assert got == expected, (matrix, rhs)
    assert seen == {"reaches 1", "optimum below 1", "tied ratio", "unbounded ray"}


# --------------------------------------------------------------------------
# Reference: the Fraction-entry ``convex_cover`` and certificate checks the
# integer boundary replaced, kept as they were apart from three things: the
# rows go to the Fraction reference simplex above, ``seen`` records the
# exits a query reached, and an answer is a ``_RefResult``, which the test
# compares with ``CoverResult``'s Fraction views.  Solves are counted in
# ``solves``.  Its ``vacuous`` branch is the one the integer code dropped as
# unreachable; the test checks that no query reaches it.

class _RefResult(NamedTuple):
    """The Fraction-entry answer, compared with ``CoverResult``'s Fraction views."""
    member: bool
    weights: Optional[Tuple[Fraction, ...]] = None
    witness: Optional[Tuple[Fraction, ...]] = None


def _ref_check_cover(gens, target, weights):
    if len(weights) != len(gens):
        return False
    if any(w < 0 for w in weights) or sum(weights) != 1:
        return False
    for x in range(len(target)):
        total = ZERO
        for g, w in zip(gens, weights):
            if w:
                total = total + g[x] * w
        if not total <= target[x]:
            return False
    return True


def _ref_check_separation(gens, target, witness):
    if len(witness) != len(target) or any(w < 0 for w in witness):
        return False
    we = ZERO
    for w, e in zip(witness, target):
        if w:
            we = we + e * w
    for g in gens:
        wg = ZERO
        for w, gx in zip(witness, g):
            if w:
                wg = wg + gx * w
        if not we < wg:
            return False
    return True


def _ref_verified(gens, target, result):
    if result.member:
        assert _ref_check_cover(gens, target, result.weights)
    else:
        assert _ref_check_separation(gens, target, result.witness)
    return result


def _ref_convex_cover(gens, target, seen, solves):
    n_states = len(target)
    n_gens = len(gens)
    constrained = [(x, col, e) for x, (col, e) in enumerate(zip(zip(*gens), target))
                   if e is not INF]
    if not constrained:
        seen.add("unconstrained")
        weights = [ZERO] * n_gens
        weights[0] = ONE
        return _ref_verified(gens, target, _RefResult(True, weights=tuple(weights)))

    inf_state_of = {}
    for x, col, _ in constrained:
        for i, v in enumerate(col):
            if v is INF:
                inf_state_of.setdefault(i, x)
    included = [i for i in range(n_gens) if i not in inf_state_of]

    if not included:
        seen.add("all excluded")
        witness = [ZERO] * n_states
        for x in inf_state_of.values():
            witness[x] = ONE
        return _ref_verified(gens, target, _RefResult(False, witness=tuple(witness)))

    for i in included:
        if all(col[i] <= e for _, col, e in constrained):
            seen.add("fast path")
            weights = [ZERO] * n_gens
            weights[i] = ONE
            return _ref_verified(gens, target, _RefResult(True, weights=tuple(weights)))

    row_state = {}
    for x, col, e in constrained:
        coeffs = tuple(col[i] for i in included) if inf_state_of else col
        if any(coeffs):
            if (coeffs, e) in row_state:
                seen.add("duplicate row")
            row_state.setdefault((coeffs, e), x)
        else:
            seen.add("zero row")

    if not row_state:   # unreachable: the fast path took every such query
        seen.add("vacuous")
        weights = [ZERO] * n_gens
        weights[included[0]] = ONE
        return _ref_verified(gens, target, _RefResult(True, weights=tuple(weights)))

    solves[0] += 1
    lam, dual = _reference_simplex_max_sum([r[0] for r in row_state],
                                           [r[1] for r in row_state], set())

    if lam is not None:
        seen.add("lp member")
        weights = [ZERO] * n_gens
        for pos, i in enumerate(included):
            weights[i] = lam[pos]
        return _ref_verified(gens, target, _RefResult(True, weights=tuple(weights)))

    w_rows, sigma = dual
    witness = [ZERO] * n_states
    for w, x in zip(w_rows, row_state.values()):
        witness[x] = w
    if inf_state_of:
        seen.add("bump")
        bump_states = sorted(set(inf_state_of.values()))
        bound = sum(target[x] for x in bump_states)
        eps = (ONE - sigma) / (2 * (bound + 1))
        for x in bump_states:
            witness[x] += eps
    else:
        seen.add("lp separation")
    return _ref_verified(gens, target, _RefResult(False, witness=tuple(witness)))


def _random_query(rng):
    """Generators and a target over a few states, in Fractions and INF."""
    m = rng.randint(1, 7)
    k = rng.randint(1, 5)
    den = rng.choice([1, 2, 3, 6, 12])
    inf_gen = rng.choice([0.0, 0.1, 0.3])
    inf_target = rng.choice([0.0, 0.15, 0.5])

    def entry(p_inf):
        return INF if rng.random() < p_inf else F(rng.randint(0, 3 * den), den)

    gens = [[entry(inf_gen) for _ in range(m)] for _ in range(k)]
    target = [entry(inf_target) for _ in range(m)]
    if rng.random() < 0.3:                       # duplicate states
        src, dst = rng.randrange(m), rng.randrange(m)
        for g in gens:
            g[dst] = g[src]
        target[dst] = target[src]
    if rng.random() < 0.2:                       # a state where every generator is 0
        x = rng.randrange(m)
        for g in gens:
            g[x] = F(0)
    if rng.random() < 0.1:                       # every generator excluded
        x = rng.randrange(m)
        target[x] = F(rng.randint(0, den), den)
        for g in gens:
            g[x] = INF
    if rng.random() < 0.1 and k > 1:             # a duplicate generator
        gens[rng.randrange(k)] = list(gens[0])
    return gens, target


def test_integer_cover_matches_fraction_reference():
    rng = random.Random(4242)
    seen = set()
    kinds = {"member": 0, "separation": 0}
    for _ in range(2500):
        gens, target = _random_query(rng)
        ref_solves = [0]
        expected = _ref_convex_cover(gens, target, seen, ref_solves)
        den, (*int_gens, int_target) = int_form([*gens, target])
        before = dict(lp.counters)
        got = lp.convex_cover(int_gens, int_target, den)
        assert (got.member, got.weights, got.witness) == expected, (gens, target)
        assert lp.counters["lp_solves"] - before["lp_solves"] == ref_solves[0]
        assert lp.counters["member_queries"] - before["member_queries"] == 1
        kinds["member" if got.member else "separation"] += 1
        _check_tampered(int_gens, int_target, gens, target, got, rng)
    assert seen == {"unconstrained", "all excluded", "fast path", "duplicate row", "zero row",
                    "lp member", "bump", "lp separation"}
    assert min(kinds.values()) > 500


def test_certificates_are_kept_in_lowest_terms():
    """A certificate's integer form is in lowest terms, so equal ones compare equal."""
    rng = random.Random(77)
    for _ in range(500):
        gens, target = _random_query(rng)
        den, (*int_gens, int_target) = int_form([*gens, target])
        res = lp.convex_cover(int_gens, int_target, den)
        assert res.den > 0 and gcd(res.den, *res.nums) == 1
        view = res.weights if res.member else res.witness
        assert view == tuple(F(n, res.den) for n in res.nums)


def _check_tampered(int_gens, int_target, gens, target, res, rng):
    """Both checks reject the same tampered certificates, and agree on noise."""
    def agree_cover(weights):
        expected = _ref_check_cover(gens, target, weights)
        assert lp.check_cover(int_gens, int_target, weights) is expected
        return expected

    def agree_separation(g_int, t_int, g_ref, t_ref, witness):
        expected = _ref_check_separation(g_ref, t_ref, witness)
        assert lp.check_separation(g_int, t_int, witness) is expected
        return expected

    if res.member:
        w = list(res.weights)
        assert not agree_cover([v * F(3, 2) for v in w])              # sums to 3/2
        i = rng.randrange(len(w))
        off = list(w)
        off[i] += F(1, 7)
        assert not agree_cover(off)                                    # sums to 8/7
        if len(w) > 1:
            neg = list(w)
            neg[0] -= 2
            neg[1] += 2
            assert not agree_cover(neg)                                # a negative weight
        noisy = [F(rng.randint(0, 4), 4) for _ in w]
        agree_cover(noisy)
    else:
        w = list(res.witness)
        # A generator equal to the target ties w.e with min w.g.
        assert not agree_separation(int_gens + [int_target], int_target,
                                    gens + [target], target, w)
        weighted = [x for x, v in enumerate(w) if v]
        x = rng.choice(weighted)
        t_int, t_ref = list(int_target), list(target)
        t_int[x], t_ref[x] = INF_NUM, INF
        assert not agree_separation(int_gens, t_int, gens, t_ref, w)   # INF at a weighted state
        neg = list(w)
        neg[x] = -neg[x]
        assert not agree_separation(int_gens, int_target, gens, target, neg)
        noisy = [F(rng.randint(0, 3), rng.randint(1, 3)) for _ in w]
        agree_separation(int_gens, int_target, gens, target, noisy)


def _state_classes_setdefault(vectors):
    """The first formulation of ``lp.state_classes``: one ``setdefault`` per state."""
    first = {}
    return [x for x, col in enumerate(zip(*vectors)) if first.setdefault(col, x) == x]


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.lists(
    st.lists(st.integers(INF_NUM, 3), min_size=n, max_size=n), min_size=1, max_size=5)))
def test_state_classes_match_the_setdefault_form(vectors):
    assert lp.state_classes(vectors) == _state_classes_setdefault(vectors)
    assert lp.state_classes(list(map(tuple, vectors))) == _state_classes_setdefault(vectors)
