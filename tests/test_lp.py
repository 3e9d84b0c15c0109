import random
from fractions import Fraction

import pytest

from preloss import lp
from preloss.scalars import INF

F = Fraction


def cover(gens, target):
    return lp.convex_cover([tuple(map(_sc, g)) for g in gens], tuple(map(_sc, target)))


def _sc(v):
    return v if v is INF else F(v)


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


def test_unbounded_ray_through_zero_generator():
    # the zero generator admits unbounded weight; membership must still
    # return a convex certificate
    res = cover([[0, 0], [5, 5]], [1, 1])
    assert res.member and sum(res.weights) == 1


def test_all_generators_excluded_by_infinities():
    res = cover([[INF, 1], [1, INF]], [0, 0])
    assert not res.member


def test_excluded_generator_covered_by_witness_bump():
    # second generator has an infinity at a constrained state and must be
    # separated too
    res = cover([[2, 2], [INF, 0]], [1, 0])
    assert not res.member  # lambda1*2 <= 1 and lambda1*2 <= 0 force lambda1 = 0
    assert lp.check_separation([(F(2), F(2)), (INF, F(0))], (F(1), F(0)), res.witness)


def test_inf_target_drops_constraints():
    res = cover([[INF, 1]], [INF, 2])
    assert res.member


def test_degenerate_no_constraints():
    res = cover([[3, 4]], [INF, INF])
    assert res.member and sum(res.weights) == 1


def test_duplicate_rows_are_collapsed():
    before = lp.counters["lp_solves"]
    res = cover([[1, 1, 1, 1, 0], [0, 0, 0, 0, 1]],
                [F(1, 2), F(1, 2), F(1, 2), F(1, 2), F(1, 2)])
    assert res.member and res.weights == (F(1, 2), F(1, 2))
    assert lp.counters["lp_solves"] >= before


def test_random_queries_always_certified():
    rng = random.Random(99)
    for _ in range(300):
        m = rng.randint(1, 6)
        k = rng.randint(1, 5)
        gens = [[F(rng.randint(0, 8), 4) for _ in range(m)] for _ in range(k)]
        target = [F(rng.randint(0, 8), 4) for _ in range(m)]
        res = lp.convex_cover(gens, target)
        if res.member:
            assert lp.check_cover(gens, target, res.weights)
        else:
            assert lp.check_separation(gens, target, res.witness)


def test_no_generators_rejected():
    with pytest.raises(ValueError):
        lp.convex_cover([], [F(1)])


# --------------------------------------------------------------------------
# Reference: the plain Fraction simplex the integer-row one replaced.  It is
# kept verbatim apart from the ``seen`` argument, which records the exits and
# ratio ties a case reached, so the test can show its cases reach them all.

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


def test_integer_simplex_matches_fraction_reference():
    rng = random.Random(2024)
    seen = set()
    for case in range(2400):
        m = rng.randint(1, 8)
        k = rng.randint(1, 6)
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
        expected = _reference_simplex_max_sum(matrix, rhs, seen)
        assert lp._simplex_max_sum(matrix, rhs) == expected, (matrix, rhs)
    assert seen == {"reaches 1", "optimum below 1", "tied ratio", "unbounded ray"}
