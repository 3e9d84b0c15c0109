"""Exact rational feasibility for convex-majorization queries.

The single LP shape used everywhere: given generator vectors g_i and a
target e over the same state set, decide whether some convex combination
of the generators is pointwise below e.  Solved as

    max sum(lambda)  s.t.  A lambda <= e,  lambda >= 0

which is feasible for the query iff the optimum reaches 1 (scaling down a
larger sum stays below e because e >= 0).  Runs a dense primal simplex with
Bland's rule; no tolerances, no floats.

Integer rows: each tableau row is a list of Python integers over one
positive denominator of its own (the lcm of its entries' denominators at
the start).  A pivot on entry p of row r (positive, as the ratio test only
picks positive entries) makes that row ``row / p``; every
other row with a nonzero entry f in the pivot column becomes
``row * p - f * pivot_row`` over ``den * p``, and each changed row is
divided by the gcd of its entries and denominator, so rows stay in lowest
terms and no per-entry ``Fraction`` is built.  The objective row carries
``-z`` in its right-hand entry, so the objective value follows the pivots.
Every entry keeps the exact rational value it had as a ``Fraction``, so
the decisions are the same: Bland's rule looks at signs, which a positive
denominator keeps; the ratio test compares rhs/coeff within each row, where
the row's denominator cancels, by cross-multiplying, and breaks ties on the
smaller basis index as before.  Hence the same pivots, and the weights,
duals and optimum, turned back into ``Fraction``s only on return, are the
same numbers; the certificates built from them are re-checked as before.

Certificates: a positive answer returns the convex weights; a negative
answer returns separating state weights w >= 0 with
``w . e < min_i w . g_i`` (checkable in extended arithmetic, including the
generators excluded for carrying an infinite entry at a constrained state).

Distinct state classes: states at which every vector of a query has the
same entry give identical LP rows.  ``loss_canonicalize`` asks n queries
over one generator list, so it finds the classes once with
``state_classes`` and asks every query on the class representatives (the
first state of each class).  The classes are keyed on the generators'
integer forms (``Predicate.nums``, each over its own denominator), where
equal entries are equal ints, so no ``Fraction`` is hashed; the query
vectors are then built as ``Fraction``s at the representatives only.  The
first state of each distinct row key of a query is also the first state of
some class, so each query builds the same rows in the same order, makes the
same pivots and returns the same answer and the same number of solves.  Its
certificate is re-checked on the collapsed vectors; since every state
carries its representative's entries, the same weights dominate the target
at every state, and a witness on the representatives gives the same dot
products at full size.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from typing import List, Optional, Sequence, Tuple

from .scalars import INF, ONE, Scalar, ZERO

counters = {"lp_solves": 0, "member_queries": 0}


@dataclass(frozen=True)
class CoverResult:
    member: bool
    weights: Optional[Tuple[Fraction, ...]] = None   # per generator, sums to 1
    witness: Optional[Tuple[Fraction, ...]] = None   # per state, nonnegative


def check_cover(
    gens: Sequence[Sequence[Scalar]], target: Sequence[Scalar], weights: Sequence[Fraction]
) -> bool:
    """Verify a membership certificate by direct extended arithmetic."""
    if len(weights) != len(gens):
        return False
    if any(w < 0 for w in weights) or sum(weights) != 1:
        return False
    for x in range(len(target)):
        total: Scalar = ZERO
        for g, w in zip(gens, weights):
            if w:
                total = total + g[x] * w
        if not total <= target[x]:
            return False
    return True


def check_separation(
    gens: Sequence[Sequence[Scalar]], target: Sequence[Scalar], witness: Sequence[Fraction]
) -> bool:
    """Verify a non-membership certificate: w.e < min_i w.g_i."""
    if len(witness) != len(target) or any(w < 0 for w in witness):
        return False
    we: Scalar = ZERO
    for w, e in zip(witness, target):
        if w:
            we = we + e * w
    for g in gens:
        wg: Scalar = ZERO
        for w, gx in zip(witness, g):
            if w:
                wg = wg + gx * w
        if not we < wg:
            return False
    return True


def state_classes(vectors: Sequence[Sequence[int]]) -> List[int]:
    """The first state of each class of states with equal columns, in order.

    Two states fall in one class when every vector has the same entry at
    both.  The vectors are integer forms (``Predicate.nums``), each over its
    own denominator, so equal entries are equal integers and the columns
    hash as tuples of ints.  Every context has at least one state, so at
    least one class comes back.
    """
    first = {}
    return [x for x, col in enumerate(zip(*vectors)) if first.setdefault(col, x) == x]


def convex_cover(gens: Sequence[Sequence[Scalar]], target: Sequence[Scalar]) -> CoverResult:
    """Decide whether target dominates a convex combination of gens."""
    counters["member_queries"] += 1
    n_states = len(target)
    n_gens = len(gens)
    if n_gens == 0:
        raise ValueError("no generators")

    # The constrained states, each with its column of generator entries.
    constrained = [(x, col, e) for x, (col, e) in enumerate(zip(zip(*gens), target))
                   if e is not INF]
    if not constrained:
        weights = [ZERO] * n_gens
        weights[0] = ONE
        return _verified(gens, target, CoverResult(True, weights=tuple(weights)))

    inf_state_of = {}
    for x, col, _ in constrained:
        for i, v in enumerate(col):
            if v is INF:
                inf_state_of.setdefault(i, x)
    included = [i for i in range(n_gens) if i not in inf_state_of]

    if not included:
        witness = [ZERO] * n_states
        for x in inf_state_of.values():
            witness[x] = ONE
        return _verified(gens, target, CoverResult(False, witness=tuple(witness)))

    # Fast path: a single included generator below target pointwise.
    for i in included:
        if all(col[i] <= e for _, col, e in constrained):
            weights = [ZERO] * n_gens
            weights[i] = ONE
            return _verified(gens, target, CoverResult(True, weights=tuple(weights)))

    # Deduplicate identical constraint rows and drop vacuous all-zero rows.
    row_state = {}
    for x, col, e in constrained:
        coeffs = tuple(col[i] for i in included) if inf_state_of else col
        if any(coeffs):
            row_state.setdefault((coeffs, e), x)

    if not row_state:
        # Every constrained row is vacuous: any single generator works.
        weights = [ZERO] * n_gens
        weights[included[0]] = ONE
        return _verified(gens, target, CoverResult(True, weights=tuple(weights)))

    lam, dual = _simplex_max_sum([r[0] for r in row_state], [r[1] for r in row_state])

    if lam is not None:
        weights = [ZERO] * n_gens
        for pos, i in enumerate(included):
            weights[i] = lam[pos]
        return _verified(gens, target, CoverResult(True, weights=tuple(weights)))

    w_rows, sigma = dual
    witness = [ZERO] * n_states
    for w, x in zip(w_rows, row_state.values()):
        witness[x] = w
    if inf_state_of:
        bump_states = sorted(set(inf_state_of.values()))
        bound = sum(_exact(target[x]) for x in bump_states)
        eps = (ONE - sigma) / (2 * (bound + 1))
        for x in bump_states:
            witness[x] += eps
    return _verified(gens, target, CoverResult(False, witness=tuple(witness)))


def _verified(gens, target, result: CoverResult) -> CoverResult:
    """Every answer leaves this module with its certificate re-checked."""
    if result.member:
        ok = check_cover(gens, target, result.weights)
    else:
        ok = check_separation(gens, target, result.witness)
    if not ok:
        raise RuntimeError("LP certificate failed verification")
    return result


def _simplex_max_sum(
    matrix: Sequence[Sequence[Fraction]], rhs: Sequence[Fraction]
) -> Tuple[Optional[List[Fraction]], Optional[Tuple[List[Fraction], Fraction]]]:
    """max 1.lam s.t. matrix lam <= rhs, lam >= 0, with rhs >= 0.

    Returns (weights, None) with weights summing to exactly 1 when the
    optimum reaches 1 (possibly via an unbounded ray), otherwise
    (None, (dual_weights, optimum)).
    """
    counters["lp_solves"] += 1
    m = len(matrix)
    k = len(matrix[0])

    # Row r < m holds constraint r, row m the objective; entry k + m of a
    # row is its right-hand side, and row r's values are rows[r] / dens[r].
    rows: List[List[int]] = []
    dens: List[int] = []
    for r in range(m):
        den = lcm(rhs[r].denominator, *(v.denominator for v in matrix[r]))
        row = [v.numerator * (den // v.denominator) for v in matrix[r]]
        row += [0] * m
        row[k + r] = den
        row.append(rhs[r].numerator * (den // rhs[r].denominator))
        rows.append(row)
        dens.append(den)
    obj = [1] * k + [0] * (m + 1)   # reduced costs, then -z
    rows.append(obj)
    dens.append(1)
    basis = list(range(k, k + m))

    def value(r: int, j: int) -> Fraction:
        return Fraction(rows[r][j], dens[r])

    def current_lambda() -> List[Fraction]:
        lam = [ZERO] * k
        for r, b in enumerate(basis):
            if b < k:
                lam[b] = value(r, -1)
        return lam

    while True:
        obj = rows[m]
        if -obj[-1] >= dens[m]:
            lam = current_lambda()
            z = -value(m, -1)
            if z > 1:
                lam = [v / z for v in lam]
            return lam, None

        enter = next((j for j in range(k + m) if obj[j] > 0), None)
        if enter is None:
            dual = [-value(m, k + r) for r in range(m)]
            return None, (dual, -value(m, -1))

        # Ratio rhs / coeff; a row's denominator cancels, so two ratios
        # compare by cross-multiplying the numerators.
        pivot_row = None
        for r in range(m):
            coeff = rows[r][enter]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row, best_rhs, best_coeff = r, rows[r][-1], coeff
                    continue
                lhs = rows[r][-1] * best_coeff
                cur = best_rhs * coeff
                if lhs < cur or (lhs == cur and basis[r] < basis[pivot_row]):
                    pivot_row, best_rhs, best_coeff = r, rows[r][-1], coeff

        if pivot_row is None:
            # Unbounded: follow the ray until the weight sum reaches 1.
            lam = current_lambda()
            direction = [ZERO] * k
            if enter < k:
                direction[enter] = ONE
            for r, b in enumerate(basis):
                if b < k:
                    direction[b] -= value(r, enter)
            t = (ONE + value(m, -1)) / value(m, enter)
            lam = [v + t * d for v, d in zip(lam, direction)]
            return lam, None

        _pivot(rows, dens, basis, pivot_row, enter)


def _exact(v) -> Fraction:
    """Entries arrive as Fractions; callers passing ints get them converted."""
    return v if type(v) is Fraction else Fraction(v)


def _pivot(rows, dens, basis, r, c):
    """Pivot on (r, c), whose entry is positive; rows stay in lowest terms."""
    prow = rows[r]
    p = prow[c]
    g = gcd(*prow)
    if g > 1:
        prow = [v // g for v in prow]
        p //= g
    rows[r] = prow
    dens[r] = p
    for r2, row in enumerate(rows):
        f = row[c]
        if f and r2 != r:
            new = [v * p - f * w for v, w in zip(row, prow)]
            den = dens[r2] * p
            g = gcd(den, *new)
            if g > 1:
                new = [v // g for v in new]
                den //= g
            rows[r2] = new
            dens[r2] = den
    basis[r] = c
