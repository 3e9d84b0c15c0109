"""Exact rational feasibility for convex-majorization queries.

The single LP shape used everywhere: given generator vectors g_i and a
target e over the same state set, decide whether some convex combination
of the generators is pointwise below e.  Solved as

    max sum(lambda)  s.t.  A lambda <= e,  lambda >= 0

which is feasible for the query iff the optimum reaches 1 (scaling down a
larger sum stays below e because e >= 0).  Runs a dense primal simplex with
Bland's rule; no tolerances, no floats.

Integer boundary.  A query arrives as integers: the generators' and the
target's numerators over one common positive denominator ``den``, with
``INF`` as the sentinel ``INF_NUM`` of ``Predicate.nums``.  ``convex_cover``
finds the constrained states, the generators an ``INF`` excludes, the
single-generator fast path and the distinct constraint rows on these ints,
and hands the rows to the simplex together with ``den``.  The simplex
divides each row by the gcd of its entries and ``den``: that is the row in
lowest terms, the very integer row that the lcm of the entries'
denominators gave when rows were built from ``Fraction``s, so the tableau,
and with it the pivots, duals, optimum and weights, are the same numbers.
The denominator is passed on, not dropped: scaling every row by ``den``
would keep the pivots but scale the duals, and the ``INF`` bump below
depends on the target's size, as does the witness prior a report derives
from the witness.  ``Fraction``s are built only from the simplex's answer.

Integer rows: each tableau row is a list of Python integers over one
positive denominator of its own.  A pivot on entry p of row r (positive,
as the ratio test only picks positive entries) makes that row ``row / p``;
every other row with a nonzero entry f in the pivot column becomes
``row * p - f * pivot_row`` over ``den * p``, and each changed row is
divided by the gcd of its entries and denominator, so rows stay in lowest
terms and no per-entry ``Fraction`` is built.  The objective row carries
``-z`` in its right-hand entry, so the objective value follows the pivots.
Every entry keeps the exact rational value it would have as a
``Fraction``: Bland's rule looks at signs, which a positive denominator
keeps; the ratio test compares rhs/coeff within each row, where the row's
denominator cancels, by cross-multiplying, and breaks ties on the smaller
basis index.  The weights, duals and optimum become ``Fraction``s only on
return.

Certificates: a positive answer returns the convex weights; a negative
answer returns separating state weights w >= 0 with
``w . e < min_i w . g_i`` (in extended arithmetic, including the
generators excluded for carrying an infinite entry at a constrained
state).  Every answer is re-checked before it leaves this module, in
integers: the certificate's ``Fraction``s are put over their least common
denominator W, and the query's ``den`` and W cancel from both sides of
each comparison, so ``sum_i w_i g_i(x) <= e(x)`` becomes
``sum_i c_i g_i(x) <= W e(x)`` on the integer forms, with an ``INF`` at a
weighted entry making its side infinite, exactly as in the rig.

Distinct state classes: states at which every vector of a query has the
same entry give identical LP rows.  ``state_classes`` finds the classes on
the predicates' integer forms (``Predicate.nums``, each over its own
denominator), where equal entries are equal ints.  ``loss_canonicalize``
asks n queries over one generator list and runs them all on the classes of
its generators; ``loss_member_certified`` runs its query on the classes of
the generators plus the target.  Each query sees only the class
representatives (the first state of each class).  The first state of each
distinct row key of a query, and the first constrained state at which a
generator is ``INF``, is also the first state of some class, so a class
query builds the same rows in the same order, makes the same pivots,
bumps the same states and returns the same answer and the same number of
solves.  Every state carries its representative's entries, so the same
weights dominate the target at every state.  A witness is put back onto
full states by giving each representative its class weight and every other
state zero: exactly the witness the full-state query returns, with the
same dot products.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from .predicates import INF_NUM
from .scalars import ONE, ZERO

counters = {"lp_solves": 0, "member_queries": 0}


@dataclass(frozen=True)
class CoverResult:
    member: bool
    weights: Optional[Tuple[Fraction, ...]] = None   # per generator, sums to 1
    witness: Optional[Tuple[Fraction, ...]] = None   # per state, nonnegative


def _over_common_den(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """Rationals as integer numerators over their least common denominator."""
    den = lcm(*(v.denominator for v in values))
    return den, [v.numerator * (den // v.denominator) for v in values]


def check_cover(
    gens: Sequence[Sequence[int]], target: Sequence[int], weights: Sequence[Fraction]
) -> bool:
    """Verify a membership certificate: convex weights with sum_i w_i g_i <= e.

    The vectors are integer numerators over one common denominator, which
    cancels; ``INF_NUM`` marks ``INF``.
    """
    if len(weights) != len(gens):
        return False
    w_den, cs = _over_common_den(weights)
    if any(c < 0 for c in cs) or sum(cs) != w_den:
        return False
    total = [0] * len(target)
    for g, c in zip(gens, cs):
        if not c:
            continue
        if INF_NUM in g and any(v == INF_NUM and e != INF_NUM for v, e in zip(g, target)):
            return False   # an INF times a positive weight exceeds a finite entry
        # At an INF entry this adds -c, but only where the target is INF too,
        # and those states are skipped below.
        total = list(map(add, total, map(c.__mul__, g)))
    return all(t <= w_den * e for t, e in zip(total, target) if e != INF_NUM)


def check_separation(
    gens: Sequence[Sequence[int]], target: Sequence[int], witness: Sequence[Fraction]
) -> bool:
    """Verify a non-membership certificate: w >= 0 and w.e < min_i w.g_i.

    The vectors are integer numerators over one common denominator, which
    cancels; ``INF_NUM`` marks ``INF``.
    """
    if len(witness) != len(target):
        return False
    _, cs = _over_common_den(witness)
    if any(c < 0 for c in cs):
        return False
    support = [x for x, c in enumerate(cs) if c]
    weights = [cs[x] for x in support]

    def dot(v):
        """w . v over the witness's denominator, or None for INF."""
        picked = [v[x] for x in support]
        return None if INF_NUM in picked else sum(map(mul, picked, weights))

    we = dot(target)
    if we is None:
        return False   # INF is below nothing
    for g in gens:
        wg = dot(g)
        if wg is not None and not we < wg:
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


def convex_cover(gens: Sequence[Sequence[int]], target: Sequence[int], den: int) -> CoverResult:
    """Decide whether target dominates a convex combination of gens.

    Every vector holds integer numerators over the common positive
    denominator ``den``, with ``INF_NUM`` for ``INF``.
    """
    counters["member_queries"] += 1
    n_states = len(target)
    n_gens = len(gens)
    if n_gens == 0:
        raise ValueError("no generators")

    # The constrained states, each with its column of generator entries.
    constrained = [(x, col, e) for x, (col, e) in enumerate(zip(zip(*gens), target))
                   if e != INF_NUM]
    if not constrained:
        weights = [ZERO] * n_gens
        weights[0] = ONE
        return _verified(gens, target, CoverResult(True, weights=tuple(weights)))

    inf_state_of = {}
    for x, col, _ in constrained:
        if INF_NUM in col:
            for i, v in enumerate(col):
                if v == INF_NUM:
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
    # Some row is left: were every row vacuous, the fast path would have
    # taken any included generator.
    row_state = {}
    for x, col, e in constrained:
        coeffs = tuple(col[i] for i in included) if inf_state_of else col
        if any(coeffs):
            row_state.setdefault((coeffs, e), x)

    lam, dual = _simplex_max_sum([r[0] for r in row_state], [r[1] for r in row_state], den)

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
        bound = Fraction(sum(target[x] for x in bump_states), den)
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
    matrix: Sequence[Sequence[int]], rhs: Sequence[int], den: int
) -> Tuple[Optional[List[Fraction]], Optional[Tuple[List[Fraction], Fraction]]]:
    """max 1.lam s.t. (matrix / den) lam <= rhs / den, lam >= 0, with rhs >= 0.

    ``matrix`` and ``rhs`` are integer numerators over the common positive
    denominator ``den``.  Returns (weights, None) with weights summing to
    exactly 1 when the optimum reaches 1 (possibly via an unbounded ray),
    otherwise (None, (dual_weights, optimum)).
    """
    counters["lp_solves"] += 1
    m = len(matrix)
    k = len(matrix[0])

    # Row r < m holds constraint r, row m the objective; entry k + m of a
    # row is its right-hand side, and row r's values are rows[r] / dens[r].
    # Each constraint row starts in lowest terms.
    rows: List[List[int]] = []
    dens: List[int] = []
    for r in range(m):
        row = list(matrix[r])
        b = rhs[r]
        row_den = den
        g = gcd(den, b, *row)
        if g > 1:
            row = [v // g for v in row]
            b //= g
            row_den //= g
        row += [0] * m
        row[k + r] = row_den
        row.append(b)
        rows.append(row)
        dens.append(row_den)
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
            dual = [Fraction(-obj[k + r], dens[m]) for r in range(m)]
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
