"""Exact rational feasibility for convex-majorization queries.

The single LP shape used everywhere: given generator vectors g_i and a
target e over the same state set, decide whether some convex combination
of the generators is pointwise below e.  Solved as

    max sum(lambda)  s.t.  A lambda <= e,  lambda >= 0

which is feasible for the query iff the optimum reaches 1 (scaling down a
larger sum stays below e because e >= 0).  Runs a primal simplex with
Bland's rule on a condensed, fraction-free tableau; no tolerances, no
floats.

Integer boundary.  A query arrives as integers: the generators' and the
target's numerators over one common positive denominator ``den``, with
``INF`` as the sentinel ``INF_NUM`` of ``Predicate.nums``.  ``convex_cover``
finds the constrained states, the generators an ``INF`` excludes, the
single-generator fast path and the distinct constraint rows on these ints,
and hands the rows to the simplex together with ``den``.  The simplex
divides each row by the gcd of its entries and ``den``: that is the row in
lowest terms, over the lcm of its entries' denominators, so the tableau,
and with it the pivots, duals, optimum and weights, are those of the
rational LP.
The denominator is passed on, not dropped: scaling every row by ``den``
would keep the pivots but scale the duals, and the ``INF`` bump below
depends on the target's size, as does the witness prior a report derives
from the witness.  No ``Fraction`` is built on the way: the answer stays
in integers, and ``CoverResult`` builds its ``Fraction`` view on first
read.

Condensed tableau (the dictionary form of the simplex; Chvatal, *Linear
Programming*, 1983, ch. 2).  Variables 0..k-1 are the weights and k + r
is constraint r's slack.  The tableau has m constraint rows and the
objective row, each a list of k + 1 Python integers over one positive
denominator of its own: one entry per nonbasic variable (``nonbasic``
maps positions to variables), then the right-hand side.  The basic
variables (``basis``, one per constraint row) have no columns: in the full
tableau each is a unit column, whose entry in its own row equals that
row's denominator.  Bland's rule enters the nonbasic variable of smallest
index with a positive reduced cost; the ratio test compares rhs/coeff
within each row, where the row's denominator cancels, by
cross-multiplying, and breaks ties on the smaller basis index.  Every row
is kept in lowest terms: the gcd of its entries and its denominator is 1.
A pivot on entry p of row r (positive, as the ratio test only picks
positive entries), over the row's denominator D, makes the row's values
``row / p``, and the leaving variable takes the pivot column, with entry
D there.  Every other row, over its denominator E and with entry f in the
pivot column, becomes ``row * p - f * pivot_row`` over ``E * p``, with
``-f * D`` in the pivot column, and is divided by the gcd of its entries
and denominator.
Those are the full tableau's entries at the nonbasic columns, fraction-free
as in Bareiss (1968): the pivots, weights, duals and optimum are those of
the full tableau, without the m slack columns it carries through every
pivot.  The objective row carries ``-z`` in its right-hand entry, so the
objective value follows the pivots.

Certificates, in integers end to end: a positive answer gives the convex
weights; a negative answer gives separating state weights w >= 0 with
``w . e < min_i w . g_i`` (in extended arithmetic, including the
generators excluded for carrying an infinite entry at a constrained
state).  Either is a list of integer numerators over one positive
denominator W: the simplex's weights over their sum, or its duals over the
objective row's denominator (scaled by the ``INF`` bump's denominator when
there is one).  Every answer is re-checked on those integers
before it leaves this module: the query's ``den`` and W cancel from both
sides of each comparison, so ``sum_i w_i g_i(x) <= e(x)`` becomes
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

Screened redundancy queries: ``covered`` answers ``convex_cover``'s
``member`` without a certificate, which is all ``loss_canonicalize`` needs,
and nearly all of its queries end in a separation.  Before the simplex it
tries one witness: weight 1 on each state where the target is finite and
at or below every generator (an ``INF`` entry is above), 0 elsewhere.
Each weighted entry has e <= g_i, so w . e <= w . g_i, with equality unless
g_i is strictly above e at some weighted state, and w . g_i is ``INF`` when
g_i is ``INF`` at one.  When ``check_separation`` accepts the witness, the
answer "not covered" carries the same kind of re-checked certificate the
simplex gives; when it does not, ``convex_cover`` decides.  So every
decision is the LP's.  A class query weighs each representative once,
where the full-state witness weighs every state of its class; but the
check is strict iff one weighted entry is, whatever the class sizes, so
the screen fires on the classes iff it fires on the full states, and a
class query still makes the same queries, solves and pivots.  A screened
decision counts as one member query and no solve.  Refinement's
membership queries (``loss_member_certified``) are not screened: the
witness of a separation becomes the witness prior of a ``fails`` report,
which a different valid witness would change.

``counters`` counts member queries and simplex solves, which the CLI's
``--json`` timings report.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, mul
from typing import List, Optional, Sequence, Tuple

from .predicates import INF_NUM

counters = {"lp_solves": 0, "member_queries": 0}


def _fractions(den: int, nums: Sequence[int]) -> Tuple[Fraction, ...]:
    return tuple(Fraction(n, den) for n in nums)


@dataclass(frozen=True)
class CoverResult:
    """A query's answer with its certificate as integers ``nums`` over ``den``.

    A member's ``nums`` are the convex weights, one per generator, summing
    to ``den``; a non-member's are the separating state weights.  The form
    is in lowest terms (the gcd of ``den`` and every numerator is 1), so
    equal certificates compare equal.  ``weights`` and ``witness``, the
    certificate as ``Fraction``s (``None`` for the other kind of answer),
    are views built on first read.
    """

    member: bool
    den: int
    nums: Tuple[int, ...]

    weights = cached_property(
        lambda self: _fractions(self.den, self.nums) if self.member else None)
    witness = cached_property(
        lambda self: None if self.member else _fractions(self.den, self.nums))


def check_cover(
    gens: Sequence[Sequence[int]], target: Sequence[int], weights: Sequence, den=1
) -> bool:
    """Verify a membership certificate: convex weights with sum_i w_i g_i <= e.

    Weight i is ``weights[i] / den``: integer numerators over a positive
    ``den``, or exact rationals with the default ``den`` of 1.  The vectors
    are integer numerators over one common denominator, which cancels;
    ``INF_NUM`` marks ``INF``.
    """
    if len(weights) != len(gens) or not den > 0:
        return False
    if any(c < 0 for c in weights) or sum(weights) != den:
        return False
    total = [0] * len(target)
    for g, c in zip(gens, weights):
        if not c:
            continue
        if INF_NUM in g and any(v == INF_NUM and e != INF_NUM for v, e in zip(g, target)):
            return False   # an INF times a positive weight exceeds a finite entry
        # At an INF entry this adds -c, but only where the target is INF too,
        # and those states are skipped below.
        total = list(map(add, total, map(c.__mul__, g)))
    return all(t <= den * e for t, e in zip(total, target) if e != INF_NUM)


def check_separation(
    gens: Sequence[Sequence[int]], target: Sequence[int], witness: Sequence
) -> bool:
    """Verify a non-membership certificate: w >= 0 and w.e < min_i w.g_i.

    The witness is integer numerators over any positive denominator, or
    exact rationals; the denominator cancels, as does the vectors' common
    one.  ``INF_NUM`` marks ``INF``.
    """
    if len(witness) != len(target):
        return False
    if any(c < 0 for c in witness):
        return False
    support = [x for x, c in enumerate(witness) if c]
    weights = [witness[x] for x in support]

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
    least one class comes back.  Filled from the last state back, the dict
    keeps each class's first state.
    """
    cols = list(zip(*vectors))
    return sorted(dict(zip(reversed(cols), range(len(cols) - 1, -1, -1))).values())


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
        weights = [0] * n_gens
        weights[0] = 1
        return _verified(gens, target, True, 1, weights)

    inf_state_of = {}
    for x, col, _ in constrained:
        if INF_NUM in col:
            for i, v in enumerate(col):
                if v == INF_NUM:
                    inf_state_of.setdefault(i, x)
    included = [i for i in range(n_gens) if i not in inf_state_of]

    if not included:
        witness = [0] * n_states
        for x in inf_state_of.values():
            witness[x] = 1
        return _verified(gens, target, False, 1, witness)

    # Fast path: a single included generator below target pointwise.
    for i in included:
        if all(col[i] <= e for _, col, e in constrained):
            weights = [0] * n_gens
            weights[i] = 1
            return _verified(gens, target, True, 1, weights)

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
        weights = [0] * n_gens
        for pos, i in enumerate(included):
            weights[i] = lam[pos]
        return _verified(gens, target, True, sum(lam), weights)

    duals, optimum, w_den = dual
    # Bump every state where an excluded generator is INF by
    # eps = (1 - optimum) / (2 (bound + 1)), with bound the target's sum
    # there: over the common denominator 2 * w_den * (bound_num + den).
    bump_states = sorted(set(inf_state_of.values()))
    scale = 2 * (sum(target[x] for x in bump_states) + den) if bump_states else 1
    witness = [0] * n_states
    for y, x in zip(duals, row_state.values()):
        witness[x] = y * scale
    for x in bump_states:
        witness[x] += (w_den - optimum) * den
    return _verified(gens, target, False, w_den * scale, witness)


def covered(gens: Sequence[Sequence[int]], target: Sequence[int], den: int) -> bool:
    """``convex_cover(gens, target, den).member``, screened by a 0/1 witness first.

    The witness weighs by 1 each state where the target is finite and at or
    below every generator.  When it passes ``check_separation``, the target
    is not covered: one member query, no solve.  Otherwise ``convex_cover``
    decides.
    """
    witness = [int(e != INF_NUM and all(v == INF_NUM or e <= v for v in col))
               for col, e in zip(zip(*gens), target)]
    if any(witness) and check_separation(gens, target, witness):
        counters["member_queries"] += 1
        return False
    return convex_cover(gens, target, den).member


def _verified(gens, target, member: bool, den, nums: List[int]) -> CoverResult:
    """Every answer leaves this module with its certificate re-checked.

    The certificate is ``nums`` over ``den``; it is stored in lowest terms.
    """
    if member:
        ok = check_cover(gens, target, nums, den)
    else:
        ok = check_separation(gens, target, nums)
    if not ok:
        raise RuntimeError("LP certificate failed verification")
    g = gcd(den, *nums)
    if g > 1:
        return CoverResult(member, den // g, tuple(n // g for n in nums))
    return CoverResult(member, den, tuple(nums))


def _simplex_max_sum(
    matrix: Sequence[Sequence[int]], rhs: Sequence[int], den: int
) -> Tuple[Optional[List[int]], Optional[Tuple[List[int], int, int]]]:
    """max 1.lam s.t. (matrix / den) lam <= rhs / den, lam >= 0, with rhs >= 0.

    ``matrix`` and ``rhs`` are integer numerators over the common positive
    denominator ``den``.  Every column needs a positive entry in some row, so
    that each weight is bounded and no ray exists; ``convex_cover`` ensures
    it, since its fast path takes any generator with no positive kept row.
    A ray raises ``RuntimeError``.  When the optimum reaches 1, returns
    (weights, None): k nonnegative integers, weight i being
    ``weights[i] / sum(weights)``, so the weights sum to exactly 1.
    Otherwise returns (None, (duals, optimum, obj_den)): the constraints'
    dual values and the optimum, as integer numerators over the objective
    row's denominator ``obj_den``.
    """
    counters["lp_solves"] += 1
    m = len(matrix)
    k = len(matrix[0])

    # Row r < m holds constraint r, whose basic variable is basis[r]; row m
    # is the objective.  Entry j < k of a row belongs to variable
    # nonbasic[j], entry k is the right-hand side, and row r's values are
    # rows[r] / dens[r].  Each constraint row starts in lowest terms.
    rows: List[List[int]] = []
    dens: List[int] = []
    for coeffs, b in zip(matrix, rhs):
        g = gcd(den, b, *coeffs)
        if g > 1:
            rows.append([*(v // g for v in coeffs), b // g])
            dens.append(den // g)
        else:
            rows.append([*coeffs, b])
            dens.append(den)
    rows.append([1] * k + [0])   # reduced costs, then -z
    dens.append(1)
    basis = list(range(k, k + m))
    nonbasic = list(range(k))

    while True:
        obj = rows[m]
        obj_den = dens[m]
        if -obj[k] >= obj_den:
            # The weights over their sum z >= 1: the optimum scaled down to 1,
            # each basic weight rhs / d put over the lcm of the d.
            basic = [(b, rows[r][k], dens[r]) for r, b in enumerate(basis) if b < k]
            common = lcm(*(d for _, _, d in basic))
            weights = [0] * k
            for i, n, d in basic:
                weights[i] = n * (common // d)
            return weights, None

        # Bland's rule: the nonbasic variable of smallest index with a
        # positive reduced cost enters.
        enter = None
        for j in range(k):
            if obj[j] > 0 and (enter is None or nonbasic[j] < nonbasic[enter]):
                enter = j
        if enter is None:
            duals = [0] * m
            for j, v in enumerate(nonbasic):
                if v >= k:
                    duals[v - k] = -obj[j]
            return None, (duals, -obj[k], obj_den)

        # Ratio rhs / coeff; a row's denominator cancels, so two ratios
        # compare by cross-multiplying the numerators.
        pivot_row = None
        for r in range(m):
            coeff = rows[r][enter]
            if coeff > 0:
                if pivot_row is None:
                    pivot_row, best_rhs, best_coeff = r, rows[r][k], coeff
                    continue
                lhs = rows[r][k] * best_coeff
                cur = best_rhs * coeff
                if lhs < cur or (lhs == cur and basis[r] < basis[pivot_row]):
                    pivot_row, best_rhs, best_coeff = r, rows[r][k], coeff

        if pivot_row is None:
            raise RuntimeError("unbounded simplex: a weight has no positive row")

        _pivot(rows, dens, pivot_row, enter)
        basis[pivot_row], nonbasic[enter] = nonbasic[enter], basis[pivot_row]


def _pivot(rows, dens, r, c):
    """Pivot on (r, c), whose entry is positive; rows stay in lowest terms.

    Every row arrives in lowest terms: constraint rows are reduced when
    they are built, the objective row starts over the denominator 1, and
    each row other than the pivot row is reduced after its update below.
    The leaving variable takes column c, with the row's denominator D as
    its entry, and p = row[c] becomes the denominator, so the new pivot
    row is the old one with p replaced by D, over p: its gcd is
    gcd(p, D, rest) = gcd(D, old row) = 1, and it needs no reduction.
    """
    prow = rows[r]
    d = dens[r]
    p = prow[c]
    prow[c] = d
    rows[r] = prow
    dens[r] = p
    for r2, row in enumerate(rows):
        f = row[c]
        if f and r2 != r:
            new = [v * p - f * w for v, w in zip(row, prow)]
            new[c] = -f * d
            den = dens[r2] * p
            g = gcd(den, *new)
            if g > 1:
                new = [v // g for v in new]
                den //= g
            rows[r2] = new
            dens[r2] = den
