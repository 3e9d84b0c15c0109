"""Loss functions: finitely generated upper-convex sets of predicates.

A loss function is represented by a nonempty list of generator predicates;
it denotes the upward convex closure of that list.  Equality and the
refinement order are semantic (decided by exact LP membership), never list
equality.  Refinement is reverse inclusion of denotations: E1 refines into
E2 when every generator of E2 lies in E1's closure.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from math import lcm
from operator import le
from typing import Iterable, List, Optional, Sequence, Tuple

from . import lp
from .contexts import ContextError, VarContext
from .kernels import Transformer
from .predicates import INF_NUM, Predicate
from .scalars import ZERO, Scalar, scalar


@dataclass(frozen=True, eq=False)
class LossFunction:
    ctx: VarContext
    gens: Tuple[Predicate, ...]
    canonical: bool = field(default=False, compare=False)

    def __post_init__(self):
        if not self.gens:
            raise ValueError("loss function needs at least one generator")
        for g in self.gens:
            if g.ctx != self.ctx:
                raise ContextError("generator context mismatch")

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LossFunction):
            return NotImplemented
        return loss_equal(self, other)

    __hash__ = None  # semantic equality is incompatible with structural hashing

    def __repr__(self) -> str:
        return f"LossFunction({len(self.gens)} gens over {self.ctx.pretty() or 'empty'})"


def embed(e: Predicate) -> LossFunction:
    """The principal filter of a single predicate."""
    return LossFunction(e.ctx, (e,), canonical=True)


def zero_loss(ctx: VarContext) -> LossFunction:
    return embed(Predicate.zero(ctx))


def one_loss(ctx: VarContext) -> LossFunction:
    return embed(Predicate.ones(ctx))


def _require_same_ctx(a: LossFunction, b: LossFunction):
    if a.ctx != b.ctx:
        raise ContextError("loss function context mismatch")


def loss_member(e: Predicate, E: LossFunction) -> bool:
    return loss_member_certified(e, E).member


def loss_member_certified(e: Predicate, E: LossFunction) -> lp.CoverResult:
    """Exact membership of e in E's upper convex closure, with certificate.

    The query runs on the distinct state classes of the generators and the
    target; a separating witness is put back onto full states, with each
    class's weight at its first state and zero elsewhere.
    """
    if e.ctx != E.ctx:
        raise ContextError("membership query context mismatch")
    preds = E.gens + (e,)
    states = lp.state_classes([p.nums for p in preds])
    den, vectors = _int_vectors(preds, states)
    res = lp.convex_cover(vectors[:-1], vectors[-1], den)
    if res.member:
        return res
    witness = [ZERO] * e.ctx.n_states
    for x, w in zip(states, res.witness):
        witness[x] = w
    return lp.CoverResult(False, witness=tuple(witness))


def loss_refines(E1: LossFunction, E2: LossFunction) -> bool:
    """E1 refines into E2 (reverse inclusion of closures)."""
    _require_same_ctx(E1, E2)
    return all(loss_member(g, E1) for g in E2.gens)


def loss_equal(E1: LossFunction, E2: LossFunction) -> bool:
    return loss_refines(E1, E2) and loss_refines(E2, E1)


def is_zero_loss(E: LossFunction) -> bool:
    """True iff E denotes the whole cone, i.e. contains the zero predicate."""
    if any(g.is_zero for g in E.gens):
        return True
    return loss_member(Predicate.zero(E.ctx), E)


def _int_vectors(preds: Sequence[Predicate], states: Sequence[int]) -> Tuple[int, List[list]]:
    """The predicates' values at the states as numerators over one denominator.

    The denominator is the lcm of the predicates' own; ``INF_NUM`` stays
    ``INF_NUM``.  This is the form ``lp.convex_cover`` takes.
    """
    den = lcm(*{p.den for p in preds})
    vectors = []
    for p in preds:
        nums = p.nums
        values = [nums[x] for x in states]
        f = den // p.den
        if f > 1:
            if INF_NUM in values:
                values = [n if n == INF_NUM else n * f for n in values]
            else:
                values = list(map(f.__mul__, values))
        vectors.append(values)
    return den, vectors


def _prune(gens: Sequence[Predicate]) -> List[Predicate]:
    """Cheap reductions: exact duplicates and pointwise-dominated generators.

    A generator above another pointwise sits in the other's upward closure.
    Each generator's key is its integer form over the generators' common
    denominator, with INF mapped above every finite entry; that map is
    strictly monotone, so the keys sort as ``Predicate.sort_token`` does.
    Sorted that way, a generator can only be dominated by earlier ones.
    """
    distinct = {}
    for g in gens:
        distinct.setdefault((g.den, g.nums), g)
    den = lcm(*{d for d, _ in distinct})
    keys = {form: tuple(map((den // form[0]).__mul__, form[1])) for form in distinct}
    if any(INF_NUM in form[1] for form in distinct):
        top = 1 + max(max(k) for k in keys.values())
        keys = {form: tuple(top if n < 0 else n for n in k) for form, k in keys.items()}
    kept_keys: List[Tuple[int, ...]] = []
    kept: List[Predicate] = []
    for key, form in sorted((k, form) for form, k in keys.items()):
        if not any(all(map(le, h, key)) for h in kept_keys):
            kept_keys.append(key)
            kept.append(distinct[form])
    return kept


def loss_canonicalize(E: LossFunction) -> LossFunction:
    """Irredundant generator list denoting the same set; idempotent."""
    if E.canonical:
        return E
    gens = _prune(E.gens)
    if len(gens) > 1:
        # Every query below runs on the same distinct state classes.
        states = lp.state_classes([g.nums for g in gens])
        den, vectors = _int_vectors(gens, states)
        kept: List[int] = []
        for i, v in enumerate(vectors):
            others = [vectors[j] for j in kept] + vectors[i + 1:]
            if not lp.convex_cover(others, v, den).member:
                kept.append(i)
        gens = [gens[i] for i in kept]
    return LossFunction(E.ctx, tuple(gens), canonical=True)


def loss_min(E1: LossFunction, E2: LossFunction) -> LossFunction:
    """Formal meet: closure of the union of generator lists."""
    _require_same_ctx(E1, E2)
    return loss_canonicalize(LossFunction(E1.ctx, E1.gens + E2.gens))


def loss_add(E1: LossFunction, E2: LossFunction) -> LossFunction:
    """Minkowski sum of the denoted sets, generator-wise."""
    _require_same_ctx(E1, E2)
    gens = tuple(g1 + g2 for g1 in E1.gens for g2 in E2.gens)
    return loss_canonicalize(LossFunction(E1.ctx, gens))


def loss_scale(r, E: LossFunction) -> LossFunction:
    r = scalar(r)
    return loss_canonicalize(LossFunction(E.ctx, tuple(g.scale(r) for g in E.gens)))


def loss_conj(e: Predicate, E: LossFunction) -> LossFunction:
    """Pointwise-product action of a predicate on a loss function."""
    if e.ctx != E.ctx:
        raise ContextError("conjunction context mismatch")
    return loss_canonicalize(LossFunction(E.ctx, tuple(e.conj(g) for g in E.gens)))


def loss_map(f: Transformer, E: LossFunction) -> LossFunction:
    """Apply a linear predicate transformer to every generator."""
    if f.dst != E.ctx:
        raise ContextError("transformer/loss context mismatch")
    images = {}
    gens = []
    for g in E.gens:
        form = (g.den, g.nums)
        image = images.get(form)
        if image is None:
            image = images[form] = f.apply(g)
        gens.append(image)
    return loss_canonicalize(LossFunction(f.src, tuple(gens)))


def eval_loss(E: LossFunction, dist: Sequence[Fraction]) -> Scalar:
    """Minimum expected value over the generators at a sub-distribution."""
    _check_subdist(E.ctx, dist)
    best: Optional[Scalar] = None
    for g in E.gens:
        v = g.expectation(dist)
        if best is None or v < best:
            best = v
    return best


def _check_subdist(ctx: VarContext, dist: Sequence[Fraction]):
    if len(dist) != ctx.n_states:
        raise ContextError("distribution length mismatch")
    total = Fraction(0)
    for w in dist:
        if w < 0:
            raise ValueError("distribution weights must be nonnegative")
        total += w
    if total > 1:
        raise ValueError(f"distribution mass {total} exceeds 1")


def uniform_dist(ctx: VarContext) -> Tuple[Fraction, ...]:
    n = ctx.n_states
    return tuple(Fraction(1, n) for _ in range(n))


def point_dist(ctx: VarContext, state) -> Tuple[Fraction, ...]:
    dist = [Fraction(0)] * ctx.n_states
    dist[ctx.index_of(tuple(state))] = Fraction(1)
    return tuple(dist)


def normalize_witness(witness: Iterable[Fraction]) -> Tuple[Fraction, ...]:
    """Scale LP separation weights into a probability distribution."""
    w = list(witness)
    total = sum(w, Fraction(0))
    if total <= 0:
        raise ValueError("cannot normalize a zero witness")
    return tuple(v / total for v in w)
