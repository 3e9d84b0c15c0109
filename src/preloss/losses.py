"""Loss functions: finitely generated upper-convex sets of predicates.

A loss function is represented by a nonempty list of generator predicates;
it denotes the upward convex closure of that list.  Equality and the
refinement order are semantic (decided by exact LP membership), never list
equality.  Refinement is reverse inclusion of denotations: E1 refines into
E2 when every generator of E2 lies in E1's closure.  A sum of canonical
losses with disjoint supports, such as the columns of a deterministic
guard times their branch losses, is kept as a sum of blocks, which is
canonical as formed (``loss_add``).  The cone operations are linear, so
they act block by block, and the generators of a sum are built only where
they are read.  One helper, ``_sum``, makes every canonical loss, one block
or many; the ``LossFunction`` constructor makes only raw one-block losses.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from math import lcm
from operator import itemgetter, le
from typing import Iterable, List, Optional, Sequence, Tuple

from . import lp
from .contexts import ContextError, VarContext
from .kernels import Transformer
from .predicates import INF_NUM, Predicate
from .scalars import Scalar, scalar


class LossFunction:
    """A sum of blocks, each a nonempty tuple of generators.

    ``LossFunction(ctx, gens)`` is one raw block, not known to be
    canonical.  ``_sum`` makes every canonical loss: one canonical block,
    or canonical blocks whose supports are pairwise disjoint, none of them
    {0}, so a loss has at most ``ctx.n_states`` blocks.  ``gens`` is every
    choice of one generator per block, summed and sorted by ``_by_key``,
    built on first read; ``loss_add`` shows that this is the list
    ``loss_canonicalize`` would return for those sums.
    """

    __hash__ = None  # semantic equality is incompatible with structural hashing

    def __init__(self, ctx: VarContext, gens: Tuple[Predicate, ...]):
        gens = tuple(gens)
        if not gens:
            raise ValueError("loss function needs at least one generator")
        for g in gens:
            if g.ctx != ctx:
                raise ContextError("generator context mismatch")
        self.ctx, self.blocks, self.canonical = ctx, (gens,), False
        self.__dict__["gens"] = gens

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, LossFunction):
            return NotImplemented
        return loss_equal(self, other)

    @cached_property
    def gens(self) -> Tuple[Predicate, ...]:
        sums = self.blocks[0]
        for block in self.blocks[1:]:
            sums = [a + b for a in sums for b in block]
        return tuple(g for _, g in _by_key(sums))

    @cached_property
    def supports(self) -> Tuple[int, ...]:
        """Each block's support: the states where one of its generators is
        nonzero, one byte each (1 or 0) of an int, so that two supports are
        disjoint iff their ``&`` is 0."""
        return tuple(map(_support, self.blocks))

    def __repr__(self) -> str:
        sizes = " x ".join(str(len(b)) for b in self.blocks)
        return f"LossFunction({sizes} gens over {self.ctx.pretty() or 'empty'})"


def _support(gens: Sequence[Predicate]) -> int:
    mask = 0
    for g in gens:
        mask |= int.from_bytes(bytes(map(bool, g.nums)), "little")
    return mask


def _sum(ctx: VarContext, blocks: Tuple[Tuple[Predicate, ...], ...],
         supports: Optional[Tuple[int, ...]] = None) -> LossFunction:
    """The canonical loss that sums ``blocks``: each canonical, with pairwise
    disjoint supports, and none {0} when there are several."""
    E = object.__new__(LossFunction)
    E.ctx, E.blocks, E.canonical = ctx, blocks, True
    if len(blocks) == 1:
        E.__dict__["gens"] = blocks[0]
    if supports is not None:
        E.__dict__["supports"] = supports
    return E


def embed(e: Predicate) -> LossFunction:
    """The principal filter of a single predicate."""
    return _sum(e.ctx, ((e,),))


def zero_loss(ctx: VarContext) -> LossFunction:
    return embed(Predicate.zero(ctx))


def one_loss(ctx: VarContext) -> LossFunction:
    return embed(Predicate.ones(ctx))


def _require_same_ctx(a: LossFunction, b: LossFunction):
    if a.ctx != b.ctx:
        raise ContextError("loss function context mismatch")


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
    witness = [0] * e.ctx.n_states
    for x, w in zip(states, res.nums):
        witness[x] = w
    return lp.CoverResult(False, res.den, tuple(witness))


def loss_refines(E1: LossFunction, E2: LossFunction) -> bool:
    """E1 refines into E2 (reverse inclusion of closures)."""
    _require_same_ctx(E1, E2)
    return all(loss_member_certified(g, E1).member for g in E2.gens)


def loss_equal(E1: LossFunction, E2: LossFunction) -> bool:
    return loss_refines(E1, E2) and loss_refines(E2, E1)


def is_zero_loss(E: LossFunction) -> bool:
    """True iff E denotes the whole cone, i.e. contains the zero predicate.

    No LP is needed: generators are nonnegative and INF * lam = INF for
    lam > 0, so a convex combination is zero only when every generator it
    weighs is zero.  The zero predicate is in a block's closure iff some
    generator is zero, and a sum of generators is zero iff each is, so in
    a sum's closure iff every block has a zero generator.
    """
    return all(any(g.is_zero for g in block) for block in E.blocks)


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


def _by_key(gens: Sequence[Predicate]) -> List[Tuple[Tuple[int, ...], Predicate]]:
    """Distinct generators with their keys, sorted by key (no two tie).

    Each generator's key is its integer form over the generators' common
    denominator, with INF mapped above every finite entry; that map is
    strictly monotone, so the keys sort as ``Predicate.sort_token`` does.
    """
    den = lcm(*{g.den for g in gens})
    keys = [g.nums if g.den == den else tuple(map((den // g.den).__mul__, g.nums))
            for g in gens]
    if any(INF_NUM in g.nums for g in gens):
        top = 1 + max(map(max, keys))
        keys = [tuple(top if n < 0 else n for n in k) for k in keys]
    return sorted(zip(keys, gens), key=itemgetter(0))


def _prune(gens: Sequence[Predicate]) -> List[Predicate]:
    """Cheap reductions: exact duplicates and pointwise-dominated generators.

    A generator above another pointwise sits in the other's upward closure.
    Sorted by ``_by_key``, a generator can only be dominated by earlier ones.
    """
    distinct = {}
    for g in gens:
        distinct.setdefault((g.den, g.nums), g)
    if len(distinct) == 1:
        return list(distinct.values())
    kept_keys: List[Tuple[int, ...]] = []
    kept: List[Predicate] = []
    for key, g in _by_key(list(distinct.values())):
        if not any(all(map(le, h, key)) for h in kept_keys):
            kept_keys.append(key)
            kept.append(g)
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
            if not lp.covered(others, v, den):
                kept.append(i)
        gens = [gens[i] for i in kept]
    return _sum(E.ctx, (tuple(gens),))


def loss_min(E1: LossFunction, E2: LossFunction) -> LossFunction:
    """Formal meet: closure of the union of generator lists."""
    _require_same_ctx(E1, E2)
    return loss_canonicalize(LossFunction(E1.ctx, E1.gens + E2.gens))


def loss_add(E1: LossFunction, E2: LossFunction) -> LossFunction:
    """Minkowski sum of the denoted sets, kept as a sum of blocks.

    When both inputs are canonical, their blocks are kept as they are,
    with no LP query, except that each block of E2 is merged with the
    blocks of E1 it shares a state with (``INF`` counts as nonzero): their
    pairwise sums are canonicalized into one block.  A {0} block is
    dropped, since 0 + b = b.  Otherwise every pairwise sum of the
    generators is canonicalized.

    Canonical blocks A and B with disjoint supports need no LP:

    * Irredundant.  Suppose a0 + b0 lies above a convex combination, with
      weights w, of the other pairwise sums.  On A's support every b is
      zero, so a0 lies above the combination of A's generators weighted
      by w's A-marginal.  If that marginal put weight m < 1 on a0, then
      a0 would lie above a convex combination of the other generators
      (divide the rest by 1 - m; where a0 is finite, every generator with
      weight is finite too).  A is irredundant, so all of w sits on pairs
      (a0, b) with b != b0.  The same argument on B's support puts b0
      above a convex combination of B's other generators, a
      contradiction.  ``INF * 0 = 0``, and ``INF`` absorbs only on its own
      support, so the restrictions hold with ``INF`` entries too.
    * Distinct.  Each sum is a on A's support and b on B's, so distinct
      pairs give distinct sums, and no dedupe is needed.
    * Order.  ``loss_canonicalize`` keeps ``_prune``'s key order, and on
      irredundant sums it keeps everything, so sorting the sums by
      ``_by_key`` gives exactly its list.

    So A + B is canonical, with the union of the supports, and by
    induction so is any number of such blocks: that is the list
    ``LossFunction.gens`` builds.
    """
    _require_same_ctx(E1, E2)
    ctx = E1.ctx
    if not (E1.canonical and E2.canonical):
        return loss_canonicalize(LossFunction(ctx, _sums(E1.gens, E2.gens)))
    parts = list(zip(E1.blocks, E1.supports))
    for block, support in zip(E2.blocks, E2.supports):
        shared = [part for part in parts if part[1] & support]
        if shared:
            parts = [part for part in parts if not part[1] & support]
            for other, _ in shared:
                block = _sums(other, block)
            block = loss_canonicalize(LossFunction(ctx, block)).gens
            support = _support(block)
        parts.append((block, support))
    parts = [part for part in parts if part[1]]
    if not parts:
        return zero_loss(ctx)
    blocks, supports = zip(*parts)
    return _sum(ctx, blocks, supports)


def _sums(A: Sequence[Predicate], B: Sequence[Predicate]) -> Tuple[Predicate, ...]:
    return tuple(a + b for a in A for b in B)


def _blockwise(ctx: VarContext, E: LossFunction, fn) -> LossFunction:
    """The sum over E's blocks of each block's image under ``fn``,
    canonicalized block by block; ``fn`` must be additive."""
    total: Optional[LossFunction] = None
    for block in E.blocks:
        image = loss_canonicalize(LossFunction(ctx, tuple(map(fn, block))))
        total = image if total is None else loss_add(total, image)
    return total


def loss_scale(r, E: LossFunction) -> LossFunction:
    """r * E, block by block: r (a + b) = r a + r b, with INF * 0 = 0."""
    r = scalar(r)
    return _blockwise(E.ctx, E, lambda g: g.scale(r))


def loss_conj(e: Predicate, E: LossFunction) -> LossFunction:
    """Pointwise-product action of a predicate on a loss function.

    It acts block by block: e (a + b) = e a + e b entrywise, since
    ``INF * 0 = 0`` and ``INF`` absorbs on both sides.
    """
    if e.ctx != E.ctx:
        raise ContextError("conjunction context mismatch")
    return _blockwise(E.ctx, E, e.conj)


def loss_map(f: Transformer, E: LossFunction) -> LossFunction:
    """Apply a linear predicate transformer to every generator.

    It acts block by block: f (a + b) = f a + f b, since each entry of
    f g is a sum of nonnegative weights times entries of g, with
    ``INF * 0 = 0``.

    When f only copies entries (``Transformer.copies``: f g = g o phi,
    phi onto), a canonical loss maps to a canonical one with no LP query.
    If g0 o phi lay above a convex combination of the other g o phi, then
    at each state y, read at an x with phi(x) = y, g0 would lie above that
    combination of the other g, ``INF`` entries copied as they are; so
    irredundant blocks stay irredundant.  g o phi determines g, so
    distinct generators stay distinct and no block becomes {0}; and the
    support of g o phi is the preimage of g's, so disjoint supports stay
    disjoint.  A permutation reorders the ``_by_key`` order, so a block of
    several generators is sorted again.  Each block is then the list
    ``loss_canonicalize`` gives its image, and the blocks are those
    ``loss_add`` keeps for the images' sum; the identity gives E itself.
    """
    if f.dst != E.ctx:
        raise ContextError("transformer/loss context mismatch")
    phi = f.copies
    if phi is None or not E.canonical:
        return _blockwise(f.src, E, f.apply)
    if f.src == f.dst and phi == tuple(range(len(phi))):
        return E
    blocks = []
    for block in E.blocks:
        block = tuple(g.copied(f.src, phi) for g in block)
        blocks.append(block if len(block) == 1 else tuple(g for _, g in _by_key(block)))
    return _sum(f.src, tuple(blocks))


def eval_loss(E: LossFunction, dist: Sequence[Fraction]) -> Scalar:
    """Minimum expected value over the generators at a sub-distribution.

    Over a sum it is the sum of each block's minimum: expectation is
    linear, and each block's generator is chosen on its own.
    """
    _check_subdist(E.ctx, dist)
    return sum(min(g.expectation(dist) for g in block) for block in E.blocks)


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
