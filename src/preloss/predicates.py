"""Extended-rational-valued predicates on the states of a variable context.

A predicate keeps one form, as ``Kernel`` does: a tuple ``nums`` of
integer numerators over one positive denominator ``den``, in lowest terms
(the gcd of ``den`` and every finite numerator is 1).  ``INF`` is the
sentinel numerator ``INF_NUM`` (-1); scalars are nonnegative, so no finite
value uses it.  Equal predicates over one context have the same form, so
the dataclass equality and hash are the value's.  The loss algebra runs on
it with Python ints: ``+``, ``conj``, ``scale``, ``complement``,
``extend_to``, ``copied``, ``le``, ``is_zero`` and ``Transformer.apply``
(``kernels.py``), and in ``losses.py`` the dedupe, order and dominance of
``_prune``, the state classes and every LP membership query.  ``INF``
stays inside the form: it absorbs in sums, ``INF * 0 = 0`` and
``INF * x = INF`` for ``x > 0``.

``from_entries`` builds the form from ints, ``Fraction``s and ``INF`` (the
parser, expressions and witnesses); ``from_ints`` from numerators.
``entries``, the values as ``Fraction``s and ``INF``, is a view derived on
first read, for the edges: printing (``table``, ``repr``, ``sort_token``),
``at``, ``expectation`` and so ``eval_loss``.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import gcd, lcm
from operator import add, le, mul
from typing import Callable, Iterable, Sequence, Tuple

from .contexts import ContextError, State, VarContext, fmt_state
from .scalars import INF, Scalar, fmt_scalar, scalar
from .scalars import sort_key as scalar_key

INF_NUM = -1


def _scalars(den: int, nums: Sequence[int]) -> Tuple[Scalar, ...]:
    """The values as Fractions and INF, one object per distinct value."""
    value = {n: INF if n == INF_NUM else Fraction(n, den) for n in set(nums)}
    return tuple(map(value.__getitem__, nums))


def _make(ctx: VarContext, den: int, nums: Tuple[int, ...]) -> "Predicate":
    """A predicate from a form already in lowest terms, without ``__init__``."""
    p = object.__new__(Predicate)
    d = p.__dict__
    d["ctx"], d["den"], d["nums"] = ctx, den, nums
    return p


@dataclass(frozen=True)
class Predicate:
    """Values ``nums[i] / den`` (``INF_NUM`` for ``INF``) in lowest terms.

    The constructor takes a form already in lowest terms; ``from_ints``
    and ``from_entries`` reduce theirs.
    """

    ctx: VarContext
    den: int
    nums: Tuple[int, ...]

    def __post_init__(self):
        if len(self.nums) != self.ctx.n_states:
            raise ContextError(
                f"predicate has {len(self.nums)} entries for {self.ctx.n_states} states")

    entries = cached_property(lambda self: _scalars(self.den, self.nums))

    @staticmethod
    def from_entries(ctx: VarContext, values: Iterable) -> "Predicate":
        """The predicate with the given values: nonnegative ints, Fractions or INF.

        The integer form is over the lcm of the values' denominators, which
        is already in lowest terms: a prime's highest power in it divides
        some value's denominator, and so not that value's numerator.
        """
        values = tuple(values)
        for v in values:
            if v is not INF and (not isinstance(v, (int, Fraction)) or v < 0):
                raise ValueError(f"predicate values must be nonnegative ints, Fractions "
                                 f"or inf, got {v!r}")
        den = lcm(*{v.denominator for v in values if v is not INF})
        nums = tuple(INF_NUM if v is INF else v.numerator * (den // v.denominator)
                     for v in values)
        return Predicate(ctx, den, nums)

    @staticmethod
    def from_ints(ctx: VarContext, den: int, nums: Sequence[int]) -> "Predicate":
        """The predicate with values nums[i] / den (INF_NUM for INF), reduced."""
        if INF_NUM in nums:
            g = gcd(den, *(n for n in nums if n > 0))
            if g > 1:
                nums = [n // g if n > 0 else n for n in nums]
        else:
            g = gcd(den, *nums)
            if g > 1:
                nums = list(map(g.__rfloordiv__, nums))
        return _make(ctx, den // g, tuple(nums))

    @staticmethod
    def from_function(ctx: VarContext, fn: Callable[[State], Scalar]) -> "Predicate":
        return Predicate.from_entries(ctx, [scalar(fn(s)) for s in ctx.states()])

    @staticmethod
    def constant(ctx: VarContext, value) -> "Predicate":
        v = scalar(value)
        if v is INF:
            return _make(ctx, 1, (INF_NUM,) * ctx.n_states)
        return _make(ctx, v.denominator, (v.numerator,) * ctx.n_states)

    @staticmethod
    def zero(ctx: VarContext) -> "Predicate":
        return Predicate.constant(ctx, 0)

    @staticmethod
    def ones(ctx: VarContext) -> "Predicate":
        return Predicate.constant(ctx, 1)

    @staticmethod
    def unit(ctx: VarContext, state: Sequence) -> "Predicate":
        """Indicator of a single state."""
        idx = ctx.index_of(tuple(state))
        nums = [0] * ctx.n_states
        nums[idx] = 1
        return _make(ctx, 1, tuple(nums))

    def _require_same_ctx(self, other: "Predicate"):
        if self.ctx != other.ctx:
            raise ContextError("predicate context mismatch")

    def __add__(self, other: "Predicate") -> "Predicate":
        self._require_same_ctx(other)
        a, b, da, db = self.nums, other.nums, self.den, other.den
        den = lcm(da, db)
        fa, fb = den // da, den // db
        if INF_NUM in a or INF_NUM in b:
            out = [INF_NUM if x == INF_NUM or y == INF_NUM else x * fa + y * fb
                   for x, y in zip(a, b)]
        elif fa == fb == 1:
            out = list(map(add, a, b))
        else:
            out = list(map(add, map(mul, a, repeat(fa)), map(mul, b, repeat(fb))))
        return Predicate.from_ints(self.ctx, den, out)

    def scale(self, r) -> "Predicate":
        r = scalar(r)
        if r is INF:
            return _make(self.ctx, 1, tuple(INF_NUM if n else 0 for n in self.nums))
        if not r:
            return Predicate.zero(self.ctx)
        p = r.numerator
        out = [n if n == INF_NUM else n * p for n in self.nums]
        return Predicate.from_ints(self.ctx, self.den * r.denominator, out)

    def conj(self, other: "Predicate") -> "Predicate":
        """Pointwise product (the conjunction monoid)."""
        self._require_same_ctx(other)
        a, b = self.nums, other.nums
        if INF_NUM in a or INF_NUM in b:
            out = [0 if not x or not y else INF_NUM if x == INF_NUM or y == INF_NUM else x * y
                   for x, y in zip(a, b)]
        else:
            out = list(map(mul, a, b))
        return Predicate.from_ints(self.ctx, self.den * other.den, out)

    def complement(self) -> "Predicate":
        """The unique e' with e + e' = 1; requires e <= 1 pointwise."""
        den, nums = self.den, self.nums
        if INF_NUM in nums or max(nums) > den:
            (bad,) = _scalars(den, [next(n for n in nums if n == INF_NUM or n > den)])
            raise ValueError(f"complement undefined: entry {fmt_scalar(bad)} > 1")
        # gcd(den, den - n) = gcd(den, n): still in lowest terms.
        return _make(self.ctx, den, tuple(den - n for n in nums))

    def extend_to(self, target: VarContext) -> "Predicate":
        """Reindex onto a larger context containing this one's variables, by
        the projection onto them (matched by name), which is onto."""
        return self if target == self.ctx else self.copied(target, self.ctx.projection(target))

    def copied(self, ctx: VarContext, phi: Sequence[int]) -> "Predicate":
        """The predicate over ``ctx`` whose value at state x is this one's at
        phi[x]; with phi onto every value is kept, so it stays in lowest terms."""
        return _make(ctx, self.den, tuple(map(self.nums.__getitem__, phi)))

    def le(self, other: "Predicate") -> bool:
        self._require_same_ctx(other)
        a, b, da, db = self.nums, other.nums, self.den, other.den
        if INF_NUM in a or INF_NUM in b:
            return all(y == INF_NUM or (x != INF_NUM and x * db <= y * da)
                       for x, y in zip(a, b))
        if da == db:
            return all(map(le, a, b))
        return all(map(le, map(mul, a, repeat(db)), map(mul, b, repeat(da))))

    @property
    def is_zero(self) -> bool:
        return not any(self.nums)

    def at(self, state: Sequence) -> Scalar:
        return self.entries[self.ctx.index_of(tuple(state))]

    def expectation(self, dist: Sequence[Fraction]) -> Scalar:
        """Sum of entry * weight over states; INF * 0 = 0 applies."""
        if len(dist) != self.ctx.n_states:
            raise ContextError("distribution length mismatch")
        total: Scalar = Fraction(0)
        for e, w in zip(self.entries, dist):
            if w:
                total = total + e * w
        return total

    def sort_token(self):
        return tuple(scalar_key(e) for e in self.entries)

    def table(self) -> str:
        """Sparse state=value listing (omits zeros), in enumeration order."""
        parts = [
            f"{fmt_state(s)}={fmt_scalar(e)}"
            for s, e in zip(self.ctx.states(), self.entries)
            if e != 0
        ]
        return " ".join(parts) if parts else "(zero)"

    def __repr__(self) -> str:
        return f"Predicate[{self.table()}]"

