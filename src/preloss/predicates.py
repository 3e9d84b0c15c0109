"""Extended-rational-valued predicates on the states of a variable context.

Integer form.  A predicate's values are kept as a tuple ``nums`` of
integer numerators over one positive denominator ``den``, in lowest terms:
the gcd of ``den`` and every finite numerator is 1.  ``INF`` is the
sentinel numerator ``INF_NUM`` (-1); scalars are nonnegative, so no finite
value uses it.  Equal predicates over one context have the same integer
form.  The loss algebra runs on it with Python ints: ``+``, ``conj``,
``scale``, ``complement``, ``extend_to``, ``le``, ``is_zero`` and
``Transformer.apply`` (``kernels.py``), and in ``losses.py`` the dedupe,
order and dominance of ``_prune``, the state classes, ``loss_map``'s image
cache and every LP membership query, which takes the generators' and the
target's numerators over their common denominator.  ``INF`` stays inside
the form: it absorbs in sums, ``INF * 0 = 0`` and ``INF * x = INF`` for
``x > 0``.

Fraction entries.  ``entries``, a tuple of ``Fraction``s and ``INF``, is
derived from the integer form on first use and cached.  A predicate built
with ``Predicate(ctx, entries)`` (parsing, expressions, families) keeps its
entries and derives the integer form on first use instead, so code that
only reads entries, such as the forward oracle, never builds it.
``Fraction``s are built only at the edges: printing (``table``, ``repr``,
``sort_token``), ``at``, ``expectation`` and so ``eval_loss``, and the
adversary.

Equality and hashing keep the dataclass meaning, ``(ctx, entries)``, and
read the integer form.  The hash is ``hash((ctx, entries))``, computed
without building ``Fraction``s: a nonnegative rational n/d hashes to
``n * d^-1`` modulo the hash modulus, whatever its representation.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass
from fractions import Fraction
from itertools import repeat
from math import gcd, lcm
from operator import add, le, mul
from typing import Callable, Sequence, Tuple

from .contexts import ContextError, State, VarContext, fmt_state
from .scalars import INF, Scalar, fmt_scalar, scalar
from .scalars import sort_key as scalar_key

INF_NUM = -1

_HASH_MODULUS = sys.hash_info.modulus


def _int_form(entries: Sequence[Scalar]) -> Tuple[int, Tuple[int, ...]]:
    """Integer numerators over the lcm of the entries' denominators."""
    den = lcm(*{e.denominator for e in entries if e is not INF})
    nums = []
    for e in entries:
        if e is INF:
            nums.append(INF_NUM)
            continue
        n = e.numerator
        if n < 0:
            raise ValueError(f"scalars must be nonnegative, got {e}")
        nums.append(n * (den // e.denominator))
    return den, tuple(nums)


def _scalars(den: int, nums: Sequence[int]) -> Tuple[Scalar, ...]:
    """The values as Fractions and INF, one object per distinct value."""
    value = {n: INF if n == INF_NUM else Fraction(n, den) for n in set(nums)}
    return tuple(map(value.__getitem__, nums))


class _Derived:
    """A form of a predicate built on first read from the other form.

    A non-data descriptor: once ``fill`` has stored the form in the
    instance dict, reads find it there without calling back here.
    """

    def __init__(self, name: str, fill: Callable[[dict], None]):
        self.name = name
        self.fill = fill

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        d = obj.__dict__
        self.fill(d)
        return d[self.name]


def _fill_ints(d: dict):
    d["den"], d["nums"] = _int_form(d["entries"])


def _fill_entries(d: dict):
    d["entries"] = _scalars(d["den"], d["nums"])


def _make(ctx: VarContext, den: int, nums: Tuple[int, ...]) -> "Predicate":
    """A predicate from an integer form already in lowest terms."""
    p = object.__new__(Predicate)
    d = p.__dict__
    d["ctx"], d["den"], d["nums"] = ctx, den, nums
    return p


@dataclass(frozen=True)
class Predicate:
    ctx: VarContext
    entries: Tuple[Scalar, ...]

    # Not fields: the integer form, derived from ``entries`` when needed.
    den = _Derived("den", _fill_ints)
    nums = _Derived("nums", _fill_ints)

    def __post_init__(self):
        if len(self.entries) != self.ctx.n_states:
            raise ContextError(
                f"predicate has {len(self.entries)} entries for "
                f"{self.ctx.n_states} states"
            )

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
        return Predicate(ctx, tuple(scalar(fn(s)) for s in ctx.states()))

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

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Predicate):
            return NotImplemented
        if self is other:
            return True
        return self.ctx == other.ctx and self.den == other.den and self.nums == other.nums

    def __hash__(self) -> int:
        # Generators are hashed many times; the value is computed once per
        # object and kept outside the fields.
        d = self.__dict__
        h = d.get("_hash")
        if h is None:
            try:
                dinv = pow(self.den, -1, _HASH_MODULUS)
            except ValueError:  # den is a multiple of the modulus
                values = self.entries
            else:
                values = tuple(INF if n == INF_NUM else n * dinv % _HASH_MODULUS
                               for n in self.nums)
            h = d["_hash"] = hash((self.ctx, values))
        return h

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

    def extend(self, extra: VarContext) -> "Predicate":
        """Context extension: value independent of the appended variables."""
        return self.extend_to(self.ctx.merge(extra))

    def extend_to(self, target: VarContext) -> "Predicate":
        """Reindex onto a larger context containing this one's variables.

        The value at a target state is the value at its projection onto
        this predicate's variables (matched by name).  Every state is some
        target state's projection, so the form stays in lowest terms.
        """
        if target == self.ctx:
            return self
        nums = self.nums
        return _make(target, self.den, tuple(map(nums.__getitem__, self.ctx.projection(target))))

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


# ``entries`` stays a dataclass field; its descriptor is set after the
# decorator ran, so that it is not taken for the field's default.
Predicate.entries = _Derived("entries", _fill_entries)
