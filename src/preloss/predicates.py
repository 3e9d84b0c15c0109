"""Extended-rational-valued predicates on the states of a variable context."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence, Tuple

from .contexts import ContextError, State, VarContext, fmt_state
from .scalars import ONE, ZERO, Scalar, fmt_scalar, is_inf, scalar
from .scalars import sort_key as scalar_key


@dataclass(frozen=True)
class Predicate:
    ctx: VarContext
    entries: Tuple[Scalar, ...]

    def __post_init__(self):
        if len(self.entries) != self.ctx.n_states:
            raise ContextError(
                f"predicate has {len(self.entries)} entries for "
                f"{self.ctx.n_states} states"
            )

    @staticmethod
    def from_function(ctx: VarContext, fn: Callable[[State], Scalar]) -> "Predicate":
        return Predicate(ctx, tuple(scalar(fn(s)) for s in ctx.states()))

    @staticmethod
    def constant(ctx: VarContext, value) -> "Predicate":
        v = scalar(value)
        return Predicate(ctx, (v,) * ctx.n_states)

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
        entries = [ZERO] * ctx.n_states
        entries[idx] = ONE
        return Predicate(ctx, tuple(entries))

    def __hash__(self) -> int:
        # Generators are hashed many times (pruning sets, image caches);
        # the value is the dataclass hash, computed once per object and kept
        # outside the fields, so equality, repr and replace are unchanged.
        try:
            return self.__dict__["_hash"]
        except KeyError:
            h = self.__dict__["_hash"] = hash((self.ctx, self.entries))
            return h

    def _require_same_ctx(self, other: "Predicate"):
        if self.ctx != other.ctx:
            raise ContextError("predicate context mismatch")

    def __add__(self, other: "Predicate") -> "Predicate":
        self._require_same_ctx(other)
        return Predicate(self.ctx, tuple(
            a if not b else b if not a else a + b
            for a, b in zip(self.entries, other.entries)))

    def scale(self, r) -> "Predicate":
        r = scalar(r)
        return Predicate(self.ctx, tuple(r * e for e in self.entries))

    def conj(self, other: "Predicate") -> "Predicate":
        """Pointwise product (the conjunction monoid)."""
        self._require_same_ctx(other)
        return Predicate(self.ctx, tuple(
            b if a == 1 else a if b == 1 else a * b
            for a, b in zip(self.entries, other.entries)))

    def complement(self) -> "Predicate":
        """The unique e' with e + e' = 1; requires e <= 1 pointwise."""
        out = []
        for e in self.entries:
            if is_inf(e) or e > 1:
                raise ValueError(f"complement undefined: entry {fmt_scalar(e)} > 1")
            out.append(ONE - e)
        return Predicate(self.ctx, tuple(out))

    def extend(self, extra: VarContext) -> "Predicate":
        """Context extension: value independent of the appended variables."""
        return self.extend_to(self.ctx.merge(extra))

    def extend_to(self, target: VarContext) -> "Predicate":
        """Reindex onto a larger context containing this one's variables.

        The value at a target state is the value at its projection onto
        this predicate's variables (matched by name).
        """
        if target == self.ctx:
            return self
        positions = [target.position_of(n) for n in self.ctx.names]
        for n in self.ctx.names:
            if target.domain_of(n) != self.ctx.domain_of(n):
                raise ContextError(f"domain mismatch for {n!r} in extension")
        entries = []
        for s in target.states():
            projected = tuple(s[p] for p in positions)
            entries.append(self.entries[self.ctx.index_of(projected)])
        return Predicate(target, tuple(entries))

    def le(self, other: "Predicate") -> bool:
        self._require_same_ctx(other)
        return all(a <= b for a, b in zip(self.entries, other.entries))

    @property
    def is_zero(self) -> bool:
        return all(e == 0 for e in self.entries)

    def at(self, state: Sequence) -> Scalar:
        return self.entries[self.ctx.index_of(tuple(state))]

    def expectation(self, dist: Sequence[Fraction]) -> Scalar:
        """Sum of entry * weight over states; INF * 0 = 0 applies."""
        if len(dist) != self.ctx.n_states:
            raise ContextError("distribution length mismatch")
        total: Scalar = ZERO
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
