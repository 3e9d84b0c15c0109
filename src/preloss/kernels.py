"""Sub-stochastic kernels and their dual predicate transformers.

A ``Kernel`` is a sub-stochastic matrix between two contexts (rows sum to at
most 1, zero entries omitted).  A ``Transformer`` is an arbitrary
nonnegative-rational matrix read contravariantly: it maps predicates over
its ``dst`` context to predicates over its ``src`` context.  Every kernel
dual is a transformer; so are the discard functional and the diagonal-copy
dual used by the hidden-declaration semantics.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import lcm
from typing import Dict, Optional, Sequence, Tuple

from .contexts import ContextError, VarContext
from .predicates import INF_NUM, Predicate

Row = Tuple[Tuple[int, Fraction], ...]
IntRows = Tuple[Tuple[Tuple[int, int], ...], ...]


def _int_form(rows: Tuple[Row, ...]) -> Tuple[int, IntRows, Optional[Tuple[int, ...]]]:
    """The weights as integers over one common denominator, zeros dropped.

    The third part lists each row's only column when every row is a single
    weight 1 (deterministic assignments, unvar); else it is None.
    """
    den = lcm(*{w.denominator for row in rows for _, w in row})
    int_rows = tuple(tuple((j, w.numerator * (den // w.denominator)) for j, w in row if w)
                     for row in rows)
    copies = None
    if den == 1 and all(len(row) == 1 and row[0][1] == 1 for row in int_rows):
        copies = tuple(row[0][0] for row in int_rows)
    return den, int_rows, copies


def _freeze_rows(rows: Sequence[Dict[int, Fraction]]) -> Tuple[Row, ...]:
    return tuple(tuple(sorted(r.items())) for r in rows)


@dataclass(frozen=True)
class Kernel:
    src: VarContext
    dst: VarContext
    rows: Tuple[Row, ...]

    def __post_init__(self):
        if len(self.rows) != self.src.n_states:
            raise ContextError("kernel row count mismatch")
        den, int_rows, _ = self.int_rows
        for row, int_row in zip(self.rows, int_rows):
            if len(int_row) < len(row) or any(p < 0 for _, p in int_row):
                raise ValueError("kernel entries must be strictly positive")
            total = sum(p for _, p in int_row)
            if total > den:
                raise ValueError(f"kernel row sum {Fraction(total, den)} exceeds 1")

    # The weights as integers over one denominator (``_int_form``): the row
    # checks above and the forward oracle's steps run on them.
    int_rows = cached_property(lambda self: _int_form(self.rows))

    @staticmethod
    def from_rows(src: VarContext, dst: VarContext, rows: Sequence[Dict[int, Fraction]]) -> "Kernel":
        return Kernel(src, dst, _freeze_rows(rows))

    @staticmethod
    def identity(ctx: VarContext) -> "Kernel":
        return Kernel(ctx, ctx, tuple(((i, Fraction(1)),) for i in range(ctx.n_states)))

    @property
    def is_total(self) -> bool:
        return all(sum(w for _, w in row) == 1 for row in self.rows)

    def dual(self) -> "Transformer":
        return Transformer(self.src, self.dst, self.rows)

    def dual_apply(self, e: Predicate) -> Predicate:
        return self.dual().apply(e)

    def compose(self, other: "Kernel") -> "Kernel":
        """Forward composition: run self, then other (src -> other.dst)."""
        if self.dst != other.src:
            raise ContextError("kernel composition context mismatch")
        rows = []
        for row in self.rows:
            acc: Dict[int, Fraction] = {}
            for mid, w in row:
                for out, w2 in other.rows[mid]:
                    acc[out] = acc.get(out, Fraction(0)) + w * w2
            rows.append({k: v for k, v in acc.items() if v})
        return Kernel.from_rows(self.src, other.dst, rows)

    def tensor(self, other: "Kernel") -> "Kernel":
        """Product kernel on merged (disjoint) contexts."""
        src = self.src.merge(other.src)
        dst = self.dst.merge(other.dst)
        n2 = other.dst.n_states
        rows = []
        for r1 in self.rows:
            for r2 in other.rows:
                rows.append({j1 * n2 + j2: w1 * w2 for j1, w1 in r1 for j2, w2 in r2})
        return Kernel.from_rows(src, dst, rows)


def diag_kernel(ctx: VarContext) -> Kernel:
    """Point mass at (y, y): a kernel from ctx to ctx x fresh copy."""
    copy = VarContext(tuple((n + "$", d) for n, d in ctx.vars))
    dst = ctx.merge(copy)
    n = ctx.n_states
    rows = tuple(((i * n + i, Fraction(1)),) for i in range(n))
    return Kernel(ctx, dst, rows)


@dataclass(frozen=True)
class Transformer:
    """Linear predicate transformer Pred(dst) -> Pred(src) as a matrix."""

    src: VarContext
    dst: VarContext
    rows: Tuple[Row, ...]

    def __post_init__(self):
        if len(self.rows) != self.src.n_states:
            raise ContextError("transformer row count mismatch")

    @staticmethod
    def from_rows(src, dst, rows) -> "Transformer":
        return Transformer(src, dst, _freeze_rows(rows))

    @staticmethod
    def identity(ctx: VarContext) -> "Transformer":
        return Transformer(ctx, ctx, tuple(((i, Fraction(1)),) for i in range(ctx.n_states)))

    @staticmethod
    def ones(ctx: VarContext) -> "Transformer":
        """The all-ones column Pred(empty) -> Pred(ctx).

        Embeds scalars as constant predicates; tensoring with it realizes
        context extension (it is the dual of discarding the variables).
        """
        from .contexts import EMPTY

        rows = tuple(((0, Fraction(1)),) for _ in range(ctx.n_states))
        return Transformer(ctx, EMPTY, rows)

    int_rows = cached_property(lambda self: _int_form(self.rows))

    def apply(self, e: Predicate) -> Predicate:
        if e.ctx != self.dst:
            raise ContextError("transformer applied to wrong context")
        den, rows, copies = self.int_rows
        nums = e.nums
        if copies is not None:
            return Predicate.from_ints(self.src, e.den, list(map(nums.__getitem__, copies)))
        if INF_NUM in nums:
            # Weights are positive, so a row reaching an INF entry is INF.
            out = [INF_NUM if any(nums[j] == INF_NUM for j, _ in row)
                   else sum(nums[j] * w for j, w in row) for row in rows]
        else:
            out = [sum(nums[j] * w for j, w in row) for row in rows]
        return Predicate.from_ints(self.src, den * e.den, out)

    def compose(self, other: "Transformer") -> "Transformer":
        """Function composition self . other (other is applied first).

        As matrices this is the product self @ other, giving a transformer
        from other.dst predicates to self.src predicates.
        """
        if self.dst != other.src:
            raise ContextError("transformer composition context mismatch")
        rows = []
        for row in self.rows:
            acc: Dict[int, Fraction] = {}
            for mid, w in row:
                for j, w2 in other.rows[mid]:
                    acc[j] = acc.get(j, Fraction(0)) + w * w2
            rows.append({k: v for k, v in acc.items() if v})
        return Transformer.from_rows(self.src, other.dst, rows)

    def tensor(self, other: "Transformer") -> "Transformer":
        src = self.src.merge(other.src)
        dst = self.dst.merge(other.dst)
        n2 = other.dst.n_states
        rows = []
        for r1 in self.rows:
            for r2 in other.rows:
                rows.append({j1 * n2 + j2: w1 * w2 for j1, w1 in r1 for j2, w2 in r2})
        return Transformer.from_rows(src, dst, rows)

    @property
    def is_partial(self) -> bool:
        """Row sums at most 1, i.e. maps the all-ones predicate below 1."""
        return all(sum(w for _, w in row) <= 1 for row in self.rows)


def diag_dual(ctx: VarContext) -> Transformer:
    """Dual of the diagonal copy map: e(y, y') restricted to y' = y."""
    k = diag_kernel(ctx)
    return k.dual()
