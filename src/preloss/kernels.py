"""Sub-stochastic kernels and their dual predicate transformers.

A ``Kernel`` is a sub-stochastic matrix between two contexts (rows sum to at
most 1, zero entries omitted).  A ``Transformer`` is an arbitrary
nonnegative-rational matrix read contravariantly: it maps predicates over
its ``dst`` context to predicates over its ``src`` context.  Every kernel
dual is a transformer; so is the discard functional (``Transformer.ones``).
Every statement but a choice, `skip` or `abort` elaborates to a kernel.  A
`print`, `if` or `while` is a channel from states to the values it shows,
read by its dense ``columns``.

Integer form.  Both classes store one form, as ``Predicate`` does: per row,
its (column, weight) pairs with integer weights ``nums`` over one positive
denominator ``den``, columns ascending, in lowest terms (the gcd of ``den``
and every weight is 1).  Equal matrices over the same contexts have the
same form.  ``from_ints`` builds it from integer rows and ``from_rows`` from
``Fraction`` rows; ``rows``, the weights as ``Fraction``s, is derived on
first read.  Products and tensors run on the integers, in one body each
(``_product``, ``_tensor``) shared by both classes.

``Transformer.apply`` runs on the matrix's ELLPACK form (``plan``, built
once): per slot, one C-level gather, scale and add over all rows, so
copies, partial copies and kernel duals take no Python step per entry.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import add, itemgetter, mul
from typing import Callable, Dict, List, Sequence, Tuple, Union

from .contexts import ContextError, VarContext
from .predicates import INF_NUM, Predicate

IntRow = Tuple[Tuple[int, int], ...]
IntRows = Tuple[IntRow, ...]


def _lowest(den: int, rows: Sequence[Dict[int, int]]) -> Tuple[int, IntRows]:
    """``rows / den`` in lowest terms, each row's columns ascending."""
    g = gcd(den, *(w for row in rows for w in row.values()))
    if g > 1:
        return den // g, tuple(tuple(sorted((j, w // g) for j, w in row.items())) for row in rows)
    return den, tuple(tuple(sorted(row.items())) for row in rows)


def _over_one_den(rows: Sequence[Dict[int, Fraction]]) -> Tuple[int, List[Dict[int, int]]]:
    """Rational rows as integer rows over the lcm of their denominators."""
    den = lcm(*{w.denominator for row in rows for w in row.values()})
    return den, [{j: w.numerator * (den // w.denominator) for j, w in row.items()}
                 for row in rows]


def _fraction_rows(den: int, rows: IntRows) -> Tuple[Tuple[Tuple[int, Fraction], ...], ...]:
    return tuple(tuple((j, Fraction(w, den)) for j, w in row) for row in rows)


def _product(a, b) -> Tuple[int, List[Dict[int, int]]]:
    """The matrix product ``a @ b`` as integer rows over ``a.den * b.den``."""
    if a.dst != b.src:
        raise ContextError(f"{type(a).__name__.lower()} composition context mismatch")
    other = b.nums
    rows = []
    for row in a.nums:
        acc: Dict[int, int] = {}
        for mid, w in row:
            for j, w2 in other[mid]:
                acc[j] = acc.get(j, 0) + w * w2
        rows.append(acc)
    return a.den * b.den, rows


def _tensor(a, b) -> Tuple[VarContext, VarContext, int, List[Dict[int, int]]]:
    """The product matrix on merged (disjoint) contexts, as integer rows."""
    n2 = b.dst.n_states
    rows = [{j1 * n2 + j2: w1 * w2 for j1, w1 in r1 for j2, w2 in r2}
            for r1 in a.nums for r2 in b.nums]
    return a.src.merge(b.src), a.dst.merge(b.dst), a.den * b.den, rows


@dataclass(frozen=True)
class Kernel:
    """Sub-stochastic matrix src -> dst in integer form.

    The constructor takes a form already in lowest terms; ``from_ints``
    and ``from_rows`` reduce theirs.
    """

    src: VarContext
    dst: VarContext
    den: int
    nums: IntRows

    def __post_init__(self):
        if len(self.nums) != self.src.n_states:
            raise ContextError("kernel row count mismatch")
        den = self.den
        for row in self.nums:
            total = 0
            for _, p in row:
                if p <= 0:
                    raise ValueError("kernel entries must be strictly positive")
                total += p
            if total > den:
                raise ValueError(f"kernel row sum {Fraction(total, den)} exceeds 1")

    rows = cached_property(lambda self: _fraction_rows(self.den, self.nums))

    @cached_property
    def columns(self) -> Tuple[Tuple[int, ...], ...]:
        """The dense transpose: per ``dst`` state, one weight per ``src`` state."""
        cols = [[0] * len(self.nums) for _ in range(self.dst.n_states)]
        for i, row in enumerate(self.nums):
            for j, w in row:
                cols[j][i] = w
        return tuple(map(tuple, cols))

    @staticmethod
    def from_ints(src: VarContext, dst: VarContext, den: int,
                  rows: Sequence[Dict[int, int]]) -> "Kernel":
        """The kernel with weights rows[i][j] / den."""
        return Kernel(src, dst, *_lowest(den, rows))

    @staticmethod
    def from_rows(src: VarContext, dst: VarContext,
                  rows: Sequence[Dict[int, Fraction]]) -> "Kernel":
        return Kernel.from_ints(src, dst, *_over_one_den(rows))

    @staticmethod
    def identity(ctx: VarContext) -> "Kernel":
        return Kernel(ctx, ctx, 1, tuple(((i, 1),) for i in range(ctx.n_states)))

    def dual(self) -> "Transformer":
        return Transformer(self.src, self.dst, self.den, self.nums)

    def dual_apply(self, e: Predicate) -> Predicate:
        return self.dual().apply(e)

    def compose(self, other: "Kernel") -> "Kernel":
        """Forward composition: run self, then other (src -> other.dst)."""
        return Kernel.from_ints(self.src, other.dst, *_product(self, other))

    def tensor(self, other: "Kernel") -> "Kernel":
        """Product kernel on merged (disjoint) contexts."""
        return Kernel.from_ints(*_tensor(self, other))


def diag_kernel(ctx: VarContext) -> Kernel:
    """Point mass at (y, y): a kernel from ctx to ctx x fresh copy."""
    copy = VarContext(tuple((n + "$", d) for n, d in ctx.vars))
    n = ctx.n_states
    return Kernel(ctx, ctx.merge(copy), 1, tuple(((i * n + i, 1),) for i in range(n)))


@dataclass(frozen=True)
class Transformer:
    """Linear predicate transformer Pred(dst) -> Pred(src) as a matrix.

    The integer form is as for ``Kernel``; ``from_rows`` drops zero weights.
    """

    src: VarContext
    dst: VarContext
    den: int
    nums: IntRows

    def __post_init__(self):
        if len(self.nums) != self.src.n_states:
            raise ContextError("transformer row count mismatch")

    rows = cached_property(lambda self: _fraction_rows(self.den, self.nums))

    @cached_property
    def plan(self) -> Tuple[Tuple[Callable, Union[int, Tuple[int, ...]]], ...]:
        """Per slot k, ``read`` and ``weights``, the slot's part of ``apply``.

        ``read`` takes each row's k-th column from the input padded with one
        0, at index ``dst.n_states`` for rows shorter than k + 1.  ``weights``
        is one int when the slot's weights are equal, else one per row.
        """
        pad = self.dst.n_states
        slots = []
        for k in range(max(map(len, self.nums), default=0)):
            cells = [row[k] if k < len(row) else None for row in self.nums]
            first = next(cell[1] for cell in cells if cell is not None)
            columns = [pad if cell is None else cell[0] for cell in cells]
            weights = tuple(first if cell is None else cell[1] for cell in cells)
            read = (itemgetter(*columns) if len(columns) > 1    # else a 1-tuple slice
                    else itemgetter(slice(columns[0], columns[0] + 1)))
            slots.append((read, first if weights.count(first) == len(weights) else weights))
        return tuple(slots)

    @staticmethod
    def from_ints(src: VarContext, dst: VarContext, den: int,
                  rows: Sequence[Dict[int, int]]) -> "Transformer":
        """The transformer with weights rows[i][j] / den."""
        return Transformer(src, dst, *_lowest(den, rows))

    @staticmethod
    def from_rows(src, dst, rows) -> "Transformer":
        return Transformer.from_ints(
            src, dst, *_over_one_den([{j: w for j, w in row.items() if w} for row in rows]))

    @staticmethod
    def identity(ctx: VarContext) -> "Transformer":
        return Transformer(ctx, ctx, 1, tuple(((i, 1),) for i in range(ctx.n_states)))

    @staticmethod
    def ones(ctx: VarContext) -> "Transformer":
        """The all-ones column Pred(empty) -> Pred(ctx).

        Embeds scalars as constant predicates; tensoring with it realizes
        context extension (it is the dual of discarding the variables).
        """
        from .contexts import EMPTY

        return Transformer(ctx, EMPTY, 1, (((0, 1),),) * ctx.n_states)

    def apply(self, e: Predicate) -> Predicate:
        if e.ctx != self.dst:
            raise ContextError("transformer applied to wrong context")
        nums = e.nums
        if INF_NUM in nums:
            # Weights are positive, so a row reaching an INF entry is INF.
            out = [INF_NUM if any(nums[j] == INF_NUM for j, _ in row)
                   else sum(nums[j] * w for j, w in row) for row in self.nums]
        else:
            padded = nums + (0,)
            acc = None
            for read, w in self.plan:
                term = read(padded)
                if type(w) is tuple:
                    term = map(mul, term, w)
                elif w != 1:
                    term = map(w.__mul__, term)
                acc = term if acc is None else map(add, acc, term)
            out = (0,) * len(self.nums) if acc is None else tuple(acc)
        return Predicate.from_ints(self.src, self.den * e.den, out)

    def compose(self, other: "Transformer") -> "Transformer":
        """Function composition self . other (other is applied first).

        As matrices this is the product self @ other, giving a transformer
        from other.dst predicates to self.src predicates.
        """
        return Transformer.from_ints(self.src, other.dst, *_product(self, other))

    def tensor(self, other: "Transformer") -> "Transformer":
        return Transformer.from_ints(*_tensor(self, other))

