"""Arithmetic/boolean expressions over context variables.

Values are ints, exact rationals, symbolic atoms (strings) or tuples.
Booleans are the ints 0/1; comparisons yield 0/1 and `&&`/`||` short
circuit.  An identifier resolves to a variable of the context if declared,
otherwise to an atom if it occurs in some domain of the context.

``compile_expr`` turns an expression into a closure over the states of one
context (closure compilation, Feeley & Lapalme, "Using closures for code
generation", 1987): names are resolved and operators dispatched once per
expression, not once per state, with a fast path for ``int`` operands.
"""

from __future__ import annotations

import operator
from dataclasses import dataclass
from fractions import Fraction
from operator import itemgetter
from typing import Callable, Iterable, Sequence, Tuple, Union

from .contexts import State, VarContext, fmt_value, valuations
from .predicates import Predicate


class EvalError(ValueError):
    pass


@dataclass(frozen=True)
class Lit:
    value: Union[int, Fraction]


@dataclass(frozen=True)
class Name:
    id: str


@dataclass(frozen=True)
class Unary:
    op: str  # '!' or '-'
    operand: "Expr"


@dataclass(frozen=True)
class Bin:
    op: str
    left: "Expr"
    right: "Expr"


@dataclass(frozen=True)
class Index:
    base: "Expr"
    index: "Expr"


@dataclass(frozen=True)
class TupleE:
    items: Tuple["Expr", ...]


Expr = Union[Lit, Name, Unary, Bin, Index, TupleE]

Value = Union[int, Fraction, str, tuple]


def _as_number(v: Value, what: str):
    if isinstance(v, (int, Fraction)) and not isinstance(v, bool):
        return v
    raise EvalError(f"{what} needs a number, got {fmt_value(v)}")


def _as_int(v: Value, what: str) -> int:
    v = _as_number(v, what)
    if isinstance(v, Fraction):
        if v.denominator != 1:
            raise EvalError(f"{what} needs an integer, got {v}")
        return v.numerator
    return v


def _as_bit(v: Value, what: str) -> int:
    v = _as_number(v, what)
    if v == 0:
        return 0
    if v == 1:
        return 1
    raise EvalError(f"{what} needs a 0/1 value, got {fmt_value(v)}")


def _values_equal(a: Value, b: Value) -> bool:
    num_a = isinstance(a, (int, Fraction))
    num_b = isinstance(b, (int, Fraction))
    if num_a and num_b:
        return a == b
    if isinstance(a, str) and isinstance(b, str):
        return a == b
    if isinstance(a, tuple) and isinstance(b, tuple):
        if len(a) != len(b):
            raise EvalError("comparing tuples of different arity")
        return all(_values_equal(x, y) for x, y in zip(a, b))
    raise EvalError(f"cannot compare {fmt_value(a)} with {fmt_value(b)}")


def compile_expr(expr: Expr, ctx: VarContext) -> Callable[[State], Value]:
    """The expression as a function of a state of ``ctx``.

    Names are resolved to a state position or an atom, and operators are
    dispatched, once here rather than at every state.  The function returns
    the values and raises the ``EvalError``s of a node-by-node evaluation, in
    the same order: operands left to right, ``&&``/``||`` short-circuit, and
    an unbound name fails only when it is reached.
    """
    kind = type(expr)
    if kind is Lit:
        value = expr.value
        return lambda s: value
    if kind is Name:
        name = expr.id
        if name in ctx:
            return itemgetter(ctx.position_of(name))
        if name in ctx.atoms:
            return lambda s: name
        message = f"unbound variable {name!r}"
    elif kind is TupleE:
        items = [compile_expr(e, ctx) for e in expr.items]
        return lambda s: tuple([f(s) for f in items])
    elif kind is Index:
        base_of, index_of = compile_expr(expr.base, ctx), compile_expr(expr.index, ctx)

        def index(s):
            base = base_of(s)
            if not isinstance(base, tuple):
                raise EvalError(f"indexing a non-tuple value {fmt_value(base)}")
            i = _as_int(index_of(s), "index")
            if not 0 <= i < len(base):
                raise EvalError(f"index {i} out of range for arity {len(base)}")
            return base[i]
        return index
    elif kind is Unary:
        f = compile_expr(expr.operand, ctx)
        if expr.op == "-":
            return lambda s: -_as_number(f(s), "negation")
        if expr.op == "!":
            return lambda s: 1 - _as_bit(f(s), "'!'")
        message = f"unknown unary {expr.op}"
    elif kind is Bin:
        op = expr.op
        fa, fb = compile_expr(expr.left, ctx), compile_expr(expr.right, ctx)
        if op == "&&":
            return lambda s: 0 if _as_bit(fa(s), "'&&'") == 0 else _as_bit(fb(s), "'&&'")
        if op == "||":
            return lambda s: 1 if _as_bit(fa(s), "'||'") == 1 else _as_bit(fb(s), "'||'")
        ints, values = _STRICT.get(op) or (None, _unknown_operator(op))
        if ints is None:
            return lambda s: values(fa(s), fb(s))

        def strict(s):
            a, b = fa(s), fb(s)
            if type(a) is int and type(b) is int:
                return ints(a, b)
            return values(a, b)
        return strict
    else:
        message = f"unknown expression node {expr!r}"

    def fail(s):
        raise EvalError(message)
    return fail


def _numeric(fn: Callable, what: str):
    return fn, lambda a, b: fn(_as_number(a, what), _as_number(b, what))


def _comparison(fn: Callable, op: str):
    return (lambda a, b: int(fn(a, b)),
            lambda a, b: int(fn(_as_number(a, op), _as_number(b, op))))


def _integer_division(fn: Callable, what: str, zero: str):
    def values(a, b):
        y = _as_int(b, what)  # the divisor is checked before the dividend
        if y == 0:
            raise EvalError(zero)
        return fn(_as_int(a, what), y)
    return (lambda a, b: fn(a, b) if b else values(a, b)), values


def _divide(a: Value, b: Value) -> Fraction:
    y = _as_number(b, "'/'")  # the divisor is checked before the dividend
    if y == 0:
        raise EvalError("division by zero")
    return Fraction(_as_number(a, "'/'")) / y


def _unknown_operator(op: str):
    def values(a, b):
        raise EvalError(f"unknown operator {op}")
    return values


# Binary operators that evaluate both operands, left then right: per
# operator, its value on two ``int``s (or None) and on any two values.
_STRICT = {
    "xor": (None, lambda a, b: _as_bit(a, "'xor'") ^ _as_bit(b, "'xor'")),
    "=": (lambda a, b: int(a == b), lambda a, b: int(_values_equal(a, b))),
    "!=": (lambda a, b: int(a != b), lambda a, b: int(not _values_equal(a, b))),
    "<": _comparison(operator.lt, "<"), "<=": _comparison(operator.le, "<="),
    ">": _comparison(operator.gt, ">"), ">=": _comparison(operator.ge, ">="),
    "+": _numeric(operator.add, "'+'"), "-": _numeric(operator.sub, "'-'"),
    "*": _numeric(operator.mul, "'*'"),
    "div": _integer_division(operator.floordiv, "'div'", "division by zero"),
    "mod": _integer_division(operator.mod, "'mod'", "mod by zero"),
    "/": (None, _divide),
}


def evaluation_points(ctx: VarContext, exprs) -> Tuple[Iterable[State], Sequence[int]]:
    """``(points, index)``: ``exprs`` take at state i their values at ``points[index[i]]``.

    A compiled expression's value or ``EvalError`` depends only on the
    variables it names.  If ``exprs`` name fewer than all, the points are the
    first state of each valuation of those, in context order (``valuations``).
    A state's point fails with it and comes no later, so evaluating all of
    ``exprs`` at each point in turn first fails where, and as, each state would.
    """
    nodes = list(exprs)
    for e in nodes:  # the list grows as it is walked, so every node is visited
        kind = type(e)
        nodes += ((e.operand,) if kind is Unary else (e.left, e.right) if kind is Bin
                  else (e.base, e.index) if kind is Index else e.items if kind is TupleE else ())
    read = frozenset(e.id for e in nodes if type(e) is Name and e.id in ctx)
    if len(read) == len(ctx.vars):
        return ctx.states(), range(ctx.n_states)
    return valuations(ctx, read)


def predicate_of(ctx: VarContext, expr: Expr, *, mode: str = "any") -> Predicate:
    """Evaluate an expression into a predicate, once per valuation of what it reads.

    mode: 'any' allows any nonnegative rational, 'unit' restricts to [0,1]
    (guards), 'bool' restricts to {0,1} (indicators).
    """
    value_of = compile_expr(expr, ctx)
    points, index = evaluation_points(ctx, (expr,))
    entries = []
    for s in points:
        try:
            v = value_of(s)
        except EvalError as exc:
            raise EvalError(f"{exc} (at state {fmt_value(s)})") from None
        if not isinstance(v, (int, Fraction)):
            raise EvalError(f"expression value {fmt_value(v)} is not numeric at state {fmt_value(s)}")
        if v < 0:
            raise EvalError(f"negative expression value {v} at state {fmt_value(s)}")
        if mode == "unit" and v > 1:
            raise EvalError(f"guard value {v} above 1 at state {fmt_value(s)}")
        if mode == "bool" and v not in (0, 1):
            raise EvalError(f"boolean expression value {v} at state {fmt_value(s)}")
        entries.append(v)
    return Predicate.from_entries(ctx, map(entries.__getitem__, index))


# Binary operator precedences, for the parser and for ``pretty``.
BIN_PREC = {
    "||": 1,
    "xor": 2,
    "&&": 3,
    "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
    "+": 5, "-": 5,
    "*": 6, "div": 6, "mod": 6, "/": 6,
}


def pretty(expr: Expr, parent_prec: int = 0) -> str:
    if isinstance(expr, Lit):
        return str(expr.value)
    if isinstance(expr, Name):
        return expr.id
    if isinstance(expr, TupleE):
        return "(" + ", ".join(pretty(e) for e in expr.items) + ")"
    if isinstance(expr, Index):
        return f"{pretty(expr.base, 8)}[{pretty(expr.index)}]"
    if isinstance(expr, Unary):
        return f"{expr.op}{pretty(expr.operand, 7)}"
    if isinstance(expr, Bin):
        prec = BIN_PREC[expr.op]
        text = f"{pretty(expr.left, prec)} {expr.op} {pretty(expr.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    raise ValueError(f"unknown expression node {expr!r}")
