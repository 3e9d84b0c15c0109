"""Arithmetic/boolean expressions over context variables.

Values are ints, exact rationals, symbolic atoms (strings) or tuples.
Booleans are the ints 0/1; comparisons yield 0/1 and `&&`/`||` short
circuit.  An identifier resolves to a variable of the context if declared,
otherwise to an atom if it occurs in some domain of the context.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Tuple, Union

from .contexts import State, VarContext, fmt_value
from .predicates import Predicate
from .scalars import scalar


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


def evaluate(expr: Expr, ctx: VarContext, state: State) -> Value:
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Name):
        if expr.id in ctx:
            return state[ctx.position_of(expr.id)]
        if expr.id in ctx.atoms:
            return expr.id
        raise EvalError(f"unbound variable {expr.id!r}")
    if isinstance(expr, TupleE):
        return tuple(evaluate(e, ctx, state) for e in expr.items)
    if isinstance(expr, Index):
        base = evaluate(expr.base, ctx, state)
        if not isinstance(base, tuple):
            raise EvalError(f"indexing a non-tuple value {fmt_value(base)}")
        i = _as_int(evaluate(expr.index, ctx, state), "index")
        if not 0 <= i < len(base):
            raise EvalError(f"index {i} out of range for arity {len(base)}")
        return base[i]
    if isinstance(expr, Unary):
        if expr.op == "-":
            return -_as_number(evaluate(expr.operand, ctx, state), "negation")
        if expr.op == "!":
            return 1 - _as_bit(evaluate(expr.operand, ctx, state), "'!'")
        raise EvalError(f"unknown unary {expr.op}")
    if isinstance(expr, Bin):
        op = expr.op
        if op == "&&":
            if _as_bit(evaluate(expr.left, ctx, state), "'&&'") == 0:
                return 0
            return _as_bit(evaluate(expr.right, ctx, state), "'&&'")
        if op == "||":
            if _as_bit(evaluate(expr.left, ctx, state), "'||'") == 1:
                return 1
            return _as_bit(evaluate(expr.right, ctx, state), "'||'")
        a = evaluate(expr.left, ctx, state)
        b = evaluate(expr.right, ctx, state)
        if op == "xor":
            return _as_bit(a, "'xor'") ^ _as_bit(b, "'xor'")
        if op == "=":
            return int(_values_equal(a, b))
        if op == "!=":
            return int(not _values_equal(a, b))
        if op in ("<", "<=", ">", ">="):
            x, y = _as_number(a, op), _as_number(b, op)
            return int({"<": x < y, "<=": x <= y, ">": x > y, ">=": x >= y}[op])
        if op == "+":
            return _as_number(a, "'+'") + _as_number(b, "'+'")
        if op == "-":
            return _as_number(a, "'-'") - _as_number(b, "'-'")
        if op == "*":
            return _as_number(a, "'*'") * _as_number(b, "'*'")
        if op == "div":
            y = _as_int(b, "'div'")
            if y == 0:
                raise EvalError("division by zero")
            return _as_int(a, "'div'") // y
        if op == "mod":
            y = _as_int(b, "'mod'")
            if y == 0:
                raise EvalError("mod by zero")
            return _as_int(a, "'mod'") % y
        if op == "/":
            y = _as_number(b, "'/'")
            if y == 0:
                raise EvalError("division by zero")
            return Fraction(_as_number(a, "'/'")) / y
        raise EvalError(f"unknown operator {op}")
    raise EvalError(f"unknown expression node {expr!r}")


def predicate_of(ctx: VarContext, expr: Expr, *, mode: str = "any") -> Predicate:
    """Evaluate an expression statewise into a predicate.

    mode: 'any' allows any nonnegative rational, 'unit' restricts to [0,1]
    (guards), 'bool' restricts to {0,1} (indicators).
    """
    entries = []
    for s in ctx.states():
        try:
            v = evaluate(expr, ctx, s)
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
        entries.append(scalar(v))
    return Predicate(ctx, tuple(entries))


_PREC = {
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
        prec = _PREC[expr.op]
        text = f"{pretty(expr.left, prec)} {expr.op} {pretty(expr.right, prec + 1)}"
        return f"({text})" if prec < parent_prec else text
    raise ValueError(f"unknown expression node {expr!r}")
