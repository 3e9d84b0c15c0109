"""Differential tests of the front end against private copies of the code it replaced.

* ``lex`` (one regular expression walked with ``finditer``) against the
  character-at-a-time lexer, on every corpus file, the seed-1 benchmark
  texts and edge cases: tokens and error messages must be equal.
* ``compile_expr`` against the node-by-node ``evaluate``, on seeded random
  expression trees: values (with their types) and error messages must be
  equal at every state.
* The kernels, guards and observation kernels that ``typecheck_program``
  attaches must equal the ones the ``Fraction``-weighted elaboration built.
"""

from __future__ import annotations

import importlib.util
import pathlib
import random
import re
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List

import pytest

from conftest import ProgramShape, gen_typed_program
from preloss.contexts import VarContext, fmt_value
from preloss.exprs import (
    Bin, EvalError, Index, Lit, Name, TupleE, Unary, _as_bit, _as_int, _as_number,
    _values_equal, compile_expr,
)
from preloss.kernels import Kernel
from preloss.parsing import ParseError, lex, parse_program_file
from preloss.predicates import Predicate
from preloss.scalars import scalar
from preloss.syntax import Assert, Assign, HidVar, If, Print, Unvar, While, walk
from preloss.typecheck import typecheck_program

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _bench_gen():
    """``bench/gen.py``, the seeded generator of the benchmark's oracle cases."""
    if "bench_gen" not in sys.modules:
        spec = importlib.util.spec_from_file_location("bench_gen", ROOT / "bench" / "gen.py")
        module = importlib.util.module_from_spec(spec)
        sys.modules["bench_gen"] = module  # its dataclass looks its module up there
        spec.loader.exec_module(module)
    return sys.modules["bench_gen"]


# ------------------------------------------------------------------- lexer
# Reference: the character-at-a-time lexer ``lex`` replaced.

_REF_PUNCTS = [":=", "[]", "||", "&&", "!=", "<=", ">=", "..",
               ";", ":", ",", "(", ")", "{", "}", "[", "]", "|", "@",
               "=", "<", ">", "+", "-", "*", "/", "!"]
_REF_IDENT = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_REF_INT = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class _RefToken:
    kind: str
    text: str
    line: int
    col: int


def _reference_lex(text: str, first_line: int = 1, first_col: int = 1) -> List[_RefToken]:
    tokens: List[_RefToken] = []
    line = first_line
    col = first_col
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if c in " \t\r":
            i += 1
            col += 1
            continue
        if text.startswith("//", i):
            while i < n and text[i] != "\n":
                i += 1
            continue
        m = _REF_IDENT.match(text, i)
        if m:
            tokens.append(_RefToken("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _REF_INT.match(text, i)
        if m:
            tokens.append(_RefToken("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for p in _REF_PUNCTS:
            if text.startswith(p, i):
                tokens.append(_RefToken("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(_RefToken("eof", "", line, col))
    return tokens


def _lexed(lexer, text, first_line, first_col):
    try:
        return [(t.kind, t.text, t.line, t.col) for t in lexer(text, first_line, first_col)]
    except ParseError as exc:
        return ("error", str(exc), exc.line, exc.col)


_LEX_EDGE_CASES = [
    "", "\n", "\n\n  \n", "x // comment at eof", "// only a comment", "x\n// c\n",
    "a//b\nc", "x // c\r\n", "x\r\ny := 1\r\n", "\tx\t:=\t1", " \t \r ", "x   ",
    "x ..y", "1..3", "12ab ab'c a'' _x1", "a:=b[]c||d&&e!=f<=g>=h", "{[(|@)]}",
    "-1 / 2 * !x", "x := 0 @ 1/2 | 1",
    # each unexpected-character case: alone, after a token, on a later line
    *(f"{c}" for c in "#$%&?.^~`\\'\"\x0c\x0bé€"),
    *(f"x := 1 {c} 2" for c in "#$%&?.^~`\\'\"\x0c\x0bé€"),
    *(f"x\n  y {c}" for c in "#&.?\x0cé"),
]

_OFFSETS = [(1, 1), (1, 9), (4, 1), (7, 13)]


def test_lexer_matches_reference():
    corpus = [p.read_text(encoding="utf-8") for p in sorted((ROOT / "corpus").iterdir())]
    bench = [t for c in _bench_gen().generate(1, 800) for t in (c.program, c.loss, c.prior)]
    compared = errors = 0
    for texts, offsets in [(corpus + _LEX_EDGE_CASES, _OFFSETS), (bench, _OFFSETS[::3])]:
        for text in texts:
            for first_line, first_col in offsets:
                expected = _lexed(_reference_lex, text, first_line, first_col)
                assert _lexed(lex, text, first_line, first_col) == expected, (text, first_line)
                compared += 1
                errors += expected[0] == "error"
    # 57 edge cases, 38 of them errors, at four offsets; 2400 benchmark texts at two
    assert len(corpus) >= 28 and len(_LEX_EDGE_CASES) == 57
    assert compared == 4 * (len(corpus) + 57) + 2 * 2400 and errors == 4 * 38


def test_lexer_positions_after_comments_and_offsets():
    # a comment does not advance the column, so eof sits where the comment starts
    assert lex("x // c")[-1] == ("eof", "", 1, 3)
    assert lex("x // c", 5, 10)[-1] == ("eof", "", 5, 12)
    assert lex("a\n b", 3, 7)[1] == ("ident", "b", 4, 2)
    with pytest.raises(ParseError, match=r"^2:3: unexpected character '#'$"):
        lex("x\n  #")


# ------------------------------------------------------------- expressions
# Reference: the node-by-node evaluator ``compile_expr`` replaced.

def _reference_evaluate(expr, ctx: VarContext, state):
    if isinstance(expr, Lit):
        return expr.value
    if isinstance(expr, Name):
        if expr.id in ctx:
            return state[ctx.position_of(expr.id)]
        if expr.id in ctx.atoms:
            return expr.id
        raise EvalError(f"unbound variable {expr.id!r}")
    if isinstance(expr, TupleE):
        return tuple(_reference_evaluate(e, ctx, state) for e in expr.items)
    if isinstance(expr, Index):
        base = _reference_evaluate(expr.base, ctx, state)
        if not isinstance(base, tuple):
            raise EvalError(f"indexing a non-tuple value {fmt_value(base)}")
        i = _as_int(_reference_evaluate(expr.index, ctx, state), "index")
        if not 0 <= i < len(base):
            raise EvalError(f"index {i} out of range for arity {len(base)}")
        return base[i]
    if isinstance(expr, Unary):
        if expr.op == "-":
            return -_as_number(_reference_evaluate(expr.operand, ctx, state), "negation")
        if expr.op == "!":
            return 1 - _as_bit(_reference_evaluate(expr.operand, ctx, state), "'!'")
        raise EvalError(f"unknown unary {expr.op}")
    if isinstance(expr, Bin):
        op = expr.op
        if op == "&&":
            if _as_bit(_reference_evaluate(expr.left, ctx, state), "'&&'") == 0:
                return 0
            return _as_bit(_reference_evaluate(expr.right, ctx, state), "'&&'")
        if op == "||":
            if _as_bit(_reference_evaluate(expr.left, ctx, state), "'||'") == 1:
                return 1
            return _as_bit(_reference_evaluate(expr.right, ctx, state), "'||'")
        a = _reference_evaluate(expr.left, ctx, state)
        b = _reference_evaluate(expr.right, ctx, state)
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


_CONTEXTS = [
    VarContext.of(("n", range(-1, 3)), ("b", (0, 1))),
    VarContext.of(("c", ("red", "blue")), ("n", range(3))),
    VarContext.of(("p", ((0, 1), (1, 0), (2, (0, "red")))), ("b", (0, 1))),
    VarContext.of(("q", ((0, 1, 2), (1, 1))), ("c", ("red", "blue")), ("b", (0, 1))),
]

_BIN_OPS = ["&&", "||", "xor", "=", "!=", "<", "<=", ">", ">=",
            "+", "-", "*", "div", "mod", "/"]


def _random_expr(rng: random.Random, ctx: VarContext, depth: int):
    leaf = depth <= 0 or rng.random() < 0.25
    if leaf:
        roll = rng.random()
        if roll < 0.35:
            return Lit(rng.choice([0, 1, 1, 2, -1, 3]))
        if roll < 0.45:
            return Lit(Fraction(rng.randint(-2, 4), rng.choice([1, 2, 3])))
        if roll < 0.85:
            return Name(rng.choice(ctx.names))
        if roll < 0.95:
            return Name(rng.choice(sorted(ctx.atoms) or ["red"]))
        return Name("ghost")  # unbound
    roll = rng.random()
    if roll < 0.05:  # tuples compared, of equal or different arity
        sides = [TupleE(tuple(_random_expr(rng, ctx, 0) for _ in range(rng.randint(2, 3))))
                 for _ in range(2)]
        return Bin(rng.choice(["=", "!="]), *sides)
    if roll < 0.6:
        op = rng.choice(_BIN_OPS + ["^"] * (rng.random() < 0.1))
        return Bin(op, _random_expr(rng, ctx, depth - 1), _random_expr(rng, ctx, depth - 1))
    if roll < 0.72:
        op = rng.choice(["-", "!", "!"] + ["~"] * (rng.random() < 0.05))
        return Unary(op, _random_expr(rng, ctx, depth - 1))
    if roll < 0.86:
        k = rng.randint(2, 3)
        return TupleE(tuple(_random_expr(rng, ctx, depth - 1) for _ in range(k)))
    base = Name(rng.choice(ctx.names)) if rng.random() < 0.7 else _random_expr(rng, ctx, depth - 1)
    return Index(base, _random_expr(rng, ctx, depth - 1))


_ERROR_KINDS = [
    "unbound variable", "indexing a non-tuple value", r"index -?\d+ out of range",
    "division by zero", "mod by zero", "comparing tuples of different arity",
    "cannot compare", "unknown operator", "unknown unary", r"\S+ needs a number",
    r"\S+ needs an integer", r"\S+ needs a 0/1 value",
]


def _outcome(fn):
    try:
        v = fn()
    except EvalError as exc:
        return ("error", str(exc))
    return ("value", type(v).__name__, v)


def test_compiled_expressions_match_reference():
    rng = random.Random(20261018)
    states = values = 0
    errors: Dict[str, int] = {}
    for trial in range(3000):
        ctx = _CONTEXTS[trial % len(_CONTEXTS)]
        expr = _random_expr(rng, ctx, rng.randint(1, 3))
        value_of = compile_expr(expr, ctx)
        for s in ctx.states():
            expected = _outcome(lambda: _reference_evaluate(expr, ctx, s))
            assert _outcome(lambda: value_of(s)) == expected, (expr, s)
            states += 1
            if expected[0] == "error":
                kind = next(k for k in _ERROR_KINDS if re.match(k, expected[1]))
                errors[kind] = errors.get(kind, 0) + 1
            else:
                values += 1
    # every error the evaluator can give turns up, each several times
    assert all(errors.get(kind, 0) >= 5 for kind in _ERROR_KINDS), errors
    assert states > 20000 and values > 8000, (states, values)


def test_compiled_expression_errors_fail_at_the_first_state_in_order():
    ctx = VarContext.of(("n", range(3)), ("p", ((0, 1), (1, 0, 1))))
    cases = [
        ("n = 2 && ghost = 1", "unbound variable 'ghost'", (2, (0, 1))),
        ("p = (0, 1)", "comparing tuples of different arity", (0, (1, 0, 1))),
        ("p[n]", "index 2 out of range for arity 2", (2, (0, 1))),
        ("1 div (n - 1)", "division by zero", (1, (0, 1))),
        ("n mod (1 - n)", "mod by zero", (1, (0, 1))),
        ("n / (n - 2)", "division by zero", (2, (0, 1))),
    ]
    from preloss.parsing import parse_expr_text

    for text, message, first in cases:
        expr = parse_expr_text(text)
        for impl in (lambda s: _reference_evaluate(expr, ctx, s), compile_expr(expr, ctx)):
            failing = [(s, _outcome(lambda: impl(s))) for s in ctx.states()]
            failing = [(s, o) for s, o in failing if o[0] == "error"]
            assert failing[0] == (first, ("error", message)), text


# ------------------------------------------------------------- elaboration
# Reference: the ``Fraction``-weighted elaboration of the typechecker.

def _reference_weights(dist) -> List[Fraction]:
    if dist.uniform:
        k = len(dist.branches)
        return [Fraction(1, k)] * k
    weights = [b.weight for b in dist.branches]
    explicit = sum((w for w in weights if w is not None), Fraction(0))
    if weights[-1] is None:
        weights[-1] = Fraction(1) - explicit
    return weights


def _reference_normalize(v):
    if isinstance(v, Fraction) and v.denominator == 1:
        return v.numerator
    if isinstance(v, tuple):
        return tuple(_reference_normalize(x) for x in v)
    return v


def _reference_eval_dist(dist, ctx):
    rows = []
    for state in ctx.states():
        acc: Dict = {}
        for branch, w in zip(dist.branches, _reference_weights(dist)):
            v = _reference_normalize(_reference_evaluate(branch.expr, ctx, state))
            acc[v] = acc[v] + w if v in acc else w
        rows.append(list(acc.items()))
    return rows


def _reference_assign(ctx, targets, dist) -> Kernel:
    positions = [ctx.position_of(t) for t in targets]
    domains = [ctx.domain_of(t) for t in targets]
    rows = []
    for state, outcomes in zip(ctx.states(), _reference_eval_dist(dist, ctx)):
        row: Dict[int, Fraction] = {}
        for value, w in outcomes:
            parts = value if len(targets) > 1 else (value,)
            if any(p not in dom for p, dom in zip(parts, domains)):
                continue
            new_state = list(state)
            for p, v in zip(positions, parts):
                new_state[p] = v
            idx = ctx.index_of(tuple(new_state))
            row[idx] = row[idx] + w if idx in row else w
        rows.append(row)
    return Kernel.from_rows(ctx, ctx, rows)


def _reference_hidvar(ctx, domain, dist) -> Kernel:
    target = VarContext((("_new", domain),))
    rows = []
    for outcomes in _reference_eval_dist(dist, ctx):
        row: Dict[int, Fraction] = {}
        for value, w in outcomes:
            if value not in domain:
                continue
            idx = target.index_of((value,))
            row[idx] = row[idx] + w if idx in row else w
        rows.append(row)
    return Kernel.from_rows(ctx, target, rows)


def _reference_obs(ctx, dist) -> Kernel:
    values, index, rows = [], {}, []
    for outcomes in _reference_eval_dist(dist, ctx):
        row = {}
        for value, w in outcomes:
            if value not in index:
                index[value] = len(values)
                values.append(value)
            row[index[value]] = w
        rows.append(row)
    return Kernel.from_rows(ctx, VarContext((("_new", tuple(values)),)), rows)


def _reference_guard(ctx, expr) -> Predicate:
    values = [scalar(_reference_evaluate(expr, ctx, s)) for s in ctx.states()]
    return Predicate.from_entries(ctx, values)


def _lifted(kernel: Kernel, post) -> Kernel:
    """A kernel onto one new variable, lifted onto ``post``: the pre-state kept."""
    d = kernel.dst.n_states
    return Kernel.from_rows(kernel.src, post, [{y * d + x: w for x, w in row.items()}
                                              for y, row in enumerate(map(dict, kernel.rows))])


# Multi-target assignments, which neither generator nor the corpus emits:
# targets out of declaration order, three targets, a tuple part outside its
# target's domain, and assignments between a `hidvar` and an `unvar`.
_MULTI_TARGET = [
    """vars:
  x : {0,1}
  y : {0,1,2}
body:
  y, x := (x, 1);
  y, x := (x + y, 1 - x) @ 1/3 | (2, 0)
""",
    """vars:
  a : {0,1}
  b : {0,1,2}
  c : {0,1}
  d : {0,1}
body:
  c, a, b := (a, d, (b + 1) mod 3);
  d, b, a := (c, a + c, 1 - d) @ 1/2 | (a, 2, c)
""",
    """vars:
  x : {0,1}
  y : {0,1}
body:
  x, y := (x + 1, y) @ 1/2 | (y, 2);
  y, x := (2, 0) @ 1/4 | (x, y)
""",
    """vars:
  x : {0,1,2}
  y : {0,1}
body:
  hidvar h : {0,1,2} := x @ 1/2 | 2;
  y, h := (h mod 2, x) @ 1/4 | (1 - y, 0);
  unvar x;
  h, y := (y, h mod 2);
  hidvar x : {0,1,2} := h;
  x, y := (y + h, 0) @ 2/3 | (h, x mod 2);
  unvar h
""",
]


def _check_elaboration(prog, counts: Dict[str, int]) -> None:
    for s in walk(prog):
        pre, post = s.meta.pre, s.meta.post
        if isinstance(s, Assign):
            assert s.meta.kernel == _reference_assign(pre, s.targets, s.dist)
            counts["kernels"] += 1
            counts["multi_target"] += len(s.targets) > 1
        elif isinstance(s, HidVar):
            domain = post.domain_of(s.name)
            assert s.meta.kernel == _lifted(_reference_hidvar(pre, domain, s.dist), post)
            counts["kernels"] += 1
        elif isinstance(s, Unvar):
            projection = [{post.index_of(tuple(state[pre.position_of(n)] for n in post.names)):
                           Fraction(1)} for state in pre.states()]
            assert s.meta.kernel == Kernel.from_rows(pre, post, projection)
            counts["kernels"] += 1
        elif isinstance(s, Print):
            assert s.meta.kernel == _reference_obs(pre, s.dist)
            counts["observations"] += 1
        elif isinstance(s, Assert):
            guard = _reference_guard(pre, s.guard)
            diagonal = [{i: w} if w else {} for i, w in enumerate(guard.entries)]
            assert s.meta.kernel == Kernel.from_rows(pre, pre, diagonal)
            counts["guards"] += 1
        elif isinstance(s, (If, While)):
            guard = _reference_guard(pre, s.guard)
            branch = VarContext((("_branch", (True, False)),))
            rows = [{j: w for j, w in enumerate((e, 1 - e)) if w} for e in guard.entries]
            assert s.meta.kernel == Kernel.from_rows(pre, branch, rows)
            counts["guards"] += 1


def test_elaboration_matches_reference():
    counts = {"kernels": 0, "observations": 0, "guards": 0, "multi_target": 0}
    rng = random.Random(20261019)
    for _ in range(150):
        _, prog, _ = gen_typed_program(rng, depth=3, shape=ProgramShape(max_states=16))
        _check_elaboration(prog, counts)
    gen = _bench_gen()
    texts = [c.program for c in gen.generate(1, 300)]
    texts += [p.read_text(encoding="utf-8") for p in sorted((ROOT / "corpus").glob("*.prog"))]
    for text in texts + _MULTI_TARGET:
        initial, prog = parse_program_file(text)
        typecheck_program(prog, initial)
        _check_elaboration(prog, counts)
    assert counts["kernels"] > 1000 and counts["observations"] > 100 and counts["guards"] > 300, counts
    assert counts["multi_target"] == 9, counts
