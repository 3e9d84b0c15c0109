"""Lexer and recursive-descent parser for programs, datatype/context files,
loss-function literals and prior specifications.

The surface grammar is whitespace-insensitive with ``//`` line comments.
Nondeterministic choice between distribution expressions
(``x := {0} [] {1}``) is sugar for choice between statements.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .contexts import VarContext, Value, fmt_value
from .exprs import Bin, Expr, Index, Lit, Name, TupleE, Unary, predicate_of
from .predicates import Predicate
from .scalars import INF, Scalar, scalar
from .syntax import (
    Abort, Assert, Assign, CallOp, Datatype, DistBranch, DistExpr, HidVar, If,
    NonDet, Print, Program, ProgramContext, Skip, Stmt, Unvar, While, single,
)


class ParseError(ValueError):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"{line}:{col}: {message}")
        self.line = line
        self.col = col


KEYWORDS = frozenset(
    "skip abort hidvar unvar if else while print assert call true false "
    "div mod xor uniform int vars body shared encap init op final client".split()
)

SECTION_WORDS = frozenset("vars body shared encap init op final client".split())

_PUNCTS = [":=", "[]", "||", "&&", "!=", "<=", ">=", "..",
           ";", ":", ",", "(", ")", "{", "}", "[", "]", "|", "@",
           "=", "<", ">", "+", "-", "*", "/", "!"]

_IDENT_RE = re.compile(r"[A-Za-z_][A-Za-z0-9_']*")
_INT_RE = re.compile(r"[0-9]+")


@dataclass(frozen=True)
class Token:
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


def lex(text: str, first_line: int = 1, first_col: int = 1) -> List[Token]:
    """Tokens of text whose first character sits at (first_line, first_col)."""
    tokens: List[Token] = []
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
        m = _IDENT_RE.match(text, i)
        if m:
            tokens.append(Token("ident", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        m = _INT_RE.match(text, i)
        if m:
            tokens.append(Token("int", m.group(), line, col))
            col += len(m.group())
            i = m.end()
            continue
        for p in _PUNCTS:
            if text.startswith(p, i):
                tokens.append(Token("punct", p, line, col))
                i += len(p)
                col += len(p)
                break
        else:
            raise ParseError(f"unexpected character {c!r}", line, col)
    tokens.append(Token("eof", "", line, col))
    return tokens


class Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0

    def peek(self, ahead: int = 0) -> Token:
        return self.tokens[min(self.pos + ahead, len(self.tokens) - 1)]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.peek().text == text and self.peek().kind != "eof"

    def at_kind(self, kind: str) -> bool:
        return self.peek().kind == kind

    def error(self, message: str) -> ParseError:
        tok = self.peek()
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        if not self.at(text):
            raise self.error(f"expected {text!r}, found {self.peek().text!r}")
        return self.advance()

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.peek()
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error(f"expected {what}, found {tok.text!r}")
        return self.advance()

    def expect_eof(self):
        if not self.at_kind("eof"):
            raise self.error(f"unexpected trailing input {self.peek().text!r}")

    # ------------------------------------------------------------ programs

    def parse_program(self, stop: frozenset = frozenset()) -> Program:
        stmts = [self.parse_stmt(stop)]
        while self.at(";"):
            self.advance()
            if self._at_stop(stop):
                break
            stmts.append(self.parse_stmt(stop))
        return Program(tuple(stmts))

    def _at_stop(self, stop: frozenset) -> bool:
        tok = self.peek()
        if tok.kind == "eof" or tok.text == "}":
            return True
        return tok.kind == "ident" and tok.text in stop

    def parse_stmt(self, stop: frozenset) -> Stmt:
        tok = self.peek()
        pos = (tok.line, tok.col)

        def stamp(node):
            node.meta.pos = pos
            return node

        if self.at("skip"):
            self.advance()
            return stamp(Skip())
        if self.at("abort"):
            self.advance()
            return stamp(Abort())
        if self.at("unvar"):
            self.advance()
            return stamp(Unvar(self.expect_ident().text))
        if self.at("call"):
            self.advance()
            return stamp(CallOp(self.expect_ident().text))
        if self.at("assert"):
            self.advance()
            return stamp(Assert(self.parse_expr()))
        if self.at("print"):
            self.advance()
            alts = self.parse_dexpr_alternatives()
            if len(alts) == 1:
                return stamp(Print(alts[0]))
            return stamp(self._fold_nondet([single(stamp(Print(d))) for d in alts]))
        if self.at("hidvar"):
            self.advance()
            name = self.expect_ident().text
            domain = None
            if self.at(":"):
                self.advance()
                domain = self.parse_domain()
            self.expect(":=")
            alts = self.parse_dexpr_alternatives()
            if len(alts) == 1:
                return stamp(HidVar(name, domain, alts[0]))
            hint = tuple(alts)
            limbs = [single(stamp(HidVar(name, domain, d, domain_hint=hint))) for d in alts]
            return stamp(self._fold_nondet(limbs))
        if self.at("if"):
            self.advance()
            guard = self.parse_expr()
            self.expect("{")
            then = self.parse_program()
            self.expect("}")
            self.expect("else")
            self.expect("{")
            orelse = self.parse_program()
            self.expect("}")
            return stamp(If(guard, then, orelse))
        if self.at("while"):
            self.advance()
            guard = self.parse_expr()
            self.expect("{")
            body = self.parse_program()
            self.expect("}")
            return stamp(While(guard, body))
        if self.at("{"):
            self.advance()
            left = self.parse_program()
            self.expect("}")
            limbs = [left]
            while self.at("[]"):
                self.advance()
                self.expect("{")
                limbs.append(self.parse_program())
                self.expect("}")
            if len(limbs) == 1:
                raise self.error("expected '[]' after braced program")
            return stamp(self._fold_nondet(limbs))
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            targets = [self.expect_ident().text]
            while self.at(","):
                self.advance()
                targets.append(self.expect_ident().text)
            self.expect(":=")
            alts = self.parse_dexpr_alternatives()
            targets = tuple(targets)
            if len(alts) == 1:
                return stamp(Assign(targets, alts[0]))
            return stamp(self._fold_nondet([single(stamp(Assign(targets, d))) for d in alts]))
        raise self.error(f"expected a statement, found {tok.text!r}")

    @staticmethod
    def _fold_nondet(limbs: List[Program]) -> NonDet:
        node = NonDet(limbs[0], limbs[1])
        for limb in limbs[2:]:
            node = NonDet(single(node), limb)
        return node

    # ------------------------------------------------- distribution exprs

    def parse_dexpr_alternatives(self) -> List[DistExpr]:
        alts = [self._parse_dexpr_alt()]
        while self.at("[]"):
            self.advance()
            alts.append(self._parse_dexpr_alt())
        return alts

    def _parse_dexpr_alt(self) -> DistExpr:
        if self.at("{"):
            self.advance()
            d = self.parse_dexpr()
            self.expect("}")
            return d
        return self.parse_dexpr()

    def parse_dexpr(self) -> DistExpr:
        if self.at("uniform"):
            self.advance()
            self.expect("(")
            if (self.peek().kind == "int" or self.at("-")) and self.peek(1).text == "..":
                lo = self._parse_signed_int()
                self.expect("..")
                hi = self._parse_signed_int()
                if lo > hi:
                    raise self.error(f"empty range {lo}..{hi}")
                exprs = [Lit(v) for v in range(lo, hi + 1)]
            else:
                exprs = [self.parse_expr()]
                while self.at(","):
                    self.advance()
                    exprs.append(self.parse_expr())
            self.expect(")")
            return DistExpr(tuple(DistBranch(e, None) for e in exprs), uniform=True)
        branches = [self._parse_branch()]
        while self.at("|"):
            self.advance()
            branches.append(self._parse_branch())
        for b in branches[:-1]:
            if b.weight is None:
                raise self.error("only the last branch may omit its weight")
        return DistExpr(tuple(branches))

    def _parse_branch(self) -> DistBranch:
        e = self.parse_expr()
        weight = None
        if self.at("@"):
            self.advance()
            weight = self._parse_rational()
        return DistBranch(e, weight)

    def _parse_rational(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "int":
            raise self.error(f"expected a rational, found {tok.text!r}")
        num = int(self.advance().text)
        if self.at("/"):
            self.advance()
            den = self.peek()
            if den.kind != "int":
                raise self.error("expected a denominator")
            if int(den.text) == 0:
                raise self.error("zero denominator")
            return Fraction(num, int(self.advance().text))
        return Fraction(num)

    def _parse_signed_int(self) -> int:
        sign = 1
        if self.at("-"):
            self.advance()
            sign = -1
        tok = self.peek()
        if tok.kind != "int":
            raise self.error(f"expected an integer, found {tok.text!r}")
        return sign * int(self.advance().text)

    # --------------------------------------------------------- expressions

    _BIN_PREC = {
        "||": 1, "xor": 2, "&&": 3,
        "=": 4, "!=": 4, "<": 4, "<=": 4, ">": 4, ">=": 4,
        "+": 5, "-": 5,
        "*": 6, "div": 6, "mod": 6, "/": 6,
    }

    def parse_expr(self) -> Expr:
        return self._parse_binary(1)

    def _parse_binary(self, min_prec: int) -> Expr:
        left = self._parse_unary()
        while True:
            op = self.peek().text
            prec = self._BIN_PREC.get(op)
            if prec is None or prec < min_prec or self.peek().kind == "eof":
                return left
            self.advance()
            right = self._parse_binary(prec + 1)
            left = Bin(op, left, right)

    def _parse_unary(self) -> Expr:
        if self.at("!"):
            self.advance()
            return Unary("!", self._parse_unary())
        if self.at("-"):
            self.advance()
            return Unary("-", self._parse_unary())
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        e = self._parse_atom()
        while self.at("["):
            self.advance()
            idx = self.parse_expr()
            self.expect("]")
            e = Index(e, idx)
        return e

    def _parse_atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == "int":
            self.advance()
            return Lit(int(tok.text))
        if tok.text == "true":
            self.advance()
            return Lit(1)
        if tok.text == "false":
            self.advance()
            return Lit(0)
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                raise self.error(f"keyword {tok.text!r} cannot start an expression")
            self.advance()
            return Name(tok.text)
        if self.at("("):
            self.advance()
            items = [self.parse_expr()]
            while self.at(","):
                self.advance()
                items.append(self.parse_expr())
            self.expect(")")
            if len(items) == 1:
                return items[0]
            return TupleE(tuple(items))
        raise self.error(f"expected an expression, found {tok.text!r}")

    # ---------------------------------------------------- domains & decls

    def parse_domain(self) -> Tuple[Value, ...]:
        if self.at("int"):
            self.advance()
            lo = self._parse_signed_int()
            self.expect("..")
            hi = self._parse_signed_int()
            if lo > hi:
                raise self.error(f"empty domain int {lo}..{hi}")
            return tuple(range(lo, hi + 1))
        self.expect("{")
        values = [self._parse_value()]
        while self.at(","):
            self.advance()
            values.append(self._parse_value())
        self.expect("}")
        return tuple(values)

    def _parse_value(self) -> Value:
        tok = self.peek()
        if tok.kind == "int" or tok.text == "-":
            return self._parse_signed_int()
        if tok.kind == "ident" and tok.text not in KEYWORDS:
            self.advance()
            return tok.text
        if self.at("("):
            self.advance()
            items = [self._parse_value()]
            while self.at(","):
                self.advance()
                items.append(self._parse_value())
            self.expect(")")
            return tuple(items)
        raise self.error(f"expected a value, found {tok.text!r}")

    def parse_decls(self, stop: frozenset = frozenset()) -> VarContext:
        decls = []
        while self.peek().kind == "ident" and self.peek().text not in stop:
            name = self.expect_ident("variable name").text
            self.expect(":")
            decls.append((name, self.parse_domain()))
            if self.at(",") or self.at(";"):
                self.advance()
        return VarContext(tuple(decls))


# -------------------------------------------------------------- file kinds

def parse_program_text(text: str) -> Program:
    p = Parser(lex(text))
    prog = p.parse_program()
    p.expect_eof()
    return prog


def parse_expr_text(text: str, first_line: int = 1, first_col: int = 1) -> Expr:
    p = Parser(lex(text, first_line, first_col))
    e = p.parse_expr()
    p.expect_eof()
    return e


def parse_decls_text(text: str, first_line: int = 1, first_col: int = 1) -> VarContext:
    p = Parser(lex(text, first_line, first_col))
    ctx = p.parse_decls()
    p.expect_eof()
    return ctx


def parse_program_file(text: str) -> Tuple[VarContext, Program]:
    """A `vars:`/`body:` sectioned file, or a bare program (empty context)."""
    p = Parser(lex(text))
    initial = VarContext(())
    if p.at("vars"):
        p.advance()
        p.expect(":")
        initial = p.parse_decls(stop=frozenset({"body"}))
    if p.at("body"):
        p.advance()
        p.expect(":")
    prog = p.parse_program(stop=SECTION_WORDS)
    p.expect_eof()
    return initial, prog


def parse_datatype_file(text: str, name: Optional[str] = None) -> Datatype:
    p = Parser(lex(text))
    p.expect("shared")
    p.expect(":")
    shared = p.parse_decls(stop=SECTION_WORDS)
    p.expect("encap")
    p.expect(":")
    encap = p.parse_decls(stop=SECTION_WORDS)
    p.expect("init")
    p.expect(":")
    init = p.parse_program(stop=SECTION_WORDS)
    ops = []
    while p.at("op"):
        p.advance()
        op_name = p.expect_ident("operation name").text
        p.expect(":")
        ops.append((op_name, p.parse_program(stop=SECTION_WORDS)))
    if not ops:
        raise p.error("datatype needs at least one 'op' section")
    p.expect("final")
    p.expect(":")
    final = p.parse_program(stop=SECTION_WORDS)
    p.expect_eof()
    seen = set()
    for op_name, _ in ops:
        if op_name in seen:
            raise ParseError(f"duplicate operation {op_name!r}", 1, 1)
        seen.add(op_name)
    return Datatype(shared, encap, init, tuple(ops), final, name=name)


def parse_context_file(text: str, name: Optional[str] = None) -> ProgramContext:
    p = Parser(lex(text))
    p.expect("client")
    p.expect(":")
    client = p.parse_decls(stop=SECTION_WORDS)
    p.expect("body")
    p.expect(":")
    body = p.parse_program(stop=SECTION_WORDS)
    p.expect_eof()
    return ProgramContext(client, body, name=name)


def sniff_kind(text: str) -> str:
    """Classify input text: program | datatype | context | loss."""
    for tok in lex(text):
        if tok.kind == "eof":
            break
        if tok.kind == "ident" and tok.text == "shared":
            return "datatype"
        if tok.kind == "ident" and tok.text == "client":
            return "context"
        if tok.kind == "ident" and tok.text == "context":
            return "loss"
        return "program"
    return "program"


# ----------------------------------------------------------- loss literals

def _strip_comment(line: str) -> str:
    pos = line.find("//")
    return line if pos < 0 else line[:pos]


def parse_loss_text(text: str) -> Tuple[VarContext, List[Predicate]]:
    """Loss literal: `context <decls>` then `expr:`/`table:` generator lines.

    Error columns count from the start of the raw line.
    """
    ctx = None
    gens: List[Predicate] = []
    for line_no, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw).strip()
        if not line:
            continue
        col = len(raw) - len(raw.lstrip()) + 1   # of the line's first non-blank character
        if ctx is None:
            if not line.startswith("context"):
                raise ParseError("loss literal must start with a 'context' line", line_no, col)
            ctx = parse_decls_text(line[len("context"):], line_no, col + len("context"))
            continue
        if line.startswith("expr:"):
            expr = parse_expr_text(line[len("expr:"):], line_no, col + len("expr:"))
            gens.append(predicate_of(ctx, expr, mode="any"))
        elif line.startswith("table:"):
            gens.append(_parse_table_line(ctx, line[len("table:"):], line_no, col + len("table:")))
        else:
            raise ParseError("expected an 'expr:' or 'table:' generator line", line_no, col)
    if ctx is None:
        raise ParseError("empty loss literal", 1, 1)
    if not gens:
        raise ParseError("loss literal needs at least one generator", 1, 1)
    return ctx, gens


def _parse_table_line(ctx: VarContext, text: str, line_no: int, first_col: int) -> Predicate:
    p = Parser(lex(text, line_no, first_col))
    entries: List[Scalar] = [scalar(0)] * ctx.n_states
    seen = set()
    while not p.at_kind("eof"):
        state_tok = p.peek()
        value = p._parse_value()
        if not isinstance(value, tuple):
            value = (value,)
        p.expect("=")
        if p.peek().text == "inf":
            p.advance()
            weight: Scalar = INF
        else:
            weight = scalar(p._parse_rational())
        try:
            idx = ctx.index_of(value)
        except Exception as exc:
            raise ParseError(str(exc), state_tok.line, state_tok.col) from None
        if idx in seen:
            raise ParseError(f"repeated state {fmt_value(value)}", state_tok.line, state_tok.col)
        seen.add(idx)
        entries[idx] = weight
    return Predicate(ctx, tuple(entries))


def parse_prior_text(ctx: VarContext, text: str) -> Tuple[Fraction, ...]:
    """Prior spec: `uniform` or `(state)=p/q` pairs, each state at most once;
    omitted states get 0."""
    stripped = text.strip()
    if stripped == "uniform":
        n = ctx.n_states
        return tuple(Fraction(1, n) for _ in range(n))
    p = Parser(lex(text))
    weights = [Fraction(0)] * ctx.n_states
    seen = set()
    while not p.at_kind("eof"):
        state_tok = p.peek()
        value = p._parse_value()
        if not isinstance(value, tuple):
            value = (value,)
        p.expect("=")
        idx = ctx.index_of(value)
        if idx in seen:
            raise ParseError(f"repeated state {fmt_value(value)}", state_tok.line, state_tok.col)
        seen.add(idx)
        weights[idx] = p._parse_rational()
    return tuple(weights)
