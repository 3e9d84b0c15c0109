"""Lexer and recursive-descent parser for programs, datatype/context files,
loss-function literals and prior specifications.

The surface grammar is whitespace-insensitive with ``//`` line comments.
Nondeterministic choice between distribution expressions
(``x := {0} [] {1}``) is sugar for choice between statements: the parser
builds its brace expansion (``{ x := 0 } [] { x := 1 }``).

The lexer is one compiled alternation walked with ``finditer``; tokens are
named tuples with 1-based line and column.  The parser bounds how deep the
syntax tree nests (``MAX_NESTING``): deeper input is a positioned syntax
error, so no later pass over the tree runs out of Python stack.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import List, NamedTuple, Optional, Tuple

from .contexts import ContextError, VarContext, Value, fmt_value
from .exprs import BIN_PREC, Bin, EvalError, Expr, Index, Lit, Name, TupleE, Unary, predicate_of
from .losses import uniform_dist
from .predicates import Predicate
from .scalars import INF, Scalar
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

# Deepest nesting the parser accepts, in levels of ``Parser.depth``.  Every
# later pass over the syntax tree recurses a few frames per level, so this
# keeps them all within Python's default recursion limit of 1000.  Under a
# caller 100 frames deep, the parser's own parentheses give out first, at
# about 175 levels; typechecking, inlining, `wpl` and the oracle reach about
# 290 nested `if`s or `while`s.
MAX_NESTING = 128

_PUNCTS = [":=", "[]", "||", "&&", "!=", "<=", ">=", "..",
           ";", ":", ",", "(", ")", "{", "}", "[", "]", "|", "@",
           "=", "<", ">", "+", "-", "*", "/", "!"]

# One alternation, tried left to right at each position: a newline, a run of
# blanks, a comment, a token (punctuation longest first), or any other
# character, which is an error.
_TOKEN_RE = re.compile("|".join([
    r"(?P<nl>\n)", r"(?P<blank>[ \t\r]+)", r"(?P<comment>//[^\n]*)",
    r"(?P<ident>[A-Za-z_][A-Za-z0-9_']*)", r"(?P<int>[0-9]+)",
    "(?P<punct>" + "|".join(map(re.escape, _PUNCTS)) + ")", r"(?P<bad>.)",
]))

_TOKEN_KINDS = frozenset(("ident", "int", "punct"))


class Token(NamedTuple):
    kind: str  # ident | int | punct | eof
    text: str
    line: int
    col: int


# ``Token(...)`` runs a Python-level ``__new__``; building the tuple directly
# skips that frame, and the lexer makes one Token per token.
_new_token = tuple.__new__


def lex(text: str, first_line: int = 1, first_col: int = 1) -> List[Token]:
    """Tokens of text whose first character sits at (first_line, first_col).

    A column counts the characters before it on its line; a comment does not
    advance it, so an ``eof`` after a comment sits where the comment starts.
    """
    tokens: List[Token] = []
    append = tokens.append
    line = first_line
    base = -first_col  # the column of offset i is i - base on the current line
    end = len(text)
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        if kind in _TOKEN_KINDS:
            append(_new_token(Token, (kind, m.group(), line, m.start() - base)))
        elif kind == "nl":
            line += 1
            base = m.start()
        elif kind == "bad":
            raise ParseError(f"unexpected character {m.group()!r}", line, m.start() - base)
        elif kind == "comment" and m.end() == end:
            end = m.start()
    tokens.append(Token("eof", "", line, end - base))
    return tokens


class Parser:
    """Recursive descent over a token list that ends in one ``eof`` token.

    ``depth`` counts the open nesting levels (blocks, brackets, prefix
    operators, operands of a chain) and ``deepest`` the deepest level the
    syntax tree built so far reaches.  In a left-nested chain (``a + b + c``,
    ``x[0][1]``, ``{p} [] {q} [] {r}``) each link moves what the chain holds
    so far one level down, so ``deepest`` grows by one per link.
    """

    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.pos = 0
        self.depth = 0
        self.deepest = 0

    def peek(self) -> Token:
        return self.tokens[self.pos]

    def advance(self) -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "eof":
            self.pos += 1
        return tok

    def at(self, text: str) -> bool:
        return self.tokens[self.pos].text == text  # the eof token's text is ""

    def at_kind(self, kind: str) -> bool:
        return self.tokens[self.pos].kind == kind

    def error(self, message: str) -> ParseError:
        tok = self.tokens[self.pos]
        return ParseError(message, tok.line, tok.col)

    def expect(self, text: str) -> Token:
        tok = self.tokens[self.pos]
        if tok.text != text:
            raise self.error(f"expected {text!r}, found {tok.text!r}")
        self.pos += 1
        return tok

    def expect_ident(self, what: str = "identifier") -> Token:
        tok = self.tokens[self.pos]
        if tok.kind != "ident" or tok.text in KEYWORDS:
            raise self.error(f"expected {what}, found {tok.text!r}")
        self.pos += 1
        return tok

    def expect_eof(self):
        if not self.at_kind("eof"):
            raise self.error(f"unexpected trailing input {self.peek().text!r}")

    # ------------------------------------------------------------ nesting

    def _open(self, tok: Token) -> None:
        """Enter one nesting level at ``tok``; close it with ``_close``."""
        self.depth += 1
        if self.depth > self.deepest:
            self.deepest = self.depth
            if self.depth > MAX_NESTING:
                raise ParseError("nesting too deep", tok.line, tok.col)

    def _close(self) -> None:
        self.depth -= 1

    def _start_chain(self) -> int:
        """Measure the next chain from here; returns the ``deepest`` to merge back."""
        outer = self.deepest
        self.deepest = self.depth
        return outer

    def _link(self, tok: Token) -> None:
        """A chain link at ``tok``: the chain so far moves one level down."""
        self.deepest += 1
        if self.deepest > MAX_NESTING:
            raise ParseError("nesting too deep", tok.line, tok.col)

    def _end_chain(self, outer: int) -> None:
        if outer > self.deepest:
            self.deepest = outer

    # ------------------------------------------------------------ programs

    def parse_program(self, stop: frozenset = frozenset()) -> Program:
        stmts = [self.parse_stmt(stop)]
        while self.at(";"):
            self.pos += 1
            if self._at_stop(stop):
                break
            stmts.append(self.parse_stmt(stop))
        return Program(tuple(stmts))

    def _at_stop(self, stop: frozenset) -> bool:
        tok = self.tokens[self.pos]
        if tok.kind == "eof" or tok.text == "}":
            return True
        return tok.kind == "ident" and tok.text in stop

    def _block(self) -> Program:
        """A braced program, one nesting level down."""
        self._open(self.expect("{"))
        prog = self.parse_program()
        self.expect("}")
        self._close()
        return prog

    def parse_stmt(self, stop: frozenset) -> Stmt:
        tok = self.tokens[self.pos]
        text = tok.text
        pos = (tok.line, tok.col)

        def stamp(node):
            node.meta.pos = pos
            return node

        if text == "skip":
            self.pos += 1
            return stamp(Skip())
        if text == "abort":
            self.pos += 1
            return stamp(Abort())
        if text == "unvar":
            self.pos += 1
            return stamp(Unvar(self.expect_ident().text))
        if text == "call":
            self.pos += 1
            return stamp(CallOp(self.expect_ident().text))
        if text == "assert":
            self.pos += 1
            return stamp(Assert(self.parse_expr()))
        if text == "print":
            self.pos += 1
            return self._alternatives(stamp, Print)
        if text == "hidvar":
            self.pos += 1
            name = self.expect_ident().text
            domain = None
            if self.at(":"):
                self.pos += 1
                domain = self.parse_domain()
            self.expect(":=")
            return self._alternatives(stamp, lambda d: HidVar(name, domain, d))
        if text == "if":
            self.pos += 1
            guard = self.parse_expr()
            then = self._block()
            self.expect("else")
            orelse = self._block()
            return stamp(If(guard, then, orelse))
        if text == "while":
            self.pos += 1
            guard = self.parse_expr()
            body = self._block()
            return stamp(While(guard, body))
        if text == "{":
            outer = self._start_chain()
            limbs = [self._block()]
            while self.at("[]"):
                self._link(self.advance())
                limbs.append(self._block())
            self._end_chain(outer)
            if len(limbs) == 1:
                raise self.error("expected '[]' after braced program")
            return stamp(self._fold_nondet(limbs))
        if tok.kind == "ident" and text not in KEYWORDS:
            targets = [self.expect_ident().text]
            while self.at(","):
                self.pos += 1
                targets.append(self.expect_ident().text)
            self.expect(":=")
            return self._alternatives(stamp, lambda d: Assign(tuple(targets), d))
        raise self.error(f"expected a statement, found {text!r}")

    def _alternatives(self, stamp, make) -> Stmt:
        """``make(d)`` for one distribution ``d``; for ``d1 [] ... [] dk``, its brace
        expansion ``{ make(d1) } [] ... [] { make(dk) }``."""
        alts = self.parse_dexpr_alternatives()
        if len(alts) == 1:
            return stamp(make(alts[0]))
        return stamp(self._fold_nondet([single(stamp(make(d))) for d in alts]))

    @staticmethod
    def _fold_nondet(limbs: List[Program]) -> NonDet:
        node = NonDet(limbs[0], limbs[1])
        for limb in limbs[2:]:
            node = NonDet(single(node), limb)
        return node

    # ------------------------------------------------- distribution exprs

    def parse_dexpr_alternatives(self) -> List[DistExpr]:
        """``d [] d [] ...``; more than one is folded into a chain of choices."""
        outer = self._start_chain()
        alts = [self._parse_dexpr_alt()]
        while self.at("[]"):
            self._link(self.advance())
            alts.append(self._parse_dexpr_alt())
        self._end_chain(outer)
        return alts

    def _parse_dexpr_alt(self) -> DistExpr:
        if self.at("{"):
            self._open(self.advance())
            d = self.parse_dexpr()
            self.expect("}")
            self._close()
            return d
        return self.parse_dexpr()

    def parse_dexpr(self) -> DistExpr:
        if self.at("uniform"):
            self.pos += 1
            self.expect("(")
            # the current token is not eof here, so the next one exists
            if ((self.at_kind("int") or self.at("-"))
                    and self.tokens[self.pos + 1].text == ".."):
                lo = self._parse_signed_int()
                self.expect("..")
                hi = self._parse_signed_int()
                if lo > hi:
                    raise self.error(f"empty range {lo}..{hi}")
                exprs = [Lit(v) for v in range(lo, hi + 1)]
            else:
                exprs = [self.parse_expr()]
                while self.at(","):
                    self.pos += 1
                    exprs.append(self.parse_expr())
            self.expect(")")
            return DistExpr(tuple(DistBranch(e, None) for e in exprs), uniform=True)
        branches = [self._parse_branch()]
        while self.at("|"):
            self.pos += 1
            branches.append(self._parse_branch())
        for b in branches[:-1]:
            if b.weight is None:
                raise self.error("only the last branch may omit its weight")
        return DistExpr(tuple(branches))

    def _parse_branch(self) -> DistBranch:
        e = self.parse_expr()
        weight = None
        if self.at("@"):
            self.pos += 1
            weight = self._parse_rational()
        return DistBranch(e, weight)

    def _parse_rational(self) -> Fraction:
        tok = self.peek()
        if tok.kind != "int":
            raise self.error(f"expected a rational, found {tok.text!r}")
        num = int(self.advance().text)
        if self.at("/"):
            self.pos += 1
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
            self.pos += 1
            sign = -1
        tok = self.peek()
        if tok.kind != "int":
            raise self.error(f"expected an integer, found {tok.text!r}")
        return sign * int(self.advance().text)

    # --------------------------------------------------------- expressions

    def parse_expr(self) -> Expr:
        return self._parse_binary(1)

    def _parse_binary(self, min_prec: int) -> Expr:
        outer = self._start_chain()
        left = self._parse_unary()
        while True:
            tok = self.tokens[self.pos]
            prec = BIN_PREC.get(tok.text)  # eof, with text "", is no operator
            if prec is None or prec < min_prec:
                self._end_chain(outer)
                return left
            self.pos += 1
            self._link(tok)
            self._open(tok)
            right = self._parse_binary(prec + 1)
            self._close()
            left = Bin(tok.text, left, right)

    def _parse_unary(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.text == "!" or tok.text == "-":
            self.pos += 1
            self._open(tok)
            operand = self._parse_unary()
            self._close()
            return Unary(tok.text, operand)
        return self._parse_postfix()

    def _parse_postfix(self) -> Expr:
        outer = self._start_chain()
        e = self._parse_atom()
        while self.at("["):
            tok = self.advance()
            self._link(tok)
            self._open(tok)
            idx = self.parse_expr()
            self.expect("]")
            self._close()
            e = Index(e, idx)
        self._end_chain(outer)
        return e

    def _parse_atom(self) -> Expr:
        tok = self.tokens[self.pos]
        if tok.kind == "int":
            self.pos += 1
            return Lit(int(tok.text))
        if tok.text == "true":
            self.pos += 1
            return Lit(1)
        if tok.text == "false":
            self.pos += 1
            return Lit(0)
        if tok.kind == "ident":
            if tok.text in KEYWORDS:
                raise self.error(f"keyword {tok.text!r} cannot start an expression")
            self.pos += 1
            return Name(tok.text)
        if tok.text == "(":
            self.pos += 1
            self._open(tok)
            items = [self.parse_expr()]
            while self.at(","):
                self.pos += 1
                items.append(self.parse_expr())
            self.expect(")")
            self._close()
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
        if tok.text == "(":
            self.pos += 1
            self._open(tok)
            items = [self._parse_value()]
            while self.at(","):
                self.pos += 1
                items.append(self._parse_value())
            self.expect(")")
            self._close()
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
        op_tok = p.expect_ident("operation name")
        p.expect(":")
        ops.append((op_tok, p.parse_program(stop=SECTION_WORDS)))
    if not ops:
        raise p.error("datatype needs at least one 'op' section")
    p.expect("final")
    p.expect(":")
    final = p.parse_program(stop=SECTION_WORDS)
    p.expect_eof()
    seen = set()
    for op_tok, _ in ops:
        if op_tok.text in seen:
            raise ParseError(f"duplicate operation {op_tok.text!r}", op_tok.line, op_tok.col)
        seen.add(op_tok.text)
    return Datatype(shared, encap, init, tuple((tok.text, prog) for tok, prog in ops), final,
                    name=name)


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
            first = _TOKEN_RE.match(line)   # the line's first token, as ``lex`` reads it
            if first.lastgroup != "ident" or first.group() != "context":
                raise ParseError("loss literal must start with a 'context' line", line_no, col)
            ctx = parse_decls_text(line[len("context"):], line_no, col + len("context"))
            continue
        if line.startswith("expr:"):
            rest, first_col = line[len("expr:"):], col + len("expr:")
            expr = parse_expr_text(rest, line_no, first_col)
            first_col += len(rest) - len(rest.lstrip(" \t\r"))  # of the first token
            try:
                gens.append(predicate_of(ctx, expr, mode="any"))
            except EvalError as exc:
                raise EvalError(f"{line_no}:{first_col}: {exc}") from None
        elif line.startswith("table:"):
            weights = _state_weights(ctx, line[len("table:"):], True, line_no, col + len("table:"))
            gens.append(Predicate.from_entries(ctx, weights))
        else:
            raise ParseError("expected an 'expr:' or 'table:' generator line", line_no, col)
    if ctx is None:
        raise ParseError("empty loss literal", 1, 1)
    if not gens:
        raise ParseError("loss literal needs at least one generator", 1, 1)
    return ctx, gens


def _state_weights(ctx: VarContext, text: str, allow_inf: bool,
                   first_line: int = 1, first_col: int = 1) -> List[Scalar]:
    """Per-state weights from `(state)=weight` pairs, each state at most once;
    omitted states get 0, and ``inf`` is a weight only if ``allow_inf``."""
    p = Parser(lex(text, first_line, first_col))
    weights: List[Scalar] = [Fraction(0)] * ctx.n_states
    seen = set()
    while not p.at_kind("eof"):
        state_tok = p.peek()
        value = p._parse_value()
        if not isinstance(value, tuple):
            value = (value,)
        p.expect("=")
        if allow_inf and p.peek().text == "inf":
            p.advance()
            weight: Scalar = INF
        else:
            weight = p._parse_rational()
        weights[_new_state(ctx, value, state_tok, seen)] = weight
    return weights


def _new_state(ctx: VarContext, value: tuple, tok: Token, seen: set) -> int:
    """The index of a state not listed before; errors point at its token."""
    try:
        idx = ctx.index_of(value)
    except ContextError as exc:
        raise ParseError(str(exc), tok.line, tok.col) from None
    if idx in seen:
        raise ParseError(f"repeated state {fmt_value(value)}", tok.line, tok.col)
    seen.add(idx)
    return idx


def parse_prior_text(ctx: VarContext, text: str) -> Tuple[Fraction, ...]:
    """Prior spec: `uniform` or `(state)=p/q` pairs, each state at most once;
    omitted states get 0."""
    if text.strip() == "uniform":
        return uniform_dist(ctx)
    return tuple(_state_weights(ctx, text, allow_inf=False))
