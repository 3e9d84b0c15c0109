"""Program, datatype and program-context ASTs, the one walk over their
statements (``sub_programs``, ``walk``), and a pretty printer.

Statement nodes carry a mutable ``meta`` slot filled in by the typechecker
(pre/post contexts and elaborated kernels); ``meta`` never takes part in
structural equality, so ``parse(pretty(ast)) == ast``.  No pass edits any
other field of a parsed node: inlining builds new trees
(``typecheck.copy_program``); a simulation square reuses its parts' nodes.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

from .contexts import Value, VarContext, fmt_value
from .exprs import Expr, pretty as expr_pretty


class Meta:
    """Typechecker annotations; not part of structural equality.

    ``cache`` holds values derived from the annotations (``derived``);
    typechecking a node again empties it.
    """

    __slots__ = ("pos", "pre", "post", "kernel", "label", "cache")

    def __init__(self, pos=None):
        for name in self.__slots__:
            setattr(self, name, None)
        self.pos = pos

    def derived(self, key, build):
        """``build()``, made once per ``key`` and kept with this node."""
        if self.cache is None:
            self.cache = {}
        if key not in self.cache:
            self.cache[key] = build()
        return self.cache[key]


def _meta_field():
    return field(default_factory=Meta, compare=False, repr=False)


@dataclass
class DistBranch:
    expr: Expr
    weight: Optional[Fraction]  # None: remainder (only on the last branch)


@dataclass
class DistExpr:
    branches: Tuple[DistBranch, ...]
    uniform: bool = False


@dataclass
class Program:
    stmts: Tuple["Stmt", ...]
    meta: Meta = _meta_field()


@dataclass
class Skip:
    meta: Meta = _meta_field()


@dataclass
class Abort:
    meta: Meta = _meta_field()


@dataclass
class Assign:
    targets: Tuple[str, ...]
    dist: DistExpr
    meta: Meta = _meta_field()


@dataclass
class HidVar:
    name: str
    domain: Optional[Tuple[Value, ...]]  # None: inferred from the assigned values
    dist: DistExpr
    meta: Meta = _meta_field()


@dataclass
class Unvar:
    name: str
    meta: Meta = _meta_field()


@dataclass
class If:
    guard: Expr
    then: Program
    orelse: Program
    meta: Meta = _meta_field()


@dataclass
class While:
    guard: Expr
    body: Program
    meta: Meta = _meta_field()


@dataclass
class Print:
    dist: DistExpr
    meta: Meta = _meta_field()


@dataclass
class Assert:
    guard: Expr
    meta: Meta = _meta_field()


@dataclass
class NonDet:
    left: Program
    right: Program
    meta: Meta = _meta_field()


@dataclass
class CallOp:
    name: str
    meta: Meta = _meta_field()


Stmt = Union[Skip, Abort, Assign, HidVar, Unvar, If, While, Print, Assert, NonDet, CallOp]

# The statements that elaborate to one kernel from their pre to their post
# context: all but a choice, `print`, `if`, `while` and `call`.
KERNEL_STMTS = (Skip, Abort, Assign, HidVar, Unvar, Assert)


@dataclass
class Datatype:
    shared: VarContext
    encap: VarContext
    init: Program
    ops: Tuple[Tuple[str, Program], ...]
    final: Program
    name: Optional[str] = field(default=None, compare=False)

    def op_names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.ops)

    def op(self, name: str) -> Program:
        for n, p in self.ops:
            if n == name:
                return p
        raise KeyError(f"unknown operation {name!r}")


@dataclass
class ProgramContext:
    client: VarContext
    body: Program
    name: Optional[str] = field(default=None, compare=False)


def single(stmt: Stmt) -> Program:
    return Program((stmt,))


# ------------------------------------------------------------------ walking

# The fields of each statement kind that hold nested programs, in source order.
PROGRAM_FIELDS = {If: ("then", "orelse"), While: ("body",), NonDet: ("left", "right")}


def sub_programs(s: Stmt) -> Tuple[Program, ...]:
    """The programs nested directly in a statement, in source order."""
    return tuple(getattr(s, f) for f in PROGRAM_FIELDS.get(type(s), ()))


def walk(prog: Program) -> Iterator[Stmt]:
    """Every statement of ``prog`` and of its nested programs, in preorder."""
    for s in prog.stmts:
        yield s
        for sub in sub_programs(s):
            yield from walk(sub)


# ---------------------------------------------------------------- printing

def _domain_text(domain: Tuple[Value, ...]) -> str:
    ints = [v for v in domain if isinstance(v, int)]
    if len(ints) == len(domain) and len(domain) > 1:
        lo, hi = domain[0], domain[-1]
        if list(domain) == list(range(lo, hi + 1)):
            return f"int {lo}..{hi}"
    return "{" + ", ".join(fmt_value(v) for v in domain) + "}"


def dist_text(d: DistExpr) -> str:
    if d.uniform:
        return "uniform(" + ", ".join(expr_pretty(b.expr) for b in d.branches) + ")"
    parts = []
    for b in d.branches:
        text = expr_pretty(b.expr)
        if b.weight is not None:
            text += f" @ {b.weight}"
        parts.append(text)
    return " | ".join(parts)


def program_text(prog: Program, indent: str = "") -> str:
    return (";\n").join(stmt_text(s, indent) for s in prog.stmts)


def stmt_text(s: Stmt, indent: str = "") -> str:
    pad = indent
    if isinstance(s, Skip):
        return f"{pad}skip"
    if isinstance(s, Abort):
        return f"{pad}abort"
    if isinstance(s, Assign):
        return f"{pad}{', '.join(s.targets)} := {dist_text(s.dist)}"
    if isinstance(s, HidVar):
        dom = f" : {_domain_text(s.domain)}" if s.domain is not None else ""
        return f"{pad}hidvar {s.name}{dom} := {dist_text(s.dist)}"
    if isinstance(s, Unvar):
        return f"{pad}unvar {s.name}"
    if isinstance(s, If):
        return (
            f"{pad}if {expr_pretty(s.guard)} {{\n"
            f"{program_text(s.then, indent + '  ')}\n{pad}}} else {{\n"
            f"{program_text(s.orelse, indent + '  ')}\n{pad}}}"
        )
    if isinstance(s, While):
        return (
            f"{pad}while {expr_pretty(s.guard)} {{\n"
            f"{program_text(s.body, indent + '  ')}\n{pad}}}"
        )
    if isinstance(s, Print):
        return f"{pad}print {dist_text(s.dist)}"
    if isinstance(s, Assert):
        return f"{pad}assert {expr_pretty(s.guard)}"
    if isinstance(s, NonDet):
        return (
            f"{pad}{{\n{program_text(s.left, indent + '  ')}\n{pad}}} [] {{\n"
            f"{program_text(s.right, indent + '  ')}\n{pad}}}"
        )
    if isinstance(s, CallOp):
        return f"{pad}call {s.name}"
    raise TypeError(f"unknown statement {s!r}")
