"""Program, datatype and program-context ASTs, the one walk over their
statements (``sub_programs``, ``walk``), and a pretty printer.

Statement nodes carry a mutable ``meta`` slot filled in by the typechecker
(pre/post contexts and elaborated kernels); ``meta`` never takes part in
structural equality, so ``parse(pretty(ast)) == ast``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from typing import Iterator, Optional, Tuple, Union

from .contexts import Value, VarContext, fmt_value
from .exprs import Expr, pretty as expr_pretty


class Meta:
    """Typechecker annotations; not part of structural equality."""

    __slots__ = ("pos", "pre", "post", "kernel", "guard", "obs", "label")

    def __init__(self):
        for name in self.__slots__:
            setattr(self, name, None)

    def __deepcopy__(self, memo):
        fresh = Meta()
        fresh.pos = self.pos
        return fresh


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
    domain_hint: Optional[Tuple[DistExpr, ...]] = None  # sugar-shared inference
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

def sub_programs(s: Stmt) -> Tuple[Program, ...]:
    """The programs nested directly in a statement, in source order."""
    kind = type(s)
    if kind is If:
        return (s.then, s.orelse)
    if kind is While:
        return (s.body,)
    if kind is NonDet:
        return (s.left, s.right)
    return ()


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


def _hidvar_sugar(node: NonDet) -> Optional[str]:
    """Re-emit `hidvar x := {d1} [] {d2}` for inference-sharing sugar nodes.

    Fires only when the left-nested NonDet chain's leaves are the single
    HidVars produced by the parser's sugar (shared domain_hint matching the
    leaf distributions in order), so printing stays a parse inverse.
    """

    def leaves(prog: Program):
        if len(prog.stmts) != 1:
            return None
        s = prog.stmts[0]
        if isinstance(s, NonDet):
            left = leaves(s.left)
            right = leaves(s.right)
            if left is None or right is None:
                return None
            return left + right
        if isinstance(s, HidVar):
            return [s]
        return None

    left = leaves(node.left)
    right = leaves(node.right)
    if left is None or right is None:
        return None
    limbs = left + right
    first = limbs[0]
    if first.domain_hint is None:
        return None
    for h in limbs:
        if h.name != first.name or h.domain != first.domain or h.domain_hint != first.domain_hint:
            return None
    if tuple(h.dist for h in limbs) != first.domain_hint:
        return None
    dom = f" : {_domain_text(first.domain)}" if first.domain is not None else ""
    branches = " [] ".join("{" + dist_text(h.dist) + "}" for h in limbs)
    return f"hidvar {first.name}{dom} := {branches}"


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
        sugar = _hidvar_sugar(s)
        if sugar is not None:
            return pad + sugar
        return (
            f"{pad}{{\n{program_text(s.left, indent + '  ')}\n{pad}}} [] {{\n"
            f"{program_text(s.right, indent + '  ')}\n{pad}}}"
        )
    if isinstance(s, CallOp):
        return f"{pad}call {s.name}"
    raise TypeError(f"unknown statement {s!r}")
