"""Refinement and simulation checking with self-certifying verdicts.

Program refinement is checked against a finite loss family: any failure is
definitive (the LP separation certificate converts into a witness prior
with a strict evaluation gap), while Holds is always "for this family".
Datatype refinement inlines both datatypes into each supplied program
context.  The simulation checkers verify the three commuting squares and
gate the result on the healthiness classifier (hidden for forward,
choiceless for backward); a failed gate yields Inconclusive, never Holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

from .contexts import EMPTY, VarContext
from .families import FamilyOptions, TestFamily, resolve_family
from .losses import (
    LossFunction, eval_loss, loss_member_certified, normalize_witness,
)
from .scalars import Scalar
from .semantics import weakest_preloss
from .syntax import Datatype, Program, ProgramContext
from .typecheck import (
    TypecheckError, classify_choiceless, classify_hidden, clone, inline,
    typecheck_program, validate_datatype,
)

FamilyLike = Union[TestFamily, FamilyOptions, None]


@dataclass(frozen=True)
class Verdict:
    kind: str  # "holds" | "fails" | "inconclusive"
    checked: int = 0
    reason: str = ""
    witness_loss: Optional[LossFunction] = None
    witness_prior: Optional[Tuple[Fraction, ...]] = None
    lhs_value: Optional[Scalar] = None
    rhs_value: Optional[Scalar] = None
    lhs_pre: Optional[LossFunction] = None
    rhs_pre: Optional[LossFunction] = None
    context_name: Optional[str] = None
    squares: Tuple["SquareResult", ...] = ()
    loop_notes: Tuple[str, ...] = ()

    @property
    def holds(self) -> bool:
        return self.kind == "holds"

    def certificate_ok(self) -> bool:
        """Re-check a Fails verdict by direct evaluation at the witness."""
        if self.kind != "fails" or self.witness_prior is None:
            return False
        lhs = eval_loss(self.lhs_pre, self.witness_prior)
        rhs = eval_loss(self.rhs_pre, self.witness_prior)
        return lhs == self.lhs_value and rhs == self.rhs_value and rhs < lhs


@dataclass(frozen=True)
class SquareResult:
    name: str
    verdict: Verdict


def program_refines(
    p: Program,
    q: Program,
    family: FamilyLike = None,
    extension: VarContext = EMPTY,
    loop_budget: int = 64,
) -> Verdict:
    """Check p refined-by q on every family loss; Fails is definitive."""
    if p.meta.pre is None or q.meta.pre is None:
        raise ValueError("programs must be typechecked first")
    if p.meta.pre != q.meta.pre or p.meta.post != q.meta.post:
        raise TypecheckError(
            f"program types differ: [{p.meta.pre.pretty()}]->[{p.meta.post.pretty()}] "
            f"vs [{q.meta.pre.pretty()}]->[{q.meta.post.pretty()}]")
    post_ctx = p.meta.post.merge(extension)
    fam = resolve_family(post_ctx, family)

    truncation: List[str] = []
    for E, _provenance in fam.entries:
        left = weakest_preloss(p, E, extension, loop_budget)
        right = weakest_preloss(q, E, extension, loop_budget)
        if left.truncated:
            truncation.append("left")
        if right.truncated:
            truncation.append("right")
        for gen in right.pre.gens:
            cert = loss_member_certified(gen, left.pre)
            if cert.member:
                continue
            if right.truncated:
                return Verdict(
                    kind="inconclusive",
                    reason="right-hand loop truncated; the refinement failure "
                           "cannot be certified",
                    witness_loss=E,
                    loop_notes=("truncated",),
                )
            prior = normalize_witness(cert.witness)
            return Verdict(
                kind="fails",
                witness_loss=E,
                witness_prior=prior,
                lhs_value=eval_loss(left.pre, prior),
                rhs_value=eval_loss(right.pre, prior),
                lhs_pre=left.pre,
                rhs_pre=right.pre,
            )
    if truncation:
        return Verdict(
            kind="inconclusive",
            checked=len(fam),
            reason="loop truncation makes the family verdict uncertifiable",
            loop_notes=("truncated",),
        )
    return Verdict(kind="holds", checked=len(fam))


def data_refines(
    d_abstract: Datatype,
    d_concrete: Datatype,
    contexts: Sequence[ProgramContext],
    family: FamilyLike = None,
    loop_budget: int = 64,
) -> Verdict:
    """Copy-rule refinement over the supplied program contexts."""
    _check_signature(d_abstract, d_concrete)
    if not contexts:
        raise ValueError("need at least one program context")
    checked = 0
    for i, ctx_prog in enumerate(contexts):
        name = ctx_prog.name or f"context#{i}"
        comp_a = inline(ctx_prog, d_abstract)
        comp_c = inline(ctx_prog, d_concrete)
        verdict = program_refines(comp_a, comp_c, family, EMPTY, loop_budget)
        if verdict.kind != "holds":
            return replace(verdict, context_name=name)
        checked += verdict.checked
    return Verdict(kind="holds", checked=checked)


def _check_signature(da: Datatype, dc: Datatype):
    if da.shared != dc.shared:
        raise TypecheckError("datatypes have different shared state")
    if da.op_names() != dc.op_names():
        raise TypecheckError(
            f"datatypes export different operations: "
            f"{da.op_names()} vs {dc.op_names()}")


def _typecheck_rep(rep: Program, source: VarContext, target: VarContext, role: str) -> Program:
    rep = clone(rep)
    try:
        post = typecheck_program(rep, source)
    except (TypecheckError, ValueError) as exc:
        raise TypecheckError(
            f"{role} simulation program must map the encapsulated state "
            f"[{source.pretty()}] on its own: {exc}") from None
    if {n: d for n, d in post.vars} != {n: d for n, d in target.vars}:
        raise TypecheckError(
            f"{role} simulation program ends in [{post.pretty()}], "
            f"expected the encapsulated state [{target.pretty()}]")
    return rep


def _seq(*parts: Program) -> Program:
    return Program(tuple(s for part in parts for s in clone(part).stmts))


def _square(name: str, lhs: Program, rhs: Program, pre: VarContext,
            family: FamilyLike, loop_budget: int) -> SquareResult:
    typecheck_program(lhs, pre)
    typecheck_program(rhs, pre)
    return SquareResult(name, program_refines(lhs, rhs, family, EMPTY, loop_budget))


def check_forward_simulation(
    d_abstract: Datatype,
    d_concrete: Datatype,
    rep: Program,
    family: FamilyLike = None,
    loop_budget: int = 64,
) -> Verdict:
    """Forward simulation: requires a hidden rep (no if/while/print).

    Squares: init_A ; rep <= init_C, op_A ; rep <= rep ; op_C for every
    operation, and final_A <= rep ; final_C, all over the shared state by
    context extension.  Holds certifies the data refinement to the
    family's strength.
    """
    _check_signature(d_abstract, d_concrete)
    validate_datatype(d_abstract)
    validate_datatype(d_concrete)
    rep = _typecheck_rep(rep, d_abstract.encap, d_concrete.encap, "forward")
    shared = d_abstract.shared
    working_a = shared.merge(d_abstract.encap)

    squares = [
        _square("init", _seq(d_abstract.init, rep), _seq(d_concrete.init),
                shared, family, loop_budget)
    ]
    for name, op_a in d_abstract.ops:
        op_c = d_concrete.op(name)
        squares.append(
            _square(f"op {name}", _seq(op_a, rep), _seq(rep, op_c),
                    working_a, family, loop_budget))
    squares.append(
        _square("final", _seq(d_abstract.final), _seq(rep, d_concrete.final),
                working_a, family, loop_budget))

    return _gate_verdict(squares, classify_hidden(rep),
                         "rep is not hidden (contains if/while/print); the "
                         "forward simulation rule does not apply")


def check_backward_simulation(
    d_abstract: Datatype,
    d_concrete: Datatype,
    rep: Program,
    family: FamilyLike = None,
    loop_budget: int = 64,
) -> Verdict:
    """Backward simulation: requires a choiceless rep (no nondeterminism).

    Squares: init_A <= init_C ; rep, rep ; op_A <= op_C ; rep for every
    operation, and rep ; final_A <= final_C.
    """
    _check_signature(d_abstract, d_concrete)
    validate_datatype(d_abstract)
    validate_datatype(d_concrete)
    rep = _typecheck_rep(rep, d_concrete.encap, d_abstract.encap, "backward")
    shared = d_abstract.shared
    working_c = shared.merge(d_concrete.encap)

    squares = [
        _square("init", _seq(d_abstract.init), _seq(d_concrete.init, rep),
                shared, family, loop_budget)
    ]
    for name, op_a in d_abstract.ops:
        op_c = d_concrete.op(name)
        squares.append(
            _square(f"op {name}", _seq(rep, op_a), _seq(op_c, rep),
                    working_c, family, loop_budget))
    squares.append(
        _square("final", _seq(rep, d_abstract.final), _seq(d_concrete.final),
                working_c, family, loop_budget))

    return _gate_verdict(squares, classify_choiceless(rep),
                         "rep is not choiceless (contains nondeterministic "
                         "choice); the backward simulation rule does not apply")


def _gate_verdict(squares: List[SquareResult], gate_ok: bool, gate_reason: str) -> Verdict:
    squares_t = tuple(squares)
    if not gate_ok:
        return Verdict(kind="inconclusive", reason=gate_reason, squares=squares_t,
                       checked=sum(s.verdict.checked for s in squares_t))
    for s in squares_t:
        if s.verdict.kind != "holds":
            return replace(s.verdict,
                           reason=s.verdict.reason or f"square '{s.name}' does not hold",
                           context_name=s.name, squares=squares_t)
    return Verdict(kind="holds", checked=sum(s.verdict.checked for s in squares_t),
                   squares=squares_t)
