"""Refinement and simulation checking with self-certifying verdicts.

Program refinement is checked against a finite loss family: any failure is
definitive (the LP separation certificate converts into a witness prior
with a strict evaluation gap), while Holds is always "for this family".
Both sides are split at their longest common tail of statements, which
the copy rule gives them (the client's statements after its last `call`,
and a `final` both write alike): an entry whose tail pre-loss has the
blocks of an earlier, passing entry's is decided without running the
heads, and a part without `[]` is mapped by its history transformers (an
empty part by the identity).  On a choiceless pair the entries implied
by the unit entries (the indicators of single states) are decided
without ``wpl``.  Both kinds still count in ``checked`` and move no
witness.  Datatype refinement inlines both datatypes into each supplied
program context.  The simulation checkers verify the three commuting
squares and gate the result on the healthiness classifier (hidden for
forward, choiceless for backward); a failed gate yields Inconclusive,
never Holds.  Both build each family once per post context.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

from .contexts import EMPTY, VarContext
from .families import FamilyOptions, TestFamily, resolve_family
from .losses import (
    LossFunction, eval_loss, loss_add, loss_canonicalize, loss_map, loss_member_certified,
    normalize_witness, zero_loss,
)
from .scalars import Scalar
from .semantics import DEFAULT_LOOP_BUDGET, WplResult, history_transformers, weakest_preloss
from .syntax import Datatype, Program, ProgramContext
from .typecheck import (
    TypecheckError, classify_choiceless, classify_hidden, copy_program, inline,
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
    loop_budget: int = DEFAULT_LOOP_BUDGET,
) -> Verdict:
    """Check p refined-by q on every family loss; Fails is definitive.

    p = A;S and q = B;S (``_split``; any part may be empty).  Per entry E,
    ``_preloss`` maps E through S, then A and B through S's pre-loss: a
    part with history transformers sums their images of E, and any other
    part runs ``wpl``.  An empty part's one history is the identity, which
    ``loss_map`` gives a canonical E back unchanged.  By the closure
    argument in ``semantics``' docstring each is ``wpl``'s list, and so is
    ``wpl(A, wpl(S, E))``; A;S truncates exactly when A or S does.  Every
    tail pre-loss is canonical, so an entry whose tail pre-loss has the
    ``blocks`` of an earlier, passing entry's passes too, without A and B;
    it still counts in ``checked`` and as a passed unit.  No failing entry
    is such a repeat, so ``checked``, the first failing entry, its witness
    and both pre-losses are those of running each whole side.

    When p and q are choiceless, each side maps a single generator g
    linearly, to {T g}, loops and their truncated sums included, with
    ``INF * 0 = 0``.  Once every unit entry {e_s} of the post context has
    passed (T_P e_s <= T_Q e_s, so T_P <= T_Q entrywise), every later
    single-generator entry passes too, and when both sides are also hidden
    so does every later entry: each generator T_Q g of the right side lies
    above T_P g on the left.  With ``INF`` entries too: (T g)(x) is ``INF``
    iff T[x, s] > 0 for some s with g(s) = ``INF``, and T_P[x, s] > 0
    implies T_Q[x, s] > 0, so T_P g is ``INF`` only where T_Q g is; where
    both are finite, both read only the finite entries of g, linearly.  A
    loop's N-th term on g is nonzero iff it is nonzero on some unit e_s
    with g(s) > 0, so that unit already reported the truncation.  Such
    entries are decided without ``wpl`` and still count in ``checked``.
    A skipped entry could neither fail nor truncate unless a unit did, so
    the verdict is the one every entry's ``wpl`` would give.  Units are
    recognised by content, so a family without them skips nothing.
    """
    if loop_budget <= 0:
        raise ValueError("loop budget must be positive")
    post_ctx = _post_context(p, q).merge(extension)
    fam = resolve_family(post_ctx, family)
    implied = _implied_by_units(p, q)
    pending_units = set(range(post_ctx.n_states))
    head_p, head_q, tail = _split(p, q)
    passed = set()  # the tail pre-losses of the entries that passed

    truncated = False
    for E, _provenance in fam.entries:
        if not pending_units and implied(E):
            continue
        shared = _preloss(tail, E, extension, loop_budget)
        truncated = truncated or shared.truncated
        key = shared.pre.blocks
        if key not in passed:
            left = _preloss(head_p, shared.pre, extension, loop_budget)
            right = _preloss(head_q, shared.pre, extension, loop_budget)
            truncated = truncated or left.truncated or right.truncated
            for gen in right.pre.gens:
                cert = loss_member_certified(gen, left.pre)
                if cert.member:
                    continue
                if shared.truncated or right.truncated:
                    return Verdict(kind="inconclusive", witness_loss=E, loop_notes=("truncated",),
                                   reason="right-hand loop truncated; the refinement failure "
                                          "cannot be certified")
                prior = normalize_witness(cert.witness)
                return Verdict(
                    kind="fails", witness_loss=E, witness_prior=prior,
                    lhs_value=eval_loss(left.pre, prior), rhs_value=eval_loss(right.pre, prior),
                    lhs_pre=left.pre, rhs_pre=right.pre,
                )
            passed.add(key)
        pending_units.discard(_unit_state(E))
    if truncated:
        return Verdict(
            kind="inconclusive",
            checked=len(fam),
            reason="loop truncation makes the family verdict uncertifiable",
            loop_notes=("truncated",),
        )
    return Verdict(kind="holds", checked=len(fam))


def _preloss(part: Program, E: LossFunction, extension: VarContext, budget: int) -> WplResult:
    """One part's ``weakest_preloss`` (``program_refines``)."""
    histories = history_transformers(part, extension, budget)
    if histories is None:
        return weakest_preloss(part, E, extension, budget)
    E = loss_canonicalize(E)
    images = [loss_map(m, E) for m in histories]
    return WplResult(reduce(loss_add, images) if images
                     else zero_loss(part.meta.pre.merge(extension)))


def _split(p: Program, q: Program) -> Tuple[Program, Program, Program]:
    """Heads A, B and tail S with p = A;S and q = B;S: S is the longest common
    suffix of statements equal as syntax with equal pre and post contexts;
    with none, S is empty, from p's post context to itself."""
    n = 0
    for s, t in zip(reversed(p.stmts), reversed(q.stmts)):
        if s != t or s.meta.pre != t.meta.pre or s.meta.post != t.meta.post:
            break
        n += 1
    cut_p, cut_q = len(p.stmts) - n, len(q.stmts) - n
    mid = p.stmts[cut_p].meta.pre if n else p.meta.post
    parts = (Program(p.stmts[:cut_p]), Program(q.stmts[:cut_q]), Program(p.stmts[cut_p:]))
    for part, pre, post in zip(parts, (p.meta.pre, q.meta.pre, mid), (mid, mid, p.meta.post)):
        part.meta.pre, part.meta.post = pre, post
    return parts


def _post_context(p: Program, q: Program) -> VarContext:
    """The common post context of two typechecked programs of one type."""
    if p.meta.pre is None or q.meta.pre is None:
        raise ValueError("programs must be typechecked first")
    if p.meta.pre != q.meta.pre or p.meta.post != q.meta.post:
        raise TypecheckError(
            f"program types differ: [{p.meta.pre.pretty()}]->[{p.meta.post.pretty()}] "
            f"vs [{q.meta.pre.pretty()}]->[{q.meta.post.pretty()}]")
    return p.meta.post


def _implied_by_units(p: Program, q: Program) -> Callable[[LossFunction], bool]:
    """Which entries passed unit entries decide for this pair.

    Choiceless pairs: single-generator entries.  Hidden choiceless pairs:
    every entry.  A visible pair may pass every unit and still fail on
    several generators (``skip`` against ``print b`` on {e_0, e_1}), so it
    gets only the first rule.  Pairs with a choice: none.
    """
    if not (classify_choiceless(p) and classify_choiceless(q)):
        return lambda E: False
    hidden = classify_hidden(p) and classify_hidden(q)
    return lambda E: hidden or len(E.gens) == 1


def _unit_state(E: LossFunction) -> Optional[int]:
    """The state whose indicator is E's one generator, or None."""
    if len(E.gens) != 1:
        return None
    g = E.gens[0]
    if g.den != 1 or g.nums.count(1) != 1 or g.nums.count(0) != len(g.nums) - 1:
        return None
    return g.nums.index(1)


def _families(family: FamilyLike) -> Callable[[VarContext], TestFamily]:
    """``resolve_family`` for one request: each post context's family is built once."""
    built: Dict[VarContext, TestFamily] = {}

    def family_for(ctx: VarContext) -> TestFamily:
        if ctx not in built:
            built[ctx] = resolve_family(ctx, family)
        return built[ctx]

    return family_for


def data_refines(
    d_abstract: Datatype,
    d_concrete: Datatype,
    contexts: Sequence[ProgramContext],
    family: FamilyLike = None,
    loop_budget: int = DEFAULT_LOOP_BUDGET,
) -> Verdict:
    """Copy-rule refinement over the supplied program contexts."""
    _check_signature(d_abstract, d_concrete)
    if not contexts:
        raise ValueError("need at least one program context")
    family_for = _families(family)
    checked = 0
    for i, ctx_prog in enumerate(contexts):
        name = ctx_prog.name or f"context#{i}"
        comp_a = inline(ctx_prog, d_abstract)
        comp_c = inline(ctx_prog, d_concrete)
        fam = family_for(_post_context(comp_a, comp_c))
        verdict = program_refines(comp_a, comp_c, fam, EMPTY, loop_budget)
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
    rep = copy_program(rep)
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
    return Program(tuple(s for part in parts for s in copy_program(part).stmts))


def _square(name: str, lhs: Program, rhs: Program, pre: VarContext,
            family_for: Callable[[VarContext], TestFamily], loop_budget: int) -> SquareResult:
    typecheck_program(lhs, pre)
    typecheck_program(rhs, pre)
    fam = family_for(_post_context(lhs, rhs))
    return SquareResult(name, program_refines(lhs, rhs, fam, EMPTY, loop_budget))


def check_forward_simulation(
    d_abstract: Datatype,
    d_concrete: Datatype,
    rep: Program,
    family: FamilyLike = None,
    loop_budget: int = DEFAULT_LOOP_BUDGET,
) -> Verdict:
    """Forward simulation: requires a hidden rep (no if/while/print).

    Squares: init_A ; rep <= init_C, op_A ; rep <= rep ; op_C for every
    operation, and final_A <= rep ; final_C, all over the shared state by
    context extension.  Holds certifies the data refinement to the
    family's strength.
    """
    return _check_simulation(d_abstract, d_concrete, rep, family, loop_budget, forward=True)


def check_backward_simulation(
    d_abstract: Datatype,
    d_concrete: Datatype,
    rep: Program,
    family: FamilyLike = None,
    loop_budget: int = DEFAULT_LOOP_BUDGET,
) -> Verdict:
    """Backward simulation: requires a choiceless rep (no nondeterminism).

    Squares: init_A <= init_C ; rep, rep ; op_A <= op_C ; rep for every
    operation, and rep ; final_A <= final_C.
    """
    return _check_simulation(d_abstract, d_concrete, rep, family, loop_budget, forward=False)


def _check_simulation(d_abstract: Datatype, d_concrete: Datatype, rep: Program,
                      family: FamilyLike, loop_budget: int, forward: bool) -> Verdict:
    """The three squares of either simulation, then its healthiness gate.

    ``rep`` maps the encapsulated state of the side it follows (abstract
    for forward, concrete for backward) to that of the side it precedes.
    """
    _check_signature(d_abstract, d_concrete)
    validate_datatype(d_abstract)
    validate_datatype(d_concrete)
    source, target = d_abstract.encap, d_concrete.encap
    if not forward:
        source, target = target, source
    rep = _typecheck_rep(rep, source, target, "forward" if forward else "backward")
    shared = d_abstract.shared
    working = shared.merge(source)
    family_for = _families(family)

    def side(prog: Program, stage: str, rep_follows: bool) -> Program:
        # Nothing runs before init or after final.
        if rep_follows:
            return _seq(prog) if stage == "final" else _seq(prog, rep)
        return _seq(prog) if stage == "init" else _seq(rep, prog)

    def square(name: str, stage: str, prog_a: Program, prog_c: Program,
               pre: VarContext) -> SquareResult:
        return _square(name, side(prog_a, stage, forward), side(prog_c, stage, not forward),
                       pre, family_for, loop_budget)

    squares = [square("init", "init", d_abstract.init, d_concrete.init, shared)]
    for name, op_a in d_abstract.ops:
        squares.append(square(f"op {name}", "op", op_a, d_concrete.op(name), working))
    squares.append(square("final", "final", d_abstract.final, d_concrete.final, working))

    if forward:
        return _gate_verdict(squares, classify_hidden(rep),
                             "rep is not hidden (contains if/while/print); the "
                             "forward simulation rule does not apply")
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
