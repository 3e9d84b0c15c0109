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
witness.

Datatype refinement and both simulations validate the two datatypes once
per request (``_validate``), then check named pairs of typechecked
programs (``_pair``), each on the family of its post context, built once
per request.  Datatype refinement pairs the two inlinings of each
supplied program context.  A simulation pairs the two sides of each of
its three commuting squares, each side the validated programs and the
rep in sequence (``_seq``: no copy, no typecheck), and gates the result
on the healthiness classifier (hidden for forward, choiceless for
backward): a failed gate yields Inconclusive, never Holds.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from functools import cache, reduce
from typing import Callable, Optional, Sequence, Tuple, Union

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
    TypecheckError, classify_choiceless, classify_hidden, inline, typecheck_program,
    validate_datatype,
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
    squares: Tuple["Verdict", ...] = ()  # a simulation's, each named by its square
    loop_notes: Tuple[str, ...] = ()

    def certificate_ok(self) -> bool:
        """Re-check a Fails verdict by direct evaluation at the witness."""
        if self.kind != "fails" or self.witness_prior is None:
            return False
        lhs = eval_loss(self.lhs_pre, self.witness_prior)
        rhs = eval_loss(self.rhs_pre, self.witness_prior)
        return lhs == self.lhs_value and rhs == self.rhs_value and rhs < lhs


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


def data_refines(
    d_abstract: Datatype,
    d_concrete: Datatype,
    contexts: Sequence[ProgramContext],
    family: FamilyLike = None,
    loop_budget: int = DEFAULT_LOOP_BUDGET,
) -> Verdict:
    """Copy-rule refinement over the supplied program contexts."""
    _validate(d_abstract, d_concrete)
    if not contexts:
        raise ValueError("need at least one program context")
    family_for = cache(lambda ctx: resolve_family(ctx, family))
    checked = 0
    for i, ctx_prog in enumerate(contexts):
        verdict = _pair(ctx_prog.name or f"context#{i}", inline(ctx_prog, d_abstract),
                        inline(ctx_prog, d_concrete), family_for, loop_budget)
        if verdict.kind != "holds":
            return verdict
        checked += verdict.checked
    return Verdict(kind="holds", checked=checked)


def _validate(da: Datatype, dc: Datatype) -> Tuple[VarContext, VarContext]:
    """Both datatypes' working contexts, once they are checked to share their
    state and their operations (in any order) and each is valid."""
    if da.shared != dc.shared:
        raise TypecheckError("datatypes have different shared state")
    if set(da.op_names()) != set(dc.op_names()):
        raise TypecheckError(
            f"datatypes export different operations: "
            f"{da.op_names()} vs {dc.op_names()}")
    return validate_datatype(da), validate_datatype(dc)


def _pair(name: str, lhs: Program, rhs: Program,
          family_for: Callable[[VarContext], TestFamily], loop_budget: int) -> Verdict:
    """``program_refines`` of two typechecked programs on the family of their
    post context, named ``name``."""
    fam = family_for(_post_context(lhs, rhs))
    return replace(program_refines(lhs, rhs, fam, EMPTY, loop_budget), context_name=name)


def _typecheck_rep(rep: Program, shared: VarContext, source: VarContext, target: VarContext,
                   role: str) -> None:
    """Typecheck ``rep`` from the source side's encapsulated state to the
    target's, then, over shared variables, from the source's working context
    to the target's, where it runs in every square."""
    own_source, own_target = (reduce(VarContext.remove, shared.names, c) for c in (source, target))
    try:
        post = typecheck_program(rep, own_source)
    except (TypecheckError, ValueError) as exc:
        raise TypecheckError(
            f"{role} simulation program must map the encapsulated state "
            f"[{own_source.pretty()}] on its own: {exc}") from None
    if post != own_target:
        raise TypecheckError(
            f"{role} simulation program ends in [{post.pretty()}], "
            f"expected the encapsulated state [{own_target.pretty()}]")
    if shared.vars and typecheck_program(rep, source) != target:
        raise TypecheckError(
            f"{role} simulation program ends in [{rep.meta.post.pretty()}] with the "
            f"shared state, expected [{target.pretty()}]")


def _seq(*parts: Program) -> Program:
    """The typechecked parts in sequence, as one typechecked program."""
    seq = Program(tuple(s for part in parts for s in part.stmts))
    seq.meta.pre, seq.meta.post = parts[0].meta.pre, parts[-1].meta.post
    return seq


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


def _check_simulation(da: Datatype, dc: Datatype, rep: Program,
                      family: FamilyLike, loop_budget: int, forward: bool) -> Verdict:
    """The three squares of either simulation, then its healthiness gate.

    ``rep`` maps the encapsulated state of the side it follows (abstract
    for forward, concrete for backward) to that of the side it precedes,
    each in the order its ``init`` leaves it, and so the working context of
    the side it follows to that of the other.  Each square side is a
    sequence of the validated ``init``, op and ``final`` programs and the
    rep, each already typechecked in the context where it runs there: no
    part is copied, and no square is typechecked.
    """
    source, target = _validate(da, dc)
    if not forward:
        source, target = target, source
    _typecheck_rep(rep, da.shared, source, target, "forward" if forward else "backward")
    ops = [(f"op {name}", op_a, dc.op(name)) for name, op_a in da.ops]
    if forward:  # init_A;rep <= init_C, op_A;rep <= rep;op_C, final_A <= rep;final_C
        sides = [("init", _seq(da.init, rep), dc.init),
                 *((name, _seq(op_a, rep), _seq(rep, op_c)) for name, op_a, op_c in ops),
                 ("final", da.final, _seq(rep, dc.final))]
        gate = classify_hidden(rep), ("rep is not hidden (contains if/while/print); the "
                                      "forward simulation rule does not apply")
    else:  # init_A <= init_C;rep, rep;op_A <= op_C;rep, rep;final_A <= final_C
        sides = [("init", da.init, _seq(dc.init, rep)),
                 *((name, _seq(rep, op_a), _seq(op_c, rep)) for name, op_a, op_c in ops),
                 ("final", _seq(rep, da.final), dc.final)]
        gate = classify_choiceless(rep), ("rep is not choiceless (contains nondeterministic "
                                          "choice); the backward simulation rule does not apply")
    family_for = cache(lambda ctx: resolve_family(ctx, family))
    squares = tuple(_pair(name, lhs, rhs, family_for, loop_budget) for name, lhs, rhs in sides)
    return _gate_verdict(squares, *gate)


def _gate_verdict(squares: Tuple[Verdict, ...], gate_ok: bool, gate_reason: str) -> Verdict:
    checked = sum(s.checked for s in squares)
    if not gate_ok:
        return Verdict(kind="inconclusive", reason=gate_reason, squares=squares, checked=checked)
    for s in squares:
        if s.kind != "holds":
            return replace(s, reason=s.reason or f"square '{s.context_name}' does not hold",
                           squares=squares)
    return Verdict(kind="holds", checked=checked, squares=squares)
