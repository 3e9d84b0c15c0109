"""The weakest pre-loss evaluator.

Structural recursion over typechecked programs: each construct maps a loss
function over its post context (extended by a correlated context Z) to one
over its pre context (extended likewise).  A statement of
``syntax.KERNEL_STMTS`` (assignment, declaration, discard, assertion) maps
each generator through one transformer: the dual of the statement's kernel,
tensored with the identity on Z (``_kernel_tf``).  ``wpl`` maps each
maximal run of them once, by the product of its statements' transformers
(``linear_transformer``); each program keeps its statements split into
runs and other statements, per extension (``_segments``).  A run of
discards alone is not composed: ``LossFunction.extend_to`` extends each
generator to the dropped variables, which keeps a canonical loss canonical
with no LP query.  A `print`, `if` or `while` shows a value through its
kernel's columns, and one rule (``_observe``) sums, over the columns, the
column times the loss its value leads to; ``loss_add`` keeps such a sum as
blocks, and every later map acts on it block by block.
Loops are evaluated by the term recurrence

    term_0    = !g * E
    term_n+1  = g * wpl(body, term_n)

summing the terms until one is exactly the zero loss (then all later terms
vanish by homogeneity at zero and the sum is the least fixed point) or a
budget is hit; truncation is always surfaced as an under-approximation.
The factor g is the diagonal transformer of the guard's column, composed
into the body's first run (``_loop_body``), so a term whose body begins
with a run costs one map.

Composing changes no pre-loss.  A canonical loss lists the irredundant
generators of its upward convex closure, which the closure determines, in
``_by_key`` order.  A transformer f has nonnegative weights, and
``INF * 0 = 0``, so f is monotone and commutes with convex combinations:
f(G) and f(canonical G) have the same closure, and canonicalizing either
gives one list.  So mapping a run statement by statement, canonicalizing
after each, gives the list that mapping once by the product gives, with
``INF`` too: a row of the product reaches an ``INF`` entry exactly when a
path of positive weights through the run does.  The same holds for g
composed into a run.  Only the LP queries change.

History transformers.  A program without `[]` is a channel: wpl(P, E) is
the Minkowski sum over its observation histories h of M_h * E, each M_h a
nonnegative matrix (``history_transformers``).  The walk applies ``wpl``'s
rules to the M_h, backwards from the identity: a run composes, a `print`
or `if` puts each column's diagonal before each history its value leads
to, a `while` sums its term lists until one is empty, and zero matrices
are dropped.  Each rule of ``wpl`` sums linear maps of losses, f(A + B) and
f(A) + f(B) have one closure, and a zero matrix, or a term holding 0, adds
nothing to an upward closed sum (``INF * 0 = 0``); so by the argument
above both routes give one list.  The walk gives up (None) on a `[]` (a
meet, not a sum), on a loop whose term list is nonempty at the budget,
and on a list longer than the working context's state count.  So each
compiled loop's list empties within the budget, ``wpl``'s later terms are
zero, and a compiled part never truncates.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import groupby, repeat
from typing import Dict, Iterable, NamedTuple, Optional, Tuple, Union

from .contexts import EMPTY, VarContext
from .kernels import Transformer
from .losses import (
    LossFunction, is_zero_loss, loss_add, loss_canonicalize, loss_conj,
    loss_map, loss_min, zero_loss,
)
from .predicates import Predicate
from .syntax import KERNEL_STMTS, Abort, If, NonDet, Print, Program, Skip, Stmt, Unvar, While, walk

counters = {"wpl_clauses": 0}

# The loop budget when none is given: terms 0..64 of each loop's sum.
DEFAULT_LOOP_BUDGET = 64


@dataclass(frozen=True)
class LoopStatus:
    kind: str  # "converged" | "truncated"
    n: int

    def merge(self, other: "LoopStatus") -> "LoopStatus":
        if "truncated" in (self.kind, other.kind):
            n = max(s.n for s in (self, other) if s.kind == "truncated")
            return LoopStatus("truncated", n)
        return LoopStatus("converged", max(self.n, other.n))


@dataclass(frozen=True)
class WplResult:
    pre: LossFunction
    loop_status: Dict[str, LoopStatus] = field(default_factory=dict)

    @property
    def truncated(self) -> bool:
        return any(s.kind == "truncated" for s in self.loop_status.values())


def weakest_preloss(
    program: Program,
    post: LossFunction,
    extension: VarContext = EMPTY,
    loop_budget: int = DEFAULT_LOOP_BUDGET,
) -> WplResult:
    """Weakest pre-loss of a typechecked program against a post loss."""
    if program.meta.post is None:
        raise ValueError("program must be typechecked first")
    if loop_budget <= 0:
        raise ValueError("loop budget must be positive")
    expected = program.meta.post.merge(extension)
    if post.ctx != expected:
        raise ValueError(
            f"post loss context [{post.ctx.pretty()}] does not match "
            f"program post context [{expected.pretty()}]"
        )
    statuses: Dict[str, LoopStatus] = {}
    pre = _wpl_program(program, loss_canonicalize(post), extension, loop_budget, statuses)
    return WplResult(pre, statuses)


def _working(ctx: VarContext, z: VarContext) -> VarContext:
    return ctx.merge(z) if len(z.vars) else ctx


class _Run(NamedTuple):
    """A maximal run of ``length`` kernel statements, as one transformer."""

    length: int
    tf: Transformer


def _segments(prog: Program, z: VarContext) -> Tuple[Union[_Run, Stmt], ...]:
    """The program's statements in order, each maximal run of
    ``KERNEL_STMTS`` but discards alone replaced by its ``_Run``; kept on
    the program per extension."""
    def build():
        segments = []
        for linear, group in groupby(prog.stmts, lambda s: isinstance(s, KERNEL_STMTS)):
            group = tuple(group)
            if linear and not all(isinstance(t, Unvar) for t in group):
                segments.append(_Run(len(group), linear_transformer(Program(group), z)))
            else:
                segments.extend(group)
        return tuple(segments)

    return prog.meta.derived(("segments", z), build)


def _wpl_program(prog: Program, E: LossFunction, z, budget, statuses) -> LossFunction:
    return _wpl_segments(_segments(prog, z), E, z, budget, statuses)


def _wpl_segments(segments, E: LossFunction, z, budget, statuses) -> LossFunction:
    for s in reversed(segments):
        E = _wpl_stmt(s, E, z, budget, statuses)
    return E


def _wpl_stmt(s: Union[_Run, Stmt], E: LossFunction, z, budget, statuses) -> LossFunction:
    if isinstance(s, _Run):
        counters["wpl_clauses"] += s.length  # source statements, not maps
        return loss_map(s.tf, E)
    counters["wpl_clauses"] += 1
    if isinstance(s, Skip):
        return E
    if isinstance(s, Abort):
        return zero_loss(_working(s.meta.pre, z))
    if isinstance(s, Unvar):
        return E.extend_to(_working(s.meta.pre, z))
    if isinstance(s, If):
        return _observe(s, (_wpl_program(b, E, z, budget, statuses)
                            for b in (s.then, s.orelse)), z)
    if isinstance(s, NonDet):
        return loss_min(
            _wpl_program(s.left, E, z, budget, statuses),
            _wpl_program(s.right, E, z, budget, statuses),
        )
    if isinstance(s, Print):
        return _observe(s, repeat(E), z)
    if isinstance(s, While):
        return _wpl_while(s, E, z, budget, statuses)
    raise ValueError(f"cannot evaluate statement {s!r}")


def _kernel_tf(s: Stmt, z: VarContext) -> Transformer:
    """The dual of the statement's kernel, tensored with the identity on ``z``.

    Kept on the statement per extension: every ``wpl`` run over the same
    statement gets the same transformer, so its rows and ELLPACK plan are
    built once, and equal kernels are never compared.
    """
    return s.meta.derived(("tf", z),
                          lambda: s.meta.kernel.dual().tensor(Transformer.identity(z)))


def _columns(s: Stmt, z: VarContext) -> Tuple[Predicate, ...]:
    """The columns of the statement's kernel, as predicates over its pre context
    extended by ``z``; kept on the statement per extension."""
    def build():
        k, working = s.meta.kernel, _working(s.meta.pre, z)
        return tuple(Predicate.from_ints(k.src, k.den, column).extend_to(working)
                     for column in k.columns)

    return s.meta.derived(("columns", z), build)


def _observe(s: Stmt, branch_losses: Iterable[LossFunction], z) -> LossFunction:
    """Sum over the shown values of (the value's column) * (the loss it leads to).

    ``branch_losses`` yields one loss per column, read as the sum reaches it:
    E for every value of a `print`, and the pre-loss of each branch of an `if`.
    """
    total: Optional[LossFunction] = None
    for column, loss in zip(_columns(s, z), branch_losses):
        term = loss_conj(column, loss)
        total = term if total is None else loss_add(total, term)
    return total


def _loop_body(s: While, z: VarContext) -> Tuple[Union[_Run, Stmt], ...]:
    """The segments of g * body: the body's, with the diagonal transformer
    of the guard's column g composed into its first run, or put before the
    body as a run of no statements; kept on the loop per extension."""
    def build():
        diag = Transformer.diagonal(_columns(s, z)[0])
        segments = _segments(s.body, z)
        if segments and isinstance(segments[0], _Run):
            head, segments = segments[0], segments[1:]
            return (_Run(head.length, diag.compose(head.tf)),) + segments
        return (_Run(0, diag),) + segments

    return s.meta.derived(("body", z), build)


def _wpl_while(s: While, E: LossFunction, z, budget, statuses) -> LossFunction:
    """Sum the loop's terms term_0 = !g * E, term_n+1 = g * wpl(body, term_n),
    with ``budget`` for the body's loops."""
    body = _loop_body(s, z)
    term = total = loss_conj(_columns(s, z)[1], E)
    n = 0
    while not is_zero_loss(term):
        if n >= budget:
            status = LoopStatus("truncated", budget)
            break
        term = _wpl_segments(body, term, z, budget, statuses)
        total = loss_add(total, term)
        n += 1
    else:
        status = LoopStatus("converged", n)
    label = s.meta.label
    statuses[label] = status if label not in statuses else statuses[label].merge(status)
    return total


def history_transformers(prog: Program, z: VarContext, budget: int) -> Optional[Tuple[Transformer, ...]]:
    """The nonzero M_h of the program, or None (the module docstring's three
    cases); kept on the program per extension and budget."""
    def build():
        if not any(isinstance(s, NonDet) for s in walk(prog)):
            post = Transformer.identity(_working(prog.meta.post, z))
            return _histories(_segments(prog, z), (post,), z, budget)

    return prog.meta.derived(("histories", z, budget), build)


def _then(f: Transformer, ms: Tuple[Transformer, ...]) -> Tuple[Transformer, ...]:
    """f before each history, zero products dropped."""
    return tuple(m for m in (f.compose(m) for m in ms) if any(m.nums))


def _bounded(ms):
    """``ms``, or None when it has more histories than its matrices have rows."""
    return None if ms is None or (ms and len(ms) > ms[0].src.n_states) else ms


def _histories(segments, ms, z, budget):
    for s in reversed(segments):
        if ms is not None:
            ms = _bounded(_history_stmt(s, ms, z, budget))
    return ms


def _history_stmt(s: Union[_Run, Stmt], ms, z, budget):
    """``_wpl_stmt``'s rules on the histories ``ms`` instead of on a loss."""
    if isinstance(s, _Run):
        return _then(s.tf, ms)
    if isinstance(s, (Skip, Abort)):
        return () if isinstance(s, Abort) else ms
    if isinstance(s, Unvar):
        return _then(_kernel_tf(s, z), ms)
    if isinstance(s, (Print, If)):
        columns = _columns(s, z)
        branches = [ms] * len(columns) if isinstance(s, Print) else [
            _histories(_segments(b, z), ms, z, budget) for b in (s.then, s.orelse)]
        return None if None in branches else sum(
            (_then(Transformer.diagonal(c), b) for c, b in zip(columns, branches)), ())
    if isinstance(s, While):
        term = total = _then(Transformer.diagonal(_columns(s, z)[1]), ms)
        for _ in range(budget):
            term = term and _histories(_loop_body(s, z), term, z, budget)
            total = None if term is None else _bounded(total + term)
            if total is None:
                return None
        return None if term else total


def linear_transformer(prog: Program, z: VarContext = EMPTY) -> Optional[Transformer]:
    """Compose a straight-line hidden+choiceless program into one matrix.

    Returns None when the program contains control flow, prints or
    nondeterminism; otherwise the composite transformer equals the
    program's weakest pre-loss action on every generator.
    """
    acc: Optional[Transformer] = None
    for s in prog.stmts:
        if isinstance(s, Skip):
            continue
        if not isinstance(s, KERNEL_STMTS):
            return None
        t = _kernel_tf(s, z)
        acc = t if acc is None else acc.compose(t)
    if acc is None:
        ctx = _working(prog.meta.pre, z)
        return Transformer.identity(ctx)
    return acc
