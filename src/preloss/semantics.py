"""The weakest pre-loss evaluator.

One backward walk over typechecked programs applies one rule per
construct to what its ``_Carrier`` holds: for ``weakest_preloss`` a loss
over the post context, extended by a correlated context Z (``_LOSSES``),
and for ``history_transformers`` a tuple of matrices (``_HISTORIES``).  A
statement of ``syntax.KERNEL_STMTS`` (every statement but a choice, `print`,
`if` and `while`) acts by the dual of its kernel, tensored with the
identity on Z (``_kernel_tf``), and each maximal run of them by one
product (``linear_transformer``), kept split per program and extension
(``_segments``).  A `print`, `if` or `while` shows a value through its
kernel's columns, and one rule sums, over the columns, what the value
leads to mapped by the column's diagonal (the pointwise product by the
column, ``_columns``); ``loss_add`` keeps such a sum of losses as blocks.
A loop sums the terms of

    term_0    = !g * V
    term_n+1  = g * body(term_n)

until one is empty (then all later terms vanish by homogeneity at zero
and the sum is the least fixed point) or the budget is hit, which the
loop's ``LoopStatus`` reports as truncation, an under-approximation.  The
guard's diagonal g is composed into the body's first run (``_loop_body``),
so a term whose body begins with a run costs one map.

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

A program without `[]` is a channel: wpl(P, E) is the Minkowski sum over
its observation histories h of M_h * E, each M_h a nonnegative matrix.
Walked from the identity, ``_HISTORIES`` puts each map before every
history, drops zero products and joins lists to add:
``wpl``'s rules applied to the M_h instead of to E.  Each rule sums linear
maps of losses, f(A + B) and f(A) + f(B) have one closure, and a zero
matrix, or a term holding 0, adds nothing to an upward closed sum; so by
the argument above both carriers give one list.  ``history_transformers``
gives up (None) on a `[]` (a meet, not a sum), on a truncated loop, and on
a sum of more histories than its context has states.  So each compiled
loop's list empties within the budget, ``wpl``'s later terms are zero, and
a compiled part never truncates.  Only the loss walk counts ``wpl_clauses``.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import groupby, repeat
from typing import Callable, Dict, NamedTuple, Optional, Tuple, Union

from .contexts import EMPTY, VarContext
from .kernels import Transformer
from .losses import LossFunction, is_zero_loss, loss_add, loss_canonicalize, loss_map, loss_min
from .predicates import Predicate
from .syntax import KERNEL_STMTS, If, NonDet, Print, Program, Stmt, While
from .typecheck import classify_choiceless

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
        raise ValueError(f"post loss context [{post.ctx.pretty()}] does not match "
                         f"program post context [{expected.pretty()}]")
    statuses: Dict[str, LoopStatus] = {}
    pre = _walk(_segments(program, extension), loss_canonicalize(post), _LOSSES,
                extension, loop_budget, statuses)
    return WplResult(pre, statuses)


def _working(ctx: VarContext, z: VarContext) -> VarContext:
    return ctx.merge(z) if len(z.vars) else ctx


class _Run(NamedTuple):
    """A maximal run of ``length`` kernel statements, as one transformer."""

    length: int
    tf: Transformer


def _segments(prog: Program, z: VarContext) -> Tuple[Union[_Run, Stmt], ...]:
    """The program's statements in order, each maximal run of
    ``KERNEL_STMTS`` replaced by its ``_Run``; kept on the program per
    extension."""
    def build():
        segments = []
        for linear, group in groupby(prog.stmts, lambda s: isinstance(s, KERNEL_STMTS)):
            group = tuple(group)
            if linear:
                segments.append(_Run(len(group), linear_transformer(Program(group), z)))
            else:
                segments.extend(group)
        return tuple(segments)

    return prog.meta.derived(("segments", z), build)


def _kernel_tf(s: Stmt, z: VarContext) -> Transformer:
    """The dual of the statement's kernel, tensored with the identity on ``z``.

    With no variables in ``z`` that is the dual itself, as in ``_working``.
    Kept on the statement per extension: every ``wpl`` run over the same
    statement gets the same transformer, so its rows and ELLPACK plan are
    built once, and equal kernels are never compared.
    """
    return s.meta.derived(("tf", z), lambda: s.meta.kernel.dual().tensor(Transformer.identity(z))
                          if len(z.vars) else s.meta.kernel.dual())


def _columns(s: Stmt, z: VarContext) -> Tuple[Transformer, ...]:
    """Each kernel column's diagonal transformer, the column read over the
    statement's pre context extended by ``z``; kept on it per extension."""
    def build():
        k, working = s.meta.kernel, _working(s.meta.pre, z)
        return tuple(Transformer.diagonal(Predicate.from_ints(k.src, k.den, c).extend_to(working))
                     for c in k.columns)

    return s.meta.derived(("columns", z), build)


def _loop_body(s: While, z: VarContext) -> Tuple[Union[_Run, Stmt], ...]:
    """The segments of g * body: the body's, with the diagonal transformer
    of the guard's column g composed into its first run, or put before the
    body as a run of no statements; kept on the loop per extension."""
    def build():
        diag = _columns(s, z)[0]
        segments = _segments(s.body, z)
        if segments and isinstance(segments[0], _Run):
            head, segments = segments[0], segments[1:]
            return (_Run(head.length, diag.compose(head.tf)),) + segments
        return (_Run(0, diag),) + segments

    return s.meta.derived(("body", z), build)


class _Carrier(NamedTuple):
    """What the walk carries, and the rules' operations on it: every rule
    but a choice's maps by transformers and adds."""

    counted: bool  # whether the walk counts ``wpl_clauses``
    map: Callable  # (transformer of a run or a column's diagonal, value)
    add: Callable
    meet: Callable
    is_empty: Callable


# One loss.  Each operation reads the module's bindings when called.
_LOSSES = _Carrier(
    counted=True,
    map=lambda tf, E: loss_map(tf, E),
    add=lambda E1, E2: loss_add(E1, E2),
    meet=lambda E1, E2: loss_min(E1, E2),
    is_empty=lambda E: is_zero_loss(E),
)


class _GiveUp(Exception):
    """A meet, or more histories than states: ``history_transformers`` gives up."""


def _give_up(*_):
    raise _GiveUp


def _then(f: Transformer, ms: Tuple[Transformer, ...]) -> Tuple[Transformer, ...]:
    """f before each history, zero products dropped."""
    return tuple(m for m in (f.compose(m) for m in ms) if any(m.nums))


def _join(ms1, ms2):
    ms = ms1 + ms2
    return _give_up() if ms and len(ms) > ms[0].src.n_states else ms


# A tuple of nonzero history transformers M_h.
_HISTORIES = _Carrier(
    counted=False,
    map=_then,
    add=_join,
    meet=_give_up,
    is_empty=lambda ms: not ms,
)


def _walk(segments, x, c: _Carrier, z, budget, statuses):
    """The segments' rules, last to first, on ``x`` with carrier ``c``."""
    for s in reversed(segments):
        x = _stmt(s, x, c, z, budget, statuses)
    return x


def _stmt(s: Union[_Run, Stmt], x, c: _Carrier, z, budget, statuses):
    if isinstance(s, _Run):
        counters["wpl_clauses"] += c.counted * s.length  # source statements, not maps
        return c.map(s.tf, x)
    counters["wpl_clauses"] += c.counted
    if isinstance(s, NonDet):
        return c.meet(_walk(_segments(s.left, z), x, c, z, budget, statuses),
                      _walk(_segments(s.right, z), x, c, z, budget, statuses))
    if isinstance(s, (Print, If)):
        branches = repeat(x) if isinstance(s, Print) else (
            _walk(_segments(b, z), x, c, z, budget, statuses) for b in (s.then, s.orelse))
        return reduce(c.add, map(c.map, _columns(s, z), branches))
    if isinstance(s, While):
        return _while(s, x, c, z, budget, statuses)
    raise ValueError(f"cannot evaluate statement {s!r}")


def _while(s: While, x, c: _Carrier, z, budget, statuses):
    """The loop's term sum (module docstring), ``budget`` terms at most."""
    body = _loop_body(s, z)
    term = total = c.map(_columns(s, z)[1], x)
    n = 0
    while not c.is_empty(term):
        if n >= budget:
            status = LoopStatus("truncated", budget)
            break
        term = _walk(body, term, c, z, budget, statuses)
        total = c.add(total, term)
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
        if not classify_choiceless(prog):
            return None
        statuses: Dict[str, LoopStatus] = {}
        identity = Transformer.identity(_working(prog.meta.post, z))
        try:
            ms = _walk(_segments(prog, z), (identity,), _HISTORIES, z, budget, statuses)
        except _GiveUp:
            return None
        return ms if all(s.kind == "converged" for s in statuses.values()) else None

    return prog.meta.derived(("histories", z, budget), build)


def linear_transformer(prog: Program, z: VarContext = EMPTY) -> Optional[Transformer]:
    """Compose a straight-line hidden+choiceless program into one matrix.

    Returns None when the program contains control flow, prints or
    nondeterminism; otherwise the composite transformer equals the
    program's weakest pre-loss action on every generator.
    """
    acc: Optional[Transformer] = None
    for s in prog.stmts:
        if not isinstance(s, KERNEL_STMTS):
            return None
        t = _kernel_tf(s, z)
        acc = t if acc is None else acc.compose(t)
    return Transformer.identity(_working(prog.meta.pre, z)) if acc is None else acc
