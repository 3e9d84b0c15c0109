"""The weakest pre-loss evaluator.

Structural recursion over typechecked programs: each construct maps a loss
function over its post context (extended by a correlated context Z) to one
over its pre context (extended likewise).  A statement of
``syntax.KERNEL_STMTS`` (assignment, declaration, discard, assertion) maps
each generator through one transformer: the dual of the statement's kernel,
tensored with the identity on Z (``_kernel_tf``).  ``wpl`` does a discard
directly: it extends each generator to the dropped variable, as that
transformer would (``LossFunction.extend_to``).  A straight-line program
of them is the product of its statements' transformers
(``linear_transformer``), but ``wpl`` does not use that product: it runs
every statement on its own, loop bodies included.  A `print`, `if` or
`while` shows a value through its kernel's columns, and one rule
(``_observe``) sums, over the columns, the column times the loss its value
leads to; ``loss_add`` keeps such a sum as blocks, and every later
statement maps it block by block.
Loops are evaluated by the term recurrence

    term_0    = !g * E
    term_n+1  = g * wpl(body, term_n)

summing the terms until one is exactly the zero loss (then all later terms
vanish by homogeneity at zero and the sum is the least fixed point) or a
budget is hit; truncation is always surfaced as an under-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import repeat
from typing import Dict, Iterable, Optional, Tuple

from .contexts import EMPTY, VarContext
from .kernels import Transformer
from .losses import (
    LossFunction, is_zero_loss, loss_add, loss_canonicalize, loss_conj,
    loss_map, loss_min, zero_loss,
)
from .predicates import Predicate
from .syntax import KERNEL_STMTS, Abort, If, NonDet, Print, Program, Skip, Stmt, Unvar, While

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


def _wpl_program(prog: Program, E: LossFunction, z, budget, statuses) -> LossFunction:
    for s in reversed(prog.stmts):
        E = _wpl_stmt(s, E, z, budget, statuses)
    return E


def _wpl_stmt(s: Stmt, E: LossFunction, z, budget, statuses) -> LossFunction:
    counters["wpl_clauses"] += 1
    if isinstance(s, Skip):
        return E
    if isinstance(s, Abort):
        return zero_loss(_working(s.meta.pre, z))
    if isinstance(s, Unvar):
        return E.extend_to(_working(s.meta.pre, z))
    if isinstance(s, KERNEL_STMTS):
        return loss_map(_kernel_tf(s, z), E)
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


def _wpl_while(s: While, E: LossFunction, z, budget, statuses) -> LossFunction:
    """Sum the loop's terms term_0 = !g * E, term_n+1 = g * wpl(body, term_n),
    evaluating the body clause by clause with ``budget`` for its loops."""
    g, not_g = _columns(s, z)
    term = total = loss_conj(not_g, E)
    n = 0
    while not is_zero_loss(term):
        if n >= budget:
            status = LoopStatus("truncated", budget)
            break
        term = loss_conj(g, _wpl_program(s.body, term, z, budget, statuses))
        total = loss_add(total, term)
        n += 1
    else:
        status = LoopStatus("converged", n)
    label = s.meta.label
    statuses[label] = status if label not in statuses else statuses[label].merge(status)
    return total


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
