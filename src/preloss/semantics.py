"""The weakest pre-loss evaluator.

Structural recursion over typechecked programs: each construct maps a loss
function over its post context (extended by a correlated context Z) to one
over its pre context (extended likewise).  Loops are evaluated by the term
recurrence

    term_0    = !g * E
    term_n+1  = g * wpl(body, term_n)

summing the terms until one is exactly the zero loss (then all later terms
vanish by homogeneity at zero and the sum is the least fixed point) or a
budget is hit; truncation is always surfaced as an under-approximation.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, islice
from typing import Dict, Iterator, Optional, Tuple

from .contexts import EMPTY, VarContext
from .kernels import Kernel, Transformer
from .losses import (
    LossFunction, is_zero_loss, loss_add, loss_canonicalize, loss_conj,
    loss_map, loss_min, zero_loss,
)
from .predicates import Predicate
from .syntax import (
    Abort, Assert, Assign, HidVar, If, NonDet, Print, Program, Skip, Stmt,
    Unvar, While,
)

counters = {"wpl_clauses": 0}


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
    loop_budget: int = 64,
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
    if isinstance(s, Assign):
        return loss_map(_assign_tf(s.meta.kernel, z), E)
    if isinstance(s, HidVar):
        return loss_map(_hidvar_tf(s, z), E)
    if isinstance(s, Unvar):
        working = _working(s.meta.pre, z)
        gens = tuple(g.extend_to(working) for g in E.gens)
        return LossFunction(working, gens, canonical=E.canonical)
    if isinstance(s, Assert):
        g = s.meta.guard.extend_to(_working(s.meta.pre, z))
        return loss_conj(g, E)
    if isinstance(s, If):
        working = _working(s.meta.pre, z)
        g = s.meta.guard.extend_to(working)
        not_g = s.meta.guard.complement().extend_to(working)
        left = loss_conj(g, _wpl_program(s.then, E, z, budget, statuses))
        right = loss_conj(not_g, _wpl_program(s.orelse, E, z, budget, statuses))
        return loss_add(left, right)
    if isinstance(s, NonDet):
        return loss_min(
            _wpl_program(s.left, E, z, budget, statuses),
            _wpl_program(s.right, E, z, budget, statuses),
        )
    if isinstance(s, Print):
        return _wpl_print(s, E, z)
    if isinstance(s, While):
        return _wpl_while(s, E, z, budget, statuses)
    raise ValueError(f"cannot evaluate statement {s!r}")


@lru_cache(maxsize=32)
def _assign_tf(kernel: Kernel, z: VarContext) -> Transformer:
    """f-dual tensored with the identity on the extension.

    Cached, like ``_declare_tf``: every ``wpl`` run over the same statement
    gets the same transformer, so its integer rows are built once.
    """
    if not len(z.vars):
        return kernel.dual()
    zn = z.n_states
    src = kernel.src.merge(z)
    rows = []
    for row in kernel.rows:
        for zi in range(zn):
            rows.append({j * zn + zi: w for j, w in row})
    return Transformer.from_rows(src, src, rows)


def _hidvar_tf(s: HidVar, z: VarContext) -> Transformer:
    """Declaration clause: e'(y, z) = sum_x f(y)(x) e(y, x, z).

    Equals (diagonal-copy dual . (id (x) f-dual)) (x) id_Z; built directly
    because the new variable sits between the program variables and the
    extension in the working order.
    """
    return _declare_tf(s.meta.kernel, _working(s.meta.pre, z), _working(s.meta.post, z), z)


@lru_cache(maxsize=32)
def _declare_tf(kernel: Kernel, src: VarContext, dst: VarContext, z: VarContext) -> Transformer:
    """The matrix of ``_hidvar_tf``, cached per kernel and contexts."""
    d = kernel.dst.n_states
    zn = z.n_states
    rows = []
    for y in range(kernel.src.n_states):
        base = kernel.rows[y]
        for zi in range(zn):
            rows.append({(y * d + x) * zn + zi: w for x, w in base})
    return Transformer.from_rows(src, dst, rows)


def _wpl_print(s: Print, E: LossFunction, z) -> LossFunction:
    working = _working(s.meta.pre, z)
    obs = s.meta.obs
    n = s.meta.pre.n_states
    total: Optional[LossFunction] = None
    for w_idx in range(len(obs.values)):
        entries = [Fraction(0)] * n
        for state, row in enumerate(obs.rows):
            for idx, weight in row:
                if idx == w_idx:
                    entries[state] += weight
        p = Predicate(s.meta.pre, tuple(entries))
        if p.is_zero:
            continue
        term = loss_conj(p.extend_to(working), E)
        total = term if total is None else loss_add(total, term)
    if total is None:
        return zero_loss(working)
    return total


def _loop_terms(s: While, E: LossFunction, z, budget, statuses) -> Iterator[LossFunction]:
    """The loop's terms term_0 = !g * E, term_n+1 = g * wpl(body, term_n), without end.

    A straight-line body is applied as one matrix (``linear_transformer``);
    any other body is evaluated clause by clause with ``budget`` for its loops.
    """
    working = _working(s.meta.pre, z)
    g = s.meta.guard.extend_to(working)
    not_g = s.meta.guard.complement().extend_to(working)
    body_tf = linear_transformer(s.body, z)
    term = loss_conj(not_g, E)
    while True:
        yield term
        if body_tf is not None:
            inner = loss_map(body_tf, term)
        else:
            inner = _wpl_program(s.body, term, z, budget, statuses)
        term = loss_conj(g, inner)


def _wpl_while(s: While, E: LossFunction, z, budget, statuses) -> LossFunction:
    total: Optional[LossFunction] = None
    for n, term in enumerate(_loop_terms(s, E, z, budget, statuses)):
        total = term if total is None else loss_add(total, term)
        if is_zero_loss(term):
            status = LoopStatus("converged", n)
            break
        if n >= budget:
            status = LoopStatus("truncated", budget)
            break
    label = s.meta.label or "while"
    statuses[label] = status if label not in statuses else statuses[label].merge(status)
    return total


def while_partial_sums(
    s: While, E: LossFunction, z: VarContext, n_terms: int
) -> Tuple[LossFunction, ...]:
    """Partial sums S_0..S_N of the loop term recurrence (for N = n_terms).

    S_N sums terms 0..N; each S_N under-approximates the loop's true
    weakest pre-loss and the sequence is increasing in the refinement
    order.  Loops nested in the body get a budget of 64.
    """
    terms = _loop_terms(s, E, z, 64, {})
    return tuple(accumulate(islice(terms, n_terms + 1), loss_add))


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
        if isinstance(s, Assign):
            t = _assign_tf(s.meta.kernel, z)
        elif isinstance(s, HidVar):
            t = _hidvar_tf(s, z)
        elif isinstance(s, Unvar):
            t = _unvar_tf(s, z)
        elif isinstance(s, Assert):
            working = _working(s.meta.pre, z)
            guard = s.meta.guard.extend_to(working)
            rows = [({i: guard.entries[i]} if guard.entries[i] != 0 else {})
                    for i in range(working.n_states)]
            t = Transformer.from_rows(working, working, rows)
        else:
            return None
        acc = t if acc is None else acc.compose(t)
    if acc is None:
        ctx = _working(prog.meta.pre, z)
        return Transformer.identity(ctx)
    return acc


def _unvar_tf(s: Unvar, z: VarContext) -> Transformer:
    """Dual of the deterministic discard: cylinder extension of predicates."""
    pre_w = _working(s.meta.pre, z)
    post_w = _working(s.meta.post, z)
    rows = [{j: Fraction(1)} for j in post_w.projection(pre_w)]
    return Transformer.from_rows(pre_w, post_w, rows)
