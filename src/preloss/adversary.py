"""Independent forward semantics for loop-free programs.

Executes a program over observation-history branches: kernels push the
posterior forward without splitting, prints split per observed value, and
conditionals split per branch (control flow is visible).  The resolver's
strategy picks a side at each nondeterminism site per history; the optimal
(Bayes) risk minimizes the final expected loss over all strategies.

Distinct live branches always carry distinct histories, so the global
minimum decomposes into independent per-history choices; the exhaustive
mode re-derives the same value by enumerating whole strategy maps, as an
audit of that decomposition.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .contexts import VarContext
from .losses import LossFunction
from .scalars import ZERO, Scalar
from .syntax import (
    Abort, Assert, Assign, HidVar, If, NonDet, Print, Program, Skip, Stmt,
    Unvar, While, walk,
)


class StrategyError(ValueError):
    pass


class LoopFreeError(ValueError):
    pass


@dataclass(frozen=True)
class Branch:
    history: tuple
    mass: Fraction
    ctx: VarContext
    posterior: Tuple[Fraction, ...]  # normalized over ctx states


_SITE_KINDS = {Print: "pr", If: "if", NonDet: "nd"}


def label_sites(prog: Program) -> Program:
    """Assign stable preorder labels to print/if/nondet sites."""
    n = 0
    for s in walk(prog):
        kind = _SITE_KINDS.get(type(s))
        if kind is not None:
            s.meta.label = f"{kind}#{n}"
            n += 1
        elif isinstance(s, While):
            raise LoopFreeError("the forward oracle handles loop-free programs only")
    return prog


def _require_ready(prog: Program, prior: Sequence[Fraction]):
    if prog.meta.pre is None:
        raise ValueError("program must be typechecked first")
    if len(prior) != prog.meta.pre.n_states:
        raise ValueError("prior length mismatch")
    if any(w < 0 for w in prior) or sum(prior) != 1:
        raise ValueError("prior must be a total distribution")
    label_sites(prog)


def _push(s: Stmt, mu: List[Fraction]) -> List[Fraction]:
    """Forward image of a sub-distribution under a non-splitting statement."""
    if isinstance(s, (Skip,)):
        return mu
    if isinstance(s, Assign):
        k = s.meta.kernel
        out = [Fraction(0)] * k.dst.n_states
        for i, w in enumerate(mu):
            if w:
                for j, p in k.rows[i]:
                    out[j] += w * p
        return out
    if isinstance(s, HidVar):
        k = s.meta.kernel
        d = k.dst.n_states
        out = [Fraction(0)] * (len(mu) * d)
        for y, w in enumerate(mu):
            if w:
                for x, p in k.rows[y]:
                    out[y * d + x] += w * p
        return out
    if isinstance(s, Unvar):
        pre, post = s.meta.pre, s.meta.post
        positions = [pre.position_of(n) for n in post.names]
        out = [Fraction(0)] * post.n_states
        for i, w in enumerate(mu):
            if w:
                state = pre.state(i)
                out[post.index_of(tuple(state[p] for p in positions))] += w
        return out
    if isinstance(s, Assert):
        g = s.meta.guard
        return [w * Fraction(g.entries[i]) if w else w for i, w in enumerate(mu)]
    raise ValueError(f"not a kernel statement: {s!r}")


Cont = Tuple[Stmt, ...]
Key = Tuple[tuple, str]
# A finished branch's value, from its history and its sub-distribution.
Leaf = Callable[[tuple, List[Fraction]], Scalar]
# A `[]` site's value, from its (history, site) key and thunks walking each side.
Choose = Callable[[Key, Callable[[], Scalar], Callable[[], Scalar]], Scalar]


def _walk(cont: Cont, mu: List[Fraction], history: tuple, leaf: Leaf, choose: Choose) -> Scalar:
    """Fold over the observation-history branches of ``cont`` run from ``mu``.

    Kernels push ``mu`` forward, prints split it per observed value and
    conditionals per branch; each split is recorded in the history and its
    parts are added.  Zero-mass branches and ``abort`` are worth ZERO.  A
    run of kernel statements is pushed in a loop, so only splits recurse.
    """
    i = 0
    while any(mu):
        if i == len(cont):
            return leaf(history, mu)
        s = cont[i]
        if not isinstance(s, (Skip, Assign, HidVar, Unvar, Assert)):
            break
        mu = _push(s, mu)
        i += 1
    else:
        return ZERO
    rest = cont[i + 1:]
    if isinstance(s, Abort):
        return ZERO
    if isinstance(s, Print):
        obs = s.meta.obs
        total: Scalar = ZERO
        for w_idx, value in enumerate(obs.values):
            split = [Fraction(0)] * len(mu)
            for i, w in enumerate(mu):
                if w:
                    for idx, p in obs.rows[i]:
                        if idx == w_idx:
                            split[i] += w * p
            total = total + _walk(rest, split, history + (("print", s.meta.label, value),),
                                  leaf, choose)
        return total
    if isinstance(s, If):
        g = s.meta.guard
        mu_t = [w * Fraction(g.entries[i]) for i, w in enumerate(mu)]
        mu_f = [w - t for w, t in zip(mu, mu_t)]
        return (
            _walk(s.then.stmts + rest, mu_t, history + (("branch", s.meta.label, True),),
                  leaf, choose)
            + _walk(s.orelse.stmts + rest, mu_f, history + (("branch", s.meta.label, False),),
                    leaf, choose)
        )
    if isinstance(s, NonDet):
        return choose((history, s.meta.label),
                      lambda: _walk(s.left.stmts + rest, mu, history, leaf, choose),
                      lambda: _walk(s.right.stmts + rest, mu, history, leaf, choose))
    raise LoopFreeError(f"unsupported statement in the oracle: {s!r}")


def min_bayes_risk(prog: Program, prior: Sequence[Fraction], loss: LossFunction) -> Scalar:
    """Optimal resolver's expected loss, by per-history greedy choice."""
    _require_ready(prog, prior)
    if loss.ctx != prog.meta.post:
        raise ValueError("loss context must match the program's post context")
    return _walk(prog.stmts, list(prior), (),
                 lambda history, mu: _final_risk(mu, loss),
                 lambda key, left, right: min(left(), right()))


def _final_risk(mu: List[Fraction], loss: LossFunction) -> Scalar:
    best: Optional[Scalar] = None
    for g in loss.gens:
        total: Scalar = ZERO
        for e, w in zip(g.entries, mu):
            if w:
                total = total + e * w
        if best is None or total < best:
            best = total
    return best


# ------------------------------------------------------------ run_strategy

def run_strategy(prog: Program, prior: Sequence[Fraction], strategy: Dict) -> List[Branch]:
    """Execute under an explicit (history, site) -> 'left'|'right' strategy."""
    _require_ready(prog, prior)
    done: List[Branch] = []

    def leaf(history, mu):
        total = sum(mu)
        done.append(Branch(history, total, prog.meta.post, tuple(w / total for w in mu)))
        return ZERO

    def choose(key, left, right):
        if key not in strategy:
            raise StrategyError(f"strategy undefined at {key}")
        side = strategy[key]
        if side not in ("left", "right"):
            raise StrategyError(f"strategy value {side!r} at {key}")
        return left() if side == "left" else right()

    _walk(prog.stmts, list(prior), (), leaf, choose)
    return done


# --------------------------------------------------------------- exhaustive

def choice_points(prog: Program, prior: Sequence[Fraction]) -> List[Key]:
    """All (history, site) pairs reachable under any strategy."""
    _require_ready(prog, prior)
    found: Dict[Key, None] = {}

    def choose(key, left, right):
        found.setdefault(key)
        return left() + right()

    _walk(prog.stmts, list(prior), (), lambda history, mu: ZERO, choose)
    return list(found)


def min_bayes_risk_exhaustive(
    prog: Program, prior: Sequence[Fraction], loss: LossFunction, cap: int = 14
) -> Scalar:
    """Minimum risk over explicitly enumerated whole strategies."""
    points = choice_points(prog, prior)
    if len(points) > cap:
        raise ValueError(f"{len(points)} choice points exceed the exhaustive cap {cap}")
    best: Optional[Scalar] = None
    for sides in itertools.product(("left", "right"), repeat=len(points)):
        strategy = dict(zip(points, sides))
        total: Scalar = ZERO
        for b in run_strategy(prog, prior, strategy):
            contribution = _final_risk([w * b.mass for w in b.posterior], loss)
            total = total + contribution
        if best is None or total < best:
            best = total
    return best
