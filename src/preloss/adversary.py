"""Independent forward semantics for loop-free programs.

Executes a program over observation-history branches: kernels push the
posterior forward without splitting, and prints and conditionals split it
per shown value (control flow is visible: a conditional shows its guard).
The resolver's strategy picks a side at each nondeterminism site per
history; the optimal (Bayes) risk minimizes the final expected loss over
all strategies.

Distinct live branches always carry distinct histories, so the global
minimum decomposes into independent per-history choices; the exhaustive
mode re-derives the same value by enumerating whole strategy maps, as an
audit of that decomposition.

The walk runs on integers: a sub-distribution is a list of numerators over
one denominator.  A statement of ``syntax.KERNEL_STMTS`` (every statement
but a choice, `print`, `if` and `while`) pushes it through its kernel
(``Kernel.nums``, from the pre to the post context): `skip`'s is the
identity and `abort`'s is zero.  A print or conditional splits it by the
columns of its kernel (``Kernel.columns``), one channel from the pre
context to the values shown: a conditional's columns are its guard and the
complement.  ``Fraction``s are built only at the edges: a branch's final
risk, and ``Branch.mass`` and ``posterior``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
from operator import mul
from typing import Callable, Dict, List, Optional, Sequence, Tuple

from .contexts import VarContext
from .losses import LossFunction
from .predicates import INF_NUM
from .scalars import INF, ZERO, Scalar
from .syntax import KERNEL_STMTS, If, NonDet, Print, Program, Stmt, While, walk


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


def _require_ready(prog: Program, prior: Sequence[Fraction]) -> Tuple[List[int], int]:
    """Check the program and prior; returns the prior as integer numerators
    over one denominator.  Typechecking labels the sites."""
    if prog.meta.pre is None:
        raise ValueError("program must be typechecked first")
    if len(prior) != prog.meta.pre.n_states:
        raise ValueError("prior length mismatch")
    if any(w < 0 for w in prior) or sum(prior) != 1:
        raise ValueError("prior must be a total distribution")
    if prog.meta.derived("loops", lambda: any(type(s) is While for s in walk(prog))):
        raise LoopFreeError("the forward oracle handles loop-free programs only")
    den = lcm(*(w.denominator for w in prior))
    return [w.numerator * (den // w.denominator) for w in prior], den


# A sub-distribution is a list of integer numerators over one denominator
# ``den``: each step multiplies by integer kernel, guard or observation
# weights and by their denominator.  Past ``_REDUCE_ABOVE`` the form is
# reduced, so long runs of random steps keep small integers.
_REDUCE_ABOVE = 1 << 64


def _reduce(nums: List[int], den: int) -> Tuple[List[int], int]:
    g = gcd(den, *nums)
    return ([w // g for w in nums], den // g) if g > 1 else (nums, den)


def _push(s: Stmt, nums: List[int], den: int) -> Tuple[List[int], int]:
    """Forward image of a sub-distribution under a kernel statement."""
    k = s.meta.kernel
    out = [0] * k.dst.n_states
    for w, row in zip(nums, k.nums):
        if w:
            for j, p in row:
                out[j] += w * p
    return out, den * k.den


Cont = Tuple[Stmt, ...]
Key = Tuple[tuple, str]
# A finished branch's value, from its history and its sub-distribution.
Leaf = Callable[[tuple, List[int], int], Scalar]
# A `[]` site's value, from its (history, site) key and thunks walking each side.
Choose = Callable[[Key, Callable[[], Scalar], Callable[[], Scalar]], Scalar]


def _walk(cont: Cont, nums: List[int], den: int, history: tuple,
          leaf: Leaf, choose: Choose) -> Scalar:
    """Fold over the observation-history branches of ``cont`` run from ``nums / den``.

    Kernels push the sub-distribution forward; prints and conditionals split
    it by their kernel's columns, a conditional going on into the branch of
    each column.  Each split is recorded in the history and its parts are
    added.  A branch whose mass is zero, as ``abort``'s zero kernel leaves
    it, is worth ZERO.  Kernel statements, and splits that leave mass on one
    part only, continue in the loop, so only splits into two or more parts
    and choices recurse.
    """
    i = 0
    while any(nums):
        if i == len(cont):
            return leaf(history, nums, den)
        s = cont[i]
        i += 1
        if isinstance(s, KERNEL_STMTS):
            nums, den = _push(s, nums, den)
        elif isinstance(s, (If, Print)):
            # An `if` goes on into `then` on column 0 (its guard) and into
            # `else` on column 1; a print goes on with the rest.
            k = s.meta.kernel
            kind, branches = (("branch", (s.then.stmts, s.orelse.stmts)) if type(s) is If
                              else ("print", itertools.repeat(())))
            parts = []
            for value, column, branch in zip(k.dst.vars[0][1], k.columns, branches):
                part = list(map(mul, nums, column))
                if any(part):
                    parts.append(((kind, s.meta.label, value), part, branch))
            den *= k.den
            if len(parts) != 1:
                rest = cont[i:]
                total: Scalar = ZERO
                for step, part, branch in parts:
                    total = total + _walk(branch + rest, part, den, history + (step,),
                                          leaf, choose)
                return total
            [(step, nums, branch)] = parts
            history += (step,)
            if branch:
                cont, i = branch + cont[i:], 0
        elif isinstance(s, NonDet):
            rest = cont[i:]
            return choose((history, s.meta.label),
                          lambda: _walk(s.left.stmts + rest, nums, den, history, leaf, choose),
                          lambda: _walk(s.right.stmts + rest, nums, den, history, leaf, choose))
        else:
            raise LoopFreeError(f"unsupported statement in the oracle: {s!r}")
        if den > _REDUCE_ABOVE:
            nums, den = _reduce(nums, den)
    return ZERO


def _final_risk(nums: List[int], den: int, loss: LossFunction) -> Scalar:
    """The least expected loss of a generator on ``nums / den``; INF_NUM stands for INF."""
    best: Optional[Tuple[int, int]] = None
    for g in loss.gens:
        gn = g.nums
        if INF_NUM in gn and any(w and e == INF_NUM for e, w in zip(gn, nums)):
            total = INF_NUM
        else:
            # An INF entry at a state of weight 0 adds INF_NUM * 0 = 0.
            total = sum(map(mul, gn, nums))
        if best is None or (total != INF_NUM
                            and (best[0] == INF_NUM or total * best[1] < best[0] * g.den)):
            best = total, g.den
    total, gden = best
    return INF if total == INF_NUM else Fraction(total, gden * den)


def min_bayes_risk(prog: Program, prior: Sequence[Fraction], loss: LossFunction) -> Scalar:
    """Optimal resolver's expected loss, by per-history greedy choice."""
    nums, den = _require_ready(prog, prior)
    if loss.ctx != prog.meta.post:
        raise ValueError("loss context must match the program's post context")
    return _walk(prog.stmts, nums, den, (),
                 lambda history, nums, den: _final_risk(nums, den, loss),
                 lambda key, left, right: min(left(), right()))


# ------------------------------------------------------------ run_strategy

def _follow(strategy: Dict) -> Choose:
    """Take the side that ``strategy`` names at each (history, site) key."""
    def choose(key, left, right):
        if key not in strategy:
            raise StrategyError(f"strategy undefined at {key}")
        side = strategy[key]
        if side not in ("left", "right"):
            raise StrategyError(f"strategy value {side!r} at {key}")
        return left() if side == "left" else right()

    return choose


def run_strategy(prog: Program, prior: Sequence[Fraction], strategy: Dict) -> List[Branch]:
    """Execute under an explicit (history, site) -> 'left'|'right' strategy."""
    nums, den = _require_ready(prog, prior)
    done: List[Branch] = []

    def leaf(history, nums, den):
        total = sum(nums)
        done.append(Branch(history, Fraction(total, den), prog.meta.post,
                           tuple(Fraction(w, total) for w in nums)))
        return ZERO

    _walk(prog.stmts, nums, den, (), leaf, _follow(strategy))
    return done


# --------------------------------------------------------------- exhaustive

def choice_points(prog: Program, prior: Sequence[Fraction]) -> List[Key]:
    """All (history, site) pairs reachable under any strategy."""
    nums, den = _require_ready(prog, prior)
    found: Dict[Key, None] = {}

    def choose(key, left, right):
        found.setdefault(key)
        return left() + right()

    _walk(prog.stmts, nums, den, (), lambda history, nums, den: ZERO, choose)
    return list(found)


def min_bayes_risk_exhaustive(
    prog: Program, prior: Sequence[Fraction], loss: LossFunction, cap: int = 14
) -> Scalar:
    """Minimum risk over explicitly enumerated whole strategies.

    Each strategy's risk sums the final risk of every branch it runs to, as
    ``run_strategy`` would list them.
    """
    points = choice_points(prog, prior)
    if len(points) > cap:
        raise ValueError(f"{len(points)} choice points exceed the exhaustive cap {cap}")
    nums, den = _require_ready(prog, prior)
    best: Optional[Scalar] = None
    for sides in itertools.product(("left", "right"), repeat=len(points)):
        total = _walk(prog.stmts, nums, den, (),
                      lambda history, nums, den: _final_risk(nums, den, loss),
                      _follow(dict(zip(points, sides))))
        if best is None or total < best:
            best = total
    return best
