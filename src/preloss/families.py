"""Finite test families standing in for "all post losses" in refinement checks.

A family is a deterministic battery (singleton indicators, the all-ones
predicate, complements, small subset indicators), a fixed table of witness
losses known to separate the bundled examples, and seeded random losses.
A Fails verdict against any member is final; Holds is always relative to
the family.
"""

from __future__ import annotations

import itertools
import math
import random
from dataclasses import dataclass, replace
from typing import Callable, List, Tuple

from .contexts import State, VarContext
from .losses import LossFunction, embed, loss_canonicalize
from .predicates import Predicate


# Most subset indicators and random losses one family may hold.
SUBSET_CAP = 4096
RANDOM_CAP = 10000


class FamilyCapError(ValueError):
    """More subset indicators than ``SUBSET_CAP``: a limit of the context's size."""


@dataclass(frozen=True)
class FamilyOptions:
    max_subset: int = 2
    random: int = 20
    seed: int = 0
    witnesses: bool = True
    extra: Tuple[LossFunction, ...] = ()

    @staticmethod
    def parse(spec: str) -> "FamilyOptions":
        """Parse 'k=2,random=50,seed=7,witnesses=off'."""
        opts = FamilyOptions()
        if not spec.strip():
            return opts
        for part in spec.split(","):
            key, _, value = part.partition("=")
            key = key.strip()
            value = value.strip()
            if key in ("k", "max_subset"):
                opts = replace(opts, max_subset=_int_option(key, value, nonnegative=True))
            elif key == "random":
                opts = replace(opts, random=_int_option(key, value, nonnegative=True))
            elif key == "seed":
                opts = replace(opts, seed=_int_option(key, value, nonnegative=False))
            elif key == "witnesses":
                if value not in _SWITCHES:
                    raise ValueError(f"family option 'witnesses' needs one of "
                                     f"on/off/1/0/true/false, got {value!r}")
                opts = replace(opts, witnesses=_SWITCHES[value])
            else:
                raise ValueError(f"unknown family option {key!r}")
        return opts


_SWITCHES = {"on": True, "1": True, "true": True, "off": False, "0": False, "false": False}


def _int_option(key: str, value: str, nonnegative: bool) -> int:
    try:
        n = int(value)
    except ValueError:
        n = None
    if n is None or (nonnegative and n < 0):
        kind = "a nonnegative integer" if nonnegative else "an integer"
        raise ValueError(f"family option {key!r} needs {kind}, got {value!r}")
    return n


@dataclass(frozen=True)
class TestFamily:
    ctx: VarContext
    entries: Tuple[Tuple[LossFunction, str], ...]  # (loss, provenance)

    __test__ = False  # not a pytest suite, despite the name

    def __post_init__(self):
        if not self.entries:
            raise ValueError("test family may not be empty")
        for loss, _ in self.entries:
            if loss.ctx != self.ctx:
                raise ValueError("family entries must share one context")

    def __len__(self) -> int:
        return len(self.entries)


def _guess_state_loss(ctx: VarContext) -> LossFunction:
    gens = tuple(Predicate.unit(ctx, s) for s in ctx.states())
    return loss_canonicalize(LossFunction(ctx, gens))


def standard_family(ctx: VarContext, opts: FamilyOptions = FamilyOptions()) -> TestFamily:
    n = ctx.n_states
    entries: List[Tuple[LossFunction, str]] = []
    seen = set()

    def push(loss: LossFunction, provenance: str):
        loss = loss_canonicalize(loss)
        key = frozenset((g.den, g.nums) for g in loss.gens)
        if key in seen:
            return
        seen.add(key)
        entries.append((loss, provenance))

    units = [Predicate.unit(ctx, s) for s in ctx.states()]
    for u in units:
        push(embed(u), "builtin")
    push(embed(Predicate.ones(ctx)), "builtin")
    for u in units:
        push(embed(u.complement()), "builtin")

    subset_total = sum(
        math.comb(n, size) for size in range(2, min(opts.max_subset, n) + 1)
    )
    if subset_total > SUBSET_CAP:
        raise FamilyCapError(f"{subset_total} subset indicators exceed the cap {SUBSET_CAP}")
    for size in range(2, min(opts.max_subset, n) + 1):
        for combo in itertools.combinations(range(n), size):
            pred = units[combo[0]]
            for i in combo[1:]:
                pred = pred + units[i]
            push(embed(pred), "builtin")

    if opts.witnesses:
        if n <= 16:
            push(_guess_state_loss(ctx), "witness")
        for witness_ctx, indicator in _WITNESSES:
            if ctx == witness_ctx:
                push(embed(Predicate.from_function(ctx, indicator)), "witness")

    # Extra witnesses carry their own context; only matching ones apply
    # (datatype checks build families over several post contexts).
    for loss in opts.extra:
        if loss.ctx == ctx:
            push(loss, "user")

    if opts.random > RANDOM_CAP:
        raise ValueError(f"{opts.random} random losses exceed the cap {RANDOM_CAP}")
    rng = random.Random(opts.seed)
    for _ in range(opts.random):
        k = rng.randint(1, 4)
        gens = []
        for _ in range(k):
            gens.append(Predicate.from_ints(ctx, 4, [rng.randint(0, 8) for _ in range(n)]))
        push(LossFunction(ctx, tuple(gens)), f"random({opts.seed})")

    return TestFamily(ctx, tuple(entries))


def resolve_family(
    ctx: VarContext, family: "TestFamily | FamilyOptions | None"
) -> TestFamily:
    """Accept a concrete family (context-checked) or materialize options."""
    if family is None:
        family = FamilyOptions()
    if isinstance(family, FamilyOptions):
        return standard_family(ctx, family)
    if family.ctx != ctx:
        raise ValueError(
            f"family context [{family.ctx.pretty()}] does not match the "
            f"required post context [{ctx.pretty()}]")
    return family


# --------------------------------------------------- bundled example witnesses
# Each is the indicator of a set of states, added to families over exactly
# its context: the parity pair and the encrypted-database examples.

_WITNESSES: Tuple[Tuple[VarContext, Callable[[State], int]], ...] = (
    (VarContext.of(("n", range(4)), ("b", range(2))),
     lambda s: 1 if (s[0] + s[1]) % 2 == 0 else 0),
    (VarContext.of(("x", ("a", "b", "c")),
                   ("U", (("a", "b", "c", "a"), ("a", "b", "a", "c"))),
                   ("r", range(2)), ("v", (2, 3))),
     lambda s: 1 if s[1][s[3]] != "c" else 0),
)
