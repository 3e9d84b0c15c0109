"""Seeded generator of oracle_duality inputs: loop-free program, loss and prior text.

Standard library only and independent of ``preloss``: the program under test
sees nothing but the text this module emits.  Each case is shaped by its index
(how many choices, prints and ifs it gets), so every seed yields the same mix
of small and large cases and only the details vary.

Static upper bounds keep every case cheap to check: contexts within 16 states,
4 choices, 3 prints, 4 observation histories, 4 reachable (history, choice
site) pairs (so the exhaustive audit enumerates at most 2**4 whole strategies)
and 64 generators in any loss ``wpl`` builds for the reference value.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count, product
from typing import List, Tuple

MAX_STATES = 16
MAX_CHOICES = 4
MAX_PRINTS = 3
MAX_CHOICE_POINTS = 4
MAX_HISTORIES = 4
MAX_LOSS_GENS = 2
MAX_WPL_GENS = 64


@dataclass(frozen=True)
class Case:
    program: str
    loss: str
    prior: str


def generate(seed: int, n: int) -> List[Case]:
    """``n`` cases; the same seed gives byte-identical text."""
    rng = random.Random(seed)
    return [_CaseMaker(random.Random(rng.getrandbits(64)), i).case() for i in range(n)]


class _CaseMaker:
    def __init__(self, rng: random.Random, index: int):
        self.rng = rng
        self.choices = index % (MAX_CHOICES + 1)
        self.prints = (index // (MAX_CHOICES + 1)) % (MAX_PRINTS + 1)
        self.ifs = (index // ((MAX_CHOICES + 1) * (MAX_PRINTS + 1))) % 3
        self.vars: List[Tuple[str, int]] = []
        self.histories = 1      # upper bound on observation histories so far
        self.choice_points = 0  # upper bound on reachable (history, site) pairs
        self.shape: List[Tuple[str, object]] = []  # top-level statements that grow wpl

    # ------------------------------------------------------------ contexts
    def _context(self) -> List[Tuple[str, int]]:
        names = ["u", "v", "w"]
        self.rng.shuffle(names)
        decls, states = [], 1
        for name in names[: self.rng.randint(1, 3)]:
            size = self.rng.randint(2, 4)
            if states * size > MAX_STATES // 2:  # room for one hidvar bit
                break
            decls.append((name, size))
            states *= size
        return decls or [("u", 2)]

    # --------------------------------------------------------- expressions
    def _value_expr(self, size: int) -> str:
        name, _ = self.rng.choice(self.vars)
        kind = self.rng.randrange(3)
        if kind == 0:
            return str(self.rng.randrange(size))
        if kind == 1:
            return f"{name} mod {size}"
        return f"({name} + {self.rng.randint(1, 2)}) mod {size}"

    def _dexpr(self, size: int) -> str:
        first = self._value_expr(size)
        if self.rng.random() < 0.4:
            return first
        weight = Fraction(1, self.rng.randint(2, 4))
        return f"{first} @ {weight} | {self._value_expr(size)}"

    def _guard(self) -> str:
        if self.rng.random() < 0.2:
            return str(Fraction(self.rng.randint(1, 3), 4))
        name, size = self.rng.choice(self.vars)
        op = self.rng.choice(["=", "!=", "<="])
        return f"{name} {op} {self.rng.randrange(size)}"

    # ----------------------------------------------------------- statements
    def _assign(self) -> str:
        name, size = self.rng.choice(self.vars)
        return f"{name} := {self._dexpr(size)}"

    def _simple(self) -> str:
        if self.rng.random() < 0.2:
            name, size = self.rng.choice(self.vars)
            return f"assert {name} != {self.rng.randrange(size)}"
        return self._assign()

    def _limb(self) -> str:
        return "{ " + "; ".join(self._simple() for _ in range(self.rng.randint(1, 2))) + " }"

    def _choice(self) -> str:
        self.choice_points += self.histories
        return f"{self._limb()} [] {self._limb()}"

    def _choose(self) -> str:
        self.shape.append(("choice", 0))
        return self._choice()

    def _can_choose(self) -> bool:
        return self.choice_points + self.histories <= MAX_CHOICE_POINTS

    def _print(self) -> str:
        name, size = self.rng.choice(self.vars)
        if size * self.histories > MAX_HISTORIES or (size > 2 and self.rng.random() < 0.5):
            size, text = 2, f"print {name} mod 2"
        else:
            text = f"print {name}"
        self.histories *= size
        self.shape.append(("print", size))
        return text

    def _if(self, choices: int) -> str:
        limbs, nested = [], []
        for side in range(2):
            chosen = side < choices and self._can_choose()
            limbs.append("{ " + self._choice() + " }" if chosen else self._limb())
            nested.append(int(chosen))
        self.histories *= 2
        self.shape.append(("if", tuple(nested)))
        return f"if {self._guard()} {limbs[0]} else {limbs[1]}"

    def _body(self) -> List[str]:
        plan = (["choice"] * self.choices + ["print"] * self.prints
                + ["if"] * self.ifs + ["assign"] * self.rng.randint(1, 3))
        self.rng.shuffle(plan)
        stmts, unvars = [], []
        if self.rng.random() < 0.5:  # _context left room for this bit
            stmts.append("hidvar h : {0,1} := 0 @ 1/2 | 1")
            self.vars.append(("h", 2))
            unvars.append("unvar h")
        pending_choices = 0
        for kind in plan:
            if kind == "choice":
                if self._can_choose():
                    stmts.append(self._choose())
                else:
                    pending_choices += 1
            elif self.histories * 2 > MAX_HISTORIES:
                stmts.append(self._simple())
            elif kind == "print":
                stmts.append(self._print())
            elif kind == "if":
                stmts.append(self._if(pending_choices))
                pending_choices = 0
            else:
                stmts.append(self._simple())
        return stmts + unvars

    # ------------------------------------------------------------- outputs
    def _wpl_gens_bound(self, loss_gens: int) -> int:
        """Upper bound on the generators ``wpl`` builds, walking the body backwards.

        A choice unions its limbs' losses, a print sums one loss per printed
        value and an if sums its two limbs, so the counts add and multiply.
        """
        bound = loss_gens
        for kind, arg in reversed(self.shape):
            if kind == "choice":
                bound *= 2
            elif kind == "print":
                bound **= arg
            else:
                bound = (bound << arg[0]) * (bound << arg[1])
        return bound

    def case(self) -> Case:
        decls = self._context()
        loss_gens = self.rng.randint(1, MAX_LOSS_GENS)
        for attempt in count(1):
            # Redraw a body whose reference computation would blow up; after
            # three draws, drop a choice, print or if from the plan and go on.
            self.vars, self.histories, self.choice_points, self.shape = list(decls), 1, 0, []
            body = self._body()
            if self._wpl_gens_bound(loss_gens) <= MAX_WPL_GENS:
                break
            if attempt % 3 == 0:
                if self.choices:
                    self.choices -= 1
                elif self.prints:
                    self.prints -= 1
                else:
                    self.ifs -= 1
        program = ("vars:\n"
                   + "".join(f"  {n} : {_domain(s)}\n" for n, s in decls)
                   + "body:\n  " + ";\n  ".join(body) + "\n")
        states = list(product(*(range(s) for _, s in decls)))
        header = "context " + " ".join(f"{n}:{_domain(s)}" for n, s in decls)
        lines = [header]
        for _ in range(loss_gens):
            cells = [f"{_state(st)}={Fraction(self.rng.randint(0, 8), 4)}"
                     for st in states if self.rng.random() < 0.7]
            lines.append("table: " + " ".join(cells))
        weights = [self.rng.randint(0, 4) for _ in states]
        if not any(weights):
            weights[self.rng.randrange(len(states))] = 1
        total = sum(weights)
        prior = " ".join(f"{_state(st)}={Fraction(w, total)}"
                         for st, w in zip(states, weights) if w)
        return Case(program, "\n".join(lines) + "\n", prior)


def _domain(size: int) -> str:
    return "{" + ",".join(str(v) for v in range(size)) + "}"


def _state(state: Tuple[int, ...]) -> str:
    return "(" + ",".join(str(v) for v in state) + ")"
