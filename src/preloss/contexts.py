"""Typed variable contexts over explicit finite domains.

A context is an ordered list of (name, domain) pairs; its state set is the
cartesian product of the domains, enumerated lexicographically by
declaration order and then by domain order.  Domain values are ints,
symbolic atoms (strings) or tuples of values.

All state-index arithmetic is done here: ``index_of``, ``projection`` onto
a sub-context, ``layout``, where a kernel that writes some variables sends
each state, and ``valuations`` (the last three cached).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterable, Iterator, Mapping, Sequence, Tuple, Union

Value = Union[int, str, tuple]

State = Tuple[Value, ...]


class ContextError(ValueError):
    pass


def fmt_value(v: Value) -> str:
    if isinstance(v, tuple):
        return "(" + ",".join(fmt_value(x) for x in v) + ")"
    return str(v)


def fmt_state(state: State) -> str:
    return "(" + ",".join(fmt_value(v) for v in state) + ")"


@dataclass(frozen=True)
class VarContext:
    vars: Tuple[Tuple[str, Tuple[Value, ...]], ...]

    def __post_init__(self):
        seen = set()
        for name, domain in self.vars:
            if name in seen:
                raise ContextError(f"duplicate variable {name!r}")
            seen.add(name)
            if not domain:
                raise ContextError(f"empty domain for {name!r}")
            if len(set(domain)) != len(domain):
                raise ContextError(f"duplicate domain value for {name!r}")
        # Contexts key the projection, layout and derived-value caches:
        # hash the pairs once, not on every lookup.
        object.__setattr__(self, "_hash", hash(self.vars))

    def __hash__(self) -> int:
        return self._hash

    @staticmethod
    def of(*decls: Tuple[str, Iterable[Value]]) -> "VarContext":
        return VarContext(tuple((n, tuple(d)) for n, d in decls))

    @property
    def names(self) -> Tuple[str, ...]:
        return tuple(n for n, _ in self.vars)

    def __contains__(self, name: str) -> bool:
        return name in self._positions

    def __len__(self) -> int:
        return len(self.vars)

    @cached_property
    def _positions(self) -> Mapping[str, int]:
        return {n: i for i, (n, _) in enumerate(self.vars)}

    @cached_property
    def _value_pos(self) -> Tuple[Mapping[Value, int], ...]:
        return tuple({v: i for i, v in enumerate(dom)} for _, dom in self.vars)

    @cached_property
    def n_states(self) -> int:
        n = 1
        for _, dom in self.vars:
            n *= len(dom)
        return n

    @cached_property
    def _strides(self) -> Tuple[int, ...]:
        strides = [1] * len(self.vars)
        for i in range(len(self.vars) - 2, -1, -1):
            strides[i] = strides[i + 1] * len(self.vars[i + 1][1])
        return tuple(strides)

    def position_of(self, name: str) -> int:
        try:
            return self._positions[name]
        except KeyError:
            raise ContextError(f"unknown variable {name!r}") from None

    def domain_of(self, name: str) -> Tuple[Value, ...]:
        return self.vars[self.position_of(name)][1]

    def states(self) -> Iterator[State]:
        if not self.vars:
            yield ()
            return
        yield from itertools.product(*(dom for _, dom in self.vars))

    @cached_property
    def all_states(self) -> Tuple[State, ...]:
        return tuple(self.states())

    def state(self, index: int) -> State:
        return self.all_states[index]

    def index_of(self, state: Sequence[Value]) -> int:
        if len(state) != len(self.vars):
            raise ContextError(f"state arity {len(state)} != context arity {len(self.vars)}")
        idx = 0
        for pos, value in enumerate(state):
            try:
                vi = self._value_pos[pos][value]
            except (KeyError, TypeError):
                name = self.vars[pos][0]
                raise ContextError(f"value {fmt_value(value)} not in domain of {name!r}") from None
            idx += vi * self._strides[pos]
        return idx

    def projection(self, target: "VarContext") -> Tuple[int, ...]:
        """Index in this context of each target state's projection onto it.

        ``target`` must hold every variable of this context, with the same
        domain.  The map is cached per pair of contexts.
        """
        return _projection(self, target)

    def layout(self, post: "VarContext", targets: Tuple[str, ...]
               ) -> Tuple[Tuple[int, ...], Tuple[Mapping[Value, int], ...]]:
        """``(bases, offsets)``: writing v_1..v_k into ``targets`` at state i of
        this context leads to state ``bases[i] + offsets[0][v_1] + ...`` of ``post``.

        Every other variable of ``post`` keeps its value, so it must be in this
        context with the same domain; the rest of this context is dropped.
        Cached per (context, post, targets), so callers share it: read only.
        """
        return _layout(self, post, targets)

    def merge(self, other: "VarContext") -> "VarContext":
        clash = set(self.names) & set(other.names)
        if clash:
            raise ContextError(f"variable name clash: {sorted(clash)}")
        return VarContext(self.vars + other.vars)

    def remove(self, name: str) -> "VarContext":
        pos = self.position_of(name)
        return VarContext(self.vars[:pos] + self.vars[pos + 1:])

    def append(self, name: str, domain: Iterable[Value]) -> "VarContext":
        if name in self:
            raise ContextError(f"variable {name!r} already declared")
        return VarContext(self.vars + ((name, tuple(domain)),))

    @cached_property
    def atoms(self) -> frozenset:
        """All symbolic atoms occurring in any domain (incl. inside tuples)."""
        found = set()

        def walk(v):
            if isinstance(v, str):
                found.add(v)
            elif isinstance(v, tuple):
                for x in v:
                    walk(x)

        for _, dom in self.vars:
            for v in dom:
                walk(v)
        return frozenset(found)

    def pretty(self) -> str:
        return " ".join(
            f"{n}:{{{','.join(fmt_value(v) for v in dom)}}}" for n, dom in self.vars
        )

    def __repr__(self) -> str:
        return f"VarContext({self.pretty() or 'empty'})"


EMPTY = VarContext(())


@lru_cache(maxsize=64)
def _projection(source: VarContext, target: VarContext) -> Tuple[int, ...]:
    positions = [target.position_of(n) for n in source.names]
    for n in source.names:
        if target.domain_of(n) != source.domain_of(n):
            raise ContextError(f"domain mismatch for {n!r} in extension")
    index_of = source.index_of
    return tuple(index_of([s[p] for p in positions]) for s in target.states())


# Sized so that typechecking a few hundred programs keeps each of their layouts.
@lru_cache(maxsize=1024)
def _layout(pre: VarContext, post: VarContext, targets: Tuple[str, ...]):
    for name, domain in post.vars:
        if name not in targets and pre.domain_of(name) != domain:
            raise ContextError(f"domain mismatch for {name!r}")
    strides, bases = post._strides, [0]
    for name, domain in pre.vars:
        stride = strides[post.position_of(name)] if name in post and name not in targets else 0
        steps = [i * stride for i in range(len(domain))]
        bases = [b + step for b in bases for step in steps]
    offsets = tuple({v: i * strides[p] for i, v in enumerate(post.vars[p][1])}
                    for p in map(post.position_of, targets))
    return tuple(bases), offsets


@lru_cache(maxsize=1024)
def valuations(ctx: VarContext, read: frozenset) -> Tuple[Tuple[State, ...], Tuple[int, ...]]:
    """``(points, index)``: per valuation of the variables ``read``, the first
    state with it, in context order; state i has ``points[index[i]]``'s."""
    points = tuple(itertools.product(*(dom if n in read else dom[:1] for n, dom in ctx.vars)))
    index = [0]
    for name, domain in ctx.vars:  # the valuation's place, digit by digit as in ``layout``
        n = len(domain)
        index = ([b * n + d for b in index for d in range(n)] if name in read
                 else [b for b in index for _ in domain])
    return points, tuple(index)
