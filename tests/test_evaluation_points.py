"""Statements are elaborated once per valuation of what they read.

``exprs.evaluation_points`` evaluates an expression, or a distribution's
branches together, at one state per valuation of the variables they read,
and ``typecheck._kernel`` sorts and reduces each distinct outcome list once.
The references below evaluate every state instead (``_per_state_*``), as
the typechecker did before.  Against them:

* every statement kernel (``src``, ``dst``, ``den``, ``nums``), inferred
  domain and guard predicate is equal, on seeded programs over contexts of
  up to 48 states whose expressions read strict subsets of them, on every
  corpus datatype's `init`, operations and `final`, and on every corpus
  context inlined into every datatype that has its operations;
* every evaluation error has the same message, naming the same state, with
  unread variables before, between and after the read ones;
* the offset scan's loop guard is evaluated at 120 of its 480 states.

With no extension, ``semantics._kernel_tf`` is the kernel's dual, equal to
the tensor route, and a request without an extension makes no tensor.
"""

from __future__ import annotations

import pathlib
import random
from fractions import Fraction

import pytest

from conftest import ProgramShape, gen_typed_program, with_aborts
from preloss import exprs
from preloss.cli import main
from preloss.contexts import EMPTY, VarContext, fmt_value
from preloss.exprs import EvalError, compile_expr, evaluation_points, predicate_of
from preloss.kernels import Kernel, Transformer
from preloss.parsing import (
    parse_context_file, parse_datatype_file, parse_expr_text, parse_program_file,
)
from preloss.predicates import Predicate
from preloss.semantics import _kernel_tf, linear_transformer
from preloss.syntax import (
    KERNEL_STMTS, Abort, Assert, Assign, HidVar, NonDet, Print, Skip, Unvar, While, walk,
)
from preloss.typecheck import (
    BRANCH, TypecheckError, _branch_weights, _guard_pred, _limbs, _normalize_value, _tuple_step,
    inline, typecheck_program, validate_datatype,
)

ROOT = pathlib.Path(__file__).resolve().parent.parent
CORPUS = ROOT / "corpus"


# --------------------------------------------------- the per-state references

def _per_state_dist(dist, ctx, pos):
    """(den, per-state outcome rows), every branch evaluated at every state."""
    den, weights = _branch_weights(dist, pos)
    branches = [(compile_expr(b.expr, ctx), w) for b, w in zip(dist.branches, weights)]
    rows = []
    for state in ctx.states():
        acc = {}
        for value_of, w in branches:
            try:
                v = value_of(state)
            except EvalError as exc:
                raise TypecheckError(f"{exc} (at state {fmt_value(state)})", pos) from None
            if type(v) is not int:
                v = _normalize_value(v)
            acc[v] = acc.get(v, 0) + w
        rows.append(list(acc.items()))
    return den, rows


def _per_state_kernel(pre, post, targets, den, rows, pos=None) -> Kernel:
    bases, offsets = pre.layout(post, targets)
    out = []
    for base, outcomes in zip(bases, rows):
        row = {}
        for value, w in outcomes:
            step = (offsets[0].get(value) if len(offsets) == 1
                    else _tuple_step(value, offsets, pos))
            if step is not None:
                row[base + step] = row.get(base + step, 0) + w
        out.append(row)
    return Kernel.from_ints(pre, post, den, out)


def _per_state_predicate(ctx, expr, mode) -> Predicate:
    value_of = compile_expr(expr, ctx)
    entries = []
    for s in ctx.states():
        try:
            v = value_of(s)
        except EvalError as exc:
            raise EvalError(f"{exc} (at state {fmt_value(s)})") from None
        if not isinstance(v, (int, Fraction)):
            raise EvalError(f"expression value {fmt_value(v)} is not numeric at state {fmt_value(s)}")
        if v < 0:
            raise EvalError(f"negative expression value {v} at state {fmt_value(s)}")
        if mode == "unit" and v > 1:
            raise EvalError(f"guard value {v} above 1 at state {fmt_value(s)}")
        if mode == "bool" and v not in (0, 1):
            raise EvalError(f"boolean expression value {v} at state {fmt_value(s)}")
        entries.append(v)
    return Predicate.from_entries(ctx, entries)


def _per_state_guard(expr, ctx, pos) -> Predicate:
    try:
        return _per_state_predicate(ctx, expr, "unit")
    except EvalError as exc:
        raise TypecheckError(str(exc), pos) from None


def _first_met(*row_lists):
    return tuple(dict.fromkeys(v for rows in row_lists for outcomes in rows for v, _ in outcomes))


def _per_state_statement(s, pre: VarContext, domain=None):
    """(kernel, guard or None) of ``s`` over ``pre``; ``domain`` is a `hidvar`'s
    inferred over its choice's limbs."""
    pos = s.meta.pos
    if isinstance(s, Skip):
        return Kernel.identity(pre), None
    if isinstance(s, Abort):
        return Kernel(pre, pre, 1, ((),) * pre.n_states), None
    if isinstance(s, Assign):
        return _per_state_kernel(pre, pre, s.targets, *_per_state_dist(s.dist, pre, pos), pos), None
    if isinstance(s, HidVar):
        den, rows = _per_state_dist(s.dist, pre, pos)
        domain = s.domain or domain or _first_met(rows)
        return _per_state_kernel(pre, pre.append(s.name, domain), (s.name,), den, rows), None
    if isinstance(s, Unvar):
        return _per_state_kernel(pre, pre.remove(s.name), (), 1,
                                 [[((), 1)]] * pre.n_states), None
    if isinstance(s, Print):
        den, rows = _per_state_dist(s.dist, pre, pos)
        shown = VarContext((("_new", _first_met(rows)),))
        return _per_state_kernel(pre, shown, ("_new",), den, rows), None
    g = _per_state_guard(s.guard, pre, pos)
    if isinstance(s, Assert):
        return Kernel.diagonal(g), g
    den = g.den
    return Kernel(pre, BRANCH, den, tuple(
        ((0, den),) if n == den else ((1, den),) if not n else ((0, n), (1, den - n))
        for n in g.nums)), g


def _chain_domains(progs):
    """The domain of each `hidvar` typed over its choice's limbs, by id."""
    domains = {}
    for s in (s for prog in progs for s in walk(prog) if isinstance(s, NonDet)):
        limbs, pre = _limbs(s), s.meta.pre
        first = limbs[0]
        if (all(type(h) is HidVar and h.domain is None and h.name == first.name for h in limbs)
                and first.name not in pre and id(first) not in domains):
            domain = _first_met(*(_per_state_dist(h.dist, pre, h.meta.pos)[1] for h in limbs))
            domains.update((id(h), domain) for h in limbs)
    return domains


def _form(t: Transformer):
    return t.src, t.dst, t.den, t.nums


# ------------------------------------------------------------------ programs

# Hand-written statements the generator does not make: tuple targets, atoms,
# tuple-valued variables, rational values, a choice of `hidvar` limbs, and
# expressions that read two variables around unread ones.
_HANDWRITTEN = [
    """vars:
      u : {0,1}
      x : int 0..3
      w : {p, q}
      y : int 0..2
    body:
      x, y := (y, (x + 1) mod 3) @ 1/3 | (x, 0);
      y, w := {(x mod 3, q)} [] {(0, w)};
      hidvar v := {x div 2} [] {u};
      print (x / 2) @ 1/4 | w;
      if x / 3 { y := 1 } else { assert (y + 1) / 3 };
      unvar v
    """,
    """vars:
      a : {(p,q,p), (q,q,p)}
      i : int 0..2
      c : {p, q}
    body:
      hidvar b := a[i] = c;
      while i != 2 && a[i] != c { i := i + 1 };
      c := a[(i + 1) mod 3] @ 2/3 | p
    """,
]


def _programs():
    rng = random.Random(20261022)
    progs = []
    for _ in range(150):
        ctx, prog, _ = gen_typed_program(rng, depth=3, shape=ProgramShape(max_states=48))
        typecheck_program(with_aborts(rng, prog), ctx)
        progs.append(prog)
    for text in _HANDWRITTEN:
        initial, prog = parse_program_file(text)
        typecheck_program(prog, initial)
        progs.append(prog)
    datatypes = [parse_datatype_file(p.read_text(encoding="utf-8"))
                 for p in sorted(CORPUS.glob("*.dt"))]
    for d in datatypes:
        validate_datatype(d)
        progs += [d.init, *(p for _, p in d.ops), d.final]
    inlined = 0
    for path in sorted(CORPUS.glob("*.ctx")):
        for d in datatypes:
            try:
                progs.append(inline(parse_context_file(path.read_text(encoding="utf-8")), d))
            except TypecheckError:  # a client that calls an operation d lacks
                continue
            inlined += 1
    assert inlined >= 6, inlined
    return progs


PROGRAMS = _programs()


def test_every_statement_matches_per_state_evaluation():
    domains = _chain_domains(PROGRAMS)
    seen = {"statements": 0, "guards": 0, "fewer points": 0, "over 16 states": 0}
    for s in (s for prog in PROGRAMS for s in walk(prog) if not isinstance(s, NonDet)):
        pre = s.meta.pre
        kernel, guard = _per_state_statement(s, pre, domains.get(id(s)))
        assert _form(s.meta.kernel) == _form(kernel), s
        assert s.meta.kernel.dst == kernel.dst, s  # a `print`'s or `hidvar`'s inferred domain
        seen["statements"] += 1
        if guard is not None:
            assert _guard_pred(s.guard, pre, s.meta.pos) == guard, s
            seen["guards"] += 1
        if isinstance(s, (Assign, HidVar, Print)) or guard is not None:
            read = [s.guard] if guard is not None else [b.expr for b in s.dist.branches]
            seen["fewer points"] += len(list(evaluation_points(pre, read)[0])) < pre.n_states
            seen["over 16 states"] += pre.n_states > 16
    assert seen["statements"] >= 1200 and seen["guards"] >= 360, seen
    assert seen["fewer points"] >= 600 and seen["over 16 states"] >= 90, seen


def test_every_point_is_the_first_state_of_its_valuation():
    ctx = VarContext.of(("u", (0, 1)), ("x", range(4)), ("w", ("p", "q")), ("y", range(3)))
    for read in [(), ("x",), ("u", "y"), ("x", "y"), ("u", "w", "y")]:
        points, index = evaluation_points(ctx, [parse_expr_text(" + ".join(read) or "0")])
        points = list(points)
        positions = [ctx.position_of(n) for n in read]
        assert len(points) == len(set(points)) == len({tuple(s[p] for p in positions)
                                                        for s in ctx.states()})
        firsts = {}
        for i, state in enumerate(ctx.states()):
            firsts.setdefault(tuple(state[p] for p in positions), state)
            assert [points[index[i]][p] for p in positions] == [state[p] for p in positions]
        assert points == sorted(firsts.values(), key=ctx.index_of)


# ------------------------------------------------------------------ errors

_ERROR_VARS = """vars:
  u : {0,1}
  x : int 0..3
  w : {p, q}
  T : {(0,1,p,0)}
body:
"""

# One statement per case, and a word its message must hold.  Every case reads
# x (and some T), so u and w are unread: one before x, one between x and T.
_ERROR_CASES = [
    ("x := 6 div (x - 2)", "division by zero"),
    ("x := 5 mod (x - 1)", "mod by zero"),
    ("x := x @ 1/2 | 6 / (x - 3)", "division by zero"),
    ("x := (6 div (x - 3)) @ 1/2 | (6 div (x - 2))", "division by zero"),
    ("hidvar v := T[x + 1]", "out of range"),
    ("print 10 mod (x - 2)", "mod by zero"),
    ("if T[x] { skip } else { skip }", "is not numeric"),
    ("while x / 2 { x := 0 }", "above 1"),
    ("assert x - 1", "negative"),
    ("u, x := x", "needs a 2-tuple"),
    ("print x = 2 && zz = 1", "unbound variable 'zz'"),
    ("if x = 3 && zz { skip } else { skip }", "unbound variable 'zz'"),
]


@pytest.mark.parametrize("body, word", _ERROR_CASES)
def test_errors_name_the_state_per_state_evaluation_names(body, word):
    initial, prog = parse_program_file(_ERROR_VARS + "  " + body)
    with pytest.raises(TypecheckError) as got:
        typecheck_program(prog, initial)
    with pytest.raises(TypecheckError) as expected:
        _per_state_statement(prog.stmts[0], initial)
    assert str(got.value) == str(expected.value)
    assert word in str(got.value)


def test_predicate_errors_name_the_state_per_state_evaluation_names():
    ctx = VarContext.of(("u", (0, 1)), ("x", range(4)), ("w", ("p", "q")))
    for text, mode in [("x", "bool"), ("x - 2", "any"), ("x / 2", "unit"), ("1 div (x - 1)", "any"),
                       ("(x, 1)", "any"), ("x = 3 && zz", "bool")]:
        with pytest.raises(EvalError) as got:
            predicate_of(ctx, parse_expr_text(text), mode=mode)
        with pytest.raises(EvalError) as expected:
            _per_state_predicate(ctx, parse_expr_text(text), mode)
        assert str(got.value) == str(expected.value), text


# -------------------------------------------------------- the offset scan's guard

def test_the_offset_scan_guard_is_evaluated_once_per_valuation(monkeypatch):
    """The guard reads x, H, n and m: 3 * 2 * 5 * 4 = 120 valuations of 480
    states (x, U, r, H, n, m), in `validate_datatype` and again in `inline`."""
    d = parse_datatype_file((CORPUS / "encdb_offset_scan.dt").read_text(encoding="utf-8"))
    loop = next(s for s in walk(dict(d.ops)["lookup"]) if isinstance(s, While))
    points = []
    compile_any = exprs.compile_expr

    def counting(expr, ctx):
        value_of = compile_any(expr, ctx)
        if expr != loop.guard:
            return value_of
        return lambda state: points.append(state) or value_of(state)

    monkeypatch.setattr(exprs, "compile_expr", counting)
    validate_datatype(d)
    assert loop.meta.pre.n_states == 480
    assert len(points) == len(set(points)) == 120
    inline(parse_context_file((CORPUS / "ctx_lookup_probe.ctx").read_text(encoding="utf-8")), d)
    assert len(points) == 240


# ---------------------------------------------------------- the empty extension

def test_no_extension_is_the_kernel_dual_and_makes_no_tensor(monkeypatch, capsys):
    statements = [s for prog in PROGRAMS for s in walk(prog) if isinstance(s, KERNEL_STMTS)]
    for s in statements:
        tensored = s.meta.kernel.dual().tensor(Transformer.identity(EMPTY))
        assert _form(_kernel_tf(s, EMPTY)) == _form(tensored), s
    calls = []
    tensor = Transformer.tensor

    def counting(self, other):
        calls.append(other.src)
        return tensor(self, other)

    monkeypatch.setattr(Transformer, "tensor", counting)
    monkeypatch.setattr(Kernel, "tensor", counting)
    for argv, code in [
        (["datatype", "corpus/encdb_membership.dt", "corpus/encdb_offset_scan.dt",
          "--context", "corpus/ctx_lookup_probe.ctx"], 3),
        (["datatype", "corpus/randbit_direct.dt", "corpus/randbit_cached.dt",
          "--context", "corpus/ctx_sample_then_read.ctx"], 0),
        (["simulate", "--forward", "corpus/randbit_direct.dt", "corpus/randbit_cached.dt",
          "--rep", "corpus/rep_coin.prog"], 0),
        (["simulate", "--backward", "corpus/encdb2_membership_distinct.dt",
          "corpus/encdb2_offset_scan.dt", "--rep", "corpus/rep_distinct.prog"], 3),
    ]:
        assert main(argv + ["--json"]) == code
        capsys.readouterr()
    assert calls == []
    z = VarContext.of(("z", (0, 1)))
    straight = next(p for p in PROGRAMS if len(p.stmts) > 1
                    and all(isinstance(s, KERNEL_STMTS) for s in p.stmts))
    assert linear_transformer(straight, z) is not None
    assert len(calls) == len(straight.stmts) and all(ctx == z for ctx in calls)
