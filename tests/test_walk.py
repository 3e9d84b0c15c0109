"""The one statement walk (``syntax.sub_programs``, ``syntax.walk``), the one
tree copy (``typecheck.copy_program``) and the functions built on them,
checked against private copies of the hand-written recursions they replaced:
the classifiers, the declared names, renaming, call splicing, site labels
and inlining.
"""

import copy
import dataclasses
import itertools
import pathlib
import random
import typing
from typing import Dict, List

import pytest

from preloss import syntax
from preloss.adversary import LoopFreeError, choice_points
from preloss.losses import uniform_dist
from preloss.parsing import parse_context_file, parse_datatype_file, parse_program_text
from preloss.syntax import (
    Abort, Assert, Assign, CallOp, DistBranch, DistExpr, HidVar, If, Meta, NonDet,
    Print, Program, Skip, Stmt, Unvar, While, program_text, sub_programs, walk,
)
from preloss.exprs import Lit, Name
from preloss.typecheck import (
    TypecheckError, _declared_names, _rename_dist, _rename_expr, classify_choiceless,
    classify_hidden, copy_program, inline, typecheck_program, validate_datatype,
)

from conftest import ProgramShape, gen_context, gen_program, gen_typed_program

CORPUS = pathlib.Path("corpus")


# ------------------------------------------------- the recursions replaced

def _clone(node):
    """A deep copy whose annotations keep only source positions."""
    memo = {}

    def fresh_metas(x):
        if isinstance(x, Meta):
            memo[id(x)] = Meta(x.pos)
        elif dataclasses.is_dataclass(x):
            for f in dataclasses.fields(x):
                fresh_metas(getattr(x, f.name))
        elif isinstance(x, tuple):
            for item in x:
                fresh_metas(item)

    fresh_metas(node)
    return copy.deepcopy(node, memo)


def _old_classify_hidden(prog):
    for s in prog.stmts:
        if isinstance(s, (If, While, Print)):
            return False
        if isinstance(s, NonDet) and not (_old_classify_hidden(s.left)
                                          and _old_classify_hidden(s.right)):
            return False
    return True


def _old_classify_choiceless(prog):
    for s in prog.stmts:
        if isinstance(s, NonDet):
            return False
        if isinstance(s, If) and not (_old_classify_choiceless(s.then)
                                      and _old_classify_choiceless(s.orelse)):
            return False
        if isinstance(s, While) and not _old_classify_choiceless(s.body):
            return False
    return True


def _old_declared_names(prog):
    names = []
    for s in prog.stmts:
        if isinstance(s, HidVar):
            names.append(s.name)
        elif isinstance(s, If):
            names += _old_declared_names(s.then) + _old_declared_names(s.orelse)
        elif isinstance(s, While):
            names += _old_declared_names(s.body)
        elif isinstance(s, NonDet):
            names += _old_declared_names(s.left) + _old_declared_names(s.right)
    return names


def _old_rename_program(prog, mapping):
    out = []
    for s in prog.stmts:
        if isinstance(s, (Skip, Abort, CallOp)):
            out.append(_clone(s))
            continue
        if isinstance(s, Assign):
            node = Assign(tuple(mapping.get(t, t) for t in s.targets),
                          _rename_dist(s.dist, mapping))
        elif isinstance(s, HidVar):
            node = HidVar(mapping.get(s.name, s.name), s.domain, _rename_dist(s.dist, mapping))
        elif isinstance(s, Unvar):
            node = Unvar(mapping.get(s.name, s.name))
        elif isinstance(s, If):
            node = If(_rename_expr(s.guard, mapping), _old_rename_program(s.then, mapping),
                      _old_rename_program(s.orelse, mapping))
        elif isinstance(s, While):
            node = While(_rename_expr(s.guard, mapping), _old_rename_program(s.body, mapping))
        elif isinstance(s, Print):
            node = Print(_rename_dist(s.dist, mapping))
        elif isinstance(s, Assert):
            node = Assert(_rename_expr(s.guard, mapping))
        elif isinstance(s, NonDet):
            node = NonDet(_old_rename_program(s.left, mapping),
                          _old_rename_program(s.right, mapping))
        else:
            raise TypeError(f"unknown statement {s!r}")
        node.meta.pos = s.meta.pos
        out.append(node)
    return Program(tuple(out))


def _old_splice_calls(prog, bodies):
    out = []
    for s in prog.stmts:
        if isinstance(s, CallOp):
            if s.name not in bodies:
                raise TypecheckError(f"unknown operation {s.name!r}", s.meta.pos)
            out.extend(_clone(bodies[s.name]).stmts)
            continue
        if isinstance(s, If):
            node = If(s.guard, _old_splice_calls(s.then, bodies),
                      _old_splice_calls(s.orelse, bodies))
        elif isinstance(s, While):
            node = While(s.guard, _old_splice_calls(s.body, bodies))
        elif isinstance(s, NonDet):
            node = NonDet(_old_splice_calls(s.left, bodies), _old_splice_calls(s.right, bodies))
        else:
            out.append(s)
            continue
        node.meta.pos = s.meta.pos
        out.append(node)
    return Program(tuple(out))


def _old_label_sites(prog, counter=None):
    if counter is None:
        counter = itertools.count()
    for s in prog.stmts:
        if isinstance(s, Print):
            s.meta.label = f"pr#{next(counter)}"
        elif isinstance(s, If):
            s.meta.label = f"if#{next(counter)}"
            _old_label_sites(s.then, counter)
            _old_label_sites(s.orelse, counter)
        elif isinstance(s, NonDet):
            s.meta.label = f"nd#{next(counter)}"
            _old_label_sites(s.left, counter)
            _old_label_sites(s.right, counter)
        elif isinstance(s, While):
            raise LoopFreeError("the forward oracle handles loop-free programs only")
    return prog


def _old_inline(ctx_prog, d):
    clash = set(ctx_prog.client.names) & set(d.shared.names)
    if clash:
        raise TypecheckError(f"client variables shadow shared state: {sorted(clash)}")
    d = _clone(d)
    validate_datatype(d)
    internal = list(dict.fromkeys(
        list(d.encap.names)
        + _old_declared_names(d.init)
        + [n for _, p in d.ops for n in _old_declared_names(p)]
        + _old_declared_names(d.final)
    ))
    reserved = set(d.shared.names) | set(ctx_prog.client.names) | set(internal)
    atom_names = d.shared.atoms | d.encap.atoms | ctx_prog.client.atoms
    mapping: Dict[str, str] = {}
    for name in internal:
        if name not in ctx_prog.client:
            continue
        candidate = name + "'"
        tries = 0
        while candidate in reserved or candidate in mapping.values():
            tries += 1
            if tries > 100:
                raise TypecheckError(f"cannot find a fresh name for {name!r}")
            candidate = f"{name}'{tries + 1}"
        if candidate in atom_names:
            raise TypecheckError(f"fresh name {candidate!r} would capture an atom")
        mapping[name] = candidate
    init = _old_rename_program(d.init, mapping)
    final = _old_rename_program(d.final, mapping)
    bodies = {name: _old_rename_program(p, mapping) for name, p in d.ops}
    body = _old_splice_calls(_clone(ctx_prog.body), bodies)
    composite = Program(init.stmts + body.stmts + final.stmts)
    typecheck_program(composite, d.shared.merge(ctx_prog.client))
    return composite


# ------------------------------------------------------------------ helpers

# Written out apart from `sub_programs`, so the helpers do not rest on it.
_NESTED = {If: ("then", "orelse"), While: ("body",), NonDet: ("left", "right")}


def _preorder(prog) -> List[Stmt]:
    out = []
    for s in prog.stmts:
        out.append(s)
        for field in _NESTED.get(type(s), ()):
            out += _preorder(getattr(s, field))
    return out


def _hidvar_sugar(name, dists):
    """The node the parser builds for `hidvar name := {d1} [] {d2} ...`."""
    limbs = [Program((HidVar(name, None, d),)) for d in dists]
    node = NonDet(limbs[0], limbs[1])
    for limb in limbs[2:]:
        node = NonDet(Program((node,)), limb)
    return node


def _dist(*names):
    return DistExpr(tuple(DistBranch(Name(n) if isinstance(n, str) else Lit(n), None)
                          for n in names), uniform=True)


def _decorate(rng, prog, fresh):
    """Add declarations, `hidvar` sugar and `call` holes at every depth."""
    stmts = list(prog.stmts)
    for s in stmts:
        for field in _NESTED.get(type(s), ()):
            _decorate(rng, getattr(s, field), fresh)
    for _ in range(rng.randint(0, 2)):
        kind = rng.randrange(3)
        name = f"d{next(fresh)}"
        if kind == 0:
            node = HidVar(name, (0, 1), _dist(0, "u"))
        elif kind == 1:
            node = _hidvar_sugar(name, [_dist("u"), _dist(1, "v"), _dist("w")][:rng.randint(2, 3)])
        else:
            node = CallOp(rng.choice(["op_a", "op_b", "op_a", "missing"]))
        stmts.insert(rng.randint(0, len(stmts)), node)
    prog.stmts = tuple(stmts)


def _random_program(rng):
    shape = ProgramShape(loops=rng.random() < 0.5, nondet=rng.random() < 0.8,
                         visible=rng.random() < 0.8)
    prog, _ = gen_program(rng, gen_context(rng), rng.randint(1, 4), shape)
    _decorate(rng, prog, itertools.count())
    for k, s in enumerate(_preorder(prog)):
        s.meta.pos = (k + 1, rng.randint(1, 9))
    return prog


def _positions(prog):
    return [s.meta.pos for s in _preorder(prog)]


# -------------------------------------------------------------------- tests

def test_sub_programs_lists_every_program_field_of_every_statement():
    for cls in typing.get_args(syntax.Stmt):
        hints = typing.get_type_hints(cls, vars(syntax))
        args, nested = {}, []
        for f in dataclasses.fields(cls):
            if f.name == "meta":
                continue
            if hints[f.name] is Program:
                args[f.name] = Program(())
                nested.append(args[f.name])
            else:
                args[f.name] = None
        found = sub_programs(cls(**args))
        assert [id(p) for p in found] == [id(p) for p in nested], cls.__name__


def test_walk_is_preorder():
    prog = parse_program_text(
        "skip; if x = 0 { print x; { x := 0 } [] { while x = 1 { abort } } } "
        "else { assert x = 1 }; unvar x")
    assert [type(s).__name__ for s in walk(prog)] == [
        "Skip", "If", "Print", "NonDet", "Assign", "While", "Abort", "Assert", "Unvar"]
    assert list(walk(prog)) == _preorder(prog)
    assert list(walk(Program(()))) == []


def test_walk_functions_match_the_recursions_they_replace():
    rng = random.Random(20261018)
    renamed = spliced = unknown = 0
    for case in range(400):
        prog = _random_program(rng)
        assert list(walk(prog)) == _preorder(prog), case
        assert classify_hidden(prog) == _old_classify_hidden(prog), case
        assert classify_choiceless(prog) == _old_classify_choiceless(prog), case
        assert _declared_names(prog) == _old_declared_names(prog), case

        names = sorted({s.name for s in _preorder(prog) if isinstance(s, (HidVar, Unvar))}
                       | {"u", "v", "w", "t"})
        mapping = {n: n + "'" for n in names if rng.random() < 0.5}
        old = _old_rename_program(_clone(prog), mapping)
        new = copy_program(prog, mapping)
        assert new == old and program_text(new) == program_text(old), case
        assert _positions(new) == _positions(old), case
        renamed += program_text(new) != program_text(prog)

        bodies = {"op_a": _random_program(rng), "op_b": Program(())}
        try:
            old = _old_splice_calls(_clone(prog), bodies)
            old_error = None
        except TypecheckError as exc:
            old_error = (str(exc), exc.pos)
        try:
            new = copy_program(prog, ops=bodies)
            new_error = None
        except TypecheckError as exc:
            new_error = (str(exc), exc.pos)
        assert new_error == old_error, case
        if old_error is None:
            assert new == old and _positions(new) == _positions(old), case
            spliced += 1
        else:
            unknown += 1
    # Every route was taken many times.
    assert min(renamed, spliced, unknown) >= 40, (renamed, spliced, unknown)


def test_typecheck_labels_the_sites_as_the_old_labeller_did():
    """Typechecking labels each `print`, `if` and `[]` as ``_old_label_sites`` did.

    On a loop-free program every label is the old one.  With a `while`, the
    old labeller raised at the first one in preorder: the statements before
    it keep their old labels, and the oracle rejects the program.  Half the
    programs begin with `hidvar` sugar, whose choices are sites too.
    """
    rng = random.Random(20261020)
    loop_free = looping = sugar = 0
    for case in range(300):
        shape = ProgramShape(loops=rng.random() < 0.7, nondet=rng.random() < 0.8,
                             visible=rng.random() < 0.9)
        ctx, prog, _ = gen_typed_program(rng, rng.randint(2, 4), shape)
        if rng.random() < 0.5:
            operands = [*ctx.names, 0, 1]
            limbs = [_dist(*rng.sample(operands, rng.randint(1, 2)))
                     for _ in range(rng.randint(2, 4))]
            prog.stmts = (_hidvar_sugar("z", limbs),) + prog.stmts
            typecheck_program(prog, ctx)
            sugar += 1
        old = _clone(prog)
        stmts = _preorder(prog)
        try:
            _old_label_sites(old)
            reached = len(stmts)
            loop_free += 1
        except LoopFreeError:
            reached = next(k for k, s in enumerate(stmts) if isinstance(s, While))
            with pytest.raises(LoopFreeError):
                choice_points(prog, uniform_dist(ctx))
            looping += 1
        assert [s.meta.label for s in stmts[:reached]] == \
            [s.meta.label for s in _preorder(old)[:reached]], case
    assert min(loop_free, looping, sugar) >= 60, (loop_free, looping, sugar)


def test_inline_text_is_unchanged_on_every_corpus_pair():
    datatypes = [parse_datatype_file(p.read_text(), name=p.name)
                 for p in sorted(CORPUS.glob("*.dt"))]
    contexts = [parse_context_file(p.read_text(), name=p.name)
                for p in sorted(CORPUS.glob("*.ctx"))]
    checked = 0
    for d, ctx in itertools.product(datatypes, contexts):
        try:
            expected = _old_inline(ctx, d)
        except TypecheckError as exc:
            with pytest.raises(TypecheckError) as got:
                inline(ctx, d)
            assert str(got.value) == str(exc), (d.name, ctx.name)
            continue
        composite = inline(ctx, d)
        assert program_text(composite) == program_text(expected), (d.name, ctx.name)
        assert _positions(composite) == _positions(expected), (d.name, ctx.name)
        checked += 1
    assert checked >= 10


CLASH_DT = """
shared:
  s : {0,1}
encap:
  k : {0,1}
  k' : {0,1}
init:
  hidvar k : {0,1} := 0 @ 1/2 | 1;
  hidvar k' : {0,1} := k
op next:
  hidvar t := {k} [] {k'};
  s := t xor k;
  unvar t;
  k := k'
final:
  unvar k;
  unvar k'
"""

CLASH_CTX = """
client:
  k : {0,1}
  t : {0,1}
body:
  if k = 0 { call next } else { skip };
  t := s;
  call next
"""

# `k` becomes k'2, as k' is taken; `t` becomes t'.
CLASH_INLINED = """hidvar k'2 : int 0..1 := 0 @ 1/2 | 1;
hidvar k' : int 0..1 := k'2;
if k = 0 {
  {
    hidvar t' := k'2
  } [] {
    hidvar t' := k'
  };
  s := t' xor k'2;
  unvar t';
  k'2 := k'
} else {
  skip
};
t := s;
{
  hidvar t' := k'2
} [] {
  hidvar t' := k'
};
s := t' xor k'2;
unvar t';
k'2 := k';
unvar k'2;
unvar k'"""


def _nodes(prog):
    """``prog`` and every program and statement node nested in it."""
    out = [prog]
    for s in prog.stmts:
        out.append(s)
        for field in _NESTED.get(type(s), ()):
            out += _nodes(getattr(s, field))
    return out


def _shared(a, b):
    """The nodes, and separately the annotations, that two node lists share."""
    return ({id(n) for n in a} & {id(n) for n in b},
            {id(n.meta) for n in a} & {id(n.meta) for n in b})


def test_inline_renames_client_clashes_with_two_internal_names():
    d = parse_datatype_file(CLASH_DT, name="clash.dt")
    ctx = parse_context_file(CLASH_CTX, name="clash.ctx")
    composite = inline(ctx, d)
    assert program_text(composite) == CLASH_INLINED
    assert program_text(composite) == program_text(_old_inline(ctx, d))
    assert _positions(composite) == _positions(_old_inline(ctx, d))
    # The datatype and the context are left as parsed.
    assert program_text(d.op("next")).startswith("{\n  hidvar t := k\n} [] {\n  hidvar t := k'\n}")
    assert program_text(ctx.body).endswith("call next")
    # The composite is built of copies: no node or annotation of it is parsed.
    parsed = [n for p in (d.init, d.op("next"), d.final, ctx.body) for n in _nodes(p)]
    assert _shared(_nodes(composite), parsed) == (set(), set())
    # Each `call next` is its own copy of the operation's body.
    first, second = composite.stmts[2].then, Program(composite.stmts[4:8])
    assert first == second
    assert _shared(_nodes(first)[1:], _nodes(second)[1:]) == (set(), set())


def test_a_copy_keeps_only_positions_and_leaves_the_source_annotations():
    from preloss.contexts import VarContext

    prog = parse_program_text(
        "hidvar y : {0,1} := x; if x = 0 { print y } else { x := 1 - x }; "
        "{ assert y = 1 } [] { skip }; while x = 1 { x := 0 @ 1/2 | 1 }; unvar y")
    typecheck_program(prog, VarContext.of(("x", (0, 1))))
    source = _nodes(prog)
    before = [(n.meta.pre, n.meta.post, n.meta.kernel, n.meta.label) for n in source]
    assert sum(k is not None for _, _, k, _ in before) == 9

    copied = copy_program(prog)
    assert copied == prog and _shared(_nodes(copied), source) == (set(), set())
    for node, original in zip(_nodes(copied), source):
        assert node.meta.pos == original.meta.pos
        assert all(getattr(node.meta, slot) is None
                   for slot in Meta.__slots__ if slot != "pos"), node
    typecheck_program(copied, VarContext.of(("x", (0, 1, 2))))
    after = [(n.meta.pre, n.meta.post, n.meta.kernel, n.meta.label) for n in source]
    assert all(x is y for old, new in zip(before, after) for x, y in zip(old, new))
    assert copied.meta.pre != prog.meta.pre


def test_unknown_operation_keeps_its_message_and_position():
    d = parse_datatype_file(CLASH_DT, name="clash.dt")
    text = CLASH_CTX.replace("call next }", "call nxt }").replace("call next", "call other")
    ctx = parse_context_file(text, name="c.ctx")
    # The first unknown `call` in preorder is reported, though it is nested.
    with pytest.raises(TypecheckError, match=r"^6:14: unknown operation 'nxt'$"):
        inline(ctx, d)
    with pytest.raises(TypecheckError, match=r"^6:14: unknown operation 'nxt'$"):
        _old_inline(ctx, d)
