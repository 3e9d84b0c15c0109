"""The one statement walk (``syntax.sub_programs``, ``syntax.walk``) and the
functions built on it, checked against private copies of the hand-written
recursions they replaced: the classifiers, the declared names, renaming,
call splicing, site labels and inlining.
"""

import dataclasses
import itertools
import pathlib
import random
import typing
from typing import Dict, List

import pytest

from preloss import syntax
from preloss.adversary import LoopFreeError, label_sites
from preloss.parsing import parse_context_file, parse_datatype_file, parse_program_text
from preloss.syntax import (
    Abort, Assert, Assign, CallOp, DistBranch, DistExpr, HidVar, If, NonDet,
    Print, Program, Skip, Stmt, Unvar, While, program_text, sub_programs, walk,
)
from preloss.exprs import Lit, Name
from preloss.typecheck import (
    TypecheckError, _declared_names, _rename, _rename_dist, _rename_expr,
    _splice_calls, classify_choiceless, classify_hidden, clone, inline,
    typecheck_program, validate_datatype,
)

from conftest import ProgramShape, gen_context, gen_program

CORPUS = pathlib.Path("corpus")


# ------------------------------------------------- the recursions replaced

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
            out.append(clone(s))
            continue
        if isinstance(s, Assign):
            node = Assign(tuple(mapping.get(t, t) for t in s.targets),
                          _rename_dist(s.dist, mapping))
        elif isinstance(s, HidVar):
            hint = None
            if s.domain_hint is not None:
                hint = tuple(_rename_dist(d, mapping) for d in s.domain_hint)
            node = HidVar(mapping.get(s.name, s.name), s.domain,
                          _rename_dist(s.dist, mapping), hint)
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
            out.extend(clone(bodies[s.name]).stmts)
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
    d = clone(d)
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
    body = _old_splice_calls(clone(ctx_prog.body), bodies)
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
    hint = tuple(dists)
    limbs = [Program((HidVar(name, None, d, domain_hint=hint),)) for d in dists]
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
    loop_free = raised = renamed = spliced = unknown = 0
    for case in range(400):
        prog = _random_program(rng)
        assert list(walk(prog)) == _preorder(prog), case
        assert classify_hidden(prog) == _old_classify_hidden(prog), case
        assert classify_choiceless(prog) == _old_classify_choiceless(prog), case
        assert _declared_names(prog) == _old_declared_names(prog), case

        old, new = clone(prog), clone(prog)
        try:
            _old_label_sites(old)
            old_error = None
        except LoopFreeError as exc:
            old_error = str(exc)
        try:
            assert label_sites(new) is new
            new_error = None
        except LoopFreeError as exc:
            new_error = str(exc)
        assert new_error == old_error, case
        assert [s.meta.label for s in _preorder(new)] == [s.meta.label for s in _preorder(old)]
        loop_free += old_error is None
        raised += old_error is not None

        names = sorted({s.name for s in _preorder(prog) if isinstance(s, (HidVar, Unvar))}
                       | {"u", "v", "w", "t"})
        mapping = {n: n + "'" for n in names if rng.random() < 0.5}
        old = _old_rename_program(clone(prog), mapping)
        new = clone(prog)
        _rename(new, mapping)
        assert new == old and program_text(new) == program_text(old), case
        assert _positions(new) == _positions(old), case
        renamed += program_text(new) != program_text(prog)

        bodies = {"op_a": _random_program(rng), "op_b": Program(())}
        try:
            old = _old_splice_calls(clone(prog), bodies)
            old_error = None
        except TypecheckError as exc:
            old_error = (str(exc), exc.pos)
        new = clone(prog)
        try:
            _splice_calls(new, bodies)
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
    assert min(loop_free, raised, renamed, spliced, unknown) >= 40, (
        loop_free, raised, renamed, spliced, unknown)


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
  hidvar t' := {k'2} [] {k'};
  s := t' xor k'2;
  unvar t';
  k'2 := k'
} else {
  skip
};
t := s;
hidvar t' := {k'2} [] {k'};
s := t' xor k'2;
unvar t';
k'2 := k';
unvar k'2;
unvar k'"""


def test_inline_renames_client_clashes_with_two_internal_names(monkeypatch):
    from preloss import typecheck

    d = parse_datatype_file(CLASH_DT, name="clash.dt")
    ctx = parse_context_file(CLASH_CTX, name="clash.ctx")
    copied = []

    def counted_clone(node):
        copied.append(type(node).__name__)
        return clone(node)

    monkeypatch.setattr(typecheck, "clone", counted_clone)
    composite = inline(ctx, d)
    # One copy of the datatype, one of the context body, one per `call`.
    assert copied == ["Datatype", "Program", "Program", "Program"]
    assert program_text(composite) == CLASH_INLINED
    assert program_text(composite) == program_text(_old_inline(ctx, d))
    assert _positions(composite) == _positions(_old_inline(ctx, d))
    # The datatype and the context are left as parsed.
    assert program_text(d.op("next")).startswith("hidvar t := {k} [] {k'}")
    assert program_text(ctx.body).endswith("call next")


def test_unknown_operation_keeps_its_message_and_position():
    d = parse_datatype_file(CLASH_DT, name="clash.dt")
    text = CLASH_CTX.replace("call next }", "call nxt }").replace("call next", "call other")
    ctx = parse_context_file(text, name="c.ctx")
    # The first unknown `call` in preorder is reported, though it is nested.
    with pytest.raises(TypecheckError, match=r"^6:14: unknown operation 'nxt'$"):
        inline(ctx, d)
    with pytest.raises(TypecheckError, match=r"^6:14: unknown operation 'nxt'$"):
        _old_inline(ctx, d)
