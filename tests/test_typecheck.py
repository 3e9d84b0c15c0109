import random
from fractions import Fraction

import pytest

from preloss.contexts import VarContext
from preloss.parsing import parse_context_file, parse_datatype_file, parse_program_text
from preloss.syntax import HidVar, Program, program_text, walk
from preloss.typecheck import (
    TypecheckError, classify_choiceless, classify_hidden, inline,
    typecheck_program, validate_datatype,
)

from conftest import gen_context

B = VarContext.of(("b", (0, 1)))
EMPTY = VarContext(())


def check(src, ctx=EMPTY):
    prog = parse_program_text(src)
    post = typecheck_program(prog, ctx)
    return prog, post


def test_hidvar_then_unvar_restores_context():
    prog, post = check("hidvar x : {0,1} := 0; unvar x", B)
    assert post == B
    assert prog.stmts[0].meta.pre == B
    assert prog.stmts[0].meta.post == B.append("x", (0, 1))


def test_redeclaration_and_missing_unvar():
    with pytest.raises(TypecheckError, match="re-declares"):
        check("hidvar b : {0,1} := 0", B)
    with pytest.raises(TypecheckError, match="undeclared"):
        check("unvar x", B)
    with pytest.raises(TypecheckError, match="undeclared"):
        check("x := 0", B)


def test_branch_context_mismatch():
    with pytest.raises(TypecheckError, match="different contexts"):
        check("if b = 0 { hidvar x : {0,1} := 0 } else { skip }", B)
    with pytest.raises(TypecheckError, match="different contexts"):
        check("{ hidvar x : {0,1} := 0 } [] { skip }", B)


def test_while_body_must_preserve_context():
    with pytest.raises(TypecheckError, match="preserve"):
        check("while b = 1 { hidvar x : {0,1} := 0 }", B)


def test_guard_range_is_checked_statewise():
    check("assert 1/2", B)
    with pytest.raises(TypecheckError, match="above 1"):
        check("assert 3/2", B)
    with pytest.raises(TypecheckError, match="above 1"):
        check("if b + b { skip } else { skip }", VarContext.of(("b", (0, 2))))


def test_domain_inference_covers_all_choice_limbs():
    prog, post = check("hidvar b := {0} [] {1}")
    assert post == B
    # The brace expansion is the same program, typed the same way.
    prog, post = check("{ hidvar b := 0 } [] { hidvar b := 1 }")
    assert post == B
    prog2, post2 = check("hidvar n := uniform(0..3)")
    assert post2 == VarContext.of(("n", range(4)))


def test_choice_limbs_evaluate_each_distribution_once(monkeypatch):
    """The limbs of `hidvar x := d1 [] ... [] dk` share one domain inference."""
    from preloss import typecheck

    calls = []
    real = typecheck.eval_dist
    monkeypatch.setattr(typecheck, "eval_dist", lambda *a: calls.append(a) or real(*a))
    prog, post = check("hidvar x := 0 [] 1 [] 2 [] 3")
    assert len(calls) == 4
    assert post == VarContext.of(("x", range(4)))
    limbs = [s for s in walk(prog) if isinstance(s, HidVar)]
    assert [dict(s.meta.kernel.rows[0]) for s in limbs] == [{i: 1} for i in range(4)]
    assert all(s.meta.post == post for s in limbs)


def _random_dist_text(rng, ctx):
    """A distribution over ``ctx``'s variables, as written in a program."""
    def expr():
        a = rng.choice([*ctx.names, "0", "1", "2"])
        return a if rng.random() < 0.5 else f"({a} + {rng.choice(ctx.names)}) mod 3"

    n = rng.randint(1, 3)
    if rng.random() < 0.2:
        return "uniform(" + ", ".join(expr() for _ in range(n)) + ")"
    # Every branch but the last weighs 1/(n + 1); the last takes the rest.
    return " | ".join([f"{expr()} @ 1/{n + 1}" for _ in range(n - 1)] + [expr()])


def _annotations(prog):
    return [(s.meta.pre, s.meta.post, s.meta.kernel, s.meta.label) for s in walk(prog)]


def test_hidvar_sugar_is_its_brace_expansion(monkeypatch):
    """`hidvar x [: D] := d1 [] ... [] dk` and `{ hidvar x [: D] := d1 } [] ... []
    { hidvar x [: D] := dk }` parse to equal trees and typecheck alike, each
    distribution evaluated once.  An omitted domain is every value of every
    limb in first-met order; each limb's kernel is its own with that domain."""
    from preloss import typecheck

    calls = []
    real = typecheck.eval_dist
    monkeypatch.setattr(typecheck, "eval_dist", lambda *a: calls.append(a) or real(*a))
    rng = random.Random(20261020)
    declared = omitted = 0
    for case in range(150):
        ctx = gen_context(rng, max_states=8)
        dists = [_random_dist_text(rng, ctx) for _ in range(rng.randint(2, 4))]
        domain = rng.choice(["", "", " : {0,1,2}", " : int 0..3", " : {1}"])
        sugar = parse_program_text(f"hidvar x{domain} := " + " [] ".join(
            "{" + d + "}" for d in dists))
        expansion = parse_program_text(" [] ".join(
            f"{{ hidvar x{domain} := {d} }}" for d in dists))
        assert sugar == expansion, case
        assert parse_program_text(program_text(sugar)) == sugar, case

        calls.clear()
        post = typecheck_program(sugar, ctx)
        assert len(calls) == len(dists), case
        calls.clear()
        assert typecheck_program(expansion, ctx) == post, case
        assert len(calls) == len(dists), case
        assert _annotations(sugar) == _annotations(expansion), case

        limbs = [s for s in walk(sugar) if isinstance(s, HidVar)]
        shared = post.vars[-1][1]
        if domain:
            declared += 1
        else:
            alone = [typecheck_program(Program((HidVar("x", None, h.dist),)), ctx).vars[-1][1]
                     for h in limbs]
            assert shared == tuple(dict.fromkeys(v for d in alone for v in d)), case
            omitted += 1
        for limb in limbs:
            prog = Program((HidVar("x", shared, limb.dist),))
            typecheck_program(prog, ctx)
            assert limb.meta.kernel == prog.stmts[0].meta.kernel, case
    assert min(declared, omitted) >= 50, (declared, omitted)


def test_out_of_domain_assignment_becomes_abort_mass():
    prog, _ = check("n := n + 1", VarContext.of(("n", range(3))))
    k = prog.stmts[0].meta.kernel
    assert dict(k.rows[0]) == {1: Fraction(1)}
    assert dict(k.rows[2]) == {}  # 2+1 is outside the domain: aborts


def test_weights_validated():
    with pytest.raises(TypecheckError, match="> 1"):
        check("b := 0 @ 2/3 | 1 @ 1/2", B)
    with pytest.raises(TypecheckError, match="positive"):
        check("b := 0 @ 1 | 1", B)  # remainder weight would be zero


def test_multi_target_assignment():
    ctx = VarContext.of(("x", (0, 1)), ("y", (0, 1)))
    prog, _ = check("x, y := (1, x)", ctx)
    k = prog.stmts[0].meta.kernel
    assert dict(k.rows[ctx.index_of((0, 0))]) == {ctx.index_of((1, 0)): Fraction(1)}
    with pytest.raises(TypecheckError, match="tuple"):
        check("x, y := 1", ctx)
    with pytest.raises(TypecheckError, match="2-tuple, got \\(1,2,3\\)"):
        check("x, y := (1, 2, 3)", ctx)
    with pytest.raises(TypecheckError, match="duplicate"):
        check("x, x := (0, 1)", ctx)


def test_classifiers():
    hidden, _ = check("hidvar b := 0 @ 1/2 | 1")
    assert classify_hidden(hidden) and classify_choiceless(hidden)
    leaky, _ = check("print b", B)
    assert not classify_hidden(leaky) and classify_choiceless(leaky)
    choice, _ = check("{ b := 0 } [] { b := 1 }", B)
    assert classify_hidden(choice) and not classify_choiceless(choice)
    asserting, _ = check("assert b = 0", B)
    assert classify_hidden(asserting) and classify_choiceless(asserting)
    looping, _ = check("while b = 1 { b := 0 @ 1/2 | 1 }", B)
    assert not classify_hidden(looping) and classify_choiceless(looping)


def test_typecheck_is_repeatable():
    prog = parse_program_text("hidvar x : {0,1} := b; unvar x")
    assert typecheck_program(prog, B) == B
    assert typecheck_program(prog, B) == B  # annotations overwritten in place


RANDBIT_CACHED = """
shared:
  s : {0,1}
encap:
  b : {0,1}
init:
  hidvar b : {0,1} := 0 @ 1/2 | 1
op next:
  s := b;
  b := 0 @ 1/2 | 1
final:
  unvar b
"""


def test_validate_datatype_signatures():
    d = parse_datatype_file(RANDBIT_CACHED)
    working = validate_datatype(d)
    assert working == VarContext.of(("s", (0, 1)), ("b", (0, 1)))
    bad = parse_datatype_file(RANDBIT_CACHED.replace("final:\n  unvar b", "final:\n  skip"))
    with pytest.raises(TypecheckError, match="final"):
        validate_datatype(bad)
    bad2 = parse_datatype_file(RANDBIT_CACHED.replace("init:\n  hidvar b : {0,1} := 0 @ 1/2 | 1",
                                                      "init:\n  skip"))
    with pytest.raises(TypecheckError, match="init"):
        validate_datatype(bad2)


def test_inline_simple_hole():
    d = parse_datatype_file("""
    shared:
      s : {0,1}
    encap:
    init:
      skip
    op next:
      s := 0 @ 1/2 | 1
    final:
      skip
    """)
    c = parse_context_file("client:\nbody:\n call next")
    comp = inline(c, d)
    assert program_text(comp) == "skip;\ns := 0 @ 1/2 | 1;\nskip"


def test_inline_extends_ops_over_client_variables():
    d = parse_datatype_file(RANDBIT_CACHED)
    c = parse_context_file("""
    client:
      x : {0,1}
      y : {0,1}
    body:
      x := {0} [] {1};
      call next;
      y := s
    """)
    comp = inline(c, d)
    assert comp.meta.pre == VarContext.of(("s", (0, 1)), ("x", (0, 1)), ("y", (0, 1)))
    assert comp.meta.post == comp.meta.pre


def test_inline_renames_colliding_encapsulated_variables():
    d = parse_datatype_file(RANDBIT_CACHED)
    c = parse_context_file("""
    client:
      b : {0,1}
    body:
      call next;
      b := s
    """)
    comp = inline(c, d)
    text = program_text(comp)
    assert "hidvar b' : {0, 1}" in text or "hidvar b' : int 0..1" in text
    assert "unvar b'" in text
    # the client's own b is untouched
    assert "b := s" in text


def test_inline_rename_preserves_semantics():
    """The renamed composite behaves exactly like an alpha-varied original."""
    from preloss.losses import embed
    from preloss.predicates import Predicate
    from preloss.semantics import weakest_preloss

    # The client's b clashes with the encapsulated b, which the op reads
    # under '!', unary '-', indexing and a tuple: each must be renamed.
    d = parse_datatype_file(RANDBIT_CACHED.replace("s := b;", "s := (!(!b), -(-b))[s];"))
    collide = parse_context_file("client:\n b : {0,1}\nbody:\n call next;\n b := s")
    fresh = parse_context_file("client:\n c : {0,1}\nbody:\n call next;\n c := s")
    comp1 = inline(collide, d)
    comp2 = inline(fresh, d)
    for state_fn in (lambda s: 1 if s[0] == s[1] else 0, lambda s: 1 if s[1] == 1 else 0):
        e1 = Predicate.from_function(comp1.meta.post, state_fn)
        e2 = Predicate.from_function(comp2.meta.post, state_fn)
        r1 = weakest_preloss(comp1, embed(e1)).pre
        r2 = weakest_preloss(comp2, embed(e2)).pre
        assert [g.entries for g in r1.gens] == [g.entries for g in r2.gens]


def test_inline_unknown_op():
    d = parse_datatype_file(RANDBIT_CACHED)
    c = parse_context_file("client:\nbody:\n call missing")
    with pytest.raises(TypecheckError, match="missing"):
        inline(c, d)


def test_call_outside_context_rejected():
    with pytest.raises(TypecheckError, match="hole"):
        check("call next", B)
