import pathlib
import random
from fractions import Fraction

import pytest
from hypothesis import given, seed, settings, strategies as st

from preloss.contexts import EMPTY, VarContext
from preloss.kernels import Transformer
from preloss.losses import (
    LossFunction, embed, eval_loss, is_zero_loss, loss_conj, loss_equal,
    loss_map, loss_refines, one_loss, uniform_dist,
)
from preloss.parsing import parse_program_text
from preloss.predicates import Predicate
from preloss.semantics import weakest_preloss, while_partial_sums
from preloss.typecheck import typecheck_program

from conftest import (
    ProgramShape, gen_context, gen_kernel, gen_loss, gen_predicate, gen_program,
)

B = VarContext.of(("b", (0, 1)))
N4 = VarContext.of(("n", range(4)))


def typed(src, ctx=EMPTY):
    prog = parse_program_text(src)
    typecheck_program(prog, ctx)
    return prog


def test_skip_is_identity():
    rng = random.Random(0)
    prog = typed("skip", B)
    for _ in range(10):
        E = gen_loss(rng, B)
        assert loss_equal(weakest_preloss(prog, E).pre, E)


def test_abort_is_zero():
    prog = typed("abort", B)
    assert is_zero_loss(weakest_preloss(prog, one_loss(B)).pre)


def test_reveal_then_choice_matches_four_generator_result():
    prog = typed("print (n div 2); hidvar b : {0,1} := {0} [] {1}", N4)
    post = prog.meta.post
    parity = Predicate.from_function(post, lambda s: 1 if (s[0] + s[1]) % 2 == 0 else 0)
    res = weakest_preloss(prog, embed(parity))
    u = [Predicate.unit(N4, (i,)) for i in range(4)]
    expected = LossFunction(N4, (u[0] + u[2], u[0] + u[3], u[1] + u[2], u[1] + u[3]))
    assert loss_equal(res.pre, expected)
    assert len(res.pre.gens) == 4  # canonical: all four are irredundant
    assert eval_loss(res.pre, uniform_dist(N4)) == Fraction(1, 2)


def test_assert_equals_guarded_conjunction_and_if_abort():
    rng = random.Random(1)
    asserting = typed("assert b = 0", B)
    branching = typed("if b = 0 { skip } else { abort }", B)
    guard = Predicate.unit(B, (0,))
    for _ in range(20):
        E = gen_loss(rng, B)
        via_assert = weakest_preloss(asserting, E).pre
        assert loss_equal(via_assert, loss_conj(guard, E))
        assert loss_equal(via_assert, weakest_preloss(branching, E).pre)


def test_unvar_is_cylinder_extension():
    rng = random.Random(2)
    ctx = VarContext.of(("x", range(3)), ("y", (0, 1)))
    prog = typed("unvar x", ctx)
    for _ in range(10):
        E = gen_loss(rng, VarContext.of(("y", (0, 1))))
        res = weakest_preloss(prog, E).pre
        assert res.ctx == ctx
        expected = LossFunction(ctx, tuple(g.extend_to(ctx) for g in E.gens))
        assert loss_equal(res, expected)
        for g in res.gens:  # the pre-loss is independent of the dropped variable
            for y in (0, 1):
                assert len({g.at((x, y)) for x in range(3)}) == 1


def test_hidvar_transformer_agrees_with_diag_composition():
    from preloss.kernels import diag_dual
    from preloss.semantics import _hidvar_tf

    prog = typed("hidvar b : {0,1} := n mod 2 @ 3/4 | 1 - n mod 2", N4)
    s = prog.stmts[0]
    direct = _hidvar_tf(s, EMPTY)
    k = s.meta.kernel  # N4 -> single-var space
    copy = VarContext(tuple((n + "$", d) for n, d in N4.vars))
    relabeled = type(k).from_rows(copy, k.dst, [dict(r) for r in k.rows])
    composed = diag_dual(N4).compose(Transformer.identity(N4).tensor(relabeled.dual()))
    rng = random.Random(3)
    for _ in range(20):
        e = gen_predicate(rng, s.meta.post)
        via_composed = composed.apply(Predicate(composed.dst, e.entries))
        assert direct.apply(e).entries == via_composed.entries


def test_linear_transformer_matches_clause_by_clause_with_hidvar():
    """A loop body that declares a hidden variable compiles to one matrix
    equal to evaluating its clauses one by one."""
    from preloss.semantics import _wpl_program, linear_transformer

    src = "while n < 2 { hidvar t : {0,1} := 0 @ 1/2 | 1; n := n + t; unvar t }"
    z = VarContext.of(("z", (0, 1)))
    body = typed(src, N4).stmts[0].body
    rng = random.Random(11)
    for ext in (EMPTY, z):
        tf = linear_transformer(body, ext)
        assert tf is not None
        for _ in range(8):
            E = gen_loss(rng, tf.dst, inf_prob=0.1)
            via_matrix = loss_map(tf, E)
            via_clauses = _wpl_program(body, E, ext, 64, {})
            assert loss_equal(via_matrix, via_clauses)
            assert sorted(g.sort_token() for g in via_matrix.gens) == \
                sorted(g.sort_token() for g in via_clauses.gens)


def test_while_with_hidvar_body_evaluates():
    prog = typed("while n < 2 { hidvar t : {0,1} := 0 @ 1/2 | 1; n := n + t; unvar t }", N4)
    res = weakest_preloss(prog, one_loss(N4), loop_budget=8)
    (status,) = res.loop_status.values()
    assert status.kind == "truncated" and status.n == 8
    (g,) = res.pre.gens
    assert g.at((2,)) == g.at((3,)) == 1  # the loop exits at once
    assert Fraction(1, 2) < g.at((0,)) < g.at((1,)) < 1  # truncated after 8 terms


def test_while_terms_and_convergence():
    prog = typed("while c = 1 { c := 1 @ 1/2 | 0 }", VarContext.of(("c", (0, 1))))
    ctx = prog.meta.pre
    sums = while_partial_sums(prog.stmts[0], one_loss(ctx), EMPTY, 20)
    for n in range(21):
        expected = Fraction(1) - Fraction(1, 2 ** n)
        assert sums[n].gens[0].at((1,)) == expected
        assert sums[n].gens[0].at((0,)) == 1
        assert loss_refines(embed(Predicate.constant(ctx, expected)), sums[n])
    for n in range(20):
        assert loss_refines(sums[n], sums[n + 1])
    res = weakest_preloss(prog, one_loss(ctx), loop_budget=12)
    (status,) = res.loop_status.values()
    assert status.kind == "truncated" and status.n == 12


def test_while_converges_when_terms_vanish():
    prog = typed("while n != 3 { n := n + 1 }", N4)
    res = weakest_preloss(prog, one_loss(N4))
    (status,) = res.loop_status.values()
    assert status.kind == "converged"
    assert loss_equal(res.pre, one_loss(N4))


def test_loop_budget_validation():
    prog = typed("skip", B)
    with pytest.raises(ValueError):
        weakest_preloss(prog, one_loss(B), loop_budget=0)


def test_post_context_validation():
    prog = typed("skip", B)
    with pytest.raises(ValueError, match="post"):
        weakest_preloss(prog, one_loss(N4))


def test_print_identities_on_losses():
    rng = random.Random(4)
    printb = typed("print b", B)
    printbb = typed("print b; print b", B)
    printnb = typed("print !b", B)
    for _ in range(30):
        E = gen_loss(rng, B)
        once = weakest_preloss(printb, E).pre
        twice = weakest_preloss(printbb, E).pre
        assert loss_refines(once, E)          # revealing refines into nothing
        assert loss_refines(twice, once)      # printing twice is below once
        assert loss_equal(once, weakest_preloss(printnb, E).pre)


def test_print_skips_zero_weight_observations():
    ctx = VarContext.of(("n", range(4)))
    prog = typed("print 0 * n", ctx)  # single observable value
    rng = random.Random(5)
    E = gen_loss(rng, ctx)
    assert loss_equal(weakest_preloss(prog, E).pre, E)


def test_weak_frame_rule_instance():
    rng = random.Random(6)
    z = VarContext.of(("z", (0, 1, 2)))
    prog = typed("print b; b := 0 @ 1/3 | 1", B)
    for _ in range(15):
        E = gen_loss(rng, B)
        e_z = gen_predicate(rng, z)
        framed_gens = tuple(
            g.extend(z).conj(e_z.extend_to(B.merge(z))) for g in E.gens
        )
        framed = LossFunction(B.merge(z), framed_gens)
        lhs = weakest_preloss(prog, framed, extension=z).pre
        inner = weakest_preloss(prog, E).pre
        rhs_gens = tuple(
            g.extend(z).conj(e_z.extend_to(B.merge(z))) for g in inner.gens
        )
        rhs = LossFunction(B.merge(z), rhs_gens)
        assert loss_equal(lhs, rhs)


def test_extension_by_unused_variable_matches_plain():
    rng = random.Random(7)
    z = VarContext.of(("z", (0, 1)))
    prog = typed("print b; {b := 0} [] {b := 1}", B)

    def extend(E):
        return LossFunction(B.merge(z), tuple(g.extend(z) for g in E.gens))

    for _ in range(10):
        E = gen_loss(rng, B)
        plain = weakest_preloss(prog, E).pre
        extended = weakest_preloss(prog, extend(E), extension=z).pre
        assert loss_equal(extended, extend(plain))


def test_correlation_law_random_kernels():
    """map(id (x) g) . wpl_Z = wpl_W . map(id (x) g)."""
    rng = random.Random(8)
    z = VarContext.of(("z", (0, 1, 2)))
    w = VarContext.of(("w", (0, 1)))
    prog = typed("print b; {b := 0 @ 1/2 | 1} [] {assert b = 0}", B)
    for _ in range(15):
        g = gen_kernel(rng, w, z).dual()  # Pred z -> Pred w
        E = gen_loss(rng, B.merge(z))
        lhs = loss_map(Transformer.identity(B).tensor(g),
                       weakest_preloss(prog, E, extension=z).pre)
        mapped_post = loss_map(Transformer.identity(B).tensor(g), E)
        rhs = weakest_preloss(prog, mapped_post, extension=w).pre
        assert loss_equal(lhs, rhs)


def test_wpl_of_skip_is_the_post_loss():
    prog = typed("skip", B)
    res = weakest_preloss(prog, one_loss(B))
    assert loss_equal(res.pre, one_loss(B))


def test_composite_database_value_gap():
    """End-to-end: membership lookup keeps the probe safe with value 1/2,
    the offset scan drops it to 3/8."""
    from preloss.parsing import parse_context_file, parse_datatype_file
    from preloss.typecheck import inline

    da = parse_datatype_file(pathlib.Path("corpus/encdb_membership.dt").read_text())
    dc = parse_datatype_file(pathlib.Path("corpus/encdb_offset_scan.dt").read_text())
    probe = parse_context_file(pathlib.Path("corpus/ctx_lookup_probe.ctx").read_text())
    comp_a, comp_c = inline(probe, da), inline(probe, dc)
    post = comp_a.meta.post
    E = embed(Predicate.from_function(post, lambda s: 1 if s[1][s[3]] != "c" else 0))
    prior = uniform_dist(comp_a.meta.pre)
    assert eval_loss(weakest_preloss(comp_a, E).pre, prior) == Fraction(1, 2)
    assert eval_loss(weakest_preloss(comp_c, E).pre, prior) == Fraction(3, 8)


def test_unvar_transformer_matches_tensor_route():
    """Dropping a variable acts as (ones-column (x) identity): the dual of
    the deterministic projection."""
    from preloss.semantics import _unvar_tf

    ctx = VarContext.of(("x", range(3)), ("y", (0, 1)))
    prog = typed("unvar x", ctx)
    direct = _unvar_tf(prog.stmts[0], EMPTY)
    xs = VarContext.of(("x", range(3)))
    ys = VarContext.of(("y", (0, 1)))
    tensored = Transformer.ones(xs).tensor(Transformer.identity(ys))
    assert direct.src == tensored.src and direct.dst == tensored.dst
    assert direct.rows == tensored.rows


def test_wpl_over_an_extension_context():
    z = VarContext.of(("z", (0, 1)))
    prog = typed("print b", B)
    E = one_loss(B.merge(z))
    res = weakest_preloss(prog, E, extension=z)
    assert loss_equal(res.pre, one_loss(B.merge(z)))
    with pytest.raises(Exception):
        weakest_preloss(prog, E, extension=VarContext.of(("b", (0, 1))))  # name clash


def test_randbit_composites_equal_on_sample_losses():
    """Direct and cached random-bit composites have identical pre-losses."""
    import random as _random

    from preloss.parsing import parse_context_file, parse_datatype_file
    from preloss.typecheck import inline

    da = parse_datatype_file(pathlib.Path("corpus/randbit_direct.dt").read_text())
    dc = parse_datatype_file(pathlib.Path("corpus/randbit_cached.dt").read_text())
    ctx = parse_context_file(pathlib.Path("corpus/ctx_sample_then_read.ctx").read_text())
    comp_a, comp_c = inline(ctx, da), inline(ctx, dc)
    rng = _random.Random(77)
    post = comp_a.meta.post
    losses = [one_loss(post)] + [gen_loss(rng, post) for _ in range(10)]
    for E in losses:
        assert loss_equal(weakest_preloss(comp_a, E).pre,
                          weakest_preloss(comp_c, E).pre)


STRAIGHT_LINE = dict(nondet=False, visible=False, loops=False)


@seed(20260808)
@settings(max_examples=60, deadline=None)
@given(case=st.integers(0, 2 ** 32 - 1), extended=st.booleans())
def test_fuzzed_straight_line_bodies_match_clause_by_clause(case, extended):
    """Bodies of hidvar, unvar, assert and assignments: one matrix equals
    evaluating the clauses one by one, with and without an extension."""
    from preloss.losses import loss_canonicalize
    from preloss.semantics import _wpl_program, linear_transformer

    rng = random.Random(case)
    ctx = gen_context(rng, max_states=6)
    body, _ = gen_program(rng, ctx, 0, ProgramShape(**STRAIGHT_LINE))
    typecheck_program(body, ctx)
    z = VarContext.of(("z", (0, 1))) if extended else EMPTY
    tf = linear_transformer(body, z)
    assert tf is not None
    E = loss_canonicalize(gen_loss(rng, tf.dst, inf_prob=0.1))
    via_matrix = loss_map(tf, E)
    via_clauses = _wpl_program(body, E, z, 64, {})
    assert loss_equal(via_matrix, via_clauses)
    assert sorted(g.sort_token() for g in via_matrix.gens) == \
        sorted(g.sort_token() for g in via_clauses.gens)
