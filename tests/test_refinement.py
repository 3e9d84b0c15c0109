import pathlib

import pytest

from preloss.contexts import VarContext
from preloss.families import FamilyOptions, standard_family
from preloss.losses import LossFunction, embed, eval_loss, loss_min
from preloss.parsing import (
    parse_context_file, parse_datatype_file, parse_program_file,
    parse_program_text,
)
from preloss.predicates import Predicate
from preloss.refinement import (
    check_backward_simulation, check_forward_simulation, data_refines,
    program_refines,
)
from preloss.typecheck import TypecheckError, typecheck_program

B = VarContext.of(("b", (0, 1)))
OPTS = FamilyOptions(max_subset=2, random=10, seed=7)


def typed(src, ctx):
    prog = parse_program_text(src)
    typecheck_program(prog, ctx)
    return prog


def load_dt(path):
    return parse_datatype_file(pathlib.Path(f"corpus/{path}").read_text(), name=path)


def load_ctx(path):
    return parse_context_file(pathlib.Path(f"corpus/{path}").read_text(), name=path)


def load_prog(path):
    initial, prog = parse_program_file(pathlib.Path(f"corpus/{path}").read_text())
    return typecheck_program(prog, initial) and prog


def test_reflexivity():
    prog = typed("print b; { b := 0 } [] { b := 1 }", B)
    assert program_refines(prog, prog, OPTS).kind == "holds"


def test_fails_is_self_certifying():
    skip = typed("skip", B)
    printb = typed("print b", B)
    v = program_refines(skip, printb, OPTS)
    assert v.kind == "fails"
    assert v.certificate_ok()
    assert eval_loss(v.lhs_pre, v.witness_prior) > eval_loss(v.rhs_pre, v.witness_prior)
    # the named witness: the guess-the-bit pair
    guess = loss_min(embed(Predicate.unit(B, (0,))), embed(Predicate.unit(B, (1,))))
    assert v.witness_loss == guess


def test_type_mismatch_rejected():
    skip = typed("skip", B)
    other = typed("skip", VarContext.of(("c", (0, 1))))
    with pytest.raises(TypecheckError, match="types differ"):
        program_refines(skip, other, OPTS)


def test_family_monotonicity_fails_never_becomes_holds():
    skip = typed("skip", B)
    printb = typed("print b", B)
    small = standard_family(B, FamilyOptions(max_subset=1, random=0, seed=0))
    large = standard_family(B, FamilyOptions(max_subset=2, random=30, seed=0))
    v_small = program_refines(skip, printb, small)
    v_large = program_refines(skip, printb, large)
    if v_small.kind == "fails":
        assert v_large.kind == "fails"


def test_transitivity_smoke():
    p = typed("print b; print b", B)
    q = typed("print b", B)
    r = typed("skip", B)
    fam = standard_family(B, FamilyOptions(max_subset=2, random=20, seed=9))
    assert program_refines(p, q, fam).kind == "holds"
    assert program_refines(q, r, fam).kind == "holds"
    assert program_refines(p, r, fam).kind == "holds"


def test_explicit_family_context_checked():
    skip = typed("skip", B)
    fam = standard_family(VarContext.of(("c", (0, 1))), FamilyOptions(random=0))
    with pytest.raises(ValueError, match="context"):
        program_refines(skip, skip, fam)


def test_refinement_with_extension_catches_correlation():
    """x := coin refines x := choice only when correlation is considered
    jointly; the extension variable rides along unchanged."""
    ctx = VarContext.of(("x", (0, 1)))
    z = VarContext.of(("z", (0, 1)))
    coin = typed("x := 0 @ 1/2 | 1", ctx)
    choice = typed("{ x := 0 } [] { x := 1 }", ctx)
    v = program_refines(choice, coin, OPTS, extension=z)
    assert v.kind == "holds"
    v2 = program_refines(coin, choice, OPTS, extension=z)
    assert v2.kind == "fails" and v2.certificate_ok()


def test_truncated_loops_give_inconclusive_holds():
    ctx = VarContext.of(("c", (0, 1)))
    loop = typed("while c = 1 { c := 1 @ 1/2 | 0 }", ctx)
    v = program_refines(loop, loop, FamilyOptions(max_subset=1, random=2, seed=1),
                        loop_budget=4)
    assert v.kind == "inconclusive"
    assert "truncat" in v.reason


def test_datatype_refinement_randbit_both_ways():
    da, dc = load_dt("randbit_direct.dt"), load_dt("randbit_cached.dt")
    ctx = load_ctx("ctx_sample_then_read.ctx")
    assert data_refines(da, dc, [ctx], OPTS).kind == "holds"
    assert data_refines(dc, da, [ctx], OPTS).kind == "holds"


def test_datatype_signature_mismatch():
    da = load_dt("randbit_direct.dt")
    other = load_dt("late_leak.dt")
    with pytest.raises(TypecheckError, match="operations"):
        data_refines(da, other, [load_ctx("ctx_sample_then_read.ctx")], OPTS)


def test_late_vs_early_leak_fails_with_certificate():
    da, dc = load_dt("late_leak.dt"), load_dt("early_leak.dt")
    v = data_refines(da, dc, [load_ctx("ctx_flip_or_keep.ctx")], OPTS)
    assert v.kind == "fails"
    assert v.context_name == "ctx_flip_or_keep.ctx"
    assert v.certificate_ok()
    assert v.rhs_value < v.lhs_value


def test_refresh_order_fails_with_certificate():
    da, dc = load_dt("refresh_after_read.dt"), load_dt("refresh_before_read.dt")
    v = data_refines(da, dc, [load_ctx("ctx_print_then_xor.ctx")], OPTS)
    assert v.kind == "fails" and v.certificate_ok()


def test_forward_simulation_randbit():
    da, dc = load_dt("randbit_direct.dt"), load_dt("randbit_cached.dt")
    rep = load_prog("rep_coin.prog")
    v = check_forward_simulation(da, dc, rep, OPTS)
    assert v.kind == "holds"
    assert [s.context_name for s in v.squares] == ["init", "op next", "final"]
    assert all(s.kind == "holds" for s in v.squares)


def test_forward_simulation_squares_are_equalities():
    """Each square also holds in the reverse direction on the family."""
    from preloss.refinement import _seq

    da, dc = load_dt("randbit_direct.dt"), load_dt("randbit_cached.dt")
    rep = load_prog("rep_coin.prog")
    shared = da.shared
    working = shared
    pairs = [
        (_seq(da.init, rep), _seq(dc.init), shared),
        (_seq(da.op("next"), rep), _seq(rep, dc.op("next")), shared),
        (_seq(da.final), _seq(rep, dc.final), shared),
    ]
    for lhs, rhs, pre in pairs:
        typecheck_program(lhs, pre)
        typecheck_program(rhs, pre)
        assert program_refines(lhs, rhs, OPTS).kind == "holds"
        assert program_refines(rhs, lhs, OPTS).kind == "holds"


def test_backward_simulation_randbit_swapped_roles():
    da, dc = load_dt("randbit_direct.dt"), load_dt("randbit_cached.dt")
    rep = load_prog("rep_coin.prog")
    v = check_backward_simulation(dc, da, rep, OPTS)
    assert v.kind == "holds"


def test_identity_simulation():
    da = load_dt("randbit_cached.dt")
    skip_rep = typed("skip", da.encap)
    v = check_forward_simulation(da, da, skip_rep, OPTS)
    assert v.kind == "holds"


def test_leaky_forward_rep_gate():
    da, dc = load_dt("late_leak.dt"), load_dt("early_leak.dt")
    rep = load_prog("rep_leak.prog")
    v = check_forward_simulation(da, dc, rep, OPTS)
    assert v.kind == "inconclusive"
    assert "hidden" in v.reason
    assert all(s.kind == "holds" for s in v.squares)


def test_choice_backward_rep_gate():
    da, dc = load_dt("refresh_after_read.dt"), load_dt("refresh_before_read.dt")
    rep = load_prog("rep_choice.prog")
    v = check_backward_simulation(da, dc, rep, OPTS)
    assert v.kind == "inconclusive"
    assert "choiceless" in v.reason
    assert all(s.kind == "holds" for s in v.squares)


def test_rep_touching_shared_rejected():
    da, dc = load_dt("late_leak.dt"), load_dt("early_leak.dt")
    rep = parse_program_text("s := b")
    with pytest.raises(TypecheckError, match="encapsulated"):
        check_forward_simulation(da, dc, rep, OPTS)


def test_rep_wrong_target_rejected():
    da, dc = load_dt("randbit_direct.dt"), load_dt("randbit_cached.dt")
    rep = parse_program_text("skip")  # ends in A's encap (empty), not C's
    with pytest.raises(TypecheckError, match="ends in"):
        check_forward_simulation(da, dc, rep, OPTS)


def test_distinctness_assert_backward_simulation_vacuous_domain():
    """Over the two four-cell arrays no duplicate-free array exists, so the
    assert-rep collapses every loss and the squares hold."""
    da = load_dt("encdb_spec_distinct.dt")
    dc = load_dt("encdb_offset_scan.dt")
    rep = load_prog("rep_distinct4.prog")
    v = check_backward_simulation(da, dc, rep, FamilyOptions(max_subset=1, random=5, seed=3))
    assert v.kind == "holds"


def test_distinctness_assert_fails_on_nonvacuous_domain():
    """With genuinely distinct two-cell arrays the offset scan's iteration
    count reveals found-vs-not-found, which the membership test never
    leaks: the op square fails with a certificate."""
    da = load_dt("encdb2_membership_distinct.dt")
    dc = load_dt("encdb2_offset_scan.dt")
    rep = load_prog("rep_distinct.prog")
    post = da.shared.merge(da.encap)
    guess_r = LossFunction(post, (
        Predicate.from_function(post, lambda s: 1 if s[2] == 0 else 0),
        Predicate.from_function(post, lambda s: 1 if s[2] == 1 else 0),
    ))
    v = check_backward_simulation(
        da, dc, rep, FamilyOptions(max_subset=1, random=0, seed=0, extra=(guess_r,)))
    assert v.kind == "fails"
    assert v.context_name == "op lookup"
    assert v.certificate_ok()


def test_linear_scan_index_leak_fails():
    """The plain scan's iteration count reveals where the probe sat."""
    da = load_dt("encdb_membership.dt")
    dc = load_dt("encdb_linear_scan.dt")
    probe = load_ctx("ctx_lookup_probe_c.ctx")
    v = data_refines(da, dc, [probe], FamilyOptions(max_subset=1, random=0, seed=0))
    assert v.kind == "fails" and v.certificate_ok()
    # and the offset obfuscation does not rescue it either, per the probe on a
    assert data_refines(
        da, load_dt("encdb_offset_scan.dt"), [load_ctx("ctx_lookup_probe.ctx")],
        FamilyOptions(max_subset=1, random=0, seed=0)).kind == "fails"
