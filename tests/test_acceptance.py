"""Acceptance suite: one test per acceptance criterion, each printing a
PASS/FAIL line (run with ``pytest tests/test_acceptance.py -s`` to see them
as they complete).  All comparisons are exact rational; the stated time
budgets are asserted.
"""

import json
import pathlib
import random
import time
from contextlib import contextmanager
from fractions import Fraction

from preloss.adversary import (
    choice_points, min_bayes_risk, min_bayes_risk_exhaustive,
)
from preloss.cli import main as cli_main
from preloss.contexts import VarContext
from preloss.families import FamilyOptions
from preloss.kernels import Transformer
from preloss.losses import (
    LossFunction, embed, eval_loss, loss_add, loss_equal, loss_map,
    loss_member_certified, loss_min, loss_refines, loss_scale, one_loss, uniform_dist,
)
from preloss.parsing import (
    parse_context_file, parse_datatype_file, parse_loss_text,
    parse_program_file, parse_program_text,
)
from preloss.predicates import Predicate
from preloss.refinement import (
    check_backward_simulation, check_forward_simulation, data_refines,
    program_refines,
)
from preloss.scalars import INF
from preloss.semantics import weakest_preloss
from preloss.typecheck import (
    classify_choiceless, classify_hidden, inline, typecheck_program,
)

from conftest import (
    ProgramShape, gen_dist, gen_kernel, gen_loss, gen_predicate,
    gen_typed_program,
)

CORPUS = "corpus"


def _announce(line):
    import sys

    sys.__stdout__.write(line + "\n")
    sys.__stdout__.flush()


@contextmanager
def criterion(n, desc, budget=None):
    t0 = time.monotonic()
    try:
        yield
    except BaseException:
        _announce(f"criterion {n} ({desc}): FAIL")
        raise
    dt = time.monotonic() - t0
    assert budget is None or dt < budget, f"criterion {n}: {dt:.1f}s over budget {budget}s"
    _announce(f"criterion {n} ({desc}): PASS ({dt:.2f}s)")


def typed(src, ctx):
    prog = parse_program_text(src)
    typecheck_program(prog, ctx)
    return prog


def run_cli_json(capsys, argv):
    capsys.readouterr()  # drain anything already printed
    code = cli_main(argv)
    out = capsys.readouterr().out
    return code, json.loads(out)


def load_dt(name):
    return parse_datatype_file(pathlib.Path(f"{CORPUS}/{name}").read_text(), name=name)


def load_ctx(name):
    return parse_context_file(pathlib.Path(f"{CORPUS}/{name}").read_text(), name=name)


def load_prog(name):
    initial, prog = parse_program_file(pathlib.Path(f"{CORPUS}/{name}").read_text())
    typecheck_program(prog, initial)
    return prog


def test_criterion_1_reveal_then_choice_golden(capsys):
    with criterion(1, "high-bit reveal golden table", budget=1.0):
        code, report = run_cli_json(capsys, ["wpl", f"{CORPUS}/parity_reveal.prog",
                                             "--post", f"{CORPUS}/parity_post.loss",
                                             "--json"])
        assert code == 0
        n4 = VarContext.of(("n", range(4)))
        generators = report["result"]["pre_loss"]["generators"]
        got = LossFunction(n4, tuple(
            _table_pred(n4, line) for line in generators))
        u = [Predicate.unit(n4, (i,)) for i in range(4)]
        expected = LossFunction(n4, (u[0] + u[2], u[0] + u[3], u[1] + u[2], u[1] + u[3]))
        assert loss_equal(got, expected)
        assert len(generators) == 4


def _table_pred(ctx, line):
    gens = parse_loss_text(f"context {ctx.pretty()}\ntable: {line}")[1]
    return gens[0]


def test_criterion_2_encrypted_database(capsys):
    with criterion(2, "encrypted database 1/2 vs 3/8", budget=30.0):
        da = load_dt("encdb_membership.dt")
        dc = load_dt("encdb_offset_scan.dt")
        probe = load_ctx("ctx_lookup_probe.ctx")
        comp_a, comp_c = inline(probe, da), inline(probe, dc)
        post = comp_a.meta.post
        E = embed(Predicate.from_function(
            post, lambda s: 1 if s[1][s[3]] != "c" else 0))
        prior = uniform_dist(comp_a.meta.pre)
        value_a = eval_loss(weakest_preloss(comp_a, E).pre, prior)
        value_c = eval_loss(weakest_preloss(comp_c, E).pre, prior)
        assert value_a >= Fraction(1, 2)
        assert value_c <= Fraction(3, 8)
        verdict = data_refines(da, dc, [probe],
                               FamilyOptions(max_subset=1, random=5, seed=0))
        assert verdict.kind == "fails"
        assert verdict.certificate_ok()


def test_criterion_3_random_bit_generator(capsys):
    with criterion(3, "random bit generator simulations", budget=10.0):
        opts = FamilyOptions(max_subset=2, random=50, seed=7)
        da, dc = load_dt("randbit_direct.dt"), load_dt("randbit_cached.dt")
        rep = load_prog("rep_coin.prog")

        forward = check_forward_simulation(da, dc, rep, opts)
        assert forward.kind == "holds"
        assert [s.kind for s in forward.squares] == ["holds"] * 3

        # the squares are refinement-equalities: both directions hold
        from preloss.refinement import _seq
        shared = da.shared
        pairs = [
            (_seq(da.init, rep), _seq(dc.init)),
            (_seq(da.op("next"), rep), _seq(rep, dc.op("next"))),
            (_seq(da.final), _seq(rep, dc.final)),
        ]
        for lhs, rhs in pairs:
            typecheck_program(lhs, shared)
            typecheck_program(rhs, shared)
            assert program_refines(lhs, rhs, opts).kind == "holds"
            assert program_refines(rhs, lhs, opts).kind == "holds"

        backward = check_backward_simulation(dc, da, rep, opts)
        assert backward.kind == "holds"

        for pair in (("randbit_direct.dt", "randbit_cached.dt"),
                     ("randbit_cached.dt", "randbit_direct.dt")):
            code = cli_main(["datatype", f"{CORPUS}/{pair[0]}", f"{CORPUS}/{pair[1]}",
                             "--context", f"{CORPUS}/ctx_sample_then_read.ctx",
                             "--family", "k=2,random=50,seed=7"])
            capsys.readouterr()
            assert code == 0


def test_criterion_4_counterexample_fidelity(capsys):
    opts = FamilyOptions(max_subset=2, random=20, seed=7)
    with criterion(4, "leaky forward rep counterexample", budget=10.0):
        da, dc = load_dt("late_leak.dt"), load_dt("early_leak.dt")
        rep = load_prog("rep_leak.prog")
        v = check_forward_simulation(da, dc, rep, opts)
        assert v.kind == "inconclusive" and "hidden" in v.reason
        assert [s.kind for s in v.squares] == ["holds"] * 3
        code, report = run_cli_json(
            capsys, ["datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
                     "--context", f"{CORPUS}/ctx_flip_or_keep.ctx",
                     "--family", "k=2,random=20,seed=7", "--json"])
        assert code == 3
        assert report["result"]["kind"] == "fails"
        assert report["result"]["certificate_checked"] is True

    with criterion(4, "choosing backward rep counterexample", budget=10.0):
        da, dc = load_dt("refresh_after_read.dt"), load_dt("refresh_before_read.dt")
        rep = load_prog("rep_choice.prog")
        v = check_backward_simulation(da, dc, rep, opts)
        assert v.kind == "inconclusive" and "choiceless" in v.reason
        assert [s.kind for s in v.squares] == ["holds"] * 3
        code, report = run_cli_json(
            capsys, ["datatype", f"{CORPUS}/refresh_after_read.dt",
                     f"{CORPUS}/refresh_before_read.dt",
                     "--context", f"{CORPUS}/ctx_print_then_xor.ctx",
                     "--family", "k=2,random=20,seed=7", "--json"])
        assert code == 3
        assert report["result"]["kind"] == "fails"
        assert report["result"]["certificate_checked"] is True


def test_criterion_5_print_laws():
    with criterion(5, "print laws on the standard family"):
        b = VarContext.of(("b", (0, 1)))
        opts = FamilyOptions(max_subset=2, random=20, seed=7)
        skip = typed("skip", b)
        printb = typed("print b", b)
        printnb = typed("print !b", b)
        printbb = typed("print b; print b", b)
        assert program_refines(printb, skip, opts).kind == "holds"
        v = program_refines(skip, printb, opts)
        assert v.kind == "fails" and v.certificate_ok()
        assert program_refines(printbb, printb, opts).kind == "holds"
        assert program_refines(printb, printnb, opts).kind == "holds"
        assert program_refines(printnb, printb, opts).kind == "holds"


N_LAW_CASES = 100


def _law_cases(seed_base, shape_fn, max_states=12, depth_max=5):
    for i in range(N_LAW_CASES):
        rng = random.Random(seed_base + i)
        depth = rng.randint(1, depth_max)
        ctx, prog, post = gen_typed_program(
            rng, depth=depth, shape=shape_fn(), max_states=max_states)
        yield rng, ctx, prog, post


def test_criterion_6_healthiness_suite():
    with criterion(6, "healthiness property suite", budget=300.0):
        budget = 8

        # monotone + superlinear + homogeneous + partial
        for rng, ctx, prog, post in _law_cases(10_000, ProgramShape):
            E1 = gen_loss(rng, post, max_gens=2)
            E2 = gen_loss(rng, post, max_gens=2)
            w1 = weakest_preloss(prog, E1, loop_budget=budget).pre
            w2 = weakest_preloss(prog, E2, loop_budget=budget).pre
            low = loss_min(E1, E2)
            w_low = weakest_preloss(prog, low, loop_budget=budget).pre
            assert loss_refines(w_low, w1)  # monotone (low <= E1)

            w_sum = weakest_preloss(prog, loss_add(E1, E2), loop_budget=budget).pre
            assert loss_refines(loss_add(w1, w2), w_sum)  # superlinear

            r = rng.choice([Fraction(0), Fraction(1, 2), Fraction(3), INF])
            w_scaled = weakest_preloss(prog, loss_scale(r, E1), loop_budget=budget).pre
            assert loss_equal(w_scaled, loss_scale(r, w1))  # homogeneous

            w_ones = weakest_preloss(prog, one_loss(post), loop_budget=budget).pre
            assert loss_member_certified(Predicate.ones(prog.meta.pre), w_ones).member  # partial

        # hidden => MIN-preserving
        for rng, ctx, prog, post in _law_cases(
                20_000, lambda: ProgramShape(visible=False, loops=False)):
            assert classify_hidden(prog)
            E1, E2 = gen_loss(rng, post, 2), gen_loss(rng, post, 2)
            lhs = weakest_preloss(prog, loss_min(E1, E2)).pre
            rhs = loss_min(weakest_preloss(prog, E1).pre,
                           weakest_preloss(prog, E2).pre)
            assert loss_equal(lhs, rhs)

        # choiceless => linear
        for rng, ctx, prog, post in _law_cases(
                30_000, lambda: ProgramShape(nondet=False)):
            assert classify_choiceless(prog)
            E1, E2 = gen_loss(rng, post, 2), gen_loss(rng, post, 2)
            lhs = weakest_preloss(prog, loss_add(E1, E2), loop_budget=budget).pre
            rhs = loss_add(weakest_preloss(prog, E1, loop_budget=budget).pre,
                           weakest_preloss(prog, E2, loop_budget=budget).pre)
            assert loss_equal(lhs, rhs)

        # weak frame rule over a correlated context
        for rng, ctx, prog, post in _law_cases(
                40_000, ProgramShape, max_states=6, depth_max=3):
            z = VarContext.of(("z", range(rng.randint(2, 3))))
            E = gen_loss(rng, post, 2)
            e_z = gen_predicate(rng, z)
            merged_post = post.merge(z)
            framed = LossFunction(merged_post, tuple(
                g.extend_to(merged_post).conj(e_z.extend_to(merged_post)) for g in E.gens))
            lhs = weakest_preloss(prog, framed, extension=z, loop_budget=budget).pre
            inner = weakest_preloss(prog, E, loop_budget=budget).pre
            merged_pre = prog.meta.pre.merge(z)
            rhs = LossFunction(merged_pre, tuple(
                g.extend_to(merged_pre).conj(e_z.extend_to(merged_pre)) for g in inner.gens))
            assert loss_equal(lhs, rhs)

        # correlation-transformer law: commutes with hidden assignment on z
        for rng, ctx, prog, post in _law_cases(
                50_000, ProgramShape, max_states=6, depth_max=3):
            z = VarContext.of(("z", range(rng.randint(2, 3))))
            w = VarContext.of(("zw", range(rng.randint(2, 3))))
            g = gen_kernel(rng, w, z).dual()
            E = gen_loss(rng, post.merge(z), 2)
            lhs = loss_map(Transformer.identity(prog.meta.pre).tensor(g),
                           weakest_preloss(prog, E, extension=z, loop_budget=budget).pre)
            rhs = weakest_preloss(
                prog, loss_map(Transformer.identity(post).tensor(g), E),
                extension=w, loop_budget=budget).pre
            assert loss_equal(lhs, rhs)

        # transformer mapping is linear and MIN-preserving
        for i in range(N_LAW_CASES):
            rng = random.Random(60_000 + i)
            ctx = VarContext.of(("u", range(rng.randint(2, 3))), ("v", (0, 1)))
            f = gen_kernel(rng, ctx, ctx).dual()
            E1, E2 = gen_loss(rng, ctx, 3), gen_loss(rng, ctx, 3)
            r = Fraction(rng.randint(0, 6), 2)
            assert loss_equal(loss_map(f, loss_min(E1, E2)),
                              loss_min(loss_map(f, E1), loss_map(f, E2)))
            assert loss_equal(loss_map(f, loss_add(loss_scale(r, E1), E2)),
                              loss_add(loss_scale(r, loss_map(f, E1)), loss_map(f, E2)))

        # tensor functoriality and partiality closure
        from conftest import gen_context
        for i in range(N_LAW_CASES):
            rng = random.Random(70_000 + i)
            a1, a2, a3 = (gen_context(rng, max_states=4, prefix="a") for _ in range(3))
            b1, b2, b3 = (gen_context(rng, max_states=4, prefix="b") for _ in range(3))
            f, f2 = gen_kernel(rng, a1, a2).dual(), gen_kernel(rng, a2, a3).dual()
            g, g2 = gen_kernel(rng, b1, b2).dual(), gen_kernel(rng, b2, b3).dual()
            assert Transformer.identity(a1).tensor(Transformer.identity(b1)).rows \
                == Transformer.identity(a1.merge(b1)).rows
            lhs = f.tensor(g).compose(f2.tensor(g2))
            rhs = f.compose(f2).tensor(g.compose(g2))
            assert lhs.rows == rhs.rows
            fg = f.tensor(g)
            assert all(sum(w for _, w in row) <= fg.den for row in fg.nums)
            kern = gen_kernel(rng, a1, a2).compose(gen_kernel(rng, a2, a3))
            assert all(sum(w for _, w in row) <= 1 for row in kern.rows)


def test_criterion_7_oracle_duality():
    with criterion(7, "oracle duality, 200 programs", budget=300.0):
        exhaustive_checked = 0
        for i in range(200):
            rng = random.Random(80_000 + i)
            shape = ProgramShape(loops=False, max_nondet=2, max_prints=2)
            ctx, prog, post = gen_typed_program(rng, depth=rng.randint(1, 4),
                                                shape=shape, max_states=12)
            E = gen_loss(rng, post, max_gens=3)
            prior = gen_dist(rng, ctx, total=True)
            risk = min_bayes_risk(prog, prior, E)
            value = eval_loss(weakest_preloss(prog, E).pre, prior)
            assert risk == value, f"case {i}"
            points = choice_points(prog, prior)
            if points and len(points) <= 8:
                assert min_bayes_risk_exhaustive(prog, prior, E) == risk, f"case {i}"
                exhaustive_checked += 1
        assert exhaustive_checked >= 20


def test_criterion_8_loop_soundness():
    with criterion(8, "geometric loop partial sums"):
        ctx = VarContext.of(("c", (0, 1)))
        prog = typed("while c = 1 { c := 1 @ 1/2 | 0 }", ctx)
        # With budget n, ``wpl`` sums the loop's terms 0..n: the partial sum S_n.
        sums = {n: weakest_preloss(prog, one_loss(ctx), loop_budget=n).pre
                for n in range(1, 21)}
        for n in range(1, 20):
            assert loss_refines(sums[n], sums[n + 1])
        for n in range(1, 21):
            r = Fraction(1) - Fraction(1, 2 ** n)
            assert loss_refines(embed(Predicate.constant(ctx, r)), sums[n])
            assert sums[n].gens[0].at((1,)) == r
        res = weakest_preloss(prog, one_loss(ctx), loop_budget=20)
        (status,) = res.loop_status.values()
        assert status.kind == "truncated" and status.n == 20
        converging = typed("while n != 3 { n := n + 1 }", VarContext.of(("n", range(4))))
        res2 = weakest_preloss(converging, one_loss(converging.meta.pre))
        (status2,) = res2.loop_status.values()
        assert status2.kind == "converged"
