"""Family entries decided by the unit entries, against checking every entry.

On a choiceless pair ``program_refines`` skips the entries that the passed
unit entries imply: single-generator entries, ``INF`` entries included,
and on a hidden pair every entry.  ``check_every_entry`` below is the
loop that runs ``wpl`` on every entry; the two must give the same verdict
on seeded context-preserving pairs, and only the implied entries may go
without any part evaluated (by ``wpl`` or by its history transformers).
"""

import random
from typing import List

import pytest

from conftest import ProgramShape, entry_decisions, gen_context, gen_loss, gen_program
from preloss.contexts import EMPTY, VarContext
from preloss.families import FamilyOptions, TestFamily, resolve_family, standard_family
from preloss.losses import LossFunction, embed, eval_loss, loss_member_certified, normalize_witness
from preloss.parsing import parse_program_text
from preloss.predicates import INF_NUM, Predicate
from preloss.refinement import Verdict, program_refines
from preloss.scalars import INF
from preloss.semantics import weakest_preloss
from preloss.syntax import Program
from preloss.typecheck import classify_choiceless, copy_program, typecheck_program

Z = VarContext.of(("z", (0, 1)))
VISIBLE = dict(nondet=False)
HIDDEN = dict(nondet=False, visible=False, loops=False)


def check_every_entry(p, q, family, extension=EMPTY, loop_budget=64) -> Verdict:
    """``program_refines`` with one ``wpl`` pair and its membership queries per entry."""
    fam = resolve_family(p.meta.post.merge(extension), family)
    truncation: List[str] = []
    for E, _provenance in fam.entries:
        left = weakest_preloss(p, E, extension, loop_budget)
        right = weakest_preloss(q, E, extension, loop_budget)
        if left.truncated:
            truncation.append("left")
        if right.truncated:
            truncation.append("right")
        for gen in right.pre.gens:
            cert = loss_member_certified(gen, left.pre)
            if cert.member:
                continue
            if right.truncated:
                return Verdict(
                    kind="inconclusive",
                    reason="right-hand loop truncated; the refinement failure "
                           "cannot be certified",
                    witness_loss=E,
                    loop_notes=("truncated",),
                )
            prior = normalize_witness(cert.witness)
            return Verdict(
                kind="fails", witness_loss=E, witness_prior=prior,
                lhs_value=eval_loss(left.pre, prior), rhs_value=eval_loss(right.pre, prior),
                lhs_pre=left.pre, rhs_pre=right.pre,
            )
    if truncation:
        return Verdict(
            kind="inconclusive", checked=len(fam),
            reason="loop truncation makes the family verdict uncertifiable",
            loop_notes=("truncated",),
        )
    return Verdict(kind="holds", checked=len(fam))


def outcome(v: Verdict):
    witness = v.witness_loss.gens if v.witness_loss is not None else None
    return (v.kind, v.checked, v.reason, v.loop_notes, witness,
            v.witness_prior, v.lhs_value, v.rhs_value)


def typed(prog: Program, ctx: VarContext) -> Program:
    typecheck_program(prog, ctx)
    return prog


def then(prog: Program, src: str) -> Program:
    """A fresh copy of ``prog`` followed by the statements of ``src``."""
    return Program(copy_program(prog).stmts + parse_program_text(src).stmts)


def inf_losses(rng, ctx: VarContext):
    """Witness losses with INF entries: one single-generator, one of up to three."""
    single = gen_loss(rng, ctx, max_gens=1, inf_prob=0.3)
    if all(INF_NUM not in g.nums for g in single.gens):
        unit = Predicate.unit(ctx, next(iter(ctx.states())))
        single = embed(unit.scale(INF) + single.gens[0])
    return (single, gen_loss(rng, ctx, max_gens=3, inf_prob=0.3))


def pairs(rng, shape: dict):
    """Seeded choiceless pairs over one context, some whose units pass and some not."""
    ctx = gen_context(rng, max_states=6)
    p, _ = gen_program(rng, ctx, 2, ProgramShape(**shape), preserve_ctx=True)
    q, _ = gen_program(rng, ctx, 2, ProgramShape(**shape), preserve_ctx=True)
    name = ctx.vars[0][0]
    value = ctx.vars[0][1][-1]
    # Independent pairs mostly fail on a unit; an extra print or assert on
    # one side keeps every unit passing.
    yield typed(p, ctx), typed(q, ctx)
    yield p, p
    yield typed(then(p, f"assert {name} != {value}"), ctx), typed(copy_program(p), ctx)
    yield typed(copy_program(q), ctx), typed(then(q, f"assert {name} = {value}"), ctx)
    if shape.get("visible", True):
        yield typed(copy_program(p), ctx), typed(then(p, f"print {name}"), ctx)
        yield typed(then(q, f"print {name}"), ctx), typed(copy_program(q), ctx)


@pytest.mark.parametrize("shape", [VISIBLE, HIDDEN], ids=["visible", "hidden"])
def test_implied_entries_keep_every_verdict(shape):
    rng = random.Random(15)
    kinds = set()
    for case in range(12):
        for p, q in pairs(rng, shape):
            assert classify_choiceless(p) and classify_choiceless(q)
            extension = Z if case % 3 == 1 else EMPTY
            post = p.meta.post.merge(extension)
            opts = FamilyOptions(max_subset=2, random=4, seed=case,
                                 extra=inf_losses(rng, post) if case % 2 else ())
            budget = 2 if case % 4 == 3 else 16
            got = program_refines(p, q, opts, extension, budget)
            assert outcome(got) == outcome(check_every_entry(p, q, opts, extension, budget))
            kinds.add(got.kind)
    assert {"holds", "fails"} <= kinds


def test_families_without_leading_units_keep_every_verdict():
    """Units are recognised by content: entries before the last unit are all checked."""
    rng = random.Random(16)
    for case in range(20):
        p, q = list(pairs(rng, VISIBLE))[case % 4]
        std = standard_family(p.meta.post, FamilyOptions(max_subset=2, random=4, seed=case))
        entries = list(std.entries)
        rng.shuffle(entries)
        family = TestFamily(std.ctx, tuple(entries[: len(entries) - case % 3]))
        assert outcome(program_refines(p, q, family)) == outcome(check_every_entry(p, q, family))


B = VarContext.of(("b", (0, 1)))


def ints(*nums):
    return Predicate.from_ints(B, 1, nums)


# Units first, then finite and INF entries of one and of two generators.
UNITS = [embed(ints(1, 0)), embed(ints(0, 1))]
LATER = [embed(ints(1, 1)), embed(ints(2, INF_NUM)),
         LossFunction(B, (ints(1, 0), ints(0, 1))),
         LossFunction(B, (ints(INF_NUM, 1), ints(1, INF_NUM)))]


def decide(src_p, src_q, entries) -> List[str]:
    """How ``program_refines`` decides each entry for the pair (``entry_decisions``)."""
    p = typed(parse_program_text(src_p), B)
    q = typed(parse_program_text(src_q), B)
    _, decisions, _ = entry_decisions(p, q, TestFamily(B, tuple((E, "test") for E in entries)))
    return decisions


@pytest.mark.parametrize("src_p, src_q, skipped", [
    # A choice: nothing is implied.
    ("{ b := 0 } [] { b := 1 }", "b := 0 @ 1/2 | 1", lambda E: False),
    # Visible and choiceless: single generators only.
    ("print b", "skip", lambda E: len(E.gens) == 1),
    # Hidden and choiceless: every entry.
    ("b := 1 - b", "b := 1 - b", lambda E: True),
])
def test_only_implied_entries_skip_wpl(src_p, src_q, skipped):
    entries = UNITS + LATER
    assert decide(src_p, src_q, entries) == [
        "heads" if any(E is u for u in UNITS) or not skipped(E) else "none" for E in entries]


def test_nothing_is_skipped_before_the_last_unit():
    """Every entry after the last unit is implied, ``INF`` entries too."""
    entries = [UNITS[0]] + LATER + [UNITS[1]] + LATER
    assert decide("b := 1 - b", "b := 1 - b", entries) == ["heads"] * 6 + ["none"] * 4


def test_a_visible_pair_passing_every_unit_still_fails_on_two_generators():
    skip = typed(parse_program_text("skip"), B)
    printb = typed(parse_program_text("print b"), B)
    family = TestFamily(B, tuple((E, "test") for E in UNITS + LATER[:1] + LATER[2:3]))
    v = program_refines(skip, printb, family)
    assert v.kind == "fails" and v.certificate_ok()
    assert v.witness_loss.gens == LATER[2].gens
