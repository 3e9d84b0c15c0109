"""Family entries decided once per distinct pre-loss of the shared tail.

``program_refines`` splits p = A;S and q = B;S at their longest common
tail S, evaluates S once per entry (by ``wpl`` or by its history
transformers), and decides an entry whose tail pre-loss repeats an
earlier, passing entry's without evaluating A and B.
``entry_by_entry`` below is the loop it replaces: ``wpl`` on both whole
sides for every entry that no passed unit implies.  On seeded pairs whose
tails hold choices, prints, conditionals and loops at small budgets, the
two must give the same verdict in every field, and no entry the old loop
ran may go without a part evaluated.
"""

import random

from conftest import ProgramShape, entry_decisions, gen_context, gen_program
from preloss import refinement
from preloss.contexts import EMPTY, VarContext
from preloss.exprs import Bin, Lit, Name
from preloss.families import FamilyOptions, resolve_family
from preloss.losses import eval_loss, loss_member_certified, normalize_witness
from preloss.refinement import Verdict
from preloss.semantics import weakest_preloss
from preloss.syntax import If, NonDet, Print, Program, While, walk
from preloss.typecheck import copy_program, typecheck_program

Z = VarContext.of(("z", (0, 1)))


def entry_by_entry(p, q, family, extension, loop_budget):
    """The verdict of running both whole sides on each entry, and which
    entries the passed units implied."""
    fam = resolve_family(p.meta.post.merge(extension), family)
    implied = refinement._implied_by_units(p, q)
    pending_units = set(range(fam.ctx.n_states))
    skipped = []
    truncated = False
    for i, (E, _provenance) in enumerate(fam.entries):
        if not pending_units and implied(E):
            skipped.append(i)
            continue
        left = weakest_preloss(p, E, extension, loop_budget)
        right = weakest_preloss(q, E, extension, loop_budget)
        truncated = truncated or left.truncated or right.truncated
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
                ), skipped, i
            prior = normalize_witness(cert.witness)
            return Verdict(
                kind="fails", witness_loss=E, witness_prior=prior,
                lhs_value=eval_loss(left.pre, prior), rhs_value=eval_loss(right.pre, prior),
                lhs_pre=left.pre, rhs_pre=right.pre,
            ), skipped, i
        pending_units.discard(refinement._unit_state(E))
    if truncated:
        return Verdict(
            kind="inconclusive", checked=len(fam),
            reason="loop truncation makes the family verdict uncertifiable",
            loop_notes=("truncated",),
        ), skipped, len(fam) - 1
    return Verdict(kind="holds", checked=len(fam)), skipped, len(fam) - 1


def outcome(v: Verdict):
    def gens(loss):
        return None if loss is None else loss.gens

    return (v.kind, v.checked, v.reason, v.loop_notes, gens(v.witness_loss),
            v.witness_prior, v.lhs_value, v.rhs_value, gens(v.lhs_pre), gens(v.rhs_pre))


def typed(stmts, ctx) -> Program:
    prog = Program(tuple(s for part in stmts for s in copy_program(part).stmts))
    typecheck_program(prog, ctx)
    return prog


def pair(rng, case):
    """P = A;S and Q = B;S over one context, A != B; S may be empty."""
    ctx = gen_context(rng, max_states=6)
    choiceless = case % 3 == 0
    shape = dict(nondet=not choiceless, max_nondet=1, max_prints=2, max_states=12)
    while True:
        a, _ = gen_program(rng, ctx, 1, ProgramShape(**shape), preserve_ctx=True)
        b, _ = gen_program(rng, ctx, 1, ProgramShape(**shape), preserve_ctx=True)
        if a != b:
            break
    tail = Program(())
    if case % 8:
        tail, _ = gen_program(rng, ctx, 2, ProgramShape(**shape))
    if case % 4 == 1:  # a loop that a small budget may truncate
        body, _ = gen_program(rng, ctx, 0, ProgramShape(nondet=False, visible=False),
                              preserve_ctx=True)
        name, domain = ctx.vars[0]
        tail = Program((While(Bin("!=", Name(name), Lit(domain[0])), body),) + tail.stmts)
    return typed((a, tail), ctx), typed((b, tail), ctx), tail


def test_shared_tail_repeats_keep_every_verdict():
    rng = random.Random(28)
    seen = dict(skips=0, fails_after_skip=0, truncated_tail=0, empty_tail=0, unit_repeats=0)
    tail_stmts, kinds = set(), set()
    for case in range(160):
        p, q, tail = pair(rng, case)
        extension = Z if case % 5 == 2 else EMPTY
        budget = 1 + case % 3
        opts = FamilyOptions(max_subset=2, random=3, seed=case)
        old, implied, last = entry_by_entry(p, q, opts, extension, budget)
        new, decisions, tails = entry_decisions(p, q, opts, extension, budget)
        assert outcome(new) == outcome(old), case
        tail_stmts |= {type(s) for s in walk(tail)}
        # The new loop reached the same entries, and evaluates some part on
        # every entry that no passed unit implied; with an empty tail, a
        # repeat evaluates none.
        assert len(decisions) == last + 1, case
        empty = not refinement._split(p, q)[2].stmts
        none = [i for i, d in enumerate(decisions) if d == "none"]
        assert (set(implied) <= set(none)) if empty else (none == implied), case
        seen["empty_tail"] += empty
        if "tail" in decisions:
            seen["skips"] += 1
            seen["fails_after_skip"] += new.kind == "fails"
            fam = resolve_family(p.meta.post.merge(extension), opts)
            seen["unit_repeats"] += bool(implied) and any(
                d == "tail" and refinement._unit_state(fam.entries[i][0]) is not None
                for i, d in enumerate(decisions))
        seen["truncated_tail"] += new.kind == "inconclusive" and any(t.truncated for t in tails)
        kinds.add(new.kind)
    assert tail_stmts >= {NonDet, Print, If, While}
    assert kinds == {"holds", "fails", "inconclusive"}
    assert seen["skips"] >= 20 and seen["fails_after_skip"] >= 10, seen
    assert seen["truncated_tail"] >= 5 and seen["empty_tail"] >= 5, seen
    assert seen["unit_repeats"] >= 10, seen
