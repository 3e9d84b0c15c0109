"""Maps that only copy entries (``Transformer.copies``) against the blockwise route.

``loss_map`` maps a canonical loss by a transformer that only copies
entries (a discard, a permutation, the identity, or a run of them) with no
LP query: it copies each generator's entries and sorts a block of several
generators again.  The reference is ``losses._blockwise`` with
``Transformer.apply``, which canonicalizes each image block by the LP and
adds the images.  Both must give the same ``gens`` and the same
``blocks``, on seeded canonical losses with ``INF`` entries and on sums of
blocks with disjoint supports built on purpose.

A `print`, `if` or `while` maps each branch by the diagonal transformer of
a kernel column (``semantics._columns``); on the same losses that must give
what the pointwise product ``loss_conj`` gives, and an all-ones column, the
identity, makes no LP query.
"""

import random

from preloss import lp
from preloss.contexts import EMPTY, VarContext
from preloss.losses import (
    LossFunction, _blockwise, loss_add, loss_canonicalize, loss_conj, loss_map,
)
from preloss.parsing import parse_program_text
from preloss.predicates import INF_NUM, Predicate
from preloss.semantics import _columns, _kernel_tf, linear_transformer, weakest_preloss
from preloss.syntax import If, Print, While, walk
from preloss.typecheck import typecheck_program

from conftest import gen_context, gen_loss, gen_typed_program


def _typed(src: str, ctx: VarContext):
    prog = parse_program_text(src)
    typecheck_program(prog, ctx)
    return prog


def _maps(rng, ctx: VarContext):
    """(kind, transformer): each kind of copy, with ``ctx`` as its pre context."""
    name, domain = rng.choice(ctx.vars)
    shift = rng.randint(1, len(domain) - 1)
    permute = f"{name} := ({name} + {shift}) mod {len(domain)}"
    yield "identity", _kernel_tf(_typed("skip", ctx).stmts[0], EMPTY)
    yield "permutation", _kernel_tf(_typed(permute, ctx).stmts[0], EMPTY)
    if len(ctx.vars) > 1:
        dropped = rng.choice([n for n, _ in ctx.vars if n != name])
        yield "discard", _kernel_tf(_typed(f"unvar {dropped}", ctx).stmts[0], EMPTY)
        yield "run", linear_transformer(_typed(f"{permute}; unvar {dropped}; skip", ctx))


def _losses(rng, ctx: VarContext):
    """A canonical loss, and a sum of canonical blocks on disjoint state sets."""
    yield loss_canonicalize(gen_loss(rng, ctx, max_gens=4, inf_prob=0.15))
    states = list(range(ctx.n_states))
    rng.shuffle(states)
    cuts = sorted(rng.sample(range(1, len(states)), min(2, len(states) - 1)))
    total = None
    for part in (states[i:j] for i, j in zip([0] + cuts, cuts + [len(states)])):
        mask = Predicate.from_ints(ctx, 1, [int(x in part) for x in range(ctx.n_states)])
        block = loss_conj(mask, loss_canonicalize(gen_loss(rng, ctx, max_gens=3,
                                                           inf_prob=0.15)))
        total = block if total is None else loss_add(total, block)
    yield total


def test_copies_map_as_the_blockwise_route_does():
    rng = random.Random(20261021)
    seen = dict.fromkeys(["identity", "permutation", "discard", "run", "INF",
                          "several blocks", "reordered"], 0)
    for case in range(200):
        ctx = gen_context(rng, max_states=12)
        for kind, f in _maps(rng, ctx):
            assert f.copies is not None, kind
            for E in _losses(rng, f.dst):
                queries = lp.counters["member_queries"]
                got = loss_map(f, E)
                assert lp.counters["member_queries"] == queries, (case, kind)
                want = _blockwise(f.src, E, f.apply)
                assert got.canonical and got.ctx == want.ctx
                assert got.blocks == want.blocks, (case, kind)
                assert got.gens == want.gens, (case, kind)
                seen[kind] += 1
                seen["INF"] += any(INF_NUM in g.nums for g in E.gens)
                seen["several blocks"] += len(E.blocks) > 1
                seen["reordered"] += any(
                    tuple(g.copied(f.src, f.copies) for g in block) != image
                    for block, image in zip(E.blocks, got.blocks))
    assert min(seen.values()) >= 20, seen


def test_only_onto_weight_one_rows_copy():
    """The identity, a discard and a permutation copy; a constant, a coin, an
    `abort`, a guard, a declaration and a map that is not onto do not."""
    ctx = VarContext.of(("u", (0, 1, 2)), ("v", (0, 1)))
    for src in ("u := 0", "u := 0 @ 1/2 | 1", "abort", "assert u = 1",
                "hidvar y : {0,1} := 0", "u := (u + 1) mod 2"):
        assert _kernel_tf(_typed(src, ctx).stmts[0], EMPTY).copies is None, src
    for src, phi in (("skip", (0, 1, 2, 3, 4, 5)), ("unvar v", (0, 0, 1, 1, 2, 2)),
                     ("u := (u + 1) mod 3", (2, 3, 4, 5, 0, 1))):
        assert _kernel_tf(_typed(src, ctx).stmts[0], EMPTY).copies == phi, src


def test_column_diagonals_map_as_loss_conj_does():
    rng = random.Random(20261022)
    z = VarContext.of(("z", (0, 1)))
    seen = dict.fromkeys(["Print", "If", "While", "all ones", "INF", "several blocks"], 0)
    for case in range(120):
        _, prog, _ = gen_typed_program(rng, depth=2)
        ext = z if case % 3 == 0 else EMPTY
        for s in walk(prog):
            if not isinstance(s, (Print, If, While)):
                continue
            k, working = s.meta.kernel, s.meta.pre.merge(ext) if ext.vars else s.meta.pre
            for diagonal, nums in zip(_columns(s, ext), k.columns):
                column = Predicate.from_ints(k.src, k.den, nums).extend_to(working)
                ones = column == Predicate.ones(working)
                for E in _losses(rng, working):
                    queries = lp.counters["member_queries"]
                    got = loss_map(diagonal, E)
                    assert not ones or lp.counters["member_queries"] == queries, case
                    want = loss_conj(column, E)
                    assert got.blocks == want.blocks, case
                    assert got.gens == want.gens, case
                    seen[type(s).__name__] += 1
                    seen["all ones"] += ones
                    seen["INF"] += any(INF_NUM in g.nums for g in E.gens)
                    seen["several blocks"] += len(E.blocks) > 1
    assert min(seen.values()) >= 20, seen


def test_an_all_ones_column_maps_with_no_lp_query():
    """``print 0`` has one all-ones column, whose diagonal is the identity;
    ``print b`` has two indicator columns, each mapped through the LP."""
    ctx = VarContext.of(("b", (0, 1)), ("c", (0, 1, 2)))
    E = loss_canonicalize(LossFunction(ctx, tuple(
        Predicate.from_ints(ctx, 1, nums) for nums in
        ((1, 1, 0, 0, 0, 1), (0, 1, 1, 1, 0, 0), (1, 0, 1, 0, 1, 0)))))
    assert len(E.gens) == 3
    for src, member_queries in (("print 0", 0), ("print b", 6)):
        queries = lp.counters["member_queries"]
        weakest_preloss(_typed(src, ctx), E)
        assert lp.counters["member_queries"] - queries == member_queries, src
