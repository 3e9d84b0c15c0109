from fractions import Fraction

import pytest

from preloss.contexts import VarContext
from preloss.parsing import (
    ParseError, parse_context_file, parse_datatype_file, parse_decls_text,
    parse_loss_text, parse_prior_text, parse_program_file, parse_program_text,
    sniff_kind,
)
from preloss.syntax import (
    Assign, HidVar, NonDet, Print, Skip, program_text,
)

def test_skip_and_statement_sequencing():
    prog = parse_program_text("skip")
    assert isinstance(prog.stmts[0], Skip)
    prog = parse_program_text("skip; skip; abort;")
    assert len(prog.stmts) == 3


def test_reveal_then_choice_desugars_to_nondet_of_hidvars():
    prog = parse_program_text("print (n div 2); hidvar b : {0,1} := {0} [] {1}")
    assert isinstance(prog.stmts[0], Print)
    nd = prog.stmts[1]
    assert isinstance(nd, NonDet)
    left, right = nd.left.stmts[0], nd.right.stmts[0]
    assert isinstance(left, HidVar) and isinstance(right, HidVar)
    assert left.name == right.name == "b"
    assert left.domain == (0, 1)


def test_weighted_assignment():
    prog = parse_program_text("x := 0 @ 1/2 | 1")
    a = prog.stmts[0]
    assert isinstance(a, Assign)
    assert a.dist.branches[0].weight == Fraction(1, 2)
    assert a.dist.branches[1].weight is None


def test_assign_nondet_sugar():
    prog = parse_program_text("x := {0} [] {1}")
    nd = prog.stmts[0]
    assert isinstance(nd, NonDet)
    assert isinstance(nd.left.stmts[0], Assign)


def test_uniform_sugar_forms():
    p1 = parse_program_text("m := uniform(0..3)")
    p2 = parse_program_text("m := uniform(0, 1, 2, 3)")
    assert p1 == p2
    assert p1.stmts[0].dist.uniform


def test_errors_carry_positions():
    with pytest.raises(ParseError) as info:
        parse_program_text("if x = 1 { skip } else { skip ")
    assert info.value.line == 1 and info.value.col > 20
    with pytest.raises(ParseError):
        parse_program_text("x := ")
    with pytest.raises(ParseError):
        parse_program_text("x := 0 @ 1/2 | 1 @ ?")
    with pytest.raises(ParseError, match="rational"):
        parse_program_text("x := 0 @ | 1")  # malformed weight
    with pytest.raises(ParseError, match="last branch"):
        parse_program_text("x := 0 | 1 @ 1/2 | 2")


def test_keywords_are_reserved():
    with pytest.raises(ParseError):
        parse_program_text("while := 1")
    with pytest.raises(ParseError):
        parse_program_text("x := print")


def test_datatype_file_roundtrip_structure():
    text = """
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
    d = parse_datatype_file(text)
    assert d.shared == VarContext.of(("s", (0, 1)))
    assert d.op_names() == ("next",)
    # a repeated operation is reported at its repeated name
    with pytest.raises(ParseError, match=r"^9:4: duplicate operation 'next'$"):
        parse_datatype_file(text.replace("op next:", "op next: skip\nop next:"))


def test_context_file():
    c = parse_context_file("client:\n a : {0,1}\nbody:\n print a; call move")
    assert c.client == VarContext.of(("a", (0, 1)))
    assert len(c.body.stmts) == 2


def test_program_file_forms():
    ctx, prog = parse_program_file("vars:\n n : int 0..3\nbody:\n skip")
    assert ctx == VarContext.of(("n", range(4)))
    ctx2, prog2 = parse_program_file("skip")  # bare program
    assert ctx2.n_states == 1


def test_sniff_kind():
    assert sniff_kind("shared:\n s : {0,1}\nencap:") == "datatype"
    assert sniff_kind("client:\nbody: skip") == "context"
    assert sniff_kind("context b:{0,1}\nexpr: b = 0") == "loss"
    assert sniff_kind("skip") == "program"


def test_loss_literal_expr_and_table():
    ctx, gens = parse_loss_text("""
    // witness pair
    context n:{0,1,2,3} b:{0,1}
    expr: (n + b) mod 2 = 0
    table: (0,0)=1/2 (3,1)=inf
    """)
    assert ctx == VarContext.of(("n", range(4)), ("b", (0, 1)))
    assert len(gens) == 2
    from preloss.scalars import INF

    assert gens[1].at((0, 0)) == Fraction(1, 2)
    assert gens[1].at((3, 1)) is INF
    assert gens[1].at((2, 1)) == 0


def test_loss_literal_errors():
    with pytest.raises(ParseError, match="context"):
        parse_loss_text("expr: b = 0")
    with pytest.raises(ParseError):
        parse_loss_text("context b:{0,1}\nlines: nope")
    with pytest.raises(ParseError, match="generator"):
        parse_loss_text("context b:{0,1}\n")


def test_loss_literal_context_is_a_whole_token():
    """``contextb`` is one identifier, not ``context`` then ``b``."""
    assert _loss_error("contextb : {0,1}\nexpr: b = 0") == (
        1, 1, "1:1: loss literal must start with a 'context' line")
    assert _loss_error("  context_b:{0,1}\nexpr: true")[:2] == (1, 3)
    ctx, _ = parse_loss_text("context\tb:{0,1}\nexpr: b = 0")
    assert ctx == VarContext.of(("b", (0, 1)))


def _loss_error(text):
    with pytest.raises(ParseError) as info:
        parse_loss_text(text)
    return info.value.line, info.value.col, str(info.value)


def test_loss_line_errors_count_columns_from_the_raw_line():
    # table: the zero denominator is the 14th character of its line
    assert _loss_error("context b:{0,1}\ntable: (0)=1/0")[:2] == (2, 14)
    # expr: the stray ')' is the 12th character
    assert _loss_error("context b:{0,1}\nexpr: b = 0)")[:2] == (2, 12)
    # context: the missing domain brace after ':' is the 11th character
    assert _loss_error("context b:0,1}")[:2] == (1, 11)
    # indented lines count their indentation, tabs as one column each
    assert _loss_error("context b:{0,1}\n    table: (0)=1/0")[:2] == (2, 18)
    assert _loss_error("context b:{0,1}\n\t  expr: b = 0)")[:2] == (2, 15)
    assert _loss_error("  context b:{0,1}\n  lines: nope")[:2] == (2, 3)
    assert _loss_error("   expr: b = 0")[:2] == (1, 4)


def test_unknown_table_state_points_at_its_token():
    assert _loss_error("context b:{0,1}\ntable: (0)=1 (7)=1/2") == (
        2, 14, "2:14: value 7 not in domain of 'b'")


def test_prior_parsing():
    ctx = VarContext.of(("n", range(4)))
    assert parse_prior_text(ctx, "uniform") == tuple([Fraction(1, 4)] * 4)
    d = parse_prior_text(ctx, "(0)=1/2 (3)=1/2")
    assert d == (Fraction(1, 2), 0, 0, Fraction(1, 2))


def test_decls_with_tuple_domains():
    ctx = parse_decls_text("H : {(a,b), (b,c)} x : {a,b,c}")
    assert ctx.domain_of("H") == (("a", "b"), ("b", "c"))


def test_pretty_roundtrip_on_corpus():
    import pathlib

    for path in sorted(pathlib.Path("corpus").glob("*.prog")):
        initial, prog = parse_program_file(path.read_text())
        text = f"vars: {initial.pretty()}\nbody:\n{program_text(prog, '  ')}"
        initial2, prog2 = parse_program_file(text)
        assert initial2 == initial and prog2 == prog, path


def test_pretty_roundtrip_structures():
    src = """
    if n <= 1 {
      { x := 0 } [] { x := 1 @ 1/3 | 0 }
    } else {
      while n != 0 { n := n - 1 @ 1/2 | n };
      assert n = 0
    };
    print n;
    hidvar b := {0} [] {1};
    unvar b
    """
    prog = parse_program_text(src)
    assert parse_program_text(program_text(prog)) == prog


def test_comments_and_whitespace_insensitivity():
    a = parse_program_text("skip // trailing comment\n;\n  skip")
    b = parse_program_text("skip;skip")
    assert a == b
