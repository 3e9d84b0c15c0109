"""One datatype request, from its datatypes' validation to its named pairs.

``data_refines`` and both simulations validate the two datatypes once per
request, accept the same operations in any order, and compare a
simulation's rep with the encapsulated state in the order each ``init``
leaves it, with its shared variables too.  A simulation typechecks each
datatype program once, in validation, and the rep at most twice: its
squares are sequences of those typechecked programs.
"""

import pathlib

import pytest

from preloss import cli, refinement, typecheck
from preloss.cli import main
from preloss.families import FamilyOptions
from preloss.parsing import (
    parse_context_file, parse_datatype_file, parse_program_file, parse_program_text,
)
from preloss.refinement import (
    check_backward_simulation, check_forward_simulation, data_refines,
)
from preloss.typecheck import TypecheckError

OPTS = FamilyOptions(max_subset=2, random=10, seed=7)

NEXT_THEN_RESET = """\
shared:
  s : {0,1}
encap:
  b : {0,1}
init:
  hidvar b : {0,1} := 0 @ 1/2 | 1
op next:
  s := b
op reset:
  s := 0
final:
  unvar b
"""
RESET_THEN_NEXT = NEXT_THEN_RESET.replace(
    "op next:\n  s := b\nop reset:\n  s := 0\n", "op reset:\n  s := 0\nop next:\n  s := b\n")
CALL_BOTH = "client:\n  x : {0,1}\nbody:\n  call next;\n  call reset"

# One encapsulated bit, and the same bit kept as b next to a constant c.
ONE_BIT = """\
shared:
  s : {0,1}
encap:
  a : {0,1}
init:
  hidvar a : {0,1} := 0 @ 1/2 | 1
op get:
  s := a
final:
  unvar a
"""
TWO_BITS = """\
shared:
  s : {0,1}
encap:
  b : {0,1}
  c : {0,1}
init:
  hidvar b : {0,1} := 0 @ 1/2 | 1;
  hidvar c : {0,1} := 0
op get:
  s := b
final:
  unvar b;
  unvar c
"""
# The bit kept as b, with the shared s declared again after it.
SHARED_LAST = """\
shared:
  s : {0,1}
encap:
  b : {0,1}
init:
  unvar s;
  hidvar b : {0,1} := 0 @ 1/2 | 1;
  hidvar s : {0,1} := 0
op get:
  s := b
final:
  unvar b
"""
REP_A_TO_B = "hidvar b : {0,1} := a; unvar a"
REP_B_THEN_C = "hidvar b : {0,1} := a; hidvar c : {0,1} := 0; unvar a"
REP_C_THEN_B = "hidvar c : {0,1} := 0; hidvar b : {0,1} := a; unvar a"


def dt(text, name):
    return parse_datatype_file(text, name=name)


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def write(tmp_path, files):
    """Write ``files`` (name to text) under ``tmp_path``; returns their paths by name."""
    for name, text in files.items():
        (tmp_path / name).write_text(text)
    return lambda name: str(tmp_path / name)


def test_operations_in_another_order_are_the_same_operations():
    ab, ba = dt(NEXT_THEN_RESET, "ab.dt"), dt(RESET_THEN_NEXT, "ba.dt")
    assert ab.op_names() == ("next", "reset") and ba.op_names() == ("reset", "next")
    ctx = parse_context_file(CALL_BOTH, name="c.ctx")
    assert data_refines(ab, ba, [ctx], OPTS).kind == "holds"
    rep = parse_program_text("skip")
    for check in (check_forward_simulation, check_backward_simulation):
        v = check(ab, ba, rep, OPTS)
        assert v.kind == "holds"
        # The squares follow the abstract side's operations.
        assert [s.context_name for s in v.squares] == ["init", "op next", "op reset", "final"]


def test_different_operations_keep_their_message(tmp_path, capsys):
    path = write(tmp_path, {"ab.dt": NEXT_THEN_RESET,
                            "other.dt": NEXT_THEN_RESET.replace("op reset:", "op clear:"),
                            "c.ctx": CALL_BOTH, "skip.prog": "skip"})
    for argv in (["datatype", path("ab.dt"), path("other.dt"), "--context", path("c.ctx")],
                 ["simulate", "--forward", path("ab.dt"), path("other.dt"),
                  "--rep", path("skip.prog")]):
        code, _, err = run(capsys, *argv)
        assert code == 2
        assert err == ("type error: datatypes export different operations: "
                       "('next', 'reset') vs ('next', 'clear')\n")


def test_cli_accepts_operations_in_another_order(tmp_path, capsys):
    path = write(tmp_path, {"ab.dt": NEXT_THEN_RESET, "ba.dt": RESET_THEN_NEXT,
                            "c.ctx": CALL_BOTH, "skip.prog": "skip"})
    for argv in (["datatype", path("ab.dt"), path("ba.dt"), "--context", path("c.ctx")],
                 ["simulate", "--forward", path("ab.dt"), path("ba.dt"),
                  "--rep", path("skip.prog")]):
        code, out, err = run(capsys, *argv)
        assert (code, err) == (0, ""), argv
        assert out.startswith("verdict: holds")


def test_rep_declaring_the_encapsulated_state_in_init_order_holds():
    one, two = dt(ONE_BIT, "A.dt"), dt(TWO_BITS, "C.dt")
    rep = parse_program_text(REP_B_THEN_C)
    assert check_forward_simulation(one, two, rep, OPTS).kind == "holds"
    assert check_backward_simulation(two, one, rep, OPTS).kind == "holds"


@pytest.mark.parametrize("forward", [True, False])
def test_rep_in_another_order_is_refused_by_its_own_message(forward):
    one, two = dt(ONE_BIT, "A.dt"), dt(TWO_BITS, "C.dt")
    rep = parse_program_text(REP_C_THEN_B)
    role = "forward" if forward else "backward"
    with pytest.raises(TypecheckError) as exc:
        if forward:
            check_forward_simulation(one, two, rep, OPTS)
        else:
            check_backward_simulation(two, one, rep, OPTS)
    assert str(exc.value) == (
        f"{role} simulation program ends in [c:{{0,1}} b:{{0,1}}], "
        f"expected the encapsulated state [b:{{0,1}} c:{{0,1}}]")


def test_cli_names_the_rep_order(tmp_path, capsys):
    path = write(tmp_path, {"A.dt": ONE_BIT, "C.dt": TWO_BITS, "r.prog": REP_C_THEN_B})
    for argv in (["--forward", path("A.dt"), path("C.dt")],
                 ["--backward", path("C.dt"), path("A.dt")]):
        code, _, err = run(capsys, "simulate", *argv, "--rep", path("r.prog"))
        assert code == 2
        assert "simulation program ends in [c:{0,1} b:{0,1}]" in err
        assert "program types differ" not in err


@pytest.mark.parametrize("forward", [True, False])
def test_rep_ending_before_a_shared_variable_names_both_orders(forward):
    one, last = dt(ONE_BIT, "A.dt"), dt(SHARED_LAST, "C.dt")
    rep = parse_program_text(REP_A_TO_B)
    role = "forward" if forward else "backward"
    with pytest.raises(TypecheckError) as exc:
        if forward:
            check_forward_simulation(one, last, rep, OPTS)
        else:
            check_backward_simulation(last, one, rep, OPTS)
    assert str(exc.value) == (
        f"{role} simulation program ends in [s:{{0,1}} b:{{0,1}}] with the shared state, "
        f"expected [b:{{0,1}} s:{{0,1}}]")


def test_cli_names_the_shared_variable_order(tmp_path, capsys):
    path = write(tmp_path, {"A.dt": ONE_BIT, "C.dt": SHARED_LAST, "r.prog": REP_A_TO_B})
    for role, argv in (("forward", ["--forward", path("A.dt"), path("C.dt")]),
                       ("backward", ["--backward", path("C.dt"), path("A.dt")])):
        code, out, err = run(capsys, "simulate", *argv, "--rep", path("r.prog"))
        assert (code, out) == (2, "")
        assert err == (f"type error: {role} simulation program ends in [s:{{0,1}} b:{{0,1}}] "
                       "with the shared state, expected [b:{0,1} s:{0,1}]\n")


def test_an_operation_no_context_calls_is_still_validated(tmp_path, capsys):
    good = NEXT_THEN_RESET.replace("final:", "op bad:\n  s := 1\nfinal:")
    bad = NEXT_THEN_RESET.replace("final:", "op bad:\n  s := zz\nfinal:")
    ctx = parse_context_file(CALL_BOTH, name="c.ctx")
    for da, dc in ((good, bad), (bad, good)):
        with pytest.raises(TypecheckError, match="unbound variable 'zz'"):
            data_refines(dt(da, "a.dt"), dt(dc, "c.dt"), [ctx], OPTS)

    path = write(tmp_path, {"good.dt": good, "bad.dt": bad, "c.ctx": CALL_BOTH,
                            "skip.prog": "skip"})
    for argv in (["datatype", path("good.dt"), path("bad.dt"), "--context", path("c.ctx")],
                 ["simulate", "--forward", path("bad.dt"), path("good.dt"),
                  "--rep", path("skip.prog")],
                 ["simulate", "--backward", path("good.dt"), path("bad.dt"),
                  "--rep", path("skip.prog")]):
        code, _, err = run(capsys, *argv)
        assert code == 2, argv
        assert "unbound variable 'zz'" in err


def test_a_request_validates_each_datatype_once(monkeypatch):
    calls = []
    validate = typecheck.validate_datatype

    def counted(d):
        calls.append(d.name)
        return validate(d)

    monkeypatch.setattr(typecheck, "validate_datatype", counted)
    monkeypatch.setattr(refinement, "validate_datatype", counted)
    contexts = [parse_context_file(CALL_BOTH, name=f"c{i}.ctx") for i in range(3)]
    v = data_refines(dt(NEXT_THEN_RESET, "ab.dt"), dt(NEXT_THEN_RESET, "ab2.dt"), contexts, OPTS)
    assert v.kind == "holds"
    assert calls == ["ab.dt", "ab2.dt"]


RANDBIT = {"--forward": ("corpus/randbit_direct.dt", "corpus/randbit_cached.dt"),
           "--backward": ("corpus/randbit_cached.dt", "corpus/randbit_direct.dt")}


@pytest.mark.parametrize("direction", ["--forward", "--backward"])
def test_a_simulation_typechecks_no_square(monkeypatch, capsys, direction):
    """Validation typechecks init, the one op and final of each datatype, and
    the rep is typechecked on its own and over the shared state: 2 * 3 + 2."""
    calls = []
    original = typecheck.typecheck_program

    def counted(prog, initial):
        calls.append(prog)
        return original(prog, initial)

    for module in (typecheck, refinement, cli):
        monkeypatch.setattr(module, "typecheck_program", counted)
    abstract, concrete = RANDBIT[direction]
    da, dc = (parse_datatype_file(pathlib.Path(p).read_text(), name=p)
              for p in (abstract, concrete))
    rep = parse_program_file(pathlib.Path("corpus/rep_coin.prog").read_text())[1]
    check = check_forward_simulation if direction == "--forward" else check_backward_simulation
    assert check(da, dc, rep, OPTS).kind == "holds"
    parts = [p for d in (da, dc) for p in (d.init, *(op for _, op in d.ops), d.final)]
    assert list(map(id, calls)) == [*map(id, parts), id(rep), id(rep)]

    calls.clear()
    code, _, err = run(capsys, "simulate", direction, abstract, concrete,
                       "--rep", "corpus/rep_coin.prog")
    assert (code, err) == (0, "")
    assert len(calls) == 2 * (2 + 1) + 2
