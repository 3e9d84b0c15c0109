import json
from fractions import Fraction

from preloss.cli import main

CORPUS = "corpus"


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_check_accepts_all_corpus_inputs(capsys):
    import pathlib

    for path in sorted(pathlib.Path(CORPUS).iterdir()):
        code, out, err = run(capsys, "check", str(path))
        assert code == 0, (path, err)
        assert out.startswith("ok:")


def test_check_syntax_error_exit_1(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("if x = 1 { skip ")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 1
    assert "syntax error" in err and "1:" in err


def test_check_type_error_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.prog"
    bad.write_text("vars:\n b : {0,1}\nbody:\n assert b + b")
    code, out, err = run(capsys, "check", str(bad))
    assert code == 2
    assert "type error" in err


def test_wpl_reveal_then_choice_table(capsys):
    code, out, _ = run(capsys, "wpl", f"{CORPUS}/parity_reveal.prog",
                       "--post", f"{CORPUS}/parity_post.loss")
    assert code == 0
    assert "(0)=1 (2)=1" in out and "(1)=1 (3)=1" in out
    assert out.count("table:") == 4


def test_wpl_skip_echoes_post(tmp_path, capsys):
    prog = tmp_path / "p.prog"
    prog.write_text("vars:\n b : {0,1}\nbody:\n skip")
    loss = tmp_path / "l.loss"
    loss.write_text("context b:{0,1}\nexpr: b = 0")
    code, out, _ = run(capsys, "wpl", str(prog), "--post", str(loss))
    assert code == 0
    assert "table: (0)=1" in out


def test_wpl_loop_statuses_reported(tmp_path, capsys):
    loss = tmp_path / "ones.loss"
    loss.write_text("context c:{0,1}\nexpr: true")
    code, out, _ = run(capsys, "wpl", f"{CORPUS}/geometric.prog",
                       "--post", str(loss), "--loop-budget", "5")
    assert code == 0
    assert "truncated(5)" in out and "(1)=31/32" in out
    counter = tmp_path / "counter.prog"
    counter.write_text("vars:\n n : int 0..2\nbody:\n while n != 2 { n := n + 1 }")
    loss2 = tmp_path / "ones2.loss"
    loss2.write_text("context n:{0,1,2}\nexpr: true")
    code, out, _ = run(capsys, "wpl", str(counter), "--post", str(loss2))
    assert "converged(3)" in out


def test_refine_exit_codes(capsys, tmp_path):
    a = tmp_path / "a.prog"
    a.write_text("vars:\n b : {0,1}\nbody:\n print b")
    b = tmp_path / "b.prog"
    b.write_text("vars:\n b : {0,1}\nbody:\n skip")
    code, out, _ = run(capsys, "refine", str(a), str(b), "--family", "k=1,random=5,seed=1")
    assert code == 0 and "holds" in out
    code, out, _ = run(capsys, "refine", str(b), str(a), "--family", "k=1,random=5,seed=1")
    assert code == 3 and "fails" in out
    assert "certificate re-checked: True" in out


def test_datatype_fails_reports_witness(capsys):
    code, out, _ = run(capsys, "datatype",
                       f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
                       "--context", f"{CORPUS}/ctx_flip_or_keep.ctx",
                       "--family", "k=2,random=10,seed=7")
    assert code == 3
    assert "witness loss" in out and "witness prior" in out


def test_simulate_gate_exit_code(capsys):
    code, out, _ = run(capsys, "simulate", "--forward",
                       f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
                       "--rep", f"{CORPUS}/rep_leak.prog",
                       "--family", "k=1,random=5,seed=7")
    assert code == 4
    assert "inconclusive" in out and "square" in out


HUMAN_VERDICTS = [
    (["datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
      "--context", f"{CORPUS}/ctx_flip_or_keep.ctx", "--family", "k=2,random=10,seed=7"],
     3,
     ["verdict: fails",
      f"  at: {CORPUS}/ctx_flip_or_keep.ctx",
      "  witness loss:",
      "    context s:{0,1}",
      "    table: (0)=1",
      "  witness prior: (0)=1",
      "  lhs value: 1/2  rhs value: 0",
      "  certificate re-checked: True"]),
    (["simulate", "--forward", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
      "--rep", f"{CORPUS}/rep_leak.prog", "--family", "k=1,random=5,seed=7"],
     4,
     ["verdict: inconclusive (rep is not hidden (contains if/while/print); "
      "the forward simulation rule does not apply)",
      "  square init: holds",
      "  square op move: holds",
      "  square final: holds"]),
]


def test_human_verdict_output_is_pinned(capsys):
    import re

    for argv, exit_code, lines in HUMAN_VERDICTS:
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        *body, elapsed = out.splitlines()
        assert body == lines
        assert re.fullmatch(r"\[\d+\.\d\ds elapsed\]", elapsed)


def test_oracle_command(capsys):
    code, out, _ = run(capsys, "oracle", f"{CORPUS}/parity_reveal.prog",
                       "--post", f"{CORPUS}/parity_post.loss",
                       "--prior", "uniform", "--exhaustive")
    assert code == 0
    assert "risk: 1/2" in out and "agrees: True" in out


def test_oracle_explicit_prior(capsys):
    code, out, _ = run(capsys, "oracle", f"{CORPUS}/parity_reveal.prog",
                       "--post", f"{CORPUS}/parity_post.loss",
                       "--prior", "(0)=1/8 (1)=3/8 (2)=3/8 (3)=1/8")
    assert code == 0
    assert "risk: 1/4" in out  # d(0) + d(3)


def test_json_reports_are_byte_identical(capsys):
    argv = ["wpl", f"{CORPUS}/parity_reveal.prog",
            "--post", f"{CORPUS}/parity_post.loss", "--json"]
    code1, out1, _ = run(capsys, *argv)
    code2, out2, _ = run(capsys, *argv)
    assert code1 == code2 == 0
    assert out1 == out2
    report = json.loads(out1)
    assert report["schema_version"] == 1
    assert set(report["inputs"]) == {f"{CORPUS}/parity_reveal.prog",
                                     f"{CORPUS}/parity_post.loss"}
    assert report["result"]["pre_loss"]["context"] == "n:{0,1,2,3}"
    assert report["timings"]["lp_solves"] > 0


# Whole --json reports, timings included, pinned by sha256 with their exit
# codes: the same inputs must keep making the same LP queries and solves and
# the same output.
PINNED_REPORTS = [
    (["wpl", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss"], 0,
     {"lp_solves": 10, "member_queries": 10, "wpl_clauses": 4},
     "27f9cbb2a9c173f09e21edf2fcf74cc672a166d12c22499c5f6ff4ddc55d8a06"),
    (["simulate", "--forward", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
      "--rep", f"{CORPUS}/rep_coin.prog", "--family", "k=2,random=50,seed=7"], 0,
     {"lp_solves": 494, "member_queries": 718, "wpl_clauses": 664},
     "9142da377636189624523eaebe37f519fa6803e55e38d9e66c0a59656114e2ea"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx"], 3,
     {"lp_solves": 1365, "member_queries": 1464, "wpl_clauses": 1881},
     "68c7a39674bef63e94c64e5c16dc614dc7f25d2144f146a165f5d7777de74f4a"),
]


def test_json_reports_are_pinned(capsys):
    import hashlib

    for argv, exit_code, timings, digest in PINNED_REPORTS:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == exit_code
        assert json.loads(out)["timings"] == timings
        assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_json_fails_report_is_self_certifying(capsys, tmp_path):
    a = tmp_path / "a.prog"
    a.write_text("vars:\n b : {0,1}\nbody:\n skip")
    b = tmp_path / "b.prog"
    b.write_text("vars:\n b : {0,1}\nbody:\n print b")
    code, out, _ = run(capsys, "refine", str(a), str(b), "--json",
                       "--family", "k=1,random=0,seed=1")
    assert code == 3
    report = json.loads(out)
    assert report["result"]["kind"] == "fails"
    assert report["result"]["certificate_checked"] is True
    assert report["result"]["lhs"] == "1/2" and report["result"]["rhs"] == "0"


def test_witness_file_flag(capsys, tmp_path):
    witness = tmp_path / "w.loss"
    witness.write_text("context b:{0,1}\nexpr: b = 0\nexpr: b = 1")
    a = tmp_path / "a.prog"
    a.write_text("vars:\n b : {0,1}\nbody:\n skip")
    b = tmp_path / "b.prog"
    b.write_text("vars:\n b : {0,1}\nbody:\n print b")
    code, out, _ = run(capsys, "refine", str(a), str(b),
                       "--family", "k=0,random=0,witnesses=off",
                       "--witness", str(witness))
    assert code == 3


def test_env_var_loop_budget(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRELOSS_LOOP_BUDGET", "3")
    loss = tmp_path / "ones.loss"
    loss.write_text("context c:{0,1}\nexpr: true")
    code, out, _ = run(capsys, "wpl", f"{CORPUS}/geometric.prog", "--post", str(loss))
    assert "truncated(3)" in out


def test_env_var_loop_budget_not_an_integer(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("PRELOSS_LOOP_BUDGET", "abc")
    loss = tmp_path / "ones.loss"
    loss.write_text("context c:{0,1}\nexpr: true")
    code, out, err = run(capsys, "wpl", f"{CORPUS}/geometric.prog", "--post", str(loss))
    assert code == 2
    assert out == ""
    assert err == "error: PRELOSS_LOOP_BUDGET must be an integer, got 'abc'\n"


def test_wpl_with_extension_context(capsys, tmp_path):
    prog = tmp_path / "p.prog"
    prog.write_text("vars:\n b : {0,1}\nbody:\n print b")
    loss = tmp_path / "l.loss"
    loss.write_text("context b:{0,1} z:{0,1}\nexpr: b = z")
    code, out, _ = run(capsys, "wpl", str(prog), "--post", str(loss),
                       "--ext", "z : {0,1}")
    assert code == 0
    # revealing b commits the resolver pointwise: pre-loss is [[b = z]]
    assert "table: (0,0)=1 (1,1)=1" in out


def test_wpl_context_mismatch_is_type_error(capsys, tmp_path):
    prog = tmp_path / "p.prog"
    prog.write_text("vars:\n b : {0,1}\nbody:\n skip")
    loss = tmp_path / "l.loss"
    loss.write_text("context c:{0,1}\nexpr: c = 0")
    code, out, err = run(capsys, "wpl", str(prog), "--post", str(loss))
    assert code == 2
    assert "post" in err


def test_json_verdict_checks_its_certificate_once(capsys, monkeypatch):
    from preloss.refinement import Verdict

    calls = []
    original = Verdict.certificate_ok

    def counted(self):
        calls.append(self.kind)
        return original(self)

    monkeypatch.setattr(Verdict, "certificate_ok", counted)
    code, out, _ = run(capsys, "datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
                       "--context", f"{CORPUS}/ctx_flip_or_keep.ctx", "--json")
    assert code == 3
    assert json.loads(out)["result"]["certificate_checked"] is True
    assert calls == ["fails"]


def test_failed_lp_certificate_exits_internal(capsys, monkeypatch):
    from preloss import lp
    from preloss.cli import EXIT_INTERNAL

    def wrong_weights(matrix, rhs, den):
        return [Fraction(0)] * len(matrix[0]), None   # sums to 0, not 1

    monkeypatch.setattr(lp, "_simplex_max_sum", wrong_weights)
    code, out, err = run(capsys, "datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
                         "--context", f"{CORPUS}/ctx_flip_or_keep.ctx")
    assert code == EXIT_INTERNAL == 5
    assert out == ""
    assert err.splitlines() == [
        "internal error: RuntimeError: LP certificate failed verification"]
    assert "Traceback" not in err


def test_zero_denominator_is_a_syntax_error(capsys, tmp_path):
    skip = tmp_path / "skip.prog"
    skip.write_text("vars:\n b : {0,1}\nbody:\n skip")
    loss = tmp_path / "zero.loss"
    loss.write_text("context b:{0,1}\ntable: (0)=1/0\n")
    prog = tmp_path / "zero.prog"
    prog.write_text("vars:\n c : {0,1}\nbody:\n c := 1 @ 1/0 | 0\n")
    cases = [
        (["wpl", str(skip), "--post", str(loss)], "syntax error: 2:14: zero denominator"),
        (["check", str(prog)], "syntax error: 4:13: zero denominator"),
        (["oracle", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss",
          "--prior", "(0)=1/0"], "syntax error: 1:7: zero denominator"),
    ]
    for argv, line in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.splitlines() == [line]
        assert "Traceback" not in err



def test_repeated_state_is_a_syntax_error(capsys, tmp_path):
    skip = tmp_path / "skip.prog"
    skip.write_text("vars:\n b : {0,1}\nbody:\n skip")
    loss = tmp_path / "repeat.loss"
    loss.write_text("context b:{0,1}\ntable: (0)=1 (1)=1 (0)=0\n")
    cases = [
        (["wpl", str(skip), "--post", str(loss)], "syntax error: 2:20: repeated state (0)"),
        (["oracle", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss",
          "--prior", "(0)=1/2 (0)=1/2 (1)=1/2"], "syntax error: 1:9: repeated state (0)"),
    ]
    for argv, line in cases:
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert err.splitlines() == [line]


def test_oracle_on_a_long_straight_line_program(capsys, tmp_path):
    """Statements that do not split are pushed without recursing, one per line."""
    from preloss.losses import LossFunction, eval_loss
    from preloss.parsing import parse_loss_text, parse_prior_text, parse_program_file
    from preloss.semantics import weakest_preloss
    from preloss.typecheck import typecheck_program

    prog = tmp_path / "long.prog"
    prog.write_text("vars:\n x : {0,1}\nbody:\n" + ";\n".join([" x := 1 - x"] * 1200))
    loss = tmp_path / "l.loss"
    loss.write_text("context x:{0,1}\nexpr: x = 0\nexpr: 2 * x\n")
    prior = "(0)=1/3 (1)=2/3"
    code, out, err = run(capsys, "oracle", str(prog), "--post", str(loss),
                         "--prior", prior, "--exhaustive", "--json")
    assert code == 0, err
    result = json.loads(out)["result"]
    assert result["agrees"] is True

    initial, parsed = parse_program_file(prog.read_text())
    typecheck_program(parsed, initial)
    lctx, gens = parse_loss_text(loss.read_text())
    post = LossFunction(lctx, tuple(gens))
    value = eval_loss(weakest_preloss(parsed, post).pre, parse_prior_text(initial, prior))
    assert result["risk"] == result["exhaustive"] == str(value) == "1/3"

# Reports whose losses carry inf entries, pinned at what the entrywise
# Fraction code gave: results and counters (inputs hold temporary paths).
INF_POST = """context n:{0,1,2,3} b:{0,1}
table: (0,0)=inf (0,1)=inf (1,1)=1/2 (2,0)=1 (3,0)=inf (3,1)=inf
table: (0,1)=1 (1,0)=inf (2,1)=2/3 (3,0)=1 (3,1)=inf
table: (0,0)=1/3 (0,1)=1/3 (1,0)=1/3 (1,1)=1/3 (2,0)=inf (2,1)=inf (3,0)=2 (3,1)=1/4
"""


def test_json_reports_with_inf_entries_are_pinned(capsys, tmp_path):
    post = tmp_path / "post_inf.loss"
    post.write_text(INF_POST)
    code, out, _ = run(capsys, "wpl", f"{CORPUS}/parity_reveal.prog", "--post", str(post),
                       "--json")
    report = json.loads(out)
    assert code == 0
    assert report["result"] == {
        "pre_loss": {"context": "n:{0,1,2,3}",
                     "generators": ["(1)=inf (3)=1", "(1)=inf (2)=inf (3)=1/4",
                                    "(0)=1/3 (1)=1/3 (3)=1", "(0)=1/3 (1)=1/3 (2)=inf (3)=1/4",
                                    "(0)=1 (3)=1", "(0)=1 (2)=inf (3)=1/4"]},
        "loops": {}, "truncated": False}
    assert report["timings"] == {"lp_solves": 12, "member_queries": 24, "wpl_clauses": 4}

    a = tmp_path / "a.prog"
    a.write_text("vars:\n b : {0,1}\nbody:\n skip\n")
    b = tmp_path / "b.prog"
    b.write_text("vars:\n b : {0,1}\nbody:\n print b\n")
    witness = tmp_path / "w.loss"
    witness.write_text("context b:{0,1}\ntable: (0)=inf (1)=1\ntable: (0)=1 (1)=inf\n")
    code, out, _ = run(capsys, "refine", str(a), str(b), "--witness", str(witness),
                       "--family", "k=1,random=0,witnesses=off", "--json")
    report = json.loads(out)
    assert code == 3
    assert report["result"] == {
        "kind": "fails", "checked": 0,
        "witness_loss": {"context": "b:{0,1}", "generators": ["(0)=1 (1)=inf", "(0)=inf (1)=1"]},
        "witness_prior": "(0)=1/2 (1)=1/2", "lhs": "inf", "rhs": "1",
        "certificate_checked": True}
    assert report["timings"] == {"lp_solves": 0, "member_queries": 6, "wpl_clauses": 8}
