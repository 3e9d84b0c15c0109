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
    assert report["timings"]["member_queries"] > 0


# Whole --json reports pinned with their exit codes: the timings, a sha256 of
# the whole report and a sha256 of the report without its timings.  The same
# inputs must keep making the same LP queries and solves and the same output;
# a change that moves only the counts moves the first two pins, never the third.
PINNED_REPORTS = [
    (["wpl", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss"], 0,
     {"lp_solves": 0, "member_queries": 6, "wpl_clauses": 4},
     "5743d47e7bc572ccf3bcc0c9ae9a88b7cad647119e028ffd9bf076f00379d8a5",
     "53f48d340da9c16aa749b15ab367921efeee18359670a1c5ebe4a3d59ad5d5be"),
    (["simulate", "--forward", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
      "--rep", f"{CORPUS}/rep_coin.prog", "--family", "k=2,random=50,seed=7"], 0,
     {"lp_solves": 19, "member_queries": 146, "wpl_clauses": 38},
     "65ebe7a89927b700406c30d86f702114e05e57dd7d5326552dd0e1f9d4d51ea8",
     "2be246d59d6cda4698a45dcf90dee8db044db60cad95a60b1ee5d4af7e8a3fef"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx"], 3,
     {"lp_solves": 90, "member_queries": 926, "wpl_clauses": 1881},
     "93821108047b0cd15fb88224fbb20d829b933505b493c13bde126d74216925ea",
     "40b3ed1001175f10140803609c63fc981d33f484b0adc2d0425e1cb047bb3031"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_linear_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx", "--family", "k=1,random=0"], 0,
     {"lp_solves": 0, "member_queries": 89, "wpl_clauses": 850},
     "528a97033031a34cbe64114b47ed123f35cb66704291d6a47d59041e0ab59a9f",
     "378c97a183e65aef4c1d02723670769692e034eca3612e2eba0c0127e7fbf0d2"),
    # The default-family linear scan: its loop term sums have disjoint supports.
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_linear_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx"], 0,
     {"lp_solves": 296, "member_queries": 4104, "wpl_clauses": 5882},
     "73ed3e3edb65c362a8f03f18fdba6b685bf8d2dfc20c941d563020bde97fc241",
     "1b7fbd79f92c4916070ce025ecc5935e6f28a429bc4bcbef5e2b825e5c7ea48d"),
    # The bench's corpus checks whose programs print.
    (["oracle", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss",
      "--exhaustive"], 0,
     {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 0},
     "e20f97bf3872614860f7b55e303e17be85f931ad3f8ca4530301965eded0c72f",
     "6925ef3036ee7a953e6d0725ea2544ec6d09b5e3af43eda51c21539a98ca0264"),
    (["simulate", "--forward", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
      "--rep", f"{CORPUS}/rep_leak.prog", "--family", "k=2,random=20,seed=7"], 4,
     {"lp_solves": 30, "member_queries": 436, "wpl_clauses": 192},
     "47497a4fc16dae4ed495aff2dd26163edbf916889eba260d064af811bea90097",
     "b49ab5a4c09d23e4156d11e71368a3a46841f933128f2a42ef038daa812b5e4c"),
    (["datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
      "--context", f"{CORPUS}/ctx_flip_or_keep.ctx", "--family", "k=2,random=20,seed=7"], 3,
     {"lp_solves": 4, "member_queries": 42, "wpl_clauses": 14},
     "5f4b4db2c687a038dd1ca4d0ce41c5cec8d09fe931f29c0236e0b3648e38802f",
     "3c7bee7ef6cab419054b81c31534018d9d3fc8e3910e28e64633b483ba76397e"),
    (["datatype", f"{CORPUS}/refresh_after_read.dt", f"{CORPUS}/refresh_before_read.dt",
      "--context", f"{CORPUS}/ctx_print_then_xor.ctx", "--family", "k=2,random=20,seed=7"], 3,
     {"lp_solves": 5, "member_queries": 48, "wpl_clauses": 220},
     "0ecbee6b3e2b0828c4093b02db6694a97367736225c529591d0e903e24555d50",
     "d2613edee36c132062b97df10ef15424bc45ccb012c90f7990cfab314dede1de"),
]


def report_digest(report: dict) -> str:
    """The sha256 of a report as ``--json`` prints it (``timings`` popped by the caller)."""
    import hashlib

    return hashlib.sha256(json.dumps(report, indent=2, sort_keys=False).encode()).hexdigest()


def test_json_reports_are_pinned(capsys):
    import hashlib

    for argv, exit_code, timings, digest, digest_without_timings in PINNED_REPORTS:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == exit_code
        report = json.loads(out)
        assert report.pop("timings") == timings
        assert hashlib.sha256(out.encode()).hexdigest() == digest
        assert report_digest(report) == digest_without_timings


def test_json_reports_repeat_within_one_process(capsys):
    """Families are built per request: a second run reports the same counts."""
    for argv in (PINNED_REPORTS[1][0],
                 ["datatype", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
                  "--context", f"{CORPUS}/ctx_sample_then_read.ctx",
                  "--family", "k=2,random=50,seed=7"]):
        first = run(capsys, *argv, "--json")
        assert first[0] == 0
        assert run(capsys, *argv, "--json") == first


def test_large_choiceless_simulation_is_pinned(capsys):
    """The encdb2 backward simulation: a choiceless rep, squares over 54 states."""
    code, out, _ = run(capsys, "simulate", "--backward",
                       f"{CORPUS}/encdb2_membership_distinct.dt",
                       f"{CORPUS}/encdb2_offset_scan.dt",
                       "--rep", f"{CORPUS}/rep_distinct.prog", "--json")
    assert code == 3
    report = json.loads(out)
    assert report["result"]["kind"] == "fails"
    assert report["result"]["at"] == "op lookup"
    assert report.pop("timings") == {"lp_solves": 11, "member_queries": 282,
                                     "wpl_clauses": 765}
    assert report_digest(report) == (
        "dfa719f45a9f4115b232cb97f4e11e48e0d2a492abccdd8fdac1b7d9342f1678")


def test_branch_and_loop_reports_are_pinned(capsys, tmp_path):
    """`wpl` and the oracle through the corpus's one `if`, and `wpl` through a `while`.

    The posts are written under ``tmp_path``, whose path is in the report's
    ``inputs``, so the result and ``timings`` are pinned, not a digest.
    """
    mutex_post = tmp_path / "mutex.loss"
    mutex_post.write_text("context x:{0,1} y:{0,1}\nexpr: x = 0\nexpr: y = 1")
    coin_post = tmp_path / "coin.loss"
    coin_post.write_text("context c:{0,1}\nexpr: c = 0")
    cases = [
        (["wpl", f"{CORPUS}/mutex_round.prog", "--post", str(mutex_post)],
         {"pre_loss": {"context": "x:{0,1} y:{0,1}",
                       "generators": ["(0,0)=1/2 (0,1)=1/2 (1,0)=1/2 (1,1)=1/2"]},
          "loops": {}, "truncated": False},
         {"lp_solves": 0, "member_queries": 13, "wpl_clauses": 8}),
        (["oracle", f"{CORPUS}/mutex_round.prog", "--post", str(mutex_post), "--exhaustive"],
         {"risk": "1/2", "exhaustive": "1/2", "agrees": True},
         {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 0}),
        (["wpl", f"{CORPUS}/geometric.prog", "--post", str(coin_post), "--loop-budget", "5"],
         {"pre_loss": {"context": "c:{0,1}", "generators": ["(0)=1 (1)=31/32"]},
          "loops": {"while#0@5:3": "truncated(5)"}, "truncated": True},
         {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 1}),
    ]
    for argv, result, timings in cases:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        report = json.loads(out)
        assert (report["result"], report["timings"]) == (result, timings), argv


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


def test_bad_family_values_exit_2_naming_the_option(capsys, tmp_path):
    prog = tmp_path / "a.prog"
    prog.write_text("vars:\n b : {0,1}\nbody:\n print b")
    cases = {
        "k=x": "error: family option 'k' needs a nonnegative integer, got 'x'\n",
        "max_subset=-1": "error: family option 'max_subset' needs a nonnegative integer, "
                         "got '-1'\n",
        "random=-3": "error: family option 'random' needs a nonnegative integer, got '-3'\n",
        "seed=1.5": "error: family option 'seed' needs an integer, got '1.5'\n",
        "witnesses=maybe": "error: family option 'witnesses' needs one of "
                           "on/off/1/0/true/false, got 'maybe'\n",
    }
    for spec, message in cases.items():
        code, out, err = run(capsys, "refine", str(prog), str(prog), "--family", spec)
        assert (code, out, err) == (2, "", message), spec
    for spec in ("k=0,random=0,witnesses=off", "seed=-7,witnesses=true", "witnesses=1"):
        code, _, err = run(capsys, "refine", str(prog), str(prog), "--family", spec)
        assert code == 0, (spec, err)


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



def test_context_glued_to_a_name_is_a_syntax_error(capsys, tmp_path):
    """``contextb`` is one identifier: ``wpl`` and ``check`` both reject it."""
    skip = tmp_path / "skip.prog"
    skip.write_text("vars:\n b : {0,1}\nbody:\n skip")
    loss = tmp_path / "glued.loss"
    loss.write_text("contextb : {0,1}\nexpr: b = 0\n")
    for argv in (["wpl", str(skip), "--post", str(loss)], ["check", str(loss)]):
        code, out, err = run(capsys, *argv)
        assert code == 1, argv
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("syntax error: 1:"), err


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
    assert report["timings"] == {"lp_solves": 2, "member_queries": 18, "wpl_clauses": 4}

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
    assert report["timings"] == {"lp_solves": 0, "member_queries": 5, "wpl_clauses": 6}


def test_oracle_on_long_print_runs(capsys, tmp_path):
    """A print that leaves mass on one observed value only extends the history in the loop."""
    from preloss.losses import LossFunction, eval_loss
    from preloss.parsing import parse_loss_text, parse_prior_text, parse_program_file
    from preloss.semantics import weakest_preloss
    from preloss.typecheck import typecheck_program

    prog = tmp_path / "prints.prog"
    prog.write_text("vars:\n x : {0,1}\nbody:\n" + ";\n".join([" print x"] * 1200))
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
    value = eval_loss(weakest_preloss(parsed, LossFunction(lctx, tuple(gens))).pre,
                      parse_prior_text(initial, prior))
    assert result["risk"] == result["exhaustive"] == str(value) == "0"


def test_prior_state_outside_the_context_is_a_positioned_syntax_error(capsys):
    cases = [
        ("(7)=1", "syntax error: 1:1: value 7 not in domain of 'n'"),
        ("(1)=1/2  (9)=1/2", "syntax error: 1:10: value 9 not in domain of 'n'"),
        ("(0,1)=1", "syntax error: 1:1: state arity 2 != context arity 1"),
    ]
    for prior, line in cases:
        code, out, err = run(capsys, "oracle", f"{CORPUS}/parity_reveal.prog",
                             "--post", f"{CORPUS}/parity_post.loss", "--prior", prior)
        assert code == 1, prior
        assert out == ""
        assert err.splitlines() == [line]


def test_repeated_main_calls_share_no_state(capsys, tmp_path, monkeypatch):
    """``main`` reuses one parser; options of one call do not reach the next."""
    from preloss import cli

    witness = tmp_path / "w.loss"
    witness.write_text("context s:{0,1} x:{0,1} y:{0,1}\nexpr: y\n")
    base = ["datatype", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
            "--context", f"{CORPUS}/ctx_sample_then_read.ctx",
            "--family", "k=0,random=0,witnesses=off", "--json"]
    with_witness = base + ["--witness", str(witness)]

    def first_call(argv):
        monkeypatch.setattr(cli, "_parser", None)
        return run(capsys, *argv)

    fresh_plain, fresh_witness = first_call(base), first_call(with_witness)
    assert json.loads(fresh_witness[1])["result"]["checked"] == \
        json.loads(fresh_plain[1])["result"]["checked"] + 1
    shared = []
    for argv in (with_witness, base, with_witness, with_witness, base):
        shared.append(run(capsys, *argv))
    assert shared == [fresh_witness, fresh_plain, fresh_witness, fresh_witness, fresh_plain]
    assert cli._parser is not None


def test_loss_expression_errors_carry_positions(capsys, tmp_path):
    skip = tmp_path / "skip.prog"
    skip.write_text("vars:\n b : {0,1}\nbody:\n skip")
    cases = [
        ("context b:{0,1}\nexpr: b = x\n", "type error: 2:7: unbound variable 'x' (at state (0))"),
        ("context b:{0,1}\n  expr:   0 - b  // c\n",
         "type error: 2:11: negative expression value -1 at state (1)"),
    ]
    for text, line in cases:
        loss = tmp_path / "bad.loss"
        loss.write_text(text)
        code, out, err = run(capsys, "wpl", str(skip), "--post", str(loss))
        assert code == 2
        assert out == ""
        assert err.splitlines() == [line]


def test_call_outside_a_datatype_is_a_type_error(capsys, tmp_path):
    prog = tmp_path / "hole.prog"
    prog.write_text("vars: x : {0,1}\nbody: x := 0; call f\n")
    loss = tmp_path / "x.loss"
    loss.write_text("context x : {0,1}\nexpr: x\n")
    code, out, err = run(capsys, "wpl", str(prog), "--post", str(loss))
    assert code == 2
    assert out == ""
    assert err.splitlines() == ["type error: 2:15: unknown operation hole 'f'"]


def test_nesting_past_the_bound_is_a_positioned_syntax_error(capsys, tmp_path):
    """The deepest accepted input answers everywhere; one level deeper is exit 1."""
    from preloss.parsing import MAX_NESTING, parse_program_file
    from preloss.syntax import program_text

    loss = tmp_path / "x.loss"
    loss.write_text("context x : {0,1}\nexpr: x\n")
    # body text at depth n, and the column (on line 2) of the token that goes one too deep
    shapes = {
        "parens": (lambda n: "x := " + "(" * n + "x" + ")" * n, 12 + MAX_NESTING),
        "blocks": (lambda n: "if x { " * n + "print x" + " } else { skip }" * n,
                   12 + 7 * MAX_NESTING),
        "chain": (lambda n: "x := x" + " * 1" * n, 14 + 4 * MAX_NESTING),
        "loops": (lambda n: "while x { " * n + "x := 0" + " }" * n, 15 + 10 * MAX_NESTING),
    }
    for name, (body, col) in shapes.items():
        prog = tmp_path / f"{name}.prog"
        prog.write_text(f"vars: x : {{0,1}}\nbody: {body(MAX_NESTING)}\n")
        commands = [["check"], ["wpl", "--post", str(loss)]]
        if name != "loops":  # the oracle takes loop-free programs only
            commands.append(["oracle", "--post", str(loss), "--exhaustive"])
        for argv in commands:
            code, out, err = run(capsys, argv[0], str(prog), *argv[1:])
            assert code == 0 and err == "", (name, argv, err)
        _, parsed = parse_program_file(prog.read_text())
        assert parse_program_file(f"vars: x : {{0,1}}\nbody: {program_text(parsed)}")[1] == parsed
        prog.write_text(f"vars: x : {{0,1}}\nbody: {body(MAX_NESTING + 1)}\n")
        code, out, err = run(capsys, "check", str(prog))
        assert code == 1, name
        assert err.splitlines() == [f"syntax error: 2:{col}: nesting too deep"], name

    # inlining copies the datatype's operation into the context
    deep_op = shapes["blocks"][0](MAX_NESTING).replace("x", "s")
    dt = tmp_path / "deep.dt"
    dt.write_text(f"shared:\n s : {{0,1}}\nencap:\ninit:\n skip\nop f:\n {deep_op}\n"
                  "final:\n skip\n")
    ctx = tmp_path / "deep.ctx"
    ctx.write_text("client:\nbody:\n call f\n")
    code, out, err = run(capsys, "datatype", str(dt), str(dt), "--context", str(ctx))
    assert code == 0 and "verdict: holds" in out, err
