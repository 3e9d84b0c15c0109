import json
from fractions import Fraction

import pytest

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
    (["refine", f"{CORPUS}/rep_choice.prog", f"{CORPUS}/rep_leak.prog"],
     0,
     ["verdict: holds",
      "  checked 24 family losses (holds for this family only)"]),
    (["refine", f"{CORPUS}/rep_leak.prog", f"{CORPUS}/rep_choice.prog"],
     3,
     ["verdict: fails",
      "  witness loss:",
      "    context b:{0,1}",
      "    table: (0)=1",
      "  witness prior: (0)=1",
      "  lhs value: 1  rhs value: 0",
      "  certificate re-checked: True"]),
    (["refine", f"{CORPUS}/coin_stop.prog", f"{CORPUS}/geometric.prog"],
     4,
     ["verdict: inconclusive (right-hand loop truncated; "
      "the refinement failure cannot be certified)"]),
    (["refine", f"{CORPUS}/cycle96.prog", f"{CORPUS}/cycle96.prog"],
     4,
     ["verdict: inconclusive (the family's 4560 subset indicators exceed the cap 4096; "
      "--family k=1 builds none)"]),
    (["refine", f"{CORPUS}/cycle96.prog", f"{CORPUS}/cycle96.prog", "--family", "k=1"],
     0,
     ["verdict: holds",
      "  checked 213 family losses (holds for this family only)"]),
]


def test_human_verdict_output_is_pinned(capsys):
    import re

    for argv, exit_code, lines in HUMAN_VERDICTS:
        code, out, _ = run(capsys, *argv)
        assert code == exit_code
        *body, elapsed = out.splitlines()
        assert body == lines
        assert re.fullmatch(r"\[\d+\.\d\ds elapsed\]", elapsed)


# One small corpus example per reporting command, run in both output modes.
BOTH_MODES = [
    ["wpl", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss"],
    ["refine", f"{CORPUS}/rep_leak.prog", f"{CORPUS}/rep_choice.prog"],
    ["datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
     "--context", f"{CORPUS}/ctx_flip_or_keep.ctx"],
    ["simulate", "--forward", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
     "--rep", f"{CORPUS}/rep_leak.prog"],
    ["oracle", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss"],
]


def test_every_report_prints_one_json_document_or_its_elapsed_line(capsys):
    import re

    for argv in BOTH_MODES:
        code, out, _ = run(capsys, *argv, "--json")
        report = json.loads(out)  # raises on anything printed besides one document
        assert list(report) == ["schema_version", "command", "inputs", "options",
                                "result", "timings"]
        assert report["command"] == " ".join(argv[:2 if argv[0] == "simulate" else 1])
        human_code, human, _ = run(capsys, *argv)
        assert human_code == code, argv
        assert re.fullmatch(r"\[\d+\.\d\ds elapsed\]", human.splitlines()[-1]), argv


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
     {"lp_solves": 19, "member_queries": 144, "wpl_clauses": 0},
     "c0b166dec13249f40bcb359ef0fd762ac7e4c4e5fc0a21c44a57c00014738e92",
     "2be246d59d6cda4698a45dcf90dee8db044db60cad95a60b1ee5d4af7e8a3fef"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx"], 3,
     {"lp_solves": 2, "member_queries": 147, "wpl_clauses": 396},
     "7359e402c4e9387c21955975cf84ee729ffe813f19581a9aacdeddabc6be0985",
     "40b3ed1001175f10140803609c63fc981d33f484b0adc2d0425e1cb047bb3031"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_linear_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx", "--family", "k=1,random=0"], 0,
     {"lp_solves": 0, "member_queries": 22, "wpl_clauses": 200},
     "65021c644c4b9280142eb5c05384beb259f4eeffa41542c836b224fe203c6622",
     "378c97a183e65aef4c1d02723670769692e034eca3612e2eba0c0127e7fbf0d2"),
    # The default-family linear scan: its loop term sums have disjoint supports.
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_linear_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx"], 0,
     {"lp_solves": 32, "member_queries": 761, "wpl_clauses": 1384},
     "2adcc98aea20fc00751ec1964388b8c1dddf9702828e07837e171ab8e4cb06a9",
     "1b7fbd79f92c4916070ce025ecc5935e6f28a429bc4bcbef5e2b825e5c7ea48d"),
    # The probe-c linear scan fails only after hundreds of passing entries.
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_linear_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe_c.ctx"], 3,
     {"lp_solves": 1, "member_queries": 407, "wpl_clauses": 1260},
     "87e350acdb5f29d63242f263a0c29de9edb6f4ce3d8ca18c21ca605b2bec96fd",
     "6a9212dd895bcbd669e311a422f5e40fcc0c0e399ff48b74969d1f71ea324587"),
    # Two offset scans whose loop terms overlap after `hidvar m`: each answers
    # once each kernel run is mapped by its product (`semantics._segments`).
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe_c.ctx"], 0,
     {"lp_solves": 206, "member_queries": 1170, "wpl_clauses": 1384},
     "e9416984ea29a3ee5e0e41c536cde37df29a3f92db1c943d1b52b688e70a4b1f",
     "a1665e8e52566712af4afaa5ba5c0c3b7bac6dd534593f21f0621470b05bed4f"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe_c.ctx", "--family", "k=2,random=0"], 0,
     {"lp_solves": 10, "member_queries": 403, "wpl_clauses": 1304},
     "d3407ed7c99fa23c55971a0415955fa13db985e33c51edc2efdb0817f99667c3",
     "f77de2ffd37354a1de5a5b4c31dfe4499461722449aa5520819d8101609796eb"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe_c.ctx", "--family", "k=1,random=20"], 0,
     {"lp_solves": 201, "member_queries": 806, "wpl_clauses": 280},
     "e3ba0d5837feea1da342875eafec3abd4446e1628fc32dd3e57016d01e9ebc9f",
     "c6dca6862842b8e43ee0210428761cac27b68a6ad4fd7811d006a5ee4af1cdf7"),
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe.ctx", "--family", "k=1,random=5,witnesses=off"], 3,
     {"lp_solves": 4, "member_queries": 61, "wpl_clauses": 200},
     "38aa2892ae3dfd881a07fa5d893917e5a029ea4501abb32fe98fda65aaa2520e",
     "d8db34cd1af71521630f00e2e033690b770952943a42083cb422b75a7fc64f3b"),
    # Two contexts in one request: probe-c holds, then probe fails at 1/2 vs 3/8.
    (["datatype", f"{CORPUS}/encdb_membership.dt", f"{CORPUS}/encdb_offset_scan.dt",
      "--context", f"{CORPUS}/ctx_lookup_probe_c.ctx", "--context",
      f"{CORPUS}/ctx_lookup_probe.ctx"], 3,
     {"lp_solves": 208, "member_queries": 1257, "wpl_clauses": 1780},
     "e0836ac94603108b9af7e1fd93337bf5e3996e7b8a72c09ba8ead33d8f9abedf",
     "23617c80b0e0ae6d1f2447884e90329771d908258666780ab2ae619d0a973648"),
    # The bench's corpus checks whose programs print.
    (["oracle", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss",
      "--exhaustive"], 0,
     {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 0},
     "e20f97bf3872614860f7b55e303e17be85f931ad3f8ca4530301965eded0c72f",
     "6925ef3036ee7a953e6d0725ea2544ec6d09b5e3af43eda51c21539a98ca0264"),
    (["simulate", "--forward", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
      "--rep", f"{CORPUS}/rep_leak.prog", "--family", "k=2,random=20,seed=7"], 4,
     {"lp_solves": 23, "member_queries": 291, "wpl_clauses": 0},
     "b3fae071a9eb987d9ee31afdbc7d07a218a452948f21bd5cfee623e74c741020",
     "b49ab5a4c09d23e4156d11e71368a3a46841f933128f2a42ef038daa812b5e4c"),
    (["datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
      "--context", f"{CORPUS}/ctx_flip_or_keep.ctx", "--family", "k=2,random=20,seed=7"], 3,
     {"lp_solves": 4, "member_queries": 40, "wpl_clauses": 12},
     "8771583c16c35532b40bcc5c6f0f29f7b6b8ea56c4e06c66d808ba55e4d655e8",
     "3c7bee7ef6cab419054b81c31534018d9d3fc8e3910e28e64633b483ba76397e"),
    # The other direction holds: leaking early refines leaking late.  The
    # client's `s := 1 - s` only copies entries, so it maps with no LP query.
    (["datatype", f"{CORPUS}/early_leak.dt", f"{CORPUS}/late_leak.dt",
      "--context", f"{CORPUS}/ctx_flip_or_keep.ctx"], 0,
     {"lp_solves": 78, "member_queries": 358, "wpl_clauses": 288},
     "3f50b346411355c46e3bd7b4b689d9b5bf260273c68619ce45f13599195d4921",
     "f57b3597ed4eba5526b50d626e23602105b3e54566ea865c6f2a5762f121dba2"),
    (["datatype", f"{CORPUS}/refresh_after_read.dt", f"{CORPUS}/refresh_before_read.dt",
      "--context", f"{CORPUS}/ctx_print_then_xor.ctx", "--family", "k=2,random=20,seed=7"], 3,
     {"lp_solves": 5, "member_queries": 48, "wpl_clauses": 176},
     "eba43dda966cd45f4e1166609e05c7f1ff401a8cb039066f8f388a5cdb82c08a",
     "d2613edee36c132062b97df10ef15424bc45ccb012c90f7990cfab314dede1de"),
    # A rep with a choice: the backward squares hold on the family, and the
    # choiceless gate makes the verdict inconclusive.
    (["simulate", "--backward", f"{CORPUS}/refresh_after_read.dt",
      f"{CORPUS}/refresh_before_read.dt", "--rep", f"{CORPUS}/rep_choice.prog"], 4,
     {"lp_solves": 38, "member_queries": 573, "wpl_clauses": 648},
     "1a3e2792017349e71bca7ee42856e4b2ea6c580a2254cb8e05f91c07a3db7fce",
     "d6f91abded120fa83568b32d0e986f9423b3b8623590215e899a4b9e371bcb65"),
    # Program refinement both ways: the only report whose options carry ``ext``.
    (["refine", f"{CORPUS}/rep_choice.prog", f"{CORPUS}/rep_leak.prog"], 0,
     {"lp_solves": 0, "member_queries": 50, "wpl_clauses": 72},
     "fecba2b58798b0fd7248b6d8e57491b261e26f06fe4187a4a67dc19be7b33ea0",
     "c829afca7d5f2faf3443dc475a0ffabfa2d0852dbceaecb6c71b5f413e6e1202"),
    (["refine", f"{CORPUS}/rep_leak.prog", f"{CORPUS}/rep_choice.prog"], 3,
     {"lp_solves": 1, "member_queries": 27, "wpl_clauses": 3},
     "04e0e3a9cf5f137026c2ef53eaa348a45cb8ffddcbce14b98136c992d1fa44d4",
     "de155193f06f147214f3c19fd5754c6def832611a600c99d169e969d1ff8d47b"),
    # A truncated right-hand loop: the failure it shows is not certified,
    # so the verdict is inconclusive with loop_notes ["truncated"].
    (["refine", f"{CORPUS}/coin_stop.prog", f"{CORPUS}/geometric.prog"], 4,
     {"lp_solves": 1, "member_queries": 27, "wpl_clauses": 65},
     "695db45da89a42b01ed6b8a7352ff8dbf0567c6c2c299371e9ea96d5a54426f4",
     "68467cb461de3a376c29922ac6d9854d1300373a4a405a32263fc0f4f6af86c2"),
    # The other direction: the left-hand loop truncates, so the family verdict
    # is inconclusive.
    (["refine", f"{CORPUS}/geometric.prog", f"{CORPUS}/coin_stop.prog"], 4,
     {"lp_solves": 0, "member_queries": 41, "wpl_clauses": 527},
     "841d1dc7f5d560c6b4403fe1a700262bf44190aaf53adc0fb6e24c79fa3122ba",
     "5a23c38a54d3c9a293b32f0ee3aa1d292d5234698cd8b7daf4e9e7aef002326c"),
    # README examples with the default family and the README's prior.
    (["datatype", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
      "--context", f"{CORPUS}/ctx_sample_then_read.ctx"], 0,
     {"lp_solves": 22, "member_queries": 241, "wpl_clauses": 990},
     "84e747d37104a7252d3a1d86f1dfc22074367282ba9e1aef3cb02ebf23956f64",
     "cdde6f75eb4cc5b463571f46fa62dd7157354bc9b7647356a4a6e7ed89be312a"),
    (["simulate", "--forward", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
      "--rep", f"{CORPUS}/rep_coin.prog"], 0,
     {"lp_solves": 5, "member_queries": 72, "wpl_clauses": 0},
     "5d297750c3f96755951a4c2a9768d0a162e2cfd0aaf43249441babd39dd295d5",
     "248d70fc1caced290070f55aff1c0406fabd64357fe835ebbdaacb7f26ec9a04"),
    # A backward simulation whose squares hold: the reverse of the one above.
    (["simulate", "--backward", f"{CORPUS}/randbit_cached.dt", f"{CORPUS}/randbit_direct.dt",
      "--rep", f"{CORPUS}/rep_coin.prog"], 0,
     {"lp_solves": 5, "member_queries": 72, "wpl_clauses": 0},
     "c437df780955187a35f1678b01e5f9be449ed0b6e62f8d638565e0e38195cfe2",
     "832ab916238fe0b980892601c04901ab14b6c20536946eb8c61bc7922b28787f"),
    (["simulate", "--forward", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
      "--rep", f"{CORPUS}/rep_leak.prog"], 4,
     {"lp_solves": 17, "member_queries": 287, "wpl_clauses": 0},
     "e744f25546ccbaa9a4db6fefbccafebb589c4acbbd865f14f2eeb25cf3a5556c",
     "87a061367436769689f71b119c7020b6fdadd96f428967b647c803c769ad5e28"),
    (["oracle", f"{CORPUS}/parity_reveal.prog", "--post", f"{CORPUS}/parity_post.loss",
      "--prior", "(0)=1/8 (1)=3/8 (2)=3/8 (3)=1/8", "--exhaustive"], 0,
     {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 0},
     "319c5185342cb3a83ac52e3e2058ff394d5fe7dff536069580b86a1527b2691e",
     "44545d9518708e0957ee39b9c0dc31f93ce5d8742f1f299d44aa0c93350644d4"),
    # A context of 96 states: the default family's subset indicators exceed
    # their cap, a resource limit, so the verdict is inconclusive (exit 4).
    (["refine", f"{CORPUS}/cycle96.prog", f"{CORPUS}/cycle96.prog"], 4,
     {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 0},
     "a1c0e21f5fe84fe57575136429d4aaa63779b2b0230c6e722032e5da9a3ae950",
     "be23a1d4225fc718d0ed4d6a78979b2ca7439efad2c0f958a2f6bdcc5d4b5687"),
]

# The README examples pinned outside PINNED_REPORTS, by the two tests below.
GEOMETRIC_BUDGET_5 = ["wpl", f"{CORPUS}/geometric.prog", "--post",
                      f"{CORPUS}/geometric_post.loss", "--loop-budget", "5"]
ENCDB2_BACKWARD = ["simulate", "--backward", f"{CORPUS}/encdb2_membership_distinct.dt",
                   f"{CORPUS}/encdb2_offset_scan.dt", "--rep", f"{CORPUS}/rep_distinct.prog"]


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
    code, out, _ = run(capsys, *ENCDB2_BACKWARD, "--json")
    assert code == 3
    report = json.loads(out)
    assert report["result"]["kind"] == "fails"
    assert report["result"]["at"] == "op lookup"
    assert report.pop("timings") == {"lp_solves": 8, "member_queries": 193,
                                     "wpl_clauses": 0}
    assert report_digest(report) == (
        "dfa719f45a9f4115b232cb97f4e11e48e0d2a492abccdd8fdac1b7d9342f1678")


def test_branch_and_loop_reports_are_pinned(capsys, tmp_path):
    """`wpl` and the oracle through the corpus's one `if`, and `wpl` through a `while`.

    The mutex post is written under ``tmp_path``, whose path is in the
    report's ``inputs``, so the result and ``timings`` are pinned, not a digest.
    """
    mutex_post = tmp_path / "mutex.loss"
    mutex_post.write_text("context x:{0,1} y:{0,1}\nexpr: x = 0\nexpr: y = 1")
    cases = [
        (["wpl", f"{CORPUS}/mutex_round.prog", "--post", str(mutex_post)],
         {"pre_loss": {"context": "x:{0,1} y:{0,1}",
                       "generators": ["(0,0)=1/2 (0,1)=1/2 (1,0)=1/2 (1,1)=1/2"]},
          "loops": {}, "truncated": False},
         {"lp_solves": 0, "member_queries": 11, "wpl_clauses": 8}),
        (["oracle", f"{CORPUS}/mutex_round.prog", "--post", str(mutex_post), "--exhaustive"],
         {"risk": "1/2", "exhaustive": "1/2", "agrees": True},
         {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 0}),
        (GEOMETRIC_BUDGET_5,
         {"pre_loss": {"context": "c:{0,1}", "generators": ["(0)=1 (1)=31/32"]},
          "loops": {"while#0@5:3": "truncated(5)"}, "truncated": True},
         {"lp_solves": 0, "member_queries": 0, "wpl_clauses": 6}),
    ]
    for argv, result, timings in cases:
        code, out, _ = run(capsys, *argv, "--json")
        assert code == 0, argv
        report = json.loads(out)
        assert (report["result"], report["timings"]) == (result, timings), argv


def _shell_commands(text, program):
    """The argument lists of the ``program`` commands in shell ``text``,
    backslash continuations joined and comments dropped."""
    import shlex

    commands = []
    for line in text.replace("\\\n", " ").splitlines():
        words = shlex.split(line, comments=True)
        if words[:1] == [program]:
            commands.append(words[1:])
    return commands


def test_readme_examples_match_ci_and_their_pins():
    """README's "Try it" block and CI's README-examples step run the same
    commands in the same order, and CI expects each one's pinned exit code."""
    import pathlib

    examples = pathlib.Path("README.md").read_text().split("Try it on the bundled corpus:")[1]
    readme = _shell_commands(examples.split("```")[1], "preloss")
    ci = _shell_commands(pathlib.Path(".github/workflows/tests.yml").read_text(), "check")
    pinned = {tuple(argv): exit_code for argv, exit_code, *_ in PINNED_REPORTS}
    pinned |= {tuple(GEOMETRIC_BUDGET_5): 0, tuple(ENCDB2_BACKWARD): 3}
    assert len(readme) == 21
    assert [argv for _, *argv in ci] == readme
    assert [int(code) for code, *_ in ci] == [pinned[tuple(argv)] for argv in readme]


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


# Checks whose parts take each route: every part compiled to history
# matrices (the first two), a part run by ``wpl``, a datatype and both simulations.
BUDGET_CHECKS = [
    ["refine", f"{CORPUS}/rep_leak.prog", f"{CORPUS}/rep_leak.prog"],
    ["simulate", "--forward", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
     "--rep", f"{CORPUS}/rep_coin.prog"],
    ["refine", f"{CORPUS}/rep_choice.prog", f"{CORPUS}/rep_leak.prog"],
    ["datatype", f"{CORPUS}/randbit_direct.dt", f"{CORPUS}/randbit_cached.dt",
     "--context", f"{CORPUS}/ctx_sample_then_read.ctx"],
    ["simulate", "--backward", f"{CORPUS}/randbit_cached.dt", f"{CORPUS}/randbit_direct.dt",
     "--rep", f"{CORPUS}/rep_coin.prog"],
]


@pytest.mark.parametrize("budget", ["0", "-1"])
def test_a_budget_below_one_exits_2_on_every_route(capsys, monkeypatch, budget):
    for argv in BUDGET_CHECKS:
        for flag in (["--loop-budget", budget], []):
            with monkeypatch.context() as m:
                if not flag:
                    m.setenv("PRELOSS_LOOP_BUDGET", budget)
                code, out, err = run(capsys, *argv, *flag)
            assert (code, out, err) == (2, "", "error: loop budget must be positive\n"), argv


def test_oracle_reads_no_loop_budget(capsys, monkeypatch):
    """The oracle takes no ``--loop-budget``, and ignores the variable."""
    monkeypatch.setenv("PRELOSS_LOOP_BUDGET", "abc")
    code, out, _ = run(capsys, "oracle", f"{CORPUS}/parity_reveal.prog",
                       "--post", f"{CORPUS}/parity_post.loss")
    assert code == 0
    assert out.startswith("optimal adversary risk: 1/2")
    with pytest.raises(SystemExit) as exc:  # argparse: an unknown option
        run(capsys, "oracle", f"{CORPUS}/parity_reveal.prog",
            "--post", f"{CORPUS}/parity_post.loss", "--loop-budget", "3")
    assert exc.value.code == 2


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


def test_refine_against_a_different_declared_context_is_a_type_error(capsys):
    code, out, err = run(capsys, "refine", f"{CORPUS}/geometric.prog",
                         f"{CORPUS}/rep_choice.prog")
    assert (code, out) == (2, "")
    assert err.splitlines() == [
        f"type error: {CORPUS}/rep_choice.prog: declared vars [b:{{0,1}}] do not match "
        "the expected context [c:{0,1}]"]


def test_json_verdict_checks_its_certificate_once(capsys, monkeypatch):
    from preloss.refinement import Verdict

    calls = []
    original = Verdict.certificate_ok

    def counted(self):
        calls.append(self.kind)
        return original(self)

    monkeypatch.setattr(Verdict, "certificate_ok", counted)
    argv = ["datatype", f"{CORPUS}/late_leak.dt", f"{CORPUS}/early_leak.dt",
            "--context", f"{CORPUS}/ctx_flip_or_keep.ctx"]
    code, out, _ = run(capsys, *argv, "--json")
    assert code == 3
    assert json.loads(out)["result"]["certificate_checked"] is True
    assert calls == ["fails"]
    calls.clear()
    code, out, _ = run(capsys, *argv)
    assert code == 3
    assert "  certificate re-checked: True" in out.splitlines()
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
    assert report["timings"] == {"lp_solves": 0, "member_queries": 5, "wpl_clauses": 0}


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
