"""The benchmark's own checks: ``python3 -m pytest bench`` from the repository root.

The trace checks run every workload traced, twice, with the shortest run
length (one untraced and one traced pass each); ``encdb_scan`` alone takes
about two minutes of that.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import gen  # noqa: E402
import run  # noqa: E402
from tracing import EXACT_COUNTS  # noqa: E402

WORKLOADS = sorted(run.load_spec()["workloads"])


def _bench(*args, cwd=ROOT, timeout=600):
    return subprocess.run([sys.executable, "bench/run.py", *args], cwd=cwd,
                          capture_output=True, text=True, timeout=timeout)


def _traced(workload):
    done = _bench("--workload", workload, "--seed", "3", "--seconds", "0.1", "--trace", "1")
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def test_generator_is_deterministic():
    first, again = gen.generate(5, 60), gen.generate(5, 60)
    assert [(c.program, c.loss, c.prior) for c in first] == \
           [(c.program, c.loss, c.prior) for c in again]
    assert first != gen.generate(6, 60)


def test_generated_cases_stay_within_their_bounds():
    from preloss.adversary import choice_points
    from preloss.parsing import parse_prior_text, parse_program_file
    from preloss.typecheck import typecheck_program

    for case in gen.generate(7, 60):
        initial, prog = parse_program_file(case.program)
        typecheck_program(prog, initial)
        assert initial.n_states <= gen.MAX_STATES
        assert case.program.count("[]") <= gen.MAX_CHOICES
        assert case.program.count("print") <= gen.MAX_PRINTS
        points = choice_points(prog, parse_prior_text(initial, case.prior))
        assert len(points) <= gen.MAX_CHOICE_POINTS


def test_tail_has_its_count_of_values_beyond_it():
    values = [float(i) for i in range(10 * run.TAIL_BEYOND)]
    value, pct = run.tail(values)
    assert sum(v > value for v in values) == run.TAIL_BEYOND and pct == 90.0
    assert run.tail([3.0, 1.0, 2.0]) == (3.0, 100.0)


def test_a_wrong_answer_is_reported_not_raised():
    item = run.load_spec()["workloads"]["corpus_small"]["items"][0]
    code, out = run.call_cli(item["argv"])
    assert run.check(item["expect"], code, out) is None
    report = json.loads(out)
    report["result"]["pre_loss"]["generators"].pop()
    assert "generators" in run.check(item["expect"], code, json.dumps(report, indent=2))
    assert run.check(item["expect"], 2, out).startswith("exit 2")


def test_deadline_child_is_stopped_and_timed_at_the_deadline():
    start = time.perf_counter()
    outcome = run.in_child(lambda: time.sleep(30), 0.3, 5.0)
    elapsed = time.perf_counter() - start
    assert outcome["status"] == "timeout"
    assert 0.3 <= elapsed < 2.0


def test_without_sources_it_fails_without_a_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("__pycache__", "_work-*"))
    done = _bench("--workload", "corpus_small", "--seed", "1", "--seconds", "1",
                  "--trace", "0", cwd=tmp_path, timeout=60)
    assert done.returncode != 0
    assert '"metrics"' not in done.stdout


@pytest.mark.parametrize("workload", WORKLOADS)
def test_trace_accounts_for_the_pass_and_repeats_its_counts(workload):
    result, result2 = _traced(workload), _traced(workload)
    for r in (result, result2):
        assert r["correct"] is True
        assert 0.95 <= r["metrics"]["trace.covered_share"]["value"] <= 1.0
    for name in EXACT_COUNTS:
        assert result["metrics"][name]["value"] == result2["metrics"][name]["value"], name
    if workload == "oracle_duality":
        assert result["metrics"]["lp.self_s"]["value"] == 0
    if workload == "encdb_scan":
        assert result["metrics"]["adversary.self_s"]["value"] == 0
        assert result["metrics"]["lp.lp_solves"]["value"] == 1365 + 194
        assert result["metrics"]["lp.member_queries"]["value"] == 1464 + 245
