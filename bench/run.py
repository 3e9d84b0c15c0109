#!/usr/bin/env python3
"""Time-to-verdict benchmark for the ``preloss`` analyzer.

Usage, from the repository root:

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

One process runs one workload as a single closed-loop client: it sends one
item at a time through ``preloss.cli.main([..., "--json"])``, with stdout
captured, and checks every answer against its known answer
(``bench/workloads.json``) or against a value computed by a second route.
It makes whole passes over the workload's items until ``--seconds`` is used
(at least one pass).  Times are given at a fixed reference speed of the
host, measured by ``SpeedProbe`` while the items run; the details line keeps
the wall-clock figures too.  The last line of stdout is one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics of ``bench/tracing.py`` with
``--trace 1``.  The line before it holds the details (quartiles, sample
counts, the tail percentile, every item that was not answered correctly).

Workloads (why each was chosen is in ``BENCHMARK.json`` and README.md here):
``encdb_scan``, ``corpus_small`` and ``oracle_duality``.  The seed orders the
corpus items and generates the ``oracle_duality`` cases; ``preloss`` sees only
the resulting inputs.

The item marked ``deadline`` runs in a forked child under a fixed deadline
enforced by an interval timer in the child and a kill from the parent.  A miss
is recorded as ``timeout`` and counts against ``ok_share``; it is not a wrong
answer, so it is not counted in ``failed``.  The child's memory stays out of
``peak_rss_mb``, which reads this process's own ``ru_maxrss``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import random
import resource
import select
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from bisect import bisect_left
from collections import Counter
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Tuple

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))

import gen  # noqa: E402  (bench/gen.py, stdlib only)

SETUP_PROBES = 3            # timed fresh-process set-ups per run, after one warm-up
SETUP_CALIBRATION = 50     # speed probes just before and just after each timed set-up
TAIL_BEYOND = 80           # distinct items beyond item_tail_s
CHILD_GRACE_S = 10.0        # a deadline child that ignores its timer is killed after this
REFERENCE_LIMIT_S = 150.0   # bound on the child computing oracle_duality references


@dataclass
class Item:
    name: str
    argv: List[str]
    expect: dict
    deadline_s: Optional[float] = None


@dataclass
class Sample:
    item: str
    start: float           # perf_counter() readings around the item
    end: float
    status: str            # ok | wrong | error | timeout
    detail: str = ""


@dataclass
class Pass:
    seconds: float         # wall time, bench overhead included
    samples: List[Sample]


# ------------------------------------------------------------ host speed

class _Task:
    __slots__ = ("ident", "next", "count")

    def __init__(self, ident: int):
        self.ident, self.next, self.count = ident, None, 0

    def step(self, scheduler: "_Scheduler") -> "_Task":
        self.count += 1
        return self.next if self.count % 3 == 0 else scheduler.pick(self)


class _Scheduler:
    __slots__ = ("tasks", "switches")

    def __init__(self, tasks: List[_Task]):
        self.tasks, self.switches = tasks, 0

    def pick(self, task: _Task) -> _Task:
        self.switches += 1
        return self.tasks[(task.ident * 5 + self.switches) % len(self.tasks)]


def _reference_kernel() -> int:
    """A fixed piece of object-graph code: method calls, slotted attributes, modular indexing.

    Of the kernels tried (Fraction sums, tuple-keyed dicts, recursive
    generators and mixes of them), this one tracked the host's slowdowns of
    all three workloads best.
    """
    tasks = [_Task(i) for i in range(12)]
    for i, task in enumerate(tasks):
        task.next = tasks[(i + 1) % len(tasks)]
    scheduler, task = _Scheduler(tasks), tasks[0]
    for _ in range(1500):
        task = task.step(scheduler)
    return scheduler.switches


class SpeedProbe:
    """Samples the host's speed while items run, to give their times at a fixed speed.

    The host is shared.  A fixed CPU loop runs up to twice as slowly in phases
    of seconds to a minute, and process CPU time slows the same way, so raw
    times of the same code spread past the benchmark's bounds from run to run.
    While the probe is on, a SIGPROF handler times ``_reference_kernel`` after
    every ``INTERVAL_S`` of this process's CPU time.  An interval's time at
    reference speed is its wall time, less the probes inside it, times
    ``REF_S`` over the mean probe duration within ``PAD_S`` of it.  The mean,
    not the median, because wall time adds up the slowdown over the interval.
    """

    REF_S = 3.0e-4   # about one reference kernel at the fast state of a 2-vCPU x86-64 host
    PAD_S = 0.5
    INTERVAL_S = 0.02

    def __init__(self):
        # (start, duration) pairs.  The handler only appends one pair at a
        # time, so a probe that fires while the list is read stays consistent.
        self.probes: List[Tuple[float, float]] = []
        self._starts: List[float] = []
        self._durations: List[float] = []

    def sample(self, *_) -> None:
        start = time.perf_counter()
        _reference_kernel()
        self.probes.append((start, time.perf_counter() - start))

    def calibrate(self, n: int) -> None:
        """Take ``n`` probes back to back, after ``n // 10`` untimed ones to warm up."""
        for _ in range(n // 10):
            _reference_kernel()
        for _ in range(n):
            self.sample()

    def __enter__(self):
        self.sample()
        signal.signal(signal.SIGPROF, self.sample)
        signal.setitimer(signal.ITIMER_PROF, self.INTERVAL_S, self.INTERVAL_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)
        self.sample()

    def merge(self, probes: list) -> None:
        """Add the probes a child process took (pairs from its ``probes``)."""
        self.probes = self.probes + [tuple(p) for p in probes]

    def slowdown(self) -> float:
        return statistics.fmean(d for _, d in self.probes) / self.REF_S

    def seconds(self, start: float, end: float) -> float:
        """Time at reference speed of the wall interval [start, end]."""
        if len(self._starts) != len(self.probes):
            ordered = sorted(self.probes)
            self._starts = [s for s, _ in ordered]
            self._durations = [d for _, d in ordered]
        starts, durations = self._starts, self._durations
        net = end - start - sum(durations[bisect_left(starts, start):bisect_left(starts, end)])
        window = durations[bisect_left(starts, start - self.PAD_S):
                           bisect_left(starts, end + self.PAD_S)]
        return net * self.REF_S / statistics.fmean(window or durations)


# ------------------------------------------------------------------- inputs

def load_spec() -> dict:
    with open(BENCH / "workloads.json", encoding="utf-8") as fh:
        return json.load(fh)


def corpus_items(spec: dict, workload: str, seed: int) -> List[Item]:
    items = [Item(e["name"], e["argv"], e["expect"],
                  spec["deadline_s"] if e.get("deadline") else None)
             for e in spec["workloads"][workload]["items"]]
    random.Random(seed).shuffle(items)
    return items


def write_cases(cases: List[gen.Case], workdir: Path) -> List[Item]:
    items = []
    for i, case in enumerate(cases):
        prog, loss = workdir / f"case{i:04d}.prog", workdir / f"case{i:04d}.loss"
        prog.write_text(case.program, encoding="utf-8")
        loss.write_text(case.loss, encoding="utf-8")
        argv = ["oracle", os.path.relpath(prog, ROOT), "--post", os.path.relpath(loss, ROOT),
                "--prior", case.prior, "--exhaustive"]
        items.append(Item(f"case{i:04d}", argv, {"exit": 0}))
    return items


# --------------------------------------------------------- calling preloss

def call_cli(argv: List[str]):
    """Run one item through the user's entry point; returns (exit, stdout)."""
    from preloss import cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv + ["--json"])
        except (Exception, SystemExit) as exc:  # an item that raises is a failed item
            return None, f"{type(exc).__name__}: {exc}"
    return code, out.getvalue()


def counters() -> Dict[str, int]:
    from preloss import lp, semantics

    return {"lp.lp_solves": lp.counters["lp_solves"],
            "lp.member_queries": lp.counters["member_queries"],
            "semantics.wpl_clauses": semantics.counters["wpl_clauses"]}


def counted_call(argv: List[str]):
    """``call_cli`` plus the diff of the module-global counters around it."""
    before = counters()
    code, out = call_cli(argv)
    after = counters()
    return code, out, {k: after[k] - before[k] for k in after}


class _Deadline(BaseException):
    """Raised by the child's timer; not an ``Exception``, so nothing in preloss catches it."""


def _raise_deadline(signum, frame):
    raise _Deadline()


def in_child(fn: Callable[[], object], deadline_s: Optional[float], limit_s: float,
             tracer=None, probe: Optional[SpeedProbe] = None) -> dict:
    """Run ``fn`` in a forked child and return its outcome.

    The child is forked rather than spawned so it starts with ``preloss``
    already imported, as in-process items do; this process has no threads.
    A fork does not inherit interval timers, so the child turns ``probe`` on
    itself and sends its probes back.  Returns
    ``{"status": done|timeout|error, "value": ..., "trace": ..., "probes": ...}``.
    """
    sys.stdout.flush()
    sys.stderr.flush()
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:  # child: never returns
        os.close(read_fd)
        outcome = {"status": "done", "value": None}
        if tracer is not None:
            tracer.reset()  # the fork copied what this process had recorded so far
        first_probe = len(probe.probes) if probe is not None else 0
        try:
            try:
                if probe is not None:
                    probe.__enter__()
                if deadline_s is not None:
                    signal.signal(signal.SIGALRM, _raise_deadline)
                    signal.setitimer(signal.ITIMER_REAL, deadline_s)
                outcome["value"] = fn()
            finally:
                signal.setitimer(signal.ITIMER_REAL, 0)
                if probe is not None:
                    probe.__exit__()
        except _Deadline:
            outcome["status"] = "timeout"
        except BaseException as exc:  # reported to the parent, which counts it
            outcome = {"status": "error", "value": f"{type(exc).__name__}: {exc}"}
        if tracer is not None:
            outcome["trace"] = tracer.snapshot()
        if probe is not None:
            outcome["probes"] = probe.probes[first_probe:]
        try:
            with os.fdopen(write_fd, "wb") as fh:
                fh.write(json.dumps(outcome).encode("utf-8"))
        finally:
            os._exit(0)
    os.close(write_fd)
    chunks, killed = [], True
    stop_at = time.monotonic() + limit_s
    try:
        while True:
            remaining = stop_at - time.monotonic()
            if remaining <= 0 or not select.select([read_fd], [], [], remaining)[0]:
                break
            chunk = os.read(read_fd, 1 << 16)
            if not chunk:
                killed = False
                break
            chunks.append(chunk)
    finally:
        os.close(read_fd)
        if killed:
            os.kill(pid, signal.SIGKILL)
        os.waitpid(pid, 0)
    if killed or not chunks:
        return {"status": "timeout", "value": None}
    return json.loads(b"".join(chunks))


# ------------------------------------------------------------------ checks

def report_digest(report: dict) -> str:
    """sha256 of the ``--json`` report without its ``timings`` counters."""
    trimmed = {k: v for k, v in report.items() if k != "timings"}
    return hashlib.sha256(json.dumps(trimmed, indent=2).encode("utf-8")).hexdigest()


RESULT_KEYS = ("kind", "checked", "lhs", "rhs", "certificate_checked",
               "risk", "exhaustive", "agrees")


def check(expect: dict, code, out: str) -> Optional[str]:
    """None if the answer matches ``expect``, else what differs."""
    if code is None:
        return out
    accept = expect.get("accept")
    if accept is None and code != expect["exit"]:
        return f"exit {code}, expected {expect['exit']}"
    try:
        report = json.loads(out)
        result = report["result"]
    except (ValueError, KeyError, TypeError):
        return "no --json report on stdout"
    if accept is not None:
        if result.get("kind") not in accept:
            return f"verdict {result.get('kind')!r} not in {accept}"
        if result["kind"] == "fails" and result.get("certificate_checked") is not True:
            return "fails without a re-checked certificate"
        return None
    for key in RESULT_KEYS:
        if key in expect and result.get(key) != expect[key]:
            return f"{key} {result.get(key)!r}, expected {expect[key]!r}"
    if "squares" in expect and [s["kind"] for s in result.get("squares", [])] != expect["squares"]:
        return f"squares {result.get('squares')!r}, expected {expect['squares']!r}"
    if "generators" in expect and result["pre_loss"]["generators"] != expect["generators"]:
        return f"generators {result['pre_loss']['generators']!r}"
    if "report_sha256" in expect and report_digest(report) != expect["report_sha256"]:
        return "report differs from the recorded one (sha256 without timings)"
    return None


def oracle_references(cases: List[gen.Case]) -> List[str]:
    """``wpl`` evaluated at the prior for each case: the duality's second route."""
    from preloss.losses import LossFunction, eval_loss
    from preloss.parsing import parse_loss_text, parse_prior_text, parse_program_file
    from preloss.scalars import fmt_scalar
    from preloss.semantics import weakest_preloss
    from preloss.typecheck import typecheck_program

    refs = []
    for case in cases:
        initial, prog = parse_program_file(case.program)
        typecheck_program(prog, initial)
        ctx, gens = parse_loss_text(case.loss)
        prior = parse_prior_text(initial, case.prior)
        refs.append(fmt_scalar(eval_loss(weakest_preloss(prog, LossFunction(ctx, tuple(gens))).pre,
                                         prior)))
    return refs


# ------------------------------------------------------------------ passes

def run_item(item: Item, tracer=None, probe: Optional[SpeedProbe] = None) -> Sample:
    start = time.perf_counter()
    if item.deadline_s is None:
        code, out, diff = counted_call(item.argv)
        end = time.perf_counter()
    else:
        outcome = in_child(lambda: counted_call(item.argv), item.deadline_s,
                           item.deadline_s + CHILD_GRACE_S, tracer, probe)
        end = time.perf_counter()
        if tracer is not None and "trace" in outcome:
            # a run stopped at its deadline did partial work: keep its time, not its counts
            tracer.merge(outcome["trace"], counts=outcome["status"] == "done")
        if probe is not None and "probes" in outcome:
            probe.merge(outcome["probes"])
        if outcome["status"] == "timeout":
            return Sample(item.name, start, end, "timeout", f"no verdict within {item.deadline_s} s")
        if outcome["status"] == "error":
            return Sample(item.name, start, end, "error", outcome["value"])
        code, out, diff = outcome["value"]
    if tracer is not None:
        tracer.counts.update(diff)
    problem = check(item.expect, code, out)
    status = "ok" if problem is None else ("error" if code is None else "wrong")
    return Sample(item.name, start, end, status, problem or "")


def run_passes(items: List[Item], budget_s: float, tracer=None,
               probe: Optional[SpeedProbe] = None) -> List[Pass]:
    """Whole passes until the next one would overrun ``budget_s``; at least one."""
    passes: List[Pass] = []
    began = time.perf_counter()
    while True:
        start = time.perf_counter()
        samples = [run_item(item, tracer, probe) for item in items]
        passes.append(Pass(time.perf_counter() - start, samples))
        typical = statistics.median(p.seconds for p in passes)
        if time.perf_counter() - began + typical > budget_s:
            return passes


# ----------------------------------------------------------------- set-up

def prepare(items: List[Item]) -> None:
    """First parse, typecheck and inline of every input of ``items``."""
    from preloss.parsing import (parse_context_file, parse_datatype_file,
                                 parse_loss_text, parse_prior_text, parse_program_file)
    from preloss.typecheck import inline, typecheck_program, validate_datatype

    def read(path):
        with open(ROOT / path, encoding="utf-8") as fh:
            return fh.read()

    def program(path, expected=None):
        initial, prog = parse_program_file(read(path))
        if not initial.vars and expected is not None:
            initial = expected
        typecheck_program(prog, initial)
        return initial

    def datatype(path):
        d = parse_datatype_file(read(path), name=path)
        validate_datatype(d)
        return d

    for item in items:
        argv = item.argv
        opts = {argv[i]: argv[i + 1] for i in range(len(argv) - 1) if argv[i].startswith("--")}
        if argv[0] in ("wpl", "oracle"):
            initial = program(argv[1])
            parse_loss_text(read(opts["--post"]))
            if "--prior" in opts:
                parse_prior_text(initial, opts["--prior"])
        elif argv[0] == "datatype":
            dts = [datatype(argv[1]), datatype(argv[2])]
            for i, arg in enumerate(argv):
                if arg == "--context":
                    ctx = parse_context_file(read(argv[i + 1]), name=argv[i + 1])
                    for d in dts:
                        inline(ctx, d)
        elif argv[0] == "simulate":
            da, dc = datatype(argv[2]), datatype(argv[3])
            program(opts["--rep"], da.encap if argv[1] == "--forward" else dc.encap)


def setup_probe(workload: str, seed: int) -> None:
    """Body of one fresh set-up process: prints its set-up time, scaled and raw."""
    with contextlib.ExitStack() as stack:
        items, _ = workload_items(workload, seed, stack)
        # Set-up is too short to sample inside: take the speed just before and after.
        probe = SpeedProbe()
        probe.calibrate(SETUP_CALIBRATION)
        start = time.perf_counter()
        sys.path.insert(0, str(ROOT / "src"))
        import preloss  # noqa: F401  (timed: the import is part of set-up)

        prepare(items)
        end = time.perf_counter()
        probe.calibrate(SETUP_CALIBRATION)
        print(json.dumps([probe.seconds(start, end), end - start]))


def measure_setup(workload: str, seed: int):
    """(set-up times at reference speed, raw set-up times) of fresh processes."""
    # Bytecode caching stays on whatever the caller's environment says, so the
    # warm-up probe fills src/preloss/__pycache__ as an installed package would.
    env = {k: v for k, v in os.environ.items() if k != "PYTHONDONTWRITEBYTECODE"}
    scaled, raw = [], []
    for probe in range(SETUP_PROBES + 1):
        done = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
             "--workload", workload, "--seed", str(seed)],
            cwd=ROOT, env=env, capture_output=True, text=True, timeout=120, check=True)
        if probe:  # the first probe fills the bytecode cache; users pay that once
            at_ref, wall = json.loads(done.stdout.strip().splitlines()[-1])
            scaled.append(at_ref)
            raw.append(wall)
    return scaled, raw


# ---------------------------------------------------------------- metrics

def tail(values: List[float]):
    """(value, percentile): the highest percentile with ``TAIL_BEYOND`` values beyond it.

    With fewer values no percentile has that many beyond it; the maximum
    (percentile 100) is reported instead.
    """
    ordered = sorted(values)
    n = len(ordered)
    if n <= TAIL_BEYOND:
        return ordered[-1], 100.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def quartiles(values: List[float]):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def item_times(passes: List[Pass], probe: SpeedProbe) -> List[List[float]]:
    """Each item's time at reference speed, per pass.

    A timeout keeps its wall time: the deadline is a wall-clock one.
    """
    return [[s.end - s.start if s.status == "timeout" else probe.seconds(s.start, s.end)
             for s in p.samples] for p in passes]


def per_item_medians(passes: List[Pass], per_pass: List[List[float]]) -> List[float]:
    """Each distinct item's median time over the run's passes.

    ``item_p50_s`` and the tail are taken over these.  Pooled raw samples of a
    few distinct items form one cluster per item, and their median jumps
    between the two middle clusters.  The items beyond the tail are distinct
    inputs: over raw samples they would be the few slowest generated programs
    repeated once per pass, so the tail would rest on a handful of inputs.
    """
    by_item: Dict[str, List[float]] = {}
    for p, times in zip(passes, per_pass):
        for s, t in zip(p.samples, times):
            by_item.setdefault(s.item, []).append(t)
    return [statistics.median(times) for times in by_item.values()]


def end_to_end(passes: List[Pass], probe: SpeedProbe, setup: List[float]) -> Dict[str, dict]:
    samples = [s for p in passes for s in p.samples]
    per_pass = item_times(passes, probe)
    per_item = per_item_medians(passes, per_pass)
    tail_value, _ = tail(per_item)
    ok = sum(s.status == "ok" for s in samples)
    return {
        "setup_s": {"value": statistics.median(setup), "unit": "s"},
        "pass_s": {"value": statistics.median(sum(t) for t in per_pass), "unit": "s"},
        "item_p50_s": {"value": statistics.median(per_item), "unit": "s"},
        "item_tail_s": {"value": tail_value, "unit": "s"},
        "ok_share": {"value": ok / len(samples), "unit": "ratio"},
        "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                        "unit": "MB"},
    }


def not_ok(passes: List[Pass]) -> list:
    return sorted({(s.item, s.status, s.detail)
                   for p in passes for s in p.samples if s.status != "ok"})


def details(workload: str, seed: int, passes: List[Pass], probe: SpeedProbe,
            setup: List[float], setup_raw: List[float]) -> dict:
    samples = [s for p in passes for s in p.samples]
    per_pass = item_times(passes, probe)
    _, pct = tail(per_item_medians(passes, per_pass))
    pass_times = [sum(t) for t in per_pass]
    wall = [p.seconds for p in passes]
    return {
        "workload": workload, "seed": seed, "passes": len(passes),
        "items_per_pass": len(passes[0].samples),
        "pass_s": {"median": statistics.median(pass_times),
                   "quartiles": quartiles(pass_times), "all": pass_times},
        "wall_pass_s": {"median": statistics.median(wall), "all": wall},
        "slowdown": probe.slowdown(), "probes": len(probe.probes),
        "item_samples": len(samples), "distinct_items": len(passes[0].samples),
        "item_tail_percentile": pct,
        "setup_s_samples": setup, "wall_setup_s_samples": setup_raw,
        "status_counts": Counter(s.status for s in samples),
        "not_ok": not_ok(passes),
    }


# -------------------------------------------------------------------- main

def workload_items(workload: str, seed: int, stack: contextlib.ExitStack):
    """The workload's items and, for generated workloads, the cases behind them."""
    spec = load_spec()
    if workload not in spec["workloads"]:
        raise SystemExit(f"unknown workload {workload!r}; known: {sorted(spec['workloads'])}")
    entry = spec["workloads"][workload]
    if "items" in entry:
        return corpus_items(spec, workload, seed), None
    cases = gen.generate(seed, entry["cases"])
    workdir = Path(stack.enter_context(tempfile.TemporaryDirectory(prefix="_work-", dir=BENCH)))
    return write_cases(cases, workdir), cases


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)

    if not (ROOT / "src" / "preloss" / "cli.py").is_file() or not (ROOT / "corpus").is_dir():
        print(f"error: no preloss sources under {ROOT}; run from a full checkout",
              file=sys.stderr)
        return 2
    os.chdir(ROOT)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0

    with contextlib.ExitStack() as stack:
        items, cases = workload_items(args.workload, args.seed, stack)
        sys.path.insert(0, str(ROOT / "src"))
        import preloss  # noqa: F401  (before any fork, so children start with it)

        if cases is not None:
            refs = in_child(lambda: oracle_references(cases), None, REFERENCE_LIMIT_S)
            if refs["status"] != "done":
                print(f"error: reference values not computed: {refs['value']}", file=sys.stderr)
                return 1
            for item, ref in zip(items, refs["value"]):
                item.expect = {"exit": 0, "risk": ref, "exhaustive": ref, "agrees": True}

        if args.trace:
            passes, metrics = traced_run(args, items)
        else:
            setup, setup_raw = measure_setup(args.workload, args.seed)
            with SpeedProbe() as probe:
                passes = run_passes(items, args.seconds, probe=probe)
            metrics = end_to_end(passes, probe, setup)
            print(json.dumps(details(args.workload, args.seed, passes, probe, setup, setup_raw)))
    return emit(passes, metrics)


def traced_run(args, items: List[Item]):
    """Untraced passes, then the same passes with the per-module wrappers installed."""
    from tracing import EXACT_COUNTS, Tracer

    plain = run_passes(items, args.seconds / 2)
    tracer = Tracer()
    tracer.install()
    traced = run_passes(items, args.seconds / 2, tracer)
    n = len(traced)
    metrics = tracer.layer_metrics(n)
    module_self = tracer.module_self_s()
    overhead = (statistics.median(p.seconds for p in traced)
                / statistics.median(p.seconds for p in plain) - 1)
    metrics["trace.overhead_share"] = {"value": overhead, "unit": "ratio"}
    metrics["trace.covered_share"] = {
        "value": sum(module_self.values()) / sum(p.seconds for p in traced), "unit": "ratio"}
    print(json.dumps({
        "workload": args.workload, "seed": args.seed, "traced_passes": n,
        "untraced_passes": len(plain),
        "module_self_s_per_pass": {k: v / n for k, v in module_self.items()},
        "exact_counts_per_pass": {k: metrics[k]["value"] for k in EXACT_COUNTS},
        "self_s_per_pass": {k: v / n for k, v in sorted(tracer.self_s.items())},
        "not_ok": not_ok(plain + traced),
    }))
    return plain + traced, metrics


def emit(passes: List[Pass], metrics: Dict[str, dict]) -> int:
    samples = [s for p in passes for s in p.samples]
    failed = sum(s.status in ("wrong", "error") for s in samples)
    print(json.dumps({"correct": failed == 0, "attempted": len(samples),
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
