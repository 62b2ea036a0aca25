#!/usr/bin/env python3
"""End-to-end, layer-by-layer benchmark of ScanCompact.

    python3 e2ebench/run.py --workload suite-sa --seed 1 --seconds 55 --trace 0

Run from the repository root.  The script builds the benchmark package
(e2ebench/CMakeLists.txt: the repository's libraries and the e2e_driver)
as a Release build in .bench_build/e2ebench, runs one workload, checks
every result, and prints one JSON object as the last line of stdout:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

--trace 0 measures the end-to-end metrics on untraced runs; --trace 1
makes separate traced runs and reports the per-layer metrics.  The
metric catalogue lives in BENCHMARK.json and e2ebench/README.md.
"""

import argparse
import fcntl
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BUILD_DIR = ROOT / ".bench_build" / "e2ebench"
RUN_DIR = ROOT / ".bench_run"
DIGESTS_FILE = HERE / "digests.json"

# --- workloads ----------------------------------------------------------

# Each workload runs one circuit of the Table 1-5 measurement, so a run
# repeats it several times and reports medians; the whole s641+s1423 or
# s641+s820 measurement (25-45 s) fits once in a run and varied by a
# third between runs on a shared host.  Both run the runner's default
# seed 1, whatever --seed says, as the table binaries do by default:
# their time depends on the runner seed more than a run can average out
# (on s641+s1423, seeds 1-10 made 72k-115k fault-simulation queries; on
# suite-tdf, the s641 SAT universe sweep took 8.9-36.7 s over seeds 1-7).
SUITE_WORKLOADS = {
    "suite-sa": {
        "circuits": ["s641"],
        "flags": ["--fault-model=stuck", "--atpg=podem"],
    },
    "suite-tdf": {
        "circuits": ["s820"],
        "flags": ["--fault-model=transition", "--atpg=auto"],
    },
}
SUITE_RUNNER_SEED = 1
WORKLOADS = list(SUITE_WORKLOADS)

# Set-up probes per run; setup_s is the median of their samples and the
# operations'.  Half of them run before the operations and half after,
# so host load at one end of a run does not set the median.
SUITE_SETUP_PROBES = 29

# --- stage spans --------------------------------------------------------

# Runner progress note -> stage.  A stage opens at its note and closes at
# the next note (or when the circuit's run returns), so the stages of a
# circuit tile its run with no gaps.
STAGE_OF_NOTE = {
    "building circuit": "expt.build",
    "generating combinational test set C": "atpg.comb_tset",
    "resolving transition-fault universe (SAT)": "atpg.tdf_universe",
    "generating T0 (greedy)": "tgen.greedy_t0",
    "pipeline (greedy T0)": "tcomp.pipeline_entry",
    "pipeline (random T0)": "tcomp.pipeline_entry",
    "phases 1+2 (iterated)": "tcomp.pipeline_entry",
    "phase 1 (scan-in / scan-out selection)": "tcomp.phase1",
    "phase 2 (vector omission)": "tcomp.phase2",
    "phase 3 (top-off)": "tcomp.phase3",
    "phase 4 (combining)": "tcomp.phase4",
    "baseline [4]": "tcomp.baseline4",
    "baseline [2,3]-style dynamic": "tcomp.dynamic",
}
FIRST_ATPG_NOTE = "generating combinational test set C"
CIRCUIT_START_NOTE = "building circuit"
STAGE_METRICS = ["expt.build", "atpg.comb_tset", "atpg.tdf_universe",
                 "tgen.greedy_t0", "tcomp.phase1", "tcomp.phase2",
                 "tcomp.phase3", "tcomp.phase4", "tcomp.baseline4",
                 "tcomp.dynamic"]

QUERY_KINDS = ["detect_no_scan", "detect_scan_test", "detection_times",
               "prefix_detection", "detects_all", "detect_batch",
               "times_batch"]

# Per-layer metric <- obs counter (scanc-metrics-v1 names).
COUNTER_METRICS = {
    "atpg.sat_solve_calls": "atpg_sat_solve_calls",
    "atpg.sat_conflicts": "atpg_sat_conflicts",
    "atpg.sat_proofs": "atpg_sat_proofs",
    "atpg.sat_fallbacks": "atpg_sat_fallbacks",
    "tcomp.iterate_rounds": "iterate_rounds",
    "fault.groups_executed": "groups_executed",
    "sim.full_passes": "full_passes",
    "sim.cone_passes": "cone_passes",
    "sim.wide_fp_passes": "wide_fp_passes",
    "sim.ppsfp_batches": "ppsfp_batches",
    "sim.ppsfp_tests_packed": "ppsfp_tests_packed",
    "sim.frames_simulated": "frames_simulated",
    "sim.frames_skipped": "frames_skipped",
    "sim.tdf_activations": "tdf_activations",
    "sim.trace_cache_hits": "trace_cache_hits",
    "sim.trace_cache_misses": "trace_cache_misses",
    "sim.trace_cache_evictions": "trace_cache_evictions",
}

END_TO_END = [("wall_s", "s"), ("setup_s", "s"), ("peak_rss_mb", "MB"),
              ("cpu_s", "s")]


def per_layer_units():
    """Every per-layer metric name -> unit, in report order."""
    units = {}
    for stage in STAGE_METRICS:
        units[stage + "_s"] = "s"
    for kind in QUERY_KINDS:
        units[f"fault.{kind}.calls"] = "count"
        units[f"fault.{kind}.s"] = "s"
    for name in COUNTER_METRICS:
        units[name] = "count"
    units["sim.cone_pass_share"] = "ratio"
    units["sim.trace_cache_hit_ratio"] = "ratio"
    units["trace_overhead_frac"] = "ratio"
    units["span_coverage_frac"] = "ratio"
    units["failed_frac"] = "ratio"
    return units


# --- small helpers ------------------------------------------------------


def log(*parts):
    print(*parts, file=sys.stderr, flush=True)


def ratio(num, den):
    return num / den if den else 0.0


def clean_env():
    """The environment minus SCANC_* overrides, which would change what
    the programs run (kernel, threads, cache, tracing)."""
    return {k: v for k, v in os.environ.items() if not k.startswith("SCANC_")}


# --- build ---------------------------------------------------------------


def build():
    """Configures (once) and builds the driver; returns its path.  A lock
    keeps concurrent runs from racing the build."""
    if not (ROOT / "CMakeLists.txt").is_file() or \
            not (ROOT / "src" / "CMakeLists.txt").is_file():
        raise SystemExit(f"run.py: no ScanCompact source tree at {ROOT}")
    BUILD_DIR.mkdir(parents=True, exist_ok=True)
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    with open(BUILD_DIR / ".lock", "w") as lock:
        fcntl.flock(lock, fcntl.LOCK_EX)
        steps = []
        if not (BUILD_DIR / "CMakeCache.txt").is_file():
            steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD_DIR),
                          "-DCMAKE_BUILD_TYPE=Release"])
        steps.append(["cmake", "--build", str(BUILD_DIR), "-j", jobs,
                      "--target", "e2e_driver"])
        for cmd in steps:
            res = subprocess.run(cmd, stdout=subprocess.PIPE,
                                 stderr=subprocess.STDOUT, text=True,
                                 env=clean_env())
            if res.returncode != 0:
                log(res.stdout[-4000:])
                raise SystemExit(f"run.py: build step failed: {cmd[:3]}")
    return BUILD_DIR / "e2e_driver"


class Proc:
    """A child process timed from spawn to exit, with its rusage."""

    def __init__(self, cmd, stdout=None, cwd=None):
        self.t_spawn = time.monotonic()
        self.popen = subprocess.Popen(cmd, stdout=stdout,
                                      stderr=subprocess.DEVNULL, cwd=cwd,
                                      env=clean_env())
        self.t_exit = None
        self.rc = None
        self.rusage = None
        self.timed_out = False

    def wait(self, timeout=None):
        """Reaps the child.  One still running after `timeout` seconds is
        killed and marked `timed_out`; its exit code is then non-zero."""
        deadline = None if timeout is None else time.monotonic() + timeout
        try:
            while True:
                pid, status, rusage = os.wait4(self.popen.pid, os.WNOHANG)
                if pid != 0:
                    break
                if deadline is not None and time.monotonic() > deadline:
                    self.timed_out = True
                    self.popen.kill()
                    _, status, rusage = os.wait4(self.popen.pid, 0)
                    break
                time.sleep(0.002)
        except BaseException:
            # SIGTERM: the child never outlives this process.
            self.popen.kill()
            os.wait4(self.popen.pid, 0)
            raise
        self.t_exit = time.monotonic()
        self.popen.returncode = os.waitstatus_to_exitcode(status)
        self.rc = self.popen.returncode
        self.rusage = rusage
        return self.rc

    @property
    def wall(self):
        return self.t_exit - self.t_spawn

    @property
    def cpu(self):
        return self.rusage.ru_utime + self.rusage.ru_stime

    @property
    def rss_mb(self):
        return self.rusage.ru_maxrss / 1024.0  # Linux reports KiB


# --- result checks ------------------------------------------------------


def load_digests():
    return json.loads(DIGESTS_FILE.read_text())


def digest(result):
    """SHA-256 of a result with the nondeterministic `seconds` removed."""
    body = {k: v for k, v in result.items() if k != "seconds"}
    text = json.dumps(body, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(text.encode()).hexdigest()


def parse_serialized_run(text):
    """expt::serialize_run text -> nested dict of strings
    ({"atpg": {"det_t0": "..."}, "name": "...", ...})."""
    out = {}
    for line in text.splitlines():
        if "=" not in line:
            continue
        key, value = line.split("=", 1)
        if "." in key and key.split(".", 1)[0] in ("atpg", "random"):
            group, field = key.split(".", 1)
            out.setdefault(group, {})[field] = value
        else:
            out[key] = value
    return out


def check_result(result, expected_digest=None):
    """Invariants every completed circuit run must satisfy, on any seed.
    Returns a list of problems (empty = correct).  `result` is a parsed
    runner result (expt::serialize_run fields as strings)."""
    problems = []
    if result.get("completed", "1") != "1":
        problems.append("run did not complete")
    try:
        nsv = int(result["flip_flops"])
        detectable = int(result["detectable"])
        for variant in ("atpg", "random"):
            v = {k: float(x) for k, x in result[variant].items()}
            # N_cyc formula of tcomp::clock_cycles_from_counts, one chain.
            tests, vectors = int(v["tests_final"]), int(v["vectors_final"])
            cyc = 0 if tests == 0 else (tests + 1) * nsv + vectors
            if cyc != int(v["cyc_comp"]):
                problems.append(f"{variant}: cyc_comp {int(v['cyc_comp'])} "
                                f"!= recomputed {cyc}")
            chain = [v["det_t0"], v["det_scan"], v["det_final"], detectable]
            if not all(a <= b for a, b in zip(chain, chain[1:])):
                problems.append(f"{variant}: det_t0 <= det_scan <= det_final"
                                f" <= detectable fails: {chain}")
    except (KeyError, TypeError, ValueError) as e:
        problems.append(f"malformed result: {e!r}")
    if expected_digest is not None and digest(result) != expected_digest:
        problems.append("result digest differs from the committed one")
    return problems


# --- span and counter aggregation ----------------------------------------


def parse_driver_output(text):
    """e2e_driver stdout -> (notes, end, runs): notes as
    [(note, t, counters)], end as (t, counters), runs as serialize_run
    texts."""
    notes, end, runs = [], None, []
    for line in text.splitlines():
        if not line.startswith("{"):
            continue
        rec = json.loads(line)
        if "note" in rec:
            notes.append((rec["note"], rec["t"], rec["counters"]))
        elif "end" in rec:
            end = (rec["t"], rec["counters"])
        elif "run" in rec:
            runs.append(rec["run"])
    return notes, end, runs


def stage_spans(notes, end):
    """Consecutive notes -> stage spans [(stage, circuit_index, t0, t1,
    counter_delta)].  Circuit i starts at its i-th "building circuit"
    note; unknown notes become their own stage so nothing is unspanned."""
    spans = []
    circuit = -1
    marks = notes + [("<end>", end[0], end[1])]
    for (note, t0, c0), (_, t1, c1) in zip(marks, marks[1:]):
        if note == CIRCUIT_START_NOTE:
            circuit += 1
        stage = STAGE_OF_NOTE.get(note, "unmapped:" + note)
        delta = {k: c1[k] - c0.get(k, 0) for k in c1}
        spans.append((stage, circuit, t0, t1, delta))
    return spans


def circuit_latencies(spans):
    """Per-circuit run time (first note to the run's return), in order."""
    bounds = {}
    for _, circuit, t0, t1, _ in spans:
        lo, hi = bounds.get(circuit, (t0, t1))
        bounds[circuit] = (min(lo, t0), max(hi, t1))
    return [hi - lo for _, (lo, hi) in sorted(bounds.items())]


def stage_seconds(spans):
    """Stage -> summed seconds over circuits and T0 variants.  Stages are
    disjoint, so each sum is that stage's self time."""
    totals = {}
    for stage, _, t0, t1, _ in spans:
        totals[stage] = totals.get(stage, 0.0) + (t1 - t0)
    return totals


def query_totals(trace_events):
    """Chrome trace events -> {query kind: (calls, self seconds)} over the
    spans of category "query".  Self time subtracts nested query spans on
    the same thread."""
    by_tid = {}
    for e in trace_events:
        if e.get("ph") == "X" and e.get("cat") == "query":
            by_tid.setdefault(e.get("tid", 0), []).append(e)
    totals = {}
    for events in by_tid.values():
        # Parents first: earlier start, then longer duration.
        events.sort(key=lambda e: (e["ts"], -e["dur"]))
        stack = []  # [event, child_us]
        order = []
        for e in events:
            while stack and e["ts"] >= stack[-1][0]["ts"] + \
                    stack[-1][0]["dur"]:
                order.append(stack.pop())
            if stack:
                stack[-1][1] += e["dur"]
            stack.append([e, 0.0])
        order.extend(stack)
        for e, child_us in order:
            calls, secs = totals.get(e["name"], (0, 0.0))
            totals[e["name"]] = (calls + 1,
                                 secs + (e["dur"] - child_us) / 1e6)
    return totals


def read_trace(path):
    try:
        return json.loads(Path(path).read_text()).get("traceEvents", [])
    except (OSError, ValueError) as e:
        log(f"run.py: unreadable trace {path}: {e}")
        return []


def layer_metrics(stages, counters, queries):
    """The per-layer metrics shared by every workload."""
    m = {}
    for stage in STAGE_METRICS:
        m[stage + "_s"] = stages.get(stage, 0.0)
    for kind in QUERY_KINDS:
        calls, secs = queries.get(kind, (0, 0.0))
        m[f"fault.{kind}.calls"] = calls
        m[f"fault.{kind}.s"] = secs
    for name, counter in COUNTER_METRICS.items():
        m[name] = counters.get(counter, 0)
    m["sim.cone_pass_share"] = ratio(
        m["sim.cone_passes"], m["sim.cone_passes"] + m["sim.full_passes"])
    m["sim.trace_cache_hit_ratio"] = ratio(
        m["sim.trace_cache_hits"],
        m["sim.trace_cache_hits"] + m["sim.trace_cache_misses"])
    return m


def as_report(values):
    units = dict(END_TO_END)
    units.update(per_layer_units())
    return {k: {"value": v, "unit": units[k]} for k, v in values.items()}


# --- suite workloads -----------------------------------------------------


class SuiteOp:
    """One e2e_driver process over some of the workload's circuits."""

    def __init__(self, proc, notes, end, problems):
        self.proc = proc
        self.notes = notes
        self.end = end
        self.problems = problems  # per circuit: list of problems
        # A driver that died before its "end" line has no spans.
        self.spans = stage_spans(notes, end) if end else []

    @property
    def timed(self):
        """Whether the process ran to completion, so its times count."""
        return (self.proc.rc == 0 and bool(self.spans)
                and self.t_first_atpg is not None)

    @property
    def t_first_atpg(self):
        """Time of the first ATPG note (the end of set-up), or None."""
        return next((t for note, t, _ in self.notes
                     if note == FIRST_ATPG_NOTE), None)

    @property
    def setup(self):
        t = self.t_first_atpg
        return None if t is None else t - self.proc.t_spawn


def run_driver(driver, args, out_path, timeout=170):
    with open(out_path, "w") as out:
        proc = Proc([str(driver)] + args, stdout=out)
        proc.wait(timeout)
    return proc, Path(out_path).read_text()


def driver_failure(proc, end):
    """Why a driver process produced no usable output, or None."""
    if proc.timed_out:
        return "driver timed out"
    if proc.rc != 0:
        return f"driver exit code {proc.rc}"
    if end is None:
        return "driver output has no end record"
    return None


def driver_args(spec, seed, circuits, rundir, tag):
    """The table binaries' flags for one run, on a private, emptied cache
    directory with --fresh, so no run reuses another's results."""
    cache = rundir / f"cache-{tag}"
    shutil.rmtree(cache, ignore_errors=True)
    cache.mkdir(parents=True)
    return [f"--circuits={','.join(circuits)}", f"--seed={seed}",
            "--threads=1", "--kernel=auto", "--fresh",
            f"--cache={cache}/run"] + spec["flags"]


def check_suite_output(proc, text, circuits, seed, expected):
    """Parses a driver's output and checks each circuit's result: a
    SuiteOp whose problems list has one entry per circuit."""
    notes, end, runs = parse_driver_output(text)
    failure = driver_failure(proc, end)
    results = [parse_serialized_run(r) for r in runs]
    problems = []
    for i, name in enumerate(circuits):
        if failure or i >= len(results):
            problems.append([failure or "no result"])
            continue
        found = check_result(results[i], expected.get(name))
        if results[i].get("name") != name:
            found.append(f"result is for {results[i].get('name')}")
        problems.append(found)
        print(f"digest {name} seed={seed} {digest(results[i])}")
    return SuiteOp(proc, notes, end, problems)


def suite_op(driver, spec, seed, rundir, tag, expected, trace_path=None):
    circuits = spec["circuits"]
    args = driver_args(spec, seed, circuits, rundir, tag)
    if trace_path:
        args.append(f"--trace-out={trace_path}")
    proc, text = run_driver(driver, args, rundir / f"{tag}.out")
    return check_suite_output(proc, text, circuits, seed, expected)


def suite_setup_probe(driver, spec, seed, rundir, i):
    """A run of the first circuit that stops at its first ATPG call.  Its
    one problem list is empty when it got there and exited cleanly."""
    args = driver_args(spec, seed, spec["circuits"][:1], rundir, f"probe{i}")
    proc, text = run_driver(driver, args + ["--stop-at-atpg"],
                            rundir / f"probe{i}.out", 60)
    notes, end, _ = parse_driver_output(text)
    op = SuiteOp(proc, notes, end, [])
    failure = driver_failure(proc, end)
    if failure is None and op.setup is None:
        failure = "set-up probe reached no ATPG call"
    op.problems = [[failure] if failure else []]
    return op


def suite_end_to_end(ops, setups):
    """End-to-end metrics over the ops that ran to completion; a metric
    with no sample is left out."""
    ops = [op for op in ops if op.timed]
    metrics = {}
    if setups:
        metrics["setup_s"] = statistics.median(setups)
    if not ops:
        return metrics
    metrics.update({
        "wall_s": statistics.median(op.proc.wall for op in ops),
        "peak_rss_mb": max(op.proc.rss_mb for op in ops),
        "cpu_s": statistics.median(op.proc.cpu for op in ops),
    })
    return {name: metrics[name] for name, _ in END_TO_END if name in metrics}


def run_suite_workload(name, seconds, trace, rundir, driver):
    spec = SUITE_WORKLOADS[name]
    seed = SUITE_RUNNER_SEED
    expected = load_digests().get(name, {}).get(str(seed), {})
    attempted = failed = 0

    def account(op):
        nonlocal attempted, failed
        for circuit, problems in zip(spec["circuits"], op.problems):
            attempted += 1
            if problems:
                failed += 1
                log(f"FAILED {name} {circuit} seed={seed}: {problems}")

    if not trace:
        setups = []
        probes = [0]

        def take_probes(count):
            for _ in range(count):
                probe = suite_setup_probe(driver, spec, seed, rundir,
                                          probes[0])
                probes[0] += 1
                account(probe)
                if not probe.problems[0]:
                    setups.append(probe.setup)

        take_probes(SUITE_SETUP_PROBES // 2)
        ops = []
        started = time.monotonic()
        # Start another operation only if one more of the same length
        # still ends within --seconds.
        while not ops or (time.monotonic() - started + ops[-1].proc.wall
                          <= seconds):
            op = suite_op(driver, spec, seed, rundir, f"op{len(ops)}",
                          expected)
            account(op)
            ops.append(op)
            if op.timed:
                setups.append(op.setup)
        take_probes(SUITE_SETUP_PROBES - SUITE_SETUP_PROBES // 2)
        metrics = suite_end_to_end(ops, setups)
        # Set-up probes count as operations, but only circuit runs that
        # produced a result can be wrong.
        return attempted, failed, count_wrong(ops), metrics, \
            {"ops": len(ops), "op_wall_s": [op.proc.wall for op in ops]}

    # Traced runs, each after an untraced one of the same work for the
    # tracing overhead, in pairs by the same rule as above.  The layer
    # metrics come from the traced op of median length.
    plains, traced = [], []
    started = time.monotonic()
    while not traced or (time.monotonic() - started + plains[-1].proc.wall
                         + traced[-1].proc.wall <= seconds):
        i = len(traced)
        plains.append(suite_op(driver, spec, seed, rundir, f"plain{i}",
                               expected))
        account(plains[-1])
        traced.append(suite_op(driver, spec, seed, rundir, f"traced{i}",
                               expected, rundir / f"trace{i}.json"))
        account(traced[-1])
    timed = sorted((op.proc.wall, i) for i, op in enumerate(traced)
                   if op.timed)
    i = timed[(len(timed) - 1) // 2][1] if timed else 0
    op = traced[i]
    metrics = suite_layer_metrics(op, trace_overhead(plains, traced),
                                  read_trace(rundir / f"trace{i}.json"),
                                  attempted, failed)
    detail = {"pairs": len(traced),
              "stages": stage_seconds(op.spans),
              "stage_counters": stage_counter_deltas(op.spans)}
    return attempted, failed, count_wrong(plains + traced), metrics, detail


def count_wrong(ops):
    """Circuit runs of completed ops whose result failed its check."""
    return sum(1 for op in ops if op.timed for p in op.problems if p)


def stage_counter_deltas(spans):
    """Stage -> {counter: delta} summed over its spans (non-zero only)."""
    out = {}
    for stage, _, _, _, delta in spans:
        acc = out.setdefault(stage, {})
        for k, v in delta.items():
            if v:
                acc[k] = acc.get(k, 0) + v
    return out


def span_coverage(op):
    """Share of the traced run after set-up (wall_s - setup_s) that the
    reported stages cover.  Only stages with a metric count, and only
    from the first ATPG note on, so time in an unreported or unmapped
    stage, or after the last note, shows up as a gap."""
    covered = sum(t1 - t0 for stage, _, t0, t1, _ in op.spans
                  if stage in STAGE_METRICS and t0 >= op.t_first_atpg)
    return covered / (op.proc.wall - op.setup)


def trace_overhead(plains, traced):
    """Median traced circuit time over the median untraced one, minus 1,
    or None when either side has no completed op."""
    def median_time(ops):
        times = [sum(circuit_latencies(op.spans)) for op in ops if op.timed]
        return statistics.median(times) if times else None

    plain, trace = median_time(plains), median_time(traced)
    return None if plain is None or trace is None else trace / plain - 1.0


def suite_layer_metrics(op, overhead, events, attempted, failed):
    """Per-layer metrics of a traced suite op; `overhead` is the tracing
    overhead or None.  Metrics of an op that did not run to completion
    are left out."""
    metrics = {}
    if op.timed:
        counters = {k: op.end[1][k] - op.notes[0][2].get(k, 0)
                    for k in op.end[1]}
        metrics = layer_metrics(stage_seconds(op.spans), counters,
                                query_totals(events))
        if overhead is not None:
            metrics["trace_overhead_frac"] = overhead
        metrics["span_coverage_frac"] = span_coverage(op)
    metrics["failed_frac"] = failed / attempted
    return metrics


# --- main -----------------------------------------------------------------


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", help="append this run's record (metrics and "
                    "detail) as one JSON line to this file")
    args = ap.parse_args(argv)
    # SIGTERM unwinds like an error, so every child process is stopped.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(128 + signal.SIGTERM))
    if not 0 <= args.seed < 2 ** 40:
        ap.error("--seed must be in [0, 2^40)")

    driver = build()
    rundir = RUN_DIR / f"{args.workload}-{os.getpid()}"
    shutil.rmtree(rundir, ignore_errors=True)
    rundir.mkdir(parents=True)
    try:
        attempted, failed, wrong, values, detail = run_suite_workload(
            args.workload, args.seconds, args.trace, rundir, driver)
    finally:
        shutil.rmtree(rundir, ignore_errors=True)

    # `correct` is false when a produced output fails its check; an
    # operation that produced no output (a failed run) counts in `failed`.
    record = {"correct": wrong == 0, "attempted": attempted,
              "failed": failed, "metrics": as_report(values)}
    print(f"detail {json.dumps(detail, sort_keys=True)}")
    if args.out:
        with open(args.out, "a") as out:
            out.write(json.dumps({"workload": args.workload,
                                  "seed": args.seed, "trace": args.trace,
                                  "detail": detail, **record}) + "\n")
    print(json.dumps(record))
    return 0


if __name__ == "__main__":
    sys.exit(main())
