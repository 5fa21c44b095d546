#!/usr/bin/env python3
"""Campaign benchmark for zebraconf.

One closed-loop client runs one campaign at a time over the five-app
matrix and measures each pass from outside the program: wall time, CPU and
peak memory of the campaign processes (from wait4), plus executions,
confirmation trials and the reported set read from each campaign's -json
file. Every campaign is scored against the registry labels; a reported
Safe-labelled parameter, a nonzero exit, a quarantined item or a skipped
test fails the run.

    python3 perfbench/run.py --workload cold_inproc --seed 7 --seconds 30 --trace 0

--trace 0 prints the end-to-end metrics. --trace 1 runs one untraced pass,
one traced pass and the in-process probes, and prints the per-layer
metrics and the self-time table. The last line of standard output is one
JSON object: {"correct", "attempted", "failed", "metrics"}.

The program is built from source into .bench_build/ at the root of the
checkout; set-up time (the build check, plus the cache fill of
warm_resubmit) is reported as setup_s.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build")
BIN = os.path.join(BUILD, "bin")

APPS = ["miniflink", "minihbase", "minihdfs", "minimr", "miniyarn"]

# minihdfs runs a fixed subset of its 50 tests: the full suite alone takes
# about 75 s of wall time, more than a run may last. The subset keeps the
# cheap tests that confirm the most seeded parameters between them,
# including TestWriteRead, whose dfs.client.socket-timeout conviction
# depends on timing and comes and goes from run to run.
TESTS = {
    "minihdfs": [
        "TestWriteRead",
        "TestDeleteVisibility",
        "TestMkdirList",
        "TestReplaceDatanodeOnFailure",
        "TestFsck",
        "TestImageComparison",
        "TestJournalMultiSegment",
        "TestMaxComponentLength",
    ],
}

WORKLOADS = ("cold_inproc", "cold_workers2", "warm_resubmit")

# Registry labels as the CLI's -json encodes confkit.Safety.
SAFE, UNSAFE, FP_TRAP = 0, 1, 2

# testgen builds every assignment with two homogeneous arms, so each
# confirmation round runs three trials one after another.
TRIALS_PER_ROUND = 3

CAMPAIGN_TIMEOUT_S = 150
BUILD_CHECKS = 3
SETTLE_PASSES = 2

END_TO_END = [
    ("makespan_s", "s"),
    ("cpu_s", "s"),
    ("executions", "count"),
    ("confirmation_trials", "count"),
    ("peak_rss_mb", "MB"),
    ("setup_s", "s"),
    ("unsafe_recall", "ratio"),
    ("false_positives", "count"),
]

PER_LAYER = [
    ("confkit.get_ns", "ns"),
    ("confkit.get_bare_ns", "ns"),
    ("agent.hook_ns", "ns"),
    ("gid.id_ns", "ns"),
    ("confkit.gets_per_exec", "count"),
    ("harness.exec_ms_p50", "ms"),
    ("harness.exec_ms_p99", "ms"),
    ("harness.timeouts", "count"),
    ("runner.item_s_p50", "s"),
    ("runner.item_s_p99", "s"),
    ("runner.overhead_frac", "ratio"),
    ("memo.hit_ratio", "ratio"),
    ("memo.lookup_ns", "ns"),
    ("diskcache.get_us", "us"),
    ("diskcache.put_us", "us"),
    ("diskcache.hit_ratio", "ratio"),
    ("sched.queue_wait_p95_ms", "ms"),
    ("sched.pred_ratio", "ratio"),
    ("dist.item_overhead_ms", "ms"),
    ("dist.journal_append_us", "us"),
    ("dist.remote_cache_hit_ratio", "ratio"),
    ("dist.retries", "count"),
    ("dist.steals", "count"),
    ("stats.look_ns", "ns"),
    ("stats.trials_per_instance", "count"),
    ("campaign.prerun_phase_s", "s"),
    ("campaign.exec_phase_s", "s"),
    ("campaign.merge_ms", "ms"),
    ("coverage.build_ms", "ms"),
    ("obs.trace_overhead_frac", "ratio"),
]

# Which repository layer a span name belongs to, for the self-time table.
SPAN_LAYER = {
    "campaign": "campaign",
    "phase": "campaign",
    "bench.item": "runner",
    "test": "runner",
    "instance": "runner",
    "pool": "runner",
    "round": "harness",  # the trials of one round; the Look runs after it ends
    "pooled-run": "harness",
    "cache-hit": "memo",
    "distribute": "dist",
    "worker": "dist",
    "item": "dist",
}


class BenchError(Exception):
    """A failure that prevents the benchmark from producing a result."""


# ---------------------------------------------------------------- statistics


def percentile(values, p):
    """Nearest-rank percentile p (0-100] of values."""
    s = sorted(values)
    if not s:
        raise ValueError("percentile of no values")
    rank = max(1, -(-len(s) * p // 100))  # ceil(n*p/100)
    return s[int(rank) - 1]


TAIL_CANDIDATES = (99.9, 99, 95, 90, 75, 50)


def tail_percentile(values):
    """The highest percentile with at least ten samples beyond it.

    Returns (p, value, n); p is None when fewer than twenty samples leave
    no candidate, in which case value is the median.
    """
    n = len(values)
    for p in TAIL_CANDIDATES:
        if n * (100 - p) / 100 >= 10:
            return p, percentile(values, p), n
    return None, statistics.median(values), n


def describe_timing(values, unit):
    p, v, n = tail_percentile(values)
    tail = f"p{p:g}={v:.4g}{unit}" if p is not None else "no percentile has 10 samples beyond it"
    return f"median={statistics.median(values):.4g}{unit}, {tail}, n={n}"


def failed_frac(campaigns):
    """Failed campaigns divided by campaigns attempted."""
    if not campaigns:
        raise ValueError("no campaigns attempted")
    return sum(1 for c in campaigns if c.failures) / len(campaigns)


# ------------------------------------------------------------ campaign output


def parse_results(text):
    """Parse the CLI's -json output: a list of campaign.Result objects."""
    data = json.loads(text)
    if not isinstance(data, list) or not data:
        raise ValueError("expected a non-empty JSON list of campaign results")
    out = []
    for res in data:
        counts = res.get("Counts") or {}
        out.append({
            "app": res["App"],
            "reported": [(r["Param"], int(r["Truth"])) for r in res.get("Reported") or []],
            "executed": int(counts.get("Executed", 0)),
            "saved": int(counts.get("ExecutionsSaved", 0)),
            "confirmation_trials": int(res.get("ConfirmationTrials", 0)),
            "first_trial_signals": int(res.get("FirstTrialSignals", 0)),
            "skipped": list(res.get("SkippedTests") or []),
            "quarantined": list(res.get("QuarantinedItems") or []),
        })
    return out


def gate(result):
    """Correctness failures of one parsed campaign result."""
    fails = []
    for param, truth in result["reported"]:
        if truth == SAFE:
            fails.append(f"{result['app']}: reported Safe-labelled parameter {param}")
    if result["quarantined"]:
        fails.append(f"{result['app']}: quarantined items {result['quarantined']}")
    if result["skipped"]:
        fails.append(f"{result['app']}: skipped tests {result['skipped']}")
    return fails


class Campaign:
    """One campaign process: its cost as measured from outside, its parsed
    result and its correctness failures."""

    def __init__(self, app, wall_s, cpu_s, rss_kb, result, failures):
        self.app = app
        self.wall_s = wall_s
        self.cpu_s = cpu_s
        self.rss_kb = rss_kb
        self.result = result
        self.failures = failures


def score_pass(campaigns, unsafe):
    """End-to-end figures of one five-app pass (except setup_s); unsafe is
    the set of seeded-unsafe parameter names of all five registries."""
    found, traps, digest_lines = set(), set(), []
    for c in campaigns:
        if c.result is None:
            continue
        for param, truth in c.result["reported"]:
            digest_lines.append(f"{c.app}:{param}")
            if truth == UNSAFE:
                found.add(param)
            elif truth == FP_TRAP:
                traps.add(param)
    ok = [c.result for c in campaigns if c.result is not None]
    return {
        "makespan_s": sum(c.wall_s for c in campaigns),
        "cpu_s": sum(c.cpu_s for c in campaigns),
        "executions": sum(r["executed"] for r in ok),
        "confirmation_trials": sum(r["confirmation_trials"] for r in ok),
        "peak_rss_mb": max(c.rss_kb for c in campaigns) / 1024,
        "unsafe_recall": len(found & unsafe) / len(unsafe),
        "false_positives": len(traps),
        "digest": hashlib.sha256("\n".join(sorted(digest_lines)).encode()).hexdigest()[:16],
        "unsafe_found": len(found & unsafe),
        "unsafe_total": len(unsafe),
        "campaigns": campaigns,
    }


# ------------------------------------------------------------------ processes


def go_env():
    """Environment for the go tool that keeps every cache inside BUILD."""
    env = dict(os.environ)
    for key, sub in (("GOCACHE", "gocache"), ("GOPATH", "gopath"),
                     ("GOMODCACHE", "gopath/pkg/mod"), ("GOTMPDIR", "tmp"),
                     ("HOME", "home")):
        path = os.path.join(BUILD, sub)
        os.makedirs(path, exist_ok=True)
        env[key] = path
    env["GOTOOLCHAIN"] = "local"
    return env


def build():
    """Build the CLI and the probe; returns the elapsed seconds."""
    if not os.path.isfile(os.path.join(ROOT, "go.mod")):
        raise BenchError(f"no go.mod at {ROOT}: the program's source is missing")
    env = go_env()
    start = time.perf_counter()
    for cwd, target, out in ((ROOT, "./cmd/zebraconf", "zebraconf"),
                             (os.path.join(HERE, "probe"), ".", "probe")):
        p = subprocess.run(["go", "build", "-o", os.path.join(BIN, out), target],
                           cwd=cwd, env=env, stdout=subprocess.PIPE,
                           stderr=subprocess.STDOUT, text=True)
        if p.returncode != 0:
            raise BenchError(f"go build {target} failed:\n{p.stdout}")
    return time.perf_counter() - start


def kill_group(pid):
    try:
        os.killpg(pid, signal.SIGKILL)
    except ProcessLookupError:
        pass


def run_process(args, log_path, timeout_s=CAMPAIGN_TIMEOUT_S):
    """Run args to completion; returns (wall_s, cpu_s, maxrss_kb, exit_code).

    CPU and peak RSS come from wait4, so they cover the process and every
    child it waited for (the -workers subprocesses).
    """
    env = dict(os.environ, TMPDIR=os.path.join(BUILD, "tmp"))
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(args, stdout=log, stderr=subprocess.STDOUT,
                                cwd=ROOT, env=env, start_new_session=True)
        killer = threading.Timer(timeout_s, kill_group, (proc.pid,))
        killer.start()
        try:
            _, status, ru = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss, proc.returncode


def run_campaign(app, seed, extra, work, tag):
    """Run one `zebraconf -mode run` campaign and score it."""
    json_path = os.path.join(work, f"{tag}-{app}.json")
    args = [os.path.join(BIN, "zebraconf"), "-mode", "run", "-app", app,
            "-seed", str(seed), "-json", json_path] + extra
    if app in TESTS:
        args += ["-tests", ",".join(TESTS[app])]
    log = os.path.join(work, f"{tag}-{app}.log")
    wall, cpu, rss, code = run_process(args, log)
    result, failures = None, []
    if code != 0:
        with open(log, errors="replace") as f:
            failures.append(f"{app}: exit code {code}; output ends: {f.read()[-500:]!r}")
    try:
        with open(json_path) as f:
            result = parse_results(f.read())[0]
        failures += gate(result)
    except (OSError, ValueError, KeyError) as e:
        failures.append(f"{app}: unreadable -json output: {e}")
    return Campaign(app, wall, cpu, rss, result, failures)


# ------------------------------------------------------------------ workloads


class Workload:
    """Flags of one workload and its set-up."""

    def __init__(self, name, work):
        self.name = name
        self.work = work
        self.cache = os.path.join(work, "diskcache")
        self.ledger = os.path.join(work, "ledger")

    def flags(self, app, tag):
        if self.name == "cold_workers2":
            # Tags are unique within the fresh work directory, so every
            # campaign journals to a file that does not exist yet.
            return ["-workers", "2", "-checkpoint",
                    os.path.join(self.work, f"{tag}-{app}.checkpoint.jsonl")]
        if self.name == "warm_resubmit":
            return ["-disk-cache", self.cache, "-ledger", self.ledger]
        return []

    def run_pass(self, seed, tag, extra=None):
        campaigns = []
        for app in APPS:
            more = list(extra(app)) if extra else []
            campaigns.append(run_campaign(app, seed, self.flags(app, tag) + more, self.work, tag))
        return campaigns

    def setup(self, seed):
        """Workload set-up after the build; returns (seconds, campaigns).

        warm_resubmit fills fresh directories with one cold pass, then
        resubmits SETTLE_PASSES times untimed: each early resubmit still
        adds the entries of timing-dependent executions to the cache, so
        only the later ones measure a steady warm campaign.
        """
        if self.name != "warm_resubmit":
            return 0.0, []
        for d in (self.cache, self.ledger):
            shutil.rmtree(d, ignore_errors=True)
        start = time.perf_counter()
        campaigns = self.run_pass(seed, "fill")
        for i in range(SETTLE_PASSES):
            campaigns += self.run_pass(seed, f"settle{i}")
        return time.perf_counter() - start, campaigns


def setup_build():
    """Build, then re-check the build; returns the median build time."""
    times = [build() for _ in range(BUILD_CHECKS)]
    return statistics.median(times)


def fresh_workdir(workload):
    work = os.path.join(BUILD, "work", f"{workload}-{os.getpid()}")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    os.makedirs(os.path.join(BUILD, "tmp"), exist_ok=True)
    return work


def seeded_unsafe(work):
    """Seeded-unsafe parameter names across the five registries."""
    out = os.path.join(work, "registry")
    os.makedirs(out, exist_ok=True)
    _, _, _, code = run_process([os.path.join(BIN, "probe"), "-registry", "-out", out],
                                os.path.join(out, "probe.log"))
    if code != 0:
        raise BenchError(f"probe -registry exited {code}")
    with open(os.path.join(out, "registry.json")) as f:
        labels = json.load(f)
    unsafe = {p for app in APPS for p in labels[app]["unsafe"] or []}
    if not unsafe:
        raise BenchError("the registries label no parameter unsafe")
    return unsafe


def measure_end_to_end(wl, seed, seconds, build_s):
    unsafe = seeded_unsafe(wl.work)
    setup_s, campaigns = wl.setup(seed)
    setup_s += build_s
    # Passes start until `seconds` have elapsed; the last one runs to the
    # end, so a run measures at least `seconds` and whole passes only.
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        cs = wl.run_pass(seed, f"pass{len(passes)}")
        campaigns += cs
        passes.append(score_pass(cs, unsafe))
    return setup_s, passes, campaigns


def print_end_to_end(wl, setup_s, passes, campaigns):
    print(f"workload {wl.name}: {len(passes)} measured pass(es), {len(campaigns)} campaigns")
    for i, p in enumerate(passes):
        print(f"  pass {i}: makespan {p['makespan_s']:.3f}s cpu {p['cpu_s']:.3f}s "
              f"executions {p['executions']} trials {p['confirmation_trials']} "
              f"recall {p['unsafe_found']}/{p['unsafe_total']} fp {p['false_positives']} "
              f"digest {p['digest']}")
        print("    " + " ".join(f"{c.app}={c.wall_s:.2f}s/{c.cpu_s:.2f}cpu" for c in p["campaigns"]))
    print(f"  makespan_s: {describe_timing([p['makespan_s'] for p in passes], 's')}")
    metrics = {}
    for name, unit in END_TO_END:
        value = setup_s if name == "setup_s" else statistics.median(p[name] for p in passes)
        metrics[name] = {"value": value, "unit": unit}
        print(f"  {name:22s} {value:.6g} {unit}")
    print(f"  {'failed_frac':22s} {failed_frac(campaigns):.6g} ratio")
    return metrics


# ------------------------------------------------------------------- tracing


def load_spans(path):
    with open(path) as f:
        return [json.loads(line) for line in f if line.strip()]


def covered_us(start, end, intervals):
    """Microseconds of [start, end) covered by the union of intervals."""
    clipped = sorted((max(s, start), min(e, end)) for s, e in intervals if e > start and s < end)
    total, cur_s, cur_e = 0, None, None
    for s, e in clipped:
        if cur_e is None or s > cur_e:
            if cur_e is not None:
                total += cur_e - cur_s
            cur_s, cur_e = s, e
        else:
            cur_e = max(cur_e, e)
    if cur_e is not None:
        total += cur_e - cur_s
    return total


def span_figures(spans):
    """Per-layer figures from one trace file's span tree."""
    children = {}
    for s in spans:
        children.setdefault(s.get("parent", 0), []).append(s)

    def iv(s):
        return s["start_us"], s["start_us"] + s["dur_us"]

    def descendants(s, names):
        out, stack = [], list(children.get(s["span"], []))
        while stack:
            c = stack.pop()
            if c["name"] in names:
                out.append(c)
            stack.extend(children.get(c["span"], []))
        return out

    self_us = {}
    for s in spans:
        st, en = iv(s)
        own = s["dur_us"] - covered_us(st, en, [iv(c) for c in children.get(s["span"], [])])
        agg = self_us.setdefault(s["name"], [0, 0])
        agg[0] += 1
        agg[1] += own
    fig = {"self_us": self_us, "exec_ms": [], "item_s": [], "item_us": 0, "item_test_us": 0,
           "dist_overhead_ms": [], "phase_s": {}}
    for s in spans:
        name = s["name"]
        if name in ("pooled-run", "round"):
            # A pooled run is one trial, a round TRIALS_PER_ROUND trials in
            # sequence; each cache-hit child is a trial that did not run.
            # A round's time is split evenly over the trials it ran.
            st, en = iv(s)
            hits = [iv(c) for c in children.get(s["span"], []) if c["name"] == "cache-hit"]
            ran = (1 if name == "pooled-run" else TRIALS_PER_ROUND) - len(hits)
            if ran > 0:
                per_ms = (s["dur_us"] - covered_us(st, en, hits)) / ran / 1e3
                fig["exec_ms"].extend([per_ms] * ran)
        elif name == "test":
            fig["item_s"].append(s["dur_us"] / 1e6)
            st, en = iv(s)
            fig["item_us"] += s["dur_us"]
            trials = descendants(s, ("pooled-run", "round"))
            fig["item_test_us"] += covered_us(st, en, [iv(r) for r in trials])
        elif name == "item":
            tests = [c for c in children.get(s["span"], []) if c["name"] == "test"]
            if tests:
                fig["dist_overhead_ms"].append((s["dur_us"] - sum(t["dur_us"] for t in tests)) / 1e3)
        elif name == "phase":
            phase = (s.get("attrs") or {}).get("phase", "?")
            fig["phase_s"][phase] = fig["phase_s"].get(phase, 0) + s["dur_us"] / 1e6
    return fig


def parse_prometheus(text):
    """Prometheus text exposition -> {name: [(labels, value)]}."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        head, _, value = line.rpartition(" ")
        name, _, rest = head.partition("{")
        labels = {}
        for part in rest.rstrip("}").split('",'):
            if "=" in part:
                k, _, v = part.partition("=")
                labels[k] = v.strip('"')
        out.setdefault(name, []).append((labels, float(value)))
    return out


def metric_sum(prom, name, **match):
    return sum(v for labels, v in prom.get(name, [])
               if all(labels.get(k) == want for k, want in match.items()))


def histogram_quantile(prom, name, q):
    """Quantile q of a histogram summed over all its label sets, linearly
    interpolated inside the bucket (as Prometheus does)."""
    buckets = {}
    for labels, v in prom.get(name + "_bucket", []):
        le = float(labels["le"])
        buckets[le] = buckets.get(le, 0) + v
    if not buckets:
        return 0.0
    bounds = sorted(buckets)
    total = buckets[bounds[-1]]
    if total == 0:
        return 0.0
    rank, prev_b, prev_c = q * total, 0.0, 0.0
    for b in bounds:
        c = buckets[b]
        if c >= rank:
            if b == float("inf"):
                return prev_b
            return prev_b + (b - prev_b) * (rank - prev_c) / max(c - prev_c, 1e-12)
        prev_b, prev_c = b, c
    return prev_b


def merge_prom(texts):
    merged = {}
    for t in texts:
        for name, rows in parse_prometheus(t).items():
            merged.setdefault(name, []).extend(rows)
    return merged


def per_layer(figs, prom, results, probe, ref_s, traced_s, distributed):
    exec_ms = [x for f in figs for x in f["exec_ms"]]
    item_s = [x for f in figs for x in f["item_s"]]
    item_us = sum(f["item_us"] for f in figs)
    item_test_us = sum(f["item_test_us"] for f in figs)
    dist_ms = [x for f in figs for x in f["dist_overhead_ms"]]
    phase = {}
    for f in figs:
        for k, v in f["phase_s"].items():
            phase[k] = phase.get(k, 0) + v
    executed = sum(r["executed"] for r in results)
    saved = sum(r["saved"] for r in results)
    signals = sum(r["first_trial_signals"] for r in results)
    trials = sum(r["confirmation_trials"] for r in results)
    disk_hits = metric_sum(prom, "zebraconf_disk_cache_hits_total")
    disk_lookups = disk_hits + metric_sum(prom, "zebraconf_disk_cache_misses_total")
    shared_hits = metric_sum(prom, "zebraconf_exec_cache_hits_total", scope="shared")
    shared_lookups = shared_hits + metric_sum(prom, "zebraconf_exec_cache_misses_total")
    pred_n = metric_sum(prom, "zebraconf_sched_predicted_vs_actual_ratio_count")
    values = {
        "confkit.get_ns": probe["confkit_get_ns"],
        "confkit.get_bare_ns": probe["confkit_get_bare_ns"],
        "agent.hook_ns": probe["confkit_get_ns"] - probe["confkit_get_bare_ns"],
        "gid.id_ns": probe["gid_id_ns"],
        "confkit.gets_per_exec": probe["reads"] / probe["streams"],
        "harness.exec_ms_p50": percentile(exec_ms, 50) if exec_ms else 0.0,
        "harness.exec_ms_p99": percentile(exec_ms, 99) if exec_ms else 0.0,
        "harness.timeouts": metric_sum(prom, "zebraconf_test_timeouts_total"),
        "runner.item_s_p50": percentile(item_s, 50) if item_s else 0.0,
        "runner.item_s_p99": percentile(item_s, 99) if item_s else 0.0,
        "runner.overhead_frac": 1 - item_test_us / item_us if item_us else 0.0,
        "memo.hit_ratio": saved / (executed + saved) if executed + saved else 0.0,
        "memo.lookup_ns": probe["memo_lookup_ns"],
        "diskcache.get_us": probe["diskcache_get_us"],
        "diskcache.put_us": probe["diskcache_put_us"],
        "diskcache.hit_ratio": disk_hits / disk_lookups if disk_lookups else 0.0,
        "sched.queue_wait_p95_ms": 1e3 * histogram_quantile(prom, "zebraconf_sched_queue_wait_seconds", 0.95),
        "sched.pred_ratio": (metric_sum(prom, "zebraconf_sched_predicted_vs_actual_ratio_sum") / pred_n
                             if pred_n else 0.0),
        "dist.item_overhead_ms": statistics.median(dist_ms) if dist_ms else 0.0,
        "dist.journal_append_us": probe["journal_append_us"],
        "dist.remote_cache_hit_ratio": (shared_hits / shared_lookups
                                        if distributed and shared_lookups else 0.0),
        "dist.retries": metric_sum(prom, "zebraconf_dist_item_retries_total"),
        "dist.steals": metric_sum(prom, "zebraconf_dist_steals_total"),
        "stats.look_ns": probe["stats_look_ns"],
        "stats.trials_per_instance": trials / signals if signals else 0.0,
        "campaign.prerun_phase_s": phase.get("prerun", 0.0),
        "campaign.exec_phase_s": phase.get("instances", 0.0),
        "campaign.merge_ms": 1e3 * phase.get("scoring", 0.0),
        "coverage.build_ms": probe["coverage_build_ms"],
        "obs.trace_overhead_frac": traced_s / ref_s - 1,
    }
    print(f"  harness.exec_ms: {describe_timing(exec_ms, 'ms')}" if exec_ms else "  harness.exec_ms: no executions")
    print(f"  runner.item_s: {describe_timing(item_s, 's')}" if item_s else "  runner.item_s: no items")
    if dist_ms:
        print(f"  dist.item_overhead_ms: {describe_timing(dist_ms, 'ms')}")
    return values


def print_self_time(figs):
    total = {}
    for f in figs:
        for name, (n, us) in f["self_us"].items():
            t = total.setdefault(name, [0, 0])
            t[0] += n
            t[1] += us
    grand = sum(us for _, us in total.values()) or 1
    print("  self time by span (span self time = duration minus the part its children cover)")
    print(f"  {'span':14s} {'layer':9s} {'spans':>7s} {'self_s':>10s} {'share':>7s}")
    for name, (n, us) in sorted(total.items(), key=lambda kv: -kv[1][1]):
        print(f"  {name:14s} {SPAN_LAYER.get(name, '?'):9s} {n:7d} {us / 1e6:10.3f} {us / grand:7.1%}")


def run_probe(seed, out_dir, traced):
    args = [os.path.join(BIN, "probe"), "-seed", str(seed), "-out", out_dir]
    if traced:
        args.append("-campaign")
    for app, tests in TESTS.items():
        args += ["-tests", f"{app}={','.join(tests)}"]
    _, _, _, code = run_process(args, os.path.join(out_dir, "probe.log"))
    if code != 0:
        with open(os.path.join(out_dir, "probe.log")) as f:
            raise BenchError(f"probe exited {code}:\n{f.read()[-2000:]}")
    with open(os.path.join(out_dir, "probe.json")) as f:
        return json.load(f)


def measure_per_layer(wl, seed):
    """One untraced pass, one traced pass, the probes; returns (metrics, campaigns)."""
    _, campaigns = wl.setup(seed)
    ref = wl.run_pass(seed, "ref")
    campaigns += ref
    ref_s = sum(c.wall_s for c in ref)
    probe_dir = os.path.join(wl.work, "probe")
    os.makedirs(probe_dir, exist_ok=True)
    if wl.name == "cold_inproc":
        # The in-process pass runs inside the probe, phase 2 on its timing
        # Distributor; its results are gated like every CLI campaign.
        probe = run_probe(seed, probe_dir, traced=True)
        traced_s = probe["makespan_s"]
        with open(os.path.join(probe_dir, "results.json")) as f:
            results = parse_results(f.read())
        for r in results:
            campaigns.append(Campaign(r["app"], probe["campaign_s"][r["app"]], 0.0, 0, r, gate(r)))
        figs = [span_figures(load_spans(os.path.join(probe_dir, "trace.jsonl")))]
        with open(os.path.join(probe_dir, "metrics.prom")) as f:
            prom = parse_prometheus(f.read())
    else:
        # dist and the disk cache live in the CLI process (and its
        # workers), so the traced pass is the CLI's own -trace/-metrics.
        def trace_flags(app):
            return ["-trace", os.path.join(wl.work, f"traced-{app}.trace.jsonl"),
                    "-metrics", os.path.join(wl.work, f"traced-{app}.prom")]
        traced = wl.run_pass(seed, "traced", extra=trace_flags)
        campaigns += traced
        traced_s = sum(c.wall_s for c in traced)
        results = [c.result for c in traced if c.result is not None]
        figs, texts = [], []
        for app in APPS:
            figs.append(span_figures(load_spans(os.path.join(wl.work, f"traced-{app}.trace.jsonl"))))
            with open(os.path.join(wl.work, f"traced-{app}.prom")) as f:
                texts.append(f.read())
        prom = merge_prom(texts)
        probe = run_probe(seed, probe_dir, traced=False)
    print(f"workload {wl.name} traced: untraced pass {ref_s:.3f}s, traced pass {traced_s:.3f}s")
    values = per_layer(figs, prom, results, probe, ref_s, traced_s,
                       distributed=wl.name == "cold_workers2")
    print_self_time(figs)
    metrics = {}
    for name, unit in PER_LAYER:
        metrics[name] = {"value": float(values[name]), "unit": unit}
        print(f"  {name:30s} {values[name]:.6g} {unit}")
    return metrics, campaigns


# ----------------------------------------------------------------------- main


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=7)
    ap.add_argument("--seconds", type=float, default=20)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    try:
        build_s = setup_build()
    except (BenchError, OSError) as e:
        print(f"perfbench: build failed: {e}", file=sys.stderr)
        return 2
    work = fresh_workdir(args.workload)
    wl = Workload(args.workload, work)
    try:
        if args.trace:
            metrics, campaigns = measure_per_layer(wl, args.seed)
        else:
            setup_s, passes, campaigns = measure_end_to_end(wl, args.seed, args.seconds, build_s)
            metrics = print_end_to_end(wl, setup_s, passes, campaigns)
    except (BenchError, OSError, ValueError, KeyError) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(work, ignore_errors=True)
    failures = [f for c in campaigns for f in c.failures]
    for f in failures:
        print(f"GATE FAILED: {f}")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(campaigns),
        "failed": sum(1 for c in campaigns if c.failures),
        "metrics": metrics,
    }))
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
