#!/usr/bin/env python3
"""End-to-end pipeline benchmark of NWHy.  Layer map: perfbench/LAYERS.md.

    python3 perfbench/run.py --workload skewed --seed 1 --seconds 30 --trace 0

Run from the repository root.  It builds perfbench/ against src/ into
.bench_build/perfbench, computes the expected answers with the serial
oracles, runs the workload at nproc threads in a child process under a
deadline, checks every answer, prints every metric by name and unit, and
prints one JSON result as the last line of stdout.  --trace 0 reports the
end-to-end metrics of BENCHMARK.json; --trace 1 runs the traced variant and
reports its per-layer metrics (and keeps the Chrome trace under
.bench_build/perfbench/traces/).
"""
import argparse
import json
import os
import shutil
import subprocess
import sys
import time
from collections import defaultdict

HERE = os.path.dirname(os.path.abspath(__file__))
BUILD = os.path.join(".bench_build", "perfbench")
SPEC = "BENCHMARK.json"
EXPECTED = os.path.join(HERE, "expected_seed1.json")
DEFAULT_SEED = 1           # the seed whose oracle answers are frozen in EXPECTED
LATENCY_LIMIT_MS = 250.0   # serve goodput counts correct replies within this limit
DEADLINE_S = 170.0         # the whole invocation, after the build
ORACLE_TIMEOUT_S = 60.0
LAYERS = ("io", "slinegraph", "algorithms", "traversal")  # the strong-scaling layers


def log(*args):
    print(*args, file=sys.stderr, flush=True)


def build():
    """Configure once, then build incrementally; cmake output goes to stderr."""
    if not os.path.isfile(os.path.join("src", "nwhy.hpp")):
        log("perfbench: no src/nwhy.hpp here; run from the repository root")
        sys.exit(2)
    os.makedirs(BUILD, exist_ok=True)
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"],
                       stdout=sys.stderr, check=True)
    subprocess.run(["cmake", "--build", BUILD, "-j", str(nproc())], stdout=sys.stderr,
                   check=True)
    return os.path.join(BUILD, "pipeline_bench")


def nproc():
    return len(os.sched_getaffinity(0))


def cpu_ticks():
    """(steal, total) jiffies of all CPUs: the host's share of our CPU time
    shows how contended a shared machine was during a run."""
    with open("/proc/stat") as f:
        fields = [int(x) for x in f.readline().split()[1:]]
    return fields[7], sum(fields)


def build_type():
    with open(os.path.join(BUILD, "CMakeCache.txt")) as f:
        for line in f:
            if line.startswith("CMAKE_BUILD_TYPE:"):
                return line.split("=", 1)[1].strip()
    return ""


def oracle(binary, workload, seed):
    """Expected answers from the serial oracles, cached per (workload, seed)."""
    path = os.path.join(BUILD, "oracle", f"{workload}-{seed}.json")
    if os.path.isfile(path):
        with open(path) as f:
            return json.load(f)
    out = subprocess.run([binary, "oracle", workload, str(seed)], capture_output=True,
                         text=True, timeout=ORACLE_TIMEOUT_S, check=True)
    result = json.loads(out.stdout.strip().splitlines()[-1])
    os.makedirs(os.path.dirname(path), exist_ok=True)
    with open(path, "w") as f:
        json.dump(result, f)
    return result


def run_worker(binary, part, args, deadline, silence):
    """Run one worker part with stdout in a file.  The hang guard kills it at
    `deadline`, or once it has printed nothing for `silence` seconds."""
    run_dir = os.path.join(BUILD, f"run-{os.getpid()}-{part}")
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    events_path = os.path.join(run_dir, "events.jsonl")
    with open(events_path, "w") as out:
        proc = subprocess.Popen([binary, part, *args, run_dir], stdout=out)
    killed_at = None
    size, last_output = 0, time.monotonic()
    while True:
        pid, status, usage = os.wait4(proc.pid, os.WNOHANG)
        if pid == proc.pid:
            break
        now = time.monotonic()
        if os.path.getsize(events_path) != size:
            size, last_output = os.path.getsize(events_path), now
        if now > deadline or now - last_output > silence:
            killed_at = time.monotonic()
            proc.kill()
            pid, status, usage = os.wait4(proc.pid, 0)
            break
        time.sleep(0.05)
    proc.returncode = os.waitstatus_to_exitcode(status)
    events = []
    with open(events_path) as f:
        for line in f:
            try:
                events.append(json.loads(line))
            except ValueError:
                pass  # the line a killed worker was writing
    trace = None
    if os.path.isfile(os.path.join(run_dir, "trace.json")):
        with open(os.path.join(run_dir, "trace.json")) as f:
            trace = json.load(f)["traceEvents"]
    shutil.rmtree(run_dir, ignore_errors=True)
    if killed_at is not None:
        log(f"perfbench: {part} worker overran its deadline and was killed")
    elif proc.returncode != 0:
        log(f"perfbench: {part} worker exited with code {proc.returncode}")
    return events, trace, killed_at, usage.ru_maxrss / 1024.0


def median(values):
    v = sorted(values)
    if not v:
        return 0.0
    m = len(v) // 2
    return v[m] if len(v) % 2 else 0.5 * (v[m - 1] + v[m])


def percentile(values, p):
    """Nearest-rank percentile, and how many samples lie beyond it."""
    v = sorted(values)
    if not v:
        return 0.0, 0
    rank = max(1, -(-len(v) * p // 100))  # ceil(n * p / 100)
    return v[int(rank) - 1], len(v) - int(rank)


class Checker:
    """Counts attempted and failed operations; a wrong answer is a failure."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.wrong = 0

    def op(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.wrong += 1
            log(f"perfbench: wrong answer: {what}")

    def missing(self, n, what):
        if n > 0:
            self.attempted += n
            self.failed += n
            log(f"perfbench: {n} {what} did not finish")


PIPELINE_KEYS = ("pairs", "s_components", "s_partition", "betweenness", "toplexes",
                 "toplex_ids", "hyper_components", "hyper_partition")


def check_run(events, expect, killed_at, chk, part):
    """Check every answer one worker part produced; count what it never finished."""
    by = defaultdict(list)
    for e in events:
        by[e["ev"]].append(e)
    plan = by["plan"][0] if by["plan"] else None
    if plan is None:
        chk.missing(1, f"{part} worker start-up")
        return by
    if part == "serve":
        if by["serve"]:
            s = by["serve"][0]
            chk.attempted += s["attempted"]
            chk.failed += s["failed"]
            chk.wrong += s["wrong"]
            if s["failed"]:
                log(f"perfbench: serve: {s['failed']} failed requests ({s['wrong']} wrong answers)")
        else:
            chk.missing(plan["serve_requests"], "serve requests")
        return by
    # A phase cut by the guard contributes the time it had run: a lower bound.
    if killed_at is not None and by["begin"]:
        phase = by["begin"][-1]
        done = {"setup": "setup", "pipeline": "pipeline"}.get(phase["phase"])
        if done and len(by[done]) < len([b for b in by["begin"] if b["phase"] == phase["phase"]]):
            by[done].append({"s": killed_at - phase["t"], "partial": True})
    # Every round begun was owed a set-up, a pipeline pass and a query
    # chunk; a round cut by the guard fails what it did not finish.
    rounds = max(plan["rounds"], sum(1 for b in by["begin"] if b["phase"] == "setup"))
    setups = [e for e in by["setup"] if not e.get("partial")]
    for _ in setups:
        chk.op(True, "set-up")
    chk.missing(rounds - len(setups), "set-up passes")
    pipes = [e for e in by["pipeline"] if not e.get("partial")]
    for e in pipes:
        for k in PIPELINE_KEYS:
            chk.op(e[k] == expect[k], f"pipeline {k} {e[k]} != {expect[k]}")
    chk.missing((rounds - len(pipes)) * len(PIPELINE_KEYS), "pipeline answers")
    answered = 0
    for q in by["queries"]:
        for kind, idx, a0, a1 in zip(q["kind"], q["index"], q["ans0"], q["ans1"]):
            answered += 1
            if kind == 0:
                want = (expect["bfs_edges"][idx], expect["bfs_nodes"][idx])
                chk.op((a0, a1) == want, f"bfs #{idx} reached {(a0, a1)} != {want}")
            else:
                chk.op(a0 == expect["sdist"][idx], f"s_distance #{idx} {a0} != {expect['sdist'][idx]}")
    chk.missing(rounds * plan["chunk"] - answered, "point queries")
    return by


def end_to_end(by):
    m, n = {}, {}
    m["setup_s"] = median([e["s"] for e in by["setup"]])
    n["setup_s"] = f"median of {len(by['setup'])}"
    m["pipeline_s"] = median([e["s"] for e in by["pipeline"]])
    n["pipeline_s"] = f"median of {len(by['pipeline'])}"
    q = [ms for e in by["queries"] for ms in e["ms"]]
    m["query_p50_ms"], _ = percentile(q, 50)
    m["query_p90_ms"], beyond = percentile(q, 90)
    n["query_p90_ms"] = f"{beyond} of {len(q)} samples beyond"
    if by["serve"]:
        s = by["serve"][0]
        m["serve_point_p50_ms"], _ = percentile(s["point_ms"], 50)
        n["serve_point_p50_ms"] = f"{len(s['point_ms'])} samples"
        m["serve_traversal_p50_ms"], _ = percentile(s["trav_ms"], 50)
        n["serve_traversal_p50_ms"] = f"{len(s['trav_ms'])} samples"
        good = sum(1 for lat, ok in zip(s["point_ms"] + s["trav_ms"], s["point_ok"] + s["trav_ok"])
                   if ok and lat <= LATENCY_LIMIT_MS)
        m["serve_goodput_qps"] = good / s["window_s"]
    m["peak_rss_mb"] = max(e["peak_mb"] for e in by["rss"])
    return m, n


def per_layer(by, spans):
    m = {}
    if spans is None:
        return m
    by_id = {s["args"]["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        children[s["args"]["parent"]].append(s)

    def root(s):
        while s["args"]["parent"] >= 0:
            s = by_id[s["args"]["parent"]]
        return s["name"]

    def self_us(s):
        t0, t1 = s["ts"], s["ts"] + s["dur"]
        covered, end = 0.0, t0
        for a, b in sorted((max(t0, c["ts"]), min(t1, c["ts"] + c["dur"]))
                           for c in children[s["args"]["id"]]):
            a = max(a, end)
            if b > a:
                covered += b - a
                end = b
        return s["dur"] - covered

    main = defaultdict(list)
    scaling = {"scaling.1t": defaultdict(float), "scaling.nt": defaultdict(float)}
    for s in spans:
        r = root(s)
        if r.startswith("phase."):
            main[s["name"]].append(s)
        if r in scaling:
            scaling[r][s["name"].split(".")[0]] += self_us(s)

    def ms(name):
        return median([s["dur"] / 1e3 for s in main[name]])

    def arg(name, key):
        return median([s["args"].get(key, 0) for s in main[name]])

    def mean_arg(name, key):
        v = [s["args"].get(key, 0) for s in main[name]]
        return sum(v) / len(v) if v else 0.0

    m["io.parse_ms"] = ms("io.parse")
    m["io.parse_mb_per_s"] = median([s["args"].get("io.parse_bytes", 0) / s["dur"]
                                     for s in main["io.parse"] if s["dur"] > 0])
    m["io.build_ms"] = ms("io.build")
    m["io.snapshot_write_ms"] = ms("io.snapshot_write")
    m["io.snapshot_mb_written"] = arg("io.snapshot_write", "io.snapshot_bytes_written") / 1e6
    m["io.mmap_load_ms"] = ms("io.mmap_load")

    m["slinegraph.build_ms"] = ms("slinegraph.build")
    # make_s_linegraph's direct-CSR path merges the per-thread pair buffers
    # inside csr_build; the "slinegraph.merge" timer only runs on the
    # edge-list path.  Enumeration is the hashmap timer minus csr_build.
    m["slinegraph.csr_build_ms"] = arg("slinegraph.build", "timer:slinegraph.csr_build")
    m["slinegraph.enumerate_ms"] = (arg("slinegraph.build", "timer:slinegraph.hashmap")
                                    - m["slinegraph.csr_build_ms"])
    for k in ("candidate_pairs", "hashmap_probes", "pairs_emitted"):
        m[f"slinegraph.{k}"] = arg("slinegraph.build", f"slinegraph.{k}")
    m["slinegraph.yield"] = (m["slinegraph.pairs_emitted"] / m["slinegraph.candidate_pairs"]
                             if m["slinegraph.candidate_pairs"] else 0.0)

    m["algorithms.s_cc_ms"] = ms("algorithms.s_cc")
    m["algorithms.hyper_cc_ms"] = ms("algorithms.hyper_cc")
    m["algorithms.betweenness_ms"] = ms("algorithms.betweenness")
    m["betweenness.edges_relaxed"] = arg("algorithms.betweenness", "betweenness.edges_relaxed")
    m["betweenness.levels"] = arg("algorithms.betweenness", "betweenness.levels")
    m["algorithms.toplex_ms"] = ms("algorithms.toplex")
    checks = arg("algorithms.toplex", "toplex.dominance_checks")
    skipped = arg("algorithms.toplex", "toplex.dominance_checks_skipped")
    m["toplex.dominance_checks"] = checks
    m["toplex.skip_ratio"] = skipped / (checks + skipped) if checks + skipped else 0.0

    m["traversal.hyper_bfs_ms"] = ms("traversal.hyper_bfs")
    m["traversal.s_distance_ms"] = ms("traversal.s_distance")
    for k in ("levels", "edges_relaxed", "steps_top_down", "steps_bottom_up",
              "direction_switches"):
        m[f"hyper_bfs.{k}"] = mean_arg("traversal.hyper_bfs", f"hyper_bfs.{k}")

    if by["dispatch"]:
        m["nwpar.dispatch_us"] = by["dispatch"][0]["nt_us"]
        m["nwpar.dispatch_1t_us"] = by["dispatch"][0]["1t_us"]
    for layer in LAYERS:
        one, many = scaling["scaling.1t"][layer], scaling["scaling.nt"][layer]
        m[f"{layer}.self_ms"] = many / 1e3
        m[f"{layer}.speedup"] = one / many if many else 0.0

    if by["serve"]:
        s = by["serve"][0]
        m["serve.ping_p50_us"] = s["ping_p50_us"]
        m["serve.server_p50_us"] = s["server_p50_us"]
        m["serve.server_p99_us"] = s["server_p99_us"]
        m["serve.wire_overhead_us"] = s["client_p50_us"] - s["server_p50_us"]
        for k in ("queue_depth_peak", "rejected_busy", "deadline_exceeded", "coalesced"):
            m[f"serve.{k}"] = s[k]
        m["serve.generator_lag_ms"], _ = percentile(s["lag_ms"], 99)
        # The serve tails (and the write-visibility median below) swing with
        # the host's wake-up latency far more than the run-to-run bound of an
        # end-to-end metric allows on a shared 4-CPU machine, so they are
        # reported here, unbounded.
        m["serve.point_p99_ms"], _ = percentile(s["point_ms"], 99)
        m["serve.traversal_p90_ms"], _ = percentile(s["trav_ms"], 90)
        m["dynamic.visible_p50_ms"] = median(s["visible_ms"])
        m["dynamic.apply_ms"] = median(s["apply_ms"])
        m["dynamic.pending_read_ms"] = median(s["pending_ms"])
        m["dynamic.compact_ms"] = median(s["compact_ms"])
        m["dynamic.publish_ms"] = median(s["publish_ms"])
        m["dynamic.retired_live"] = s["retired_live_max"]
    if by["overhead"]:
        o = by["overhead"][0]
        m["trace.overhead_ms"] = (o["traced_s"] - o["plain_s"]) * 1e3
        m["trace.overhead_pct"] = 100.0 * (o["traced_s"] - o["plain_s"]) / o["plain_s"]
    return m


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    binary = build()
    with open(SPEC) as f:
        spec = json.load(f)
    if args.workload not in [w["name"] for w in spec["workloads"]]:
        log(f"perfbench: unknown workload {args.workload}")
        sys.exit(2)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    deadline = time.monotonic() + DEADLINE_S

    chk = Checker()
    expect = oracle(binary, args.workload, args.seed)
    if args.seed == DEFAULT_SEED:
        with open(EXPECTED) as f:
            frozen = json.load(f)[args.workload]
        fresh = {k: v for k, v in expect.items() if k != "ev"}
        chk.op(fresh == frozen, "oracle answers differ from expected_seed1.json")

    # Half the run is batch rounds, half the serve window, each in its own
    # process under the hang guard.  A batch round prints every second or
    # so; a batch part that falls silent is killed, its round counted as
    # failed, and a fresh process runs the rest of the batch budget.  The
    # serve part is silent through its window, so it has a deadline only.
    threads = nproc()
    half = args.seconds / 2
    by, spans = defaultdict(list), []

    def run_part(part, seconds, budget, silence):
        events, trace, killed_at, rss = run_worker(
            binary, part, [args.workload, str(args.seed), f"{seconds:.3f}", str(args.trace),
                           str(threads)], min(deadline, time.monotonic() + budget), silence)
        for ev, items in check_run(events, expect, killed_at, chk, part).items():
            by[ev].extend(items)
        if not any(e["ev"] == "rss" for e in events):
            by["rss"].append({"peak_mb": rss})  # killed: the process-lifetime peak
        if trace:
            offset = len(spans)
            for sp in trace:
                sp["args"]["id"] += offset
                if sp["args"]["parent"] >= 0:
                    sp["args"]["parent"] += offset
            spans.extend(trace)
        return killed_at

    ticks0 = cpu_ticks()
    left, silence = half, 30 if args.trace else 10
    while left >= 1.0 and time.monotonic() < deadline - half - 30:
        started = time.monotonic()
        killed_at = run_part("batch", left, left + silence + 30, silence)
        if killed_at is None:
            break
        left -= killed_at - silence - started  # the wait for silence is not batch time
    run_part("serve", half, half + 60, DEADLINE_S)
    ticks1 = cpu_ticks()
    steal = (ticks1[0] - ticks0[0]) / max(ticks1[1] - ticks0[1], 1)
    if args.trace:
        values, samples = per_layer(by, spans or None), {}
    else:
        values, samples = end_to_end(by)
    if chk.attempted:
        values["answered_ratio"] = (chk.attempted - chk.failed) / chk.attempted

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  nproc {nproc()}  "
          f"threads {threads}  build {build_type()}  seconds {args.seconds}  "
          f"host steal {100 * steal:.1f}%")
    metrics = {}
    for spec_m in wanted:
        name, unit = spec_m["name"], spec_m["unit"]
        if name not in values:
            log(f"perfbench: {name} was not measured (failed run); reported as 0")
        v = float(values.get(name, 0.0))
        metrics[name] = {"value": v, "unit": unit}
        extra = f"  ({samples[name]})" if name in samples else ""
        print(f"  {name:32s} {v:14.6g} {unit}{extra}")
    print(f"  attempted {chk.attempted}  failed {chk.failed}  "
          f"failed_ratio {chk.failed / max(chk.attempted, 1):.6g}")
    if args.trace and spans:
        os.makedirs(os.path.join(BUILD, "traces"), exist_ok=True)
        path = os.path.join(BUILD, "traces", f"{args.workload}-{args.seed}.json")
        with open(path, "w") as f:
            json.dump({"traceEvents": spans}, f)
        print(f"  trace: {path}")
    print(json.dumps({"correct": chk.wrong == 0, "attempted": max(chk.attempted, 1),
                      "failed": chk.failed, "metrics": metrics}))


if __name__ == "__main__":
    main()
