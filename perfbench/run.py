#!/usr/bin/env python3
"""Closed-loop serving benchmark for netout_serve.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a netout source tree. The script builds the tools
and its own perfbench_tool under .bench_build/ (RelWithDebInfo), makes
the seeded inputs (graph, shard directory, PM file, request streams,
expected answers) once per (seed, scale) outside the timed set-up, starts
netout_serve on them and drives it over the NDJSON wire from this one
thread with four closed-loop connections. Every answer is checked.

--trace 0 prints the end-to-end metrics; --trace 1 repeats the served run,
then replays the same inputs in-process with a span around each call into
a layer, and prints the per-layer metrics. The last stdout line is one
JSON object: {"correct", "attempted", "failed", "metrics"}. The line
before it is the run's accounting (ops by type, sample counts, host steal
share, nproc, source fingerprint, build type). See README.md.
"""

import argparse
import hashlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import loadgen  # noqa: E402
import measure  # noqa: E402

SCALE = 30
HELD_OUT_SEED = 90017  # reserved for checking claims; never tune on it
BUILD_TYPE = "RelWithDebInfo"
SERVER_THREADS = 2
WARMUP_S = 1.5
SETUP_REPEATS = 5
# The measured window is cut into BIN_S bins and the metrics come from
# its quiet bins: those where the hypervisor stole at most QUIET_STEAL of
# the host's CPU time (README.md explains why). The window lasts
# --seconds, and longer, up to WINDOW_CAP times --seconds, until quiet
# bins cover QUIET_SHARE of --seconds and hold MIN_SAMPLES of every op
# type measured (a p99 needs 1000 samples, ten beyond it). If the cap
# comes first, the quietest bins stand in for quiet ones.
BIN_S = 0.5
QUIET_STEAL = 0.02
QUIET_SHARE = 0.5
MIN_SAMPLES = 1000
WINDOW_CAP = 2
POST_WINDOW_WRITES = 1000
WRITE_BURSTS = 5
TRACE_QUERIES = 3000
TRACE_WRITES = 300
KEEP_SEEDS = 12

BUILD_DIR = os.path.join(ROOT, ".bench_build")
TOOL_TARGETS = ["tool_netout_gen", "tool_netout_shard", "tool_netout_index",
                "tool_netout_serve", "perfbench_tool"]

WORKLOADS = {
    # The paper's Baseline: traversal for every query, no index.
    "mixed-traversal": {"stream": "mixed.ndjson", "shard": False,
                        "index": False},
    # PM + row cache, Zipf anchors, every tenth op an add_edge.
    "ingest-cache": {"stream": "ingest.ndjson", "shard": False,
                     "index": True},
    # Shard directory under a quarter of its mapped bytes.
    "oocore-squeeze": {"stream": "mixed.ndjson", "shard": True,
                       "index": False},
}

CACHE_MB = 64


def load_metric_units():
    """(end-to-end, per-layer) metric name -> unit, from BENCHMARK.json."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return tuple({m["name"]: m["unit"] for m in spec[key]}
                 for key in ("end_to_end", "per_layer"))


def log(message):
    print("[perfbench] " + message, file=sys.stderr, flush=True)


def check_source_tree():
    needed = ["CMakeLists.txt", "src", "tools"]
    missing = [n for n in needed if not os.path.exists(os.path.join(ROOT, n))]
    if missing:
        log("not a netout source tree (missing %s) under %s"
            % (", ".join(missing), ROOT))
        sys.exit(2)


def run_logged(argv, log_path, timeout):
    with open(log_path, "ab") as out:
        subprocess.run(argv, stdout=out, stderr=subprocess.STDOUT,
                       cwd=ROOT, timeout=timeout, check=True)


def build():
    """Configures once, then (re)builds the tools; returns their paths."""
    cmake_dir = os.path.join(BUILD_DIR, "cmake")
    os.makedirs(cmake_dir, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    if not os.path.exists(os.path.join(cmake_dir, "CMakeCache.txt")):
        run_logged(["cmake", "-S", HERE, "-B", cmake_dir,
                    "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE], build_log, 300)
    jobs = str(min(4, os.cpu_count() or 1))
    run_logged(["cmake", "--build", cmake_dir, "--target"] + TOOL_TARGETS
               + ["-j", jobs], build_log, 840)
    tools = os.path.join(cmake_dir, "tools")
    return {
        "gen": os.path.join(tools, "netout_gen"),
        "shard": os.path.join(tools, "netout_shard"),
        "index": os.path.join(tools, "netout_index"),
        "serve": os.path.join(tools, "netout_serve"),
        "bench": os.path.join(cmake_dir, "perfbench_tool"),
    }


def prepare(tools, seed):
    """Seeded inputs, cached per (seed, scale); none of this is timed."""
    data_root = os.path.join(BUILD_DIR, "data")
    data = os.path.join(data_root, "seed%d-scale%d" % (seed, SCALE))
    ready = os.path.join(data, "READY")
    if os.path.exists(ready):
        os.utime(ready)
        return data
    tmp = data + ".tmp"
    shutil.rmtree(tmp, ignore_errors=True)
    os.makedirs(tmp)
    prep_log = os.path.join(tmp, "prepare.log")
    graph = os.path.join(tmp, "graph.hin")
    log("preparing inputs for seed %d at scale %d" % (seed, SCALE))
    run_logged([tools["gen"], "--kind=biblio", "--scale=%d" % SCALE,
                "--seed=%d" % seed, "--out=" + graph], prep_log, 120)
    run_logged([tools["shard"], "build", graph, os.path.join(tmp, "shard")],
               prep_log, 120)
    run_logged([tools["index"], graph, "--type=pm",
                "--roots=author,venue,term",
                "--out=" + os.path.join(tmp, "pm.idx")], prep_log, 120)
    run_logged([tools["bench"], "prepare", graph, tmp, "--seed=%d" % seed],
               prep_log, 120)
    run_logged([tools["bench"], "expect", graph,
                os.path.join(tmp, "pool.ndjson"),
                os.path.join(tmp, "pool.expected")],
               prep_log, 120)
    with open(os.path.join(tmp, "READY"), "w") as f:
        f.write("seed=%d scale=%d\n" % (seed, SCALE))
    shutil.rmtree(data, ignore_errors=True)
    os.rename(tmp, data)
    prune_data(data_root)
    return data


def prune_data(data_root):
    entries = []
    for name in os.listdir(data_root):
        ready = os.path.join(data_root, name, "READY")
        if os.path.exists(ready):
            entries.append((os.path.getmtime(ready), name))
    for _, name in sorted(entries, reverse=True)[KEEP_SEEDS:]:
        shutil.rmtree(os.path.join(data_root, name), ignore_errors=True)


def read_lines(path):
    with open(path, "rb") as f:
        return [line.rstrip(b"\n") for line in f if line.strip()]


def shard_budget_mb(shard_dir):
    """A quarter of the segment bytes the shard directory maps, in MiB."""
    total = sum(os.path.getsize(os.path.join(shard_dir, name))
                for name in os.listdir(shard_dir)
                if not name.startswith("MANIFEST"))
    return max(1, round(total / 4 / (1 << 20)))


def source_fingerprint():
    """The git commit when there is one, else a hash of the sources."""
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0:
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    digest = hashlib.sha256()
    for top in ["CMakeLists.txt", "src", "tools", "perfbench"]:
        path = os.path.join(ROOT, top)
        files = [path] if os.path.isfile(path) else sorted(
            os.path.join(d, f) for d, dirs, fs in os.walk(path)
            for f in fs if "__pycache__" not in d)
        for name in files:
            digest.update(os.path.relpath(name, ROOT).encode())
            with open(name, "rb") as f:
                digest.update(f.read())
    return "sources-sha256:" + digest.hexdigest()[:16]


def outliers_bytes(line):
    """The bytes of the "outliers":[...] member of a result line."""
    start = line.find(b'"outliers":[')
    if start < 0:
        return None
    depth = 0
    in_string = False
    escaped = False
    for i in range(start + len(b'"outliers":'), len(line)):
        c = line[i]
        if in_string:
            if escaped:
                escaped = False
            elif c == 0x5C:  # backslash
                escaped = True
            elif c == 0x22:  # quote
                in_string = False
        elif c == 0x22:
            in_string = True
        elif c == 0x5B:  # [
            depth += 1
        elif c == 0x5D:  # ]
            depth -= 1
            if depth == 0:
                return line[start:i + 1]
    return None


def reply_latency_ms(reply):
    """The server's own "latency_ms" member of a query reply."""
    key = b'"latency_ms":'
    start = reply.find(key, 0, 96)
    if start < 0:
        return None
    start += len(key)
    end = start
    while end < len(reply) and reply[end] in b"0123456789.eE+-":
        end += 1
    return float(reply[start:end])


class Server:
    """One netout_serve process; set-up time ends at its "listening on"."""

    def __init__(self, argv, log_path):
        self._log = open(log_path, "ab")
        started = time.perf_counter()
        self.proc = subprocess.Popen(argv, stdout=subprocess.PIPE,
                                     stderr=self._log, cwd=ROOT)
        try:
            line = self._read_ready_line(timeout_s=120)
            self.setup_s = time.perf_counter() - started
            self.port = int(line.rsplit(":", 1)[1])
        except BaseException:
            self.stop()
            raise

    @property
    def pid(self):
        return self.proc.pid

    def _read_ready_line(self, timeout_s):
        with selectors.DefaultSelector() as sel:
            sel.register(self.proc.stdout, selectors.EVENT_READ)
            if not sel.select(timeout=timeout_s):
                raise TimeoutError("netout_serve did not start")
        line = self.proc.stdout.readline().decode().strip()
        if not line.startswith("listening on "):
            raise RuntimeError("netout_serve failed to start: %r" % line)
        return line

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.proc.stdout.close()
        self._log.close()


def read_text(path):
    with open(path) as f:
        return f.read()


def stats_request(loop):
    reply = loop.request(b'{"op":"stats"}').reply
    return json.loads(reply)["stats"]


def counting(lines, sent):
    """Yields (index, line) over `lines`, counting sends per op kind."""
    for index, line in enumerate(lines):
        kind = op_kind(line)
        sent[kind] = sent.get(kind, 0) + 1
        sent["lines"] = index + 1
        yield index, line


def is_ok(reply):
    return reply.startswith(b'{"ok":true')


def query_ok(completion, expected):
    """ok:true, not degraded, and, when `expected` (request line ->
    outliers bytes) is given, byte-identical outliers."""
    reply = completion.reply
    if not is_ok(reply) or b'"degraded":true' in reply:
        return False
    if expected is None:
        return True
    want = expected.get(completion.line)
    return want is not None and outliers_bytes(reply) == want


def op_kind(line):
    return "add_edge" if line.startswith(b'{"op":"add_edge"') else "query"


def serve_and_measure(name, tools, data, seconds, run_dir):
    """The untraced, closed-loop run against netout_serve."""
    config = WORKLOADS[name]
    graph = os.path.join(data, "shard" if config["shard"] else "graph.hin")
    argv = [tools["serve"], graph, "--threads=%d" % SERVER_THREADS]
    if config["shard"]:
        argv.append("--graph-budget-mb=%d"
                    % shard_budget_mb(os.path.join(data, "shard")))
    if config["index"]:
        argv += ["--pm=" + os.path.join(data, "pm.idx"),
                 "--cache=%d" % CACHE_MB]
    stream = read_lines(os.path.join(data, config["stream"]))
    read_only = not config["index"]
    expected = None
    if read_only:
        expected = dict(zip(
            read_lines(os.path.join(data, "pool.ndjson")),
            (outliers_bytes(l) for l in
             read_lines(os.path.join(data, "pool.expected")))))

    server_log = os.path.join(run_dir, "server.log")
    setups = []
    server = None
    for attempt in range(SETUP_REPEATS):
        server = Server(argv, server_log)
        setups.append(server.setup_s)
        if attempt < SETUP_REPEATS - 1:
            server.stop()
    account = measure.OpAccount()
    diag = {"setup_s_samples": setups, "server_argv": argv[1:]}
    proc_stat = "/proc/%d/stat" % server.pid
    clk_tck = os.sysconf("SC_CLK_TCK")
    try:
        sent = {}
        source = counting(stream, sent)
        with loadgen.ClosedLoop("127.0.0.1", server.port) as loop:
            warm_start = time.perf_counter_ns()
            warm = loop.run(
                source, lambda now: now >= warm_start + WARMUP_S * 1e9)
            warm_failed = sum(
                1 for c in warm
                if not (query_ok(c, expected) if op_kind(c.line) == "query"
                        else is_ok(c.reply)))
            stats0 = stats_request(loop)

            # The window is cut into BIN_S bins at /proc samples taken
            # between sends; the metrics come from its quiet bins.
            samples = []
            need = ["query"] + ([] if read_only else ["add_edge"])
            quiet = {"seconds": 0.0, "sent": dict.fromkeys(need, 0),
                     "done": False}

            def sample(now):
                samples.append((now, read_text("/proc/stat"),
                                read_text(proc_stat), dict(sent)))
                if len(samples) < 2:
                    return
                a, b = samples[-2], samples[-1]
                if measure.steal_share(a[1], b[1]) <= QUIET_STEAL:
                    quiet["seconds"] += (b[0] - a[0]) / 1e9
                    for k in need:
                        quiet["sent"][k] += b[3].get(k, 0) - a[3].get(k, 0)
                quiet["done"] = (quiet["seconds"] >= seconds * QUIET_SHARE
                                 and min(quiet["sent"].values())
                                 >= MIN_SAMPLES)

            start = time.perf_counter_ns()
            sample(start)
            next_edge = [start + BIN_S * 1e9]
            end = start + seconds * 1e9
            cap = start + WINDOW_CAP * seconds * 1e9

            def stop(now):
                if now >= next_edge[0]:
                    sample(now)
                    while next_edge[0] <= now:
                        next_edge[0] += BIN_S * 1e9
                return now >= cap or (now >= end and quiet["done"])

            def enough(selected):
                kinds = [op_kind(c.line) for b in selected
                         for c in b.completions]
                return all(kinds.count(k) >= MIN_SAMPLES for k in need)

            window = loop.run(source, stop)
            sample(time.perf_counter_ns())
            bins = measure.make_bins([x[:3] for x in samples], window,
                                     clk_tck)
            selected = measure.select_quiet(bins, enough, QUIET_STEAL,
                                            seconds * QUIET_SHARE)
            stats1 = stats_request(loop)
            if selected is None:
                raise RuntimeError("too few samples within %.0f s"
                                   % (WINDOW_CAP * seconds))

            # Read-only workloads time add_edge after the window, in
            # bursts: the first warms the write path; each of the others
            # gives its own p50 and p99, and their medians are reported.
            bursts = []
            if read_only:
                write_lines = read_lines(os.path.join(data, "writes.ndjson"))
                for b in range(WRITE_BURSTS + 1):
                    lines = [write_lines[(b * POST_WINDOW_WRITES + i)
                                         % len(write_lines)]
                             for i in range(POST_WINDOW_WRITES)]
                    host0 = read_text("/proc/stat")
                    done = loop.run(iter(enumerate(lines)))
                    bursts.append((measure.steal_share(
                        host0, read_text("/proc/stat")), b, done))
            probes = []
            if not read_only:
                probes = loop.run(iter(enumerate(
                    read_lines(os.path.join(data, "probes.ndjson")))))
            stats_end = stats_request(loop)
            rss_mb = measure.peak_rss_mb(server.pid)
    finally:
        server.stop()

    # Every reply is checked, inside the selected bins or not.
    writes = [c for _, _, done in bursts for c in done]
    for c in window:
        if op_kind(c.line) == "query":
            account.record("query", query_ok(c, expected))
        else:
            account.record("add_edge", is_ok(c.reply))
    for c in writes:
        account.record("add_edge", is_ok(c.reply))

    if probes:
        # The probe answers must match an engine over a MutableHin that
        # replays every add_edge this run sent.
        probe_out = os.path.join(run_dir, "probes.expected")
        run_logged([tools["bench"], "expect",
                    os.path.join(data, "graph.hin"),
                    os.path.join(data, "probes.ndjson"), probe_out,
                    "--mutations=" + os.path.join(data, config["stream"]),
                    "--mutation-ops=%d" % sent["lines"]],
                   os.path.join(run_dir, "expect.log"), 120)
        want = read_lines(probe_out)
        for c in probes:
            account.record("probe", is_ok(c.reply) and outliers_bytes(
                c.reply) == outliers_bytes(want[c.tag]))

    mutations_sent = sent.get("add_edge", 0) + len(writes)
    account.record("stats_mutations_ok",
                   stats_end["graph"]["mutations_ok"] == mutations_sent)

    measured = [c for b in selected for c in b.completions]
    queries = [c for c in measured if op_kind(c.line) == "query"]
    if read_only:
        mutation_sets = [done for _, _, done in bursts[1:]]
    else:
        mutation_sets = [[c for c in measured
                          if op_kind(c.line) == "add_edge"]]
    query_rt = [c.round_trip_ms for c in queries]
    p = {
        "query_p50": [measure.Percentile(query_rt, 0.50)],
        "query_p99": [measure.Percentile(query_rt, 0.99)],
    }
    for q, label in ((0.50, "mutation_p50"), (0.99, "mutation_p99")):
        p[label] = [measure.Percentile([c.round_trip_ms for c in done], q)
                    for done in mutation_sets]
    unreportable = [k for k, v in p.items()
                    if not all(x.reportable for x in v)]
    if unreportable:
        raise RuntimeError("too few samples for %s" % ", ".join(unreportable))
    value = {k: statistics.median([x.value for x in v]) for k, v in p.items()}
    selected_s = sum(b.seconds for b in selected)
    metrics = {
        "setup_s": statistics.median(setups),
        "queries_per_s": len(queries) / selected_s,
        "query_p50_ms": value["query_p50"],
        "query_p99_ms": value["query_p99"],
        "mutation_p50_ms": value["mutation_p50"],
        "mutation_p99_ms": value["mutation_p99"],
        "cpu_ms_per_op": sum(b.cpu_ms for b in selected) / len(measured),
        "peak_rss_mb": rss_mb,
    }
    diag.update({
        "window_s": (samples[-1][0] - start) / 1e9,
        "bins": len(bins),
        "bins_selected": len(selected),
        "selected_s": selected_s,
        "warmup_excluded": len(warm),
        "warmup_failed": warm_failed,
        "samples": {k: [x.count for x in v] for k, v in p.items()},
        "mutation_source": "post-window" if read_only else "window",
        "host_steal_share": measure.steal_share(samples[0][1],
                                                samples[-1][1]),
        "selected_max_bin_steal": max(b.steal for b in selected),
        "write_burst_steal": [s for s, _, _ in bursts],
    })
    return {
        "metrics": metrics, "account": account, "diag": diag,
        "queries": queries, "stats0": stats0, "stats1": stats1,
        "warm_failed": warm_failed,
    }


def span_ms(span):
    return (span["end_ns"] - span["start_ns"]) / 1e6


def trace_replay(name, tools, data, run_dir):
    """Replays the workload's inputs in-process; returns its spans."""
    config = WORKLOADS[name]
    stream = read_lines(os.path.join(data, config["stream"]))
    replay = []
    queries = 0
    for line in stream:
        if op_kind(line) == "query":
            if queries == TRACE_QUERIES:
                break
            queries += 1
        replay.append(line)
    if not config["index"]:
        # Read-only workloads send their writes after the window.
        replay += read_lines(os.path.join(data, "writes.ndjson"))[:TRACE_WRITES]
    requests = os.path.join(run_dir, "trace_requests.ndjson")
    with open(requests, "wb") as f:
        f.write(b"\n".join(replay) + b"\n")
    spans_path = os.path.join(run_dir, "spans.ndjson")
    graph = os.path.join(data, "shard" if config["shard"] else "graph.hin")
    argv = [tools["bench"], "trace", "--graph=" + graph,
            "--pm=" + os.path.join(data, "pm.idx"),
            "--requests=" + requests, "--spans=" + spans_path]
    if config["shard"]:
        argv.append("--graph-budget-mb=%d"
                    % shard_budget_mb(os.path.join(data, "shard")))
    if config["index"]:
        argv.append("--cache-mb=%d" % CACHE_MB)
    started = time.perf_counter()
    run_logged(argv, os.path.join(run_dir, "trace.log"), 150)
    log("traced replay took %.1f s" % (time.perf_counter() - started))
    with open(spans_path) as f:
        return [json.loads(line) for line in f]


def per_layer_metrics(served, spans, names):
    by_name = {}
    for span in spans:
        by_name.setdefault(span["name"], []).append(span)

    def med(name, scale):
        values = [span_ms(s) * scale for s in by_name.get(name, [])]
        if not values:
            raise RuntimeError("no %s spans in the trace" % name)
        return statistics.median(values)

    roots = {s["id"]: s for s in by_name["request"]}
    query_roots = [s for s in roots.values() if "template" in s]
    write_roots = [s for s in roots.values() if "rows_patched" in s]
    metrics = {
        "server.parse_request_us": med("server.parse_request", 1e3),
        "server.encode_us": med("server.encode", 1e3),
        "query.parse_us": med("query.parse", 1e3),
        "query.analyze_us": med("query.analyze", 1e3),
        "query.plan_us": med("query.plan", 1e3),
        "query.batch_fixed_ms": med("query.batch_of_one", 1)
                                - med("query.solo_execute", 1),
        "graph.load_s": med("graph.load", 1e-3),
        "index.load_s": med("index.load", 1e-3),
        "graph.commit_ms": med("graph.commit", 1),
        "index.apply_delta_ms": med("index.apply_delta", 1),
        "index.rows_patched_per_commit":
            sum(s["rows_patched"] for s in write_roots) / len(write_roots),
        "query.traced_wall_p50_ms":
            statistics.median([span_ms(s) for s in query_roots]),
    }
    for template in ("q1", "q2", "q3"):
        execs = [span_ms(s) for s in by_name["query.execute"]
                 if roots[s["parent"]]["template"] == template]
        for q, label in ((0.50, "p50"), (0.99, "p99")):
            value = measure.percentile(execs, q)
            if value is None:
                raise RuntimeError("too few %s samples for %s"
                                   % (template, label))
            metrics["query.exec_ms.%s.%s" % (template, label)] = value
    n = len(query_roots)
    for key, attr in (("metapath.index_hits_per_query", "index_hits"),
                      ("metapath.index_misses_per_query", "index_misses"),
                      ("metapath.vectors_materialized_per_query",
                       "vectors_materialized"),
                      ("measure.candidates_per_query", "candidates"),
                      ("measure.references_per_query", "references")):
        metrics[key] = sum(s[attr] for s in query_roots) / n

    # Server-side layers, from the served run: the replies' own
    # latency_ms and the STATS deltas across the measured window.
    queries = served["queries"]
    in_server = [reply_latency_ms(c.reply) for c in queries]
    outside = [c.round_trip_ms - l for c, l in zip(queries, in_server)]
    s0, s1 = served["stats0"], served["stats1"]
    d_queries = s1["queries"]["ok"] - s0["queries"]["ok"]
    d_batches = s1["queries"]["batches"] - s0["queries"]["batches"]
    d_mat = (s1["plan"]["vectors_materialized"]
             - s0["plan"]["vectors_materialized"])
    d_reused = s1["plan"]["vectors_reused"] - s0["plan"]["vectors_reused"]
    metrics.update({
        "server.batch_size_mean": d_queries / max(1, d_batches),
        "server.in_server_p99_ms": measure.percentile(in_server, 0.99),
        "server.outside_dispatch_p50_ms": statistics.median(outside),
        "query.vectors_reused_ratio": d_reused / max(1, d_mat + d_reused),
        "query.untraced_round_trip_p50_ms":
            served["metrics"]["query_p50_ms"],
    })
    cache0, cache1 = s0.get("cache"), s1.get("cache")
    if cache1 is not None:
        hits = cache1["hits"] - cache0["hits"]
        lookups = hits + cache1["misses"] - cache0["misses"]
        metrics["index.cache_hit_ratio"] = hits / lookups if lookups else 0.0
        metrics["index.cache_evictions"] = (cache1["evictions"]
                                            - cache0["evictions"])
    else:
        metrics["index.cache_hit_ratio"] = 0.0
        metrics["index.cache_evictions"] = 0
    st0, st1 = s0["storage"], s1["storage"]
    if st1.get("sharded"):
        metrics["graph.segment_faults_per_query"] = (
            (st1["faults"] - st0["faults"]) / max(1, d_queries))
        metrics["graph.segment_evictions_per_query"] = (
            (st1["evictions"] - st0["evictions"]) / max(1, d_queries))
        metrics["graph.resident_mb"] = st1["resident_bytes"] / (1 << 20)
    else:
        metrics["graph.segment_faults_per_query"] = 0.0
        metrics["graph.segment_evictions_per_query"] = 0.0
        metrics["graph.resident_mb"] = 0.0
    missing = [k for k in names if metrics.get(k) is None]
    if missing:
        raise RuntimeError("per-layer metrics missing: %s" % ", ".join(missing))
    return metrics


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=int)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be at least 1")
    check_source_tree()
    end_to_end, per_layer = load_metric_units()

    tools = build()
    data = prepare(tools, args.seed)
    run_dir = os.path.join(BUILD_DIR, "runs", "%s-seed%d-trace%d"
                           % (args.workload, args.seed, args.trace))
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)

    served = serve_and_measure(args.workload, tools, data, args.seconds,
                               run_dir)
    account = served["account"]
    if args.trace:
        spans = trace_replay(args.workload, tools, data, run_dir)
        metrics = per_layer_metrics(served, spans, per_layer)
        units = per_layer
    else:
        metrics = served["metrics"]
        units = end_to_end

    accounting = {
        "workload": args.workload, "seed": args.seed, "scale": SCALE,
        "seconds": args.seconds, "trace": args.trace,
        "ops": account.as_dict(),
        "nproc": len(os.sched_getaffinity(0)), "source": source_fingerprint(),
        "build_type": BUILD_TYPE, "server_threads": SERVER_THREADS,
        "connections": loadgen.MAX_CONNECTIONS,
        "held_out_seed": HELD_OUT_SEED,
    }
    accounting.update(served["diag"])
    if args.trace:
        accounting["spans_file"] = os.path.relpath(
            os.path.join(run_dir, "spans.ndjson"), ROOT)
    with open(os.path.join(run_dir, "accounting.json"), "w") as f:
        json.dump({"accounting": accounting, "metrics": metrics}, f, indent=1)
    for key in units:
        log("%-40s %14.4f %s" % (key, metrics[key], units[key]))
    correct = account.failed() == 0 and served["warm_failed"] == 0
    print(json.dumps({"accounting": accounting}))
    print(json.dumps({
        "correct": correct,
        "attempted": account.attempted(),
        "failed": account.failed(),
        "metrics": {k: {"value": metrics[k], "unit": units[k]}
                    for k in units},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except SystemExit:
        raise
    except BaseException:
        traceback.print_exc()
        sys.exit(1)
