#!/usr/bin/env python3
"""End-to-end benchmark of ivm_server (see perfbench/README.md).

    python3 perfbench/run.py --workload closure_dred --seed 1 --seconds 30 --trace 0

Run from the root of a checkout.  Builds bin/ivm_server.exe and the
benchmark's own perfbench/ivmbench.exe with dune, then:

--trace 0  plays a fixed number of trials, sized so that a run takes
           about --seconds on the 2-core reference host and gives at least
           1000 latency samples of each op type.  --seconds sets an amount
           of work, not a deadline.  Trial i plays the op list generated
           from seed * 1000 + i: it starts the real server as a child
           process on the generated program, drives it from a separate
           load-generator process, stops it with SIGTERM, recovers its
           store in a third process and runs the correctness gate.
           Prints the end-to-end metrics.
--trace 1  one untraced and one traced (IVM_REQTRACE=1, --monitor) server
           trial and the traced in-process replay, all on --seed's op
           list.  Prints the per-layer metrics.

After the build, the run is pinned to one CPU, and every end-to-end
timing is scaled to the reference host's speed by calibration slices
timed around it (see README.md, "Host speed").

The last line of stdout is the result object.  The lines before it are
the host fingerprint and a table of the metrics with their sample counts.
"""

import sys

sys.dont_write_bytecode = True

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import re  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import socket  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import time  # noqa: E402
import urllib.request  # noqa: E402

WORK = ".perfbench_work"
SERVER = "_build/default/bin/ivm_server.exe"
BENCH = "_build/default/perfbench/ivmbench.exe"

# trials: trials per run at --seconds 30, scaled linearly with --seconds,
#   so a run's work depends only on --seed and --seconds, never on the
#   host's speed; about 30 s of wall time per run on the reference host;
# min_trials: enough trials for >= 1000 samples of each op type per run.
WORKLOADS = {
    "negation_counting": {"trials": 3, "min_trials": 3},
    "closure_dred": {"trials": 5, "min_trials": 4},
}
SECONDS_PER_RUN = 30

# Each trial's store is recovered this often, each time between two
# calibration windows: with one recovery per trial, recovery_s spread 0.10
# over five closure_dred runs, with two 0.06.
RECOVERIES = 2

# Mean time of one calibration slice (ivmbench.ml, calib_slice) on the
# 2-core reference host.  An end-to-end timing t, measured while the
# slices around it took c on average, is reported as t * REF_CALIB_S / c:
# the time it would have taken at the reference host's speed.
REF_CALIB_S = 0.00075

# The gated end-to-end metrics.  Tail percentiles are printed too (see
# TAILS) but not gated: on a shared 2-core host their run-to-run spread
# (interquartile range / median over ten seeds) measured 0.2-1.8, above
# the largest regression bound a gated metric may have (0.25).
END_TO_END = [
    ("throughput_ops_s", "1/s"),
    ("apply_p50_ms", "ms"),
    ("query_p50_ms", "ms"),
    ("setup_s", "s"),
    ("recovery_s", "s"),
    ("server_peak_rss_mb", "MB"),
    ("ok_op_share", "share"),
]

TAILS = [("apply_p95_ms", "ms"), ("apply_p99_ms", "ms"),
         ("query_p95_ms", "ms"), ("query_p99_ms", "ms")]

SERVE_STAGES = ["decode", "queue", "normalize", "wal_append", "maintain",
                "group_wait", "fsync", "publish", "ack", "query"]

PER_LAYER = [
    ("core.maintain_us", "us"),
    ("core.normalize_us", "us"),
    ("core.minor_words_per_batch", "words"),
    ("core.replay_s", "s"),
    ("eval.derivations_per_batch", "count"),
    ("eval.probes_per_batch", "count"),
    ("eval.tuples_scanned_per_batch", "count"),
    ("eval.query_us", "us"),
    ("eval.query_rows", "count"),
    ("eval.index_builds", "count"),
    ("eval.materialize_s", "s"),
    ("store.snapshot_write_s", "s"),
    ("store.snapshot_bytes", "bytes"),
    ("store.wal_append_us", "us"),
    ("store.fsync_us", "us"),
    ("store.wal_bytes_per_batch", "bytes"),
    ("store.fsync_floor_us", "us"),
    ("store.open_s", "s"),
    ("serve.publish_us", "us"),
    ("serve.patched_tuples_per_group", "count"),
    ("serve.publish_full_copies", "count"),
] + [("serve.stage.%s_us" % s, "us") for s in SERVE_STAGES] + [
    ("serve.unattributed_share", "share"),
    ("wire.apply_request_bytes", "bytes"),
    ("wire.apply_reply_bytes", "bytes"),
    ("wire.query_request_bytes", "bytes"),
    ("wire.query_reply_bytes", "bytes"),
    ("wire.encode_us", "us"),
    ("wire.decode_us", "us"),
    ("obs.tracing_overhead_share", "share"),
]


class BenchError(Exception):
    pass


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def run_tool(args, timeout=120):
    """Run ivmbench; return the JSON object on its last stdout line."""
    p = subprocess.run([BENCH] + [str(a) for a in args], capture_output=True,
                       text=True, timeout=timeout)
    lines = p.stdout.strip().splitlines()
    if p.returncode != 0 or not lines:
        raise BenchError("ivmbench %s failed (%d): %s"
                         % (args[0], p.returncode, p.stderr.strip()[-2000:]))
    return json.loads(lines[-1])


def build():
    env = dict(os.environ, DUNE_CACHE="disabled", TMPDIR=os.path.abspath(WORK))
    p = subprocess.run(["dune", "build", "--root", ".", "./bin/ivm_server.exe",
                        "./perfbench/ivmbench.exe"],
                       capture_output=True, text=True, env=env, timeout=880)
    if p.returncode != 0:
        raise BenchError("build failed:\n" + p.stderr[-4000:])


# ------------------------------------------------------------------ host

def calibrate():
    """Mean slice time of one calibration window (about 0.3 s): the
    host's current speed."""
    return statistics.mean(run_tool(["calib"])["calib_s"])


def pin_to_one_cpu():
    """Server, load generator and recovery then share one CPU: a request
    wakes its handler on the CPU it was sent from, and the calibration
    slices run on the CPU they calibrate."""
    cpu = max(os.sched_getaffinity(0))
    os.sched_setaffinity(0, {cpu})
    return cpu


def fsync_floor_us():
    """Median of raw 4 KiB write + fsync on the store's filesystem."""
    path = os.path.join(WORK, "fsync_floor")
    block = b"\0" * 4096
    samples = []
    fd = os.open(path, os.O_WRONLY | os.O_CREAT | os.O_TRUNC, 0o644)
    try:
        for _ in range(25):
            t0 = time.perf_counter()
            os.write(fd, block)
            os.fsync(fd)
            samples.append((time.perf_counter() - t0) * 1e6)
    finally:
        os.close(fd)
        os.remove(path)
    return statistics.median(samples)


def cpu_model():
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


# ---------------------------------------------------------------- server

class Server:
    """ivm_server as a child process, on a fresh durable store."""

    def __init__(self, workload, seed, tag, traced):
        self.dir = os.path.join(WORK, "store_" + tag)
        shutil.rmtree(self.dir, ignore_errors=True)
        program = os.path.join(WORK, "program_%s.dl" % tag)
        run_tool(["program", "--workload", workload, "--seed", seed, "--out", program])
        self.cmd = [SERVER, program, "--durable", self.dir, "--port", "0",
                    "--readers", "1"]
        if traced:
            self.cmd += ["--monitor", "0"]
        env = dict(os.environ, IVM_REQTRACE="1" if traced else "0")
        self.stderr = open(os.path.join(WORK, "server_%s.err" % tag), "w")
        calib_before = calibrate()
        t0 = time.perf_counter()
        self.proc = subprocess.Popen(self.cmd, stdout=subprocess.PIPE,
                                     stderr=self.stderr, text=True, env=env)
        self.port = self.monitor = None
        try:
            while self.port is None:
                line = self.proc.stdout.readline()
                if not line:
                    raise BenchError("server exited during set-up")
                m = re.search(r"monitoring on http://127\.0\.0\.1:(\d+)", line)
                if m:
                    self.monitor = int(m.group(1))
                m = re.search(r"serving on [^:]+:(\d+)", line)
                if m:
                    self.port = int(m.group(1))
            socket.create_connection(("127.0.0.1", self.port), timeout=30).close()
        except BaseException:
            self.kill()
            raise
        self.setup_s = time.perf_counter() - t0
        self.setup_calib_s = (calib_before + calibrate()) / 2

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the server")

    def scrape(self):
        with urllib.request.urlopen("http://127.0.0.1:%d/metrics" % self.monitor,
                                    timeout=30) as r:
            return r.read().decode()

    def stop(self):
        """SIGTERM: drain, commit, exit cleanly."""
        self.proc.send_signal(signal.SIGTERM)
        try:
            out, _ = self.proc.communicate(timeout=60)
        finally:
            self.kill()
        if self.proc.returncode != 0:
            raise BenchError("server exited with %d" % self.proc.returncode)
        return out

    def kill(self):
        if self.proc.poll() is None:
            self.proc.kill()
            self.proc.wait()
        self.stderr.close()


def trial(workload, seed, tag, traced=False):
    """One fixed op list against a fresh server; then recovery + gate."""
    srv = Server(workload, seed, tag, traced)
    answers = os.path.join(WORK, "answers_%s.txt" % tag)
    try:
        load = run_tool(["load", "--workload", workload, "--seed", seed,
                         "--port", srv.port, "--answers", answers])
        rss = srv.peak_rss_mb()
        scraped = srv.scrape() if traced else None
        srv.stop()
    finally:
        srv.kill()
    # recoveries between calibration windows: [(seconds, mean slice)]
    recoveries, errors = [], []
    calib = [calibrate()]
    for _ in range(RECOVERIES):
        rec = run_tool(["recover", "--workload", workload, "--seed", seed,
                        "--dir", srv.dir, "--answers", answers])
        calib.append(calibrate())
        recoveries.append((rec["recovery_s"], (calib[-2] + calib[-1]) / 2))
        errors += rec["errors"]
    shutil.rmtree(srv.dir, ignore_errors=True)
    return {"setup_s": srv.setup_s, "setup_calib_s": srv.setup_calib_s,
            "rss_mb": rss, "load": load, "recoveries": recoveries,
            "errors": errors, "prometheus": scraped, "cmd": srv.cmd}


# --------------------------------------------------------------- metrics

def pct(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, min(len(sorted_vals) - 1, int(round(p * len(sorted_vals) + 0.5)) - 1))
    return sorted_vals[k]


def speed(calib_s, scaled=True):
    """The factor that scales a time, measured while calibration slices
    took calib_s on average, to the reference host's speed; 1 if not
    scaled."""
    return REF_CALIB_S / calib_s if scaled else 1.0


def throughput(t, scaled=True):
    """Completed ops per second of the timed (post-warm-up) op list."""
    load = t["load"]
    busy = load["busy_s"] * speed(statistics.mean(load["calib_s"]), scaled)
    return (load["timed"] - load["timed_failed"]) / busy


def end_to_end(trials, scaled=True):
    """{metric: (value, samples)} over a run's trials, with every timing
    at the reference host's speed unless scaled is False."""
    applies, queries = [], []
    for t in trials:
        f = speed(statistics.mean(t["load"]["calib_s"]), scaled)
        applies += [x * f for x in t["load"]["apply_ns"]]
        queries += [x * f for x in t["load"]["query_ns"]]
    applies.sort()
    queries.sort()
    attempted = sum(t["load"]["attempted"] for t in trials)
    failed = sum(t["load"]["failed"] for t in trials)
    n = len(trials)
    return {
        "throughput_ops_s": (statistics.median(throughput(t, scaled) for t in trials), n),
        "apply_p50_ms": (pct(applies, 0.50) / 1e6, len(applies)),
        "apply_p95_ms": (pct(applies, 0.95) / 1e6, len(applies)),
        "apply_p99_ms": (pct(applies, 0.99) / 1e6, len(applies)),
        "query_p50_ms": (pct(queries, 0.50) / 1e6, len(queries)),
        "query_p95_ms": (pct(queries, 0.95) / 1e6, len(queries)),
        "query_p99_ms": (pct(queries, 0.99) / 1e6, len(queries)),
        "setup_s": (statistics.median(t["setup_s"] * speed(t["setup_calib_s"], scaled)
                                      for t in trials), n),
        "recovery_s": (statistics.median(r * speed(c, scaled) for t in trials
                                         for r, c in t["recoveries"]),
                       n * RECOVERIES),
        "server_peak_rss_mb": (statistics.median(t["rss_mb"] for t in trials), n),
        "ok_op_share": ((attempted - failed) / attempted, attempted),
    }


def prometheus(text):
    """{(name, labels-string): value} from Prometheus text exposition."""
    out = {}
    for line in text.splitlines():
        if not line or line.startswith("#"):
            continue
        m = re.match(r"([A-Za-z_:][\w:]*)(\{[^}]*\})?\s+(\S+)", line)
        if m:
            out[(m.group(1), m.group(2) or "")] = float(m.group(3))
    return out


def per_layer(workload, seed, untraced, traced, floor_us):
    """{metric: (value, samples)}: the traced replay's metrics, then the
    traced server's stage means and closure check."""
    store = os.path.join(WORK, "replay_store")
    rep = run_tool(["replay", "--workload", workload, "--seed", seed, "--dir", store,
                    "--spans", os.path.join(WORK, "spans_%s.json" % workload)])
    shutil.rmtree(store, ignore_errors=True)
    m = {k: tuple(v) for k, v in rep["metrics"].items()}
    m["store.fsync_floor_us"] = floor_us
    prom = prometheus(traced["prometheus"])

    def sample(name, labels=""):
        return prom.get((name, labels), 0.0)

    for stage in SERVE_STAGES:
        lab = '{stage="%s"}' % stage
        n = sample("ivm_serve_stage_ns_count", lab)
        mean = sample("ivm_serve_stage_ns_sum", lab) / n / 1e3 if n else 0.0
        m["serve.stage.%s_us" % stage] = (mean, int(n))
    # the server's request histogram also holds the untimed warm-up applies
    client_apply_ns = traced["load"]["apply_ns"] + traced["load"]["warmup_apply_ns"]
    server_apply_ns = sample("ivm_serve_request_ns_sum", '{op="apply"}')
    m["serve.unattributed_share"] = (1.0 - server_apply_ns / sum(client_apply_ns),
                                     len(client_apply_ns))
    m["obs.tracing_overhead_share"] = (1.0 - throughput(traced) / throughput(untraced), 2)
    return m, rep["spans"]


# ------------------------------------------------------------------ main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=SECONDS_PER_RUN)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    a = ap.parse_args()

    shutil.rmtree(WORK, ignore_errors=True)
    os.makedirs(WORK)
    try:
        build()
        cpu = pin_to_one_cpu()
        calib_before = calibrate()
        floor_us = (fsync_floor_us(), 25)
        ocaml = run_tool(["info"])["ocaml"]
        if a.trace:
            trials = [trial(a.workload, a.seed, "untraced"),
                      trial(a.workload, a.seed, "traced", traced=True)]
            metrics, spans = per_layer(a.workload, a.seed, trials[0], trials[1],
                                       floor_us)
        else:
            w = WORKLOADS[a.workload]
            n = max(w["min_trials"], round(w["trials"] * a.seconds / SECONDS_PER_RUN))
            # each trial plays its own generated op list: a run averages
            # over n graphs, not one
            trials = [trial(a.workload, a.seed * 1000 + i, str(i)) for i in range(n)]
            metrics = end_to_end(trials)
            raw = end_to_end(trials, scaled=False)
        with open(os.path.join(WORK, "trials.json"), "w") as f:
            json.dump([{k: v for k, v in t.items() if k != "prometheus"} for t in trials], f)
        calib_after = calibrate()
    except (BenchError, subprocess.TimeoutExpired, OSError, ValueError) as e:
        log("perfbench: %s" % e)
        return 1

    attempted = sum(t["load"]["attempted"] for t in trials)
    failed = sum(t["load"]["failed"] for t in trials)
    errors = [e for t in trials for e in t["errors"]]
    for e in errors:
        log("perfbench: correctness gate: %s" % e)
    host = {
        "nproc": os.cpu_count(),
        "cpu_model": cpu_model(),
        "ocaml": ocaml,
        "store.fsync_floor_us": round(floor_us[0], 3),
        "server_cmd": " ".join(trials[0]["cmd"]),
        "pinned_cpu": cpu,
        "calib_ref_ms": REF_CALIB_S * 1e3,
        "calib_before_ms": round(calib_before * 1e3, 4),
        "calib_after_ms": round(calib_after * 1e3, 4),
        "trials": len(trials),
    }
    print(json.dumps({"host": host}))
    if a.trace:
        for name, s in sorted(spans.items()):
            print("span %-24s n=%-6d total %.6fs self %.6fs"
                  % (name, s["n"], s["total_s"], s["self_s"]))
    else:
        print("%-34s %16s %-11s %-8s %16s" % ("metric", "value", "unit", "n",
                                              "as measured"))
    result_metrics = {}
    for name, unit in PER_LAYER if a.trace else END_TO_END + TAILS:
        v, n = metrics[name]
        if (name, unit) not in TAILS:
            result_metrics[name] = {"value": v, "unit": unit}
        line = "%-34s %16.6f %-11s n=%-6d" % (name, v, unit, n)
        if not a.trace:
            line += " %16.6f" % raw[name][0]
        print(line)
    print(json.dumps({"correct": not errors and failed == 0,
                      "attempted": attempted, "failed": failed,
                      "metrics": result_metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
