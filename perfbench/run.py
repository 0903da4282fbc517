#!/usr/bin/env python3
"""EBV pipeline benchmark driver.

Builds the library, `ebvpart` and the `ebvbench` harness from source, makes
one workload's input from --seed, measures it for about --seconds and prints
one JSON result as the last stdout line:

    python3 perfbench/run.py --workload powerlaw-pr --seed 1 --seconds 30 --trace 0

--trace 0 reports the end-to-end metrics of BENCHMARK.json (tracing off);
--trace 1 reports its per-layer metrics from a run that alternates untraced
and traced jobs. Workload sizes, the serve ladder and the p99 limit are in
perfbench/config.json. Run from the repository root; only the standard
library is used.
"""

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DEADLINE_S = 150.0  # everything after the build


class BenchError(Exception):
    pass


def build(build_dir):
    """Configure and build (incremental after the first run); returns the
    binary paths."""
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    with open(log_path, "w") as log:
        steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
                 ["cmake", "--build", build_dir, "-j4", "--target", "ebvbench", "ebvpart"]]
        for step in steps:
            if subprocess.run(step, stdout=log, stderr=subprocess.STDOUT).returncode:
                with open(log_path) as f:
                    sys.stderr.write(f.read()[-4000:])
                raise BenchError("build failed: " + " ".join(step))
    return (os.path.join(build_dir, "ebvbench"),
            os.path.join(build_dir, "ebv", "ebvpart"))


def run_tool(argv, cwd, deadline):
    """Run one harness process in its own session; returns its JSON line."""
    remaining = deadline - time.monotonic()
    if remaining <= 0:
        raise BenchError("time budget exhausted before " + argv[1])
    proc = subprocess.Popen(argv, cwd=cwd, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, text=True,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=remaining)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(argv[1] + " timed out")
    finally:
        # The serve harness reaps its daemon; this catches any straggler.
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        sys.stderr.write(err[-4000:])
        raise BenchError(argv[1] + " exited with " + str(proc.returncode))
    lines = out.strip().splitlines()
    if not lines:
        raise BenchError(argv[1] + " printed nothing")
    return json.loads(lines[-1])


def graph_args(graph):
    args = ["--family", graph["family"]]
    for key in ("vertices", "edges", "exponent"):
        if key in graph:
            args += ["--" + key, str(graph[key])]
    return args


def trace_layers(work, count):
    """Per-layer numbers from the traced jobs' Chrome trace files."""
    phases = ("compute", "route", "merge", "broadcast", "install")
    per_job = {name: [] for name in phases + ("steal", "park")}
    supersteps_ms = []
    for k in range(count):
        with open(os.path.join(work, "trace-%d.json" % k)) as f:
            events = json.load(f)["traceEvents"]
        sums = dict.fromkeys(per_job, 0.0)
        for e in events:
            name = e.get("name")
            if e.get("ph") == "X" and name in phases:
                sums[name] += e["dur"] / 1e6
            elif e.get("ph") == "X" and name == "superstep":
                supersteps_ms.append(e["dur"] / 1e3)
            elif e.get("ph") == "i" and name in ("steal", "park"):
                sums[name] += 1
        for name, value in sums.items():
            per_job[name].append(value)
    out = {"bsp.%s_s" % p: statistics.median(per_job[p]) for p in phases}
    out["bsp.steals"] = statistics.median(per_job["steal"])
    out["bsp.parks"] = statistics.median(per_job["park"])
    out["bsp.superstep_p50_ms"] = percentile(supersteps_ms, 0.50)
    out["bsp.superstep_p95_ms"] = percentile(supersteps_ms, 0.95)
    return out


def percentile(samples, q):
    """Nearest-rank percentile, lowered until at least ten samples lie
    beyond it (the median when fewer than twenty samples exist)."""
    values = sorted(samples)
    n = len(values)
    if n == 0:
        return 0.0
    q = min(q, 1.0 - 10.0 / n) if n >= 20 else 0.5
    rank = max(1, int(-(-q * n // 1)))
    return values[min(n, rank) - 1]


def cpu_times():
    """Aggregate /proc/stat CPU jiffies: (steal, total)."""
    try:
        with open("/proc/stat") as f:
            fields = [int(x) for x in f.readline().split()[1:]]
    except OSError:
        return 0, 0
    return (fields[7] if len(fields) > 7 else 0), sum(fields)


def fingerprint(build_dir):
    compiler = "unknown"
    cache = os.path.join(build_dir, "CMakeCache.txt")
    if os.path.exists(cache):
        with open(cache) as f:
            for line in f:
                if line.startswith("CMAKE_CXX_COMPILER:"):
                    path = line.split("=", 1)[1].strip()
                    ver = subprocess.run([path, "--version"], capture_output=True,
                                         text=True).stdout.splitlines()
                    compiler = ver[0] if ver else path
    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    git_sha = None
    try:
        top = subprocess.run(["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
                             capture_output=True, text=True).stdout.split()
        if len(top) == 2 and os.path.realpath(top[0]) == os.path.realpath(ROOT):
            git_sha = top[1]
    except OSError:
        pass  # no git, or a checkout exported without history
    digest = hashlib.sha256()
    for top in ("src", "tools", "perfbench"):
        for dirpath, dirnames, filenames in sorted(os.walk(os.path.join(ROOT, top))):
            dirnames.sort()
            for name in sorted(filenames):
                with open(os.path.join(dirpath, name), "rb") as f:
                    digest.update(name.encode() + f.read())
    return {"nproc": os.cpu_count(), "cpu_model": cpu, "compiler": compiler,
            "git_sha": git_sha,
            "source_sha256": digest.hexdigest()}


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="tiny inputs, one rep each, no timing budget")
    opts = parser.parse_args()
    started = time.monotonic()

    with open(os.path.join(HERE, "config.json")) as f:
        config = json.load(f)
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        spec = json.load(f)
    if opts.workload not in config["workloads"]:
        raise BenchError("unknown workload " + opts.workload)
    wl = config["workloads"][opts.workload]
    serve_cfg = dict(config["serve"])
    graph = wl["graph"]
    seconds = opts.seconds
    setup_reps, min_jobs = config["setup_reps"][wl["setup"]], config["min_jobs"]
    if opts.smoke:
        smoke = config["smoke"]
        graph = smoke["graphs"][graph["family"]]
        seconds, setup_reps, min_jobs = smoke["seconds"], smoke["setup_reps"], smoke["min_jobs"]
        serve_cfg["rates_rps"] = smoke["rates_rps"]
        serve_cfg["rung_requests"] = smoke["rung_requests"]
        serve_cfg["capacity_requests"] = smoke["capacity_requests"]

    build_dir = os.path.join(os.environ.get("CARGO_TARGET_DIR", os.path.join(ROOT, ".bench_build")),
                             "perfbench")
    ebvbench, ebvpart = build(os.path.abspath(build_dir))
    deadline = time.monotonic() + DEADLINE_S

    steal0, total0 = cpu_times()
    work = os.path.abspath(os.path.join(ROOT, ".bench_work",
                                        "%s-%d-%d" % (opts.workload, opts.seed, os.getpid())))
    os.makedirs(work)
    try:
        run_tool([ebvbench, "gen", "--seed", str(opts.seed), "--out", "edges.txt"]
                 + graph_args(graph), work, deadline)
        job_budget = seconds * wl["job_share"]
        job = run_tool([ebvbench, "job", "--text", "edges.txt", "--work", ".",
                        "--app", wl["app"], "--parts", str(wl["parts"]),
                        "--team", str(config["team"]), "--seconds", str(job_budget),
                        "--setup-reps", str(setup_reps if wl["setup"] == "convert" else 1),
                        "--min-jobs", str(min_jobs), "--trace", str(opts.trace)],
                       work, deadline)
        rates = serve_cfg["rates_rps"]
        # Every rung of a pass sends the same number of requests, and the
        # closed-loop pass runs at least as fast as the top rung; as many
        # passes as fit the serve share of the time budget.
        per_pass_s = (sum(serve_cfg["rung_requests"] / r for r in rates)
                      + serve_cfg["capacity_requests"] / rates[-1])
        passes = max(1, int(seconds * (1.0 - wl["job_share"]) / per_pass_s))
        served = run_tool([ebvbench, "serve", "--ebvpart", ebvpart,
                           "--snapshot", "graph.ebvs", "--ebvp", "graph.ebvp",
                           "--socket", "s.sock", "--log", "daemon.log",
                           "--workers", str(serve_cfg["workers"]),
                           "--queues", serve_cfg["queues"],
                           "--rates", ",".join(str(r) for r in rates),
                           "--rung-requests", str(serve_cfg["rung_requests"]),
                           "--capacity-requests", str(serve_cfg["capacity_requests"]),
                           "--window", str(serve_cfg["window"]),
                           "--passes", str(passes),
                           "--p99-limit-ms", str(serve_cfg["p99_limit_ms"]),
                           "--setup-reps", str(setup_reps if wl["setup"] == "serve" else 0),
                           "--seed", str(opts.seed)],
                          work, deadline)
        traced = trace_layers(work, int(job.get("trace_files", 0))) if opts.trace else {}
    finally:
        shutil.rmtree(work, ignore_errors=True)

    steal1, total1 = cpu_times()
    # Which process stands for the workload's set-up and memory: the batch
    # job (convert + open/validate) or the serve daemon (spawn to ping).
    owner = job if wl["setup"] == "convert" else served
    values = {}
    values.update(served)
    values.update(job)
    values.update(traced)
    for key in ("setup_s", "peak_rss_mb", "proc.minor_faults", "proc.major_faults"):
        values[key] = owner[key]

    wanted = spec["per_layer"] if opts.trace else spec["end_to_end"]
    metrics = {}
    for m in wanted:
        value = values.get(m["name"])
        if value is None:
            raise BenchError("metric %s was not measured" % m["name"])
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
    attempted = int(job["attempted"] + served["attempted"])
    failed = int(job["failed"] + served["failed"])
    record = {"workload": opts.workload, "seed": opts.seed, "trace": opts.trace,
              "host": fingerprint(os.path.abspath(build_dir)),
              "jobs": job.get("jobs"), "failures": job["failures"] + served["failures"],
              "elapsed_s": round(time.monotonic() - started, 3),
              # Share of CPU time the hypervisor took while measuring: a
              # noisy-neighbour indicator for reading the timings.
              "steal_share": round((steal1 - steal0) / max(1, total1 - total0), 4),
              "faults": {"job": {k: v for k, v in job.items() if k.startswith("proc.")},
                         "daemon": {k: v for k, v in served.items() if k.startswith("proc.")}},
              "ladder_p99_ms": {k: v for k, v in served.items() if k.startswith("rung.")}}
    print(json.dumps(record))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))


if __name__ == "__main__":
    try:
        main()
    except (BenchError, OSError, ValueError, KeyError) as e:
        sys.stderr.write("perfbench: %s\n" % e)
        sys.exit(1)
