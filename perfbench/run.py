#!/usr/bin/env python3
"""Benchmark of the tedge simulator: three workloads, end-to-end and per layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload c3-docker-steady --seed 1 --seconds 30 --trace 0

The first run builds perfbench_tedge (the C++ harness in this directory plus
the library from src/) into .bench_build/. A run then repeats one workload in
fresh processes for --seconds, each repetition with the same seed, checks
that every repetition produced the same simulated-result digest, and prints
a human-readable report followed by one JSON line: the end-to-end metrics
(--trace 0), or the per-layer metrics (--trace 1, which alternates untraced
and traced repetitions), each the median over the repetitions. See README.md.
"""

import argparse
import hashlib
import json
import os
import platform
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
BUILD = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD, "perfbench_tedge")

WORKLOADS = ("c3-docker-steady", "c3-k8s-churn", "cp-fill-sharded")
C3_WORKLOADS = ("c3-docker-steady", "c3-k8s-churn")

# name, unit, direction. The first four are the gated end-to-end metrics of
# BENCHMARK.json; the rest of REPORTED are printed but not gated (see README).
END_TO_END = [
    ("req_per_host_s", "1/s", "higher"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("completed_frac", "frac", "higher"),
]
REPORTED = END_TO_END + [
    ("failed_frac", "frac", "lower"),
    ("sim_p50_ms", "ms", "lower"),
    ("sim_p99_ms", "ms", "lower"),
]
SPANS = ("request", "packet_in", "flow_memory.recall", "schedule.decide",
         "flow.install", "deploy", "deploy.create", "deploy.scale_up",
         "deploy.wait_ready", "container.create", "container.start",
         "k8s.schedule_bind", "k8s.pod_start")
PER_LAYER = [
    ("simcore.events", "count", "lower"),
    ("simcore.events_per_req", "count", "lower"),
    ("simcore.host_ns_per_event", "ns", "lower"),
    ("simcore.wheel_refiles_per_event", "count", "lower"),
    ("sync.windows", "count", "lower"),
    ("sync.null_messages", "count", "lower"),
    ("sync.wakeups", "count", "lower"),
    ("sync.parks", "count", "lower"),
    ("sync.lane_busy_frac", "frac", "higher"),
    ("sync.lane_blocked_frac", "frac", "lower"),
    ("sync.lane_parked_frac", "frac", "lower"),
    ("net.packet_ins", "count", "lower"),
    ("net.flow_table_hit_ratio", "frac", "higher"),
    ("net.flow_table_entries", "count", "lower"),
    ("net.refused", "count", "lower"),
    ("net.dropped", "count", "lower"),
    ("sdn.memory_hit_ratio", "frac", "higher"),
    ("sdn.cloud_fallbacks", "count", "lower"),
    ("sdn.idle_scale_downs", "count", "lower"),
    ("sdn.handovers", "count", "lower"),
    ("sdn.resteers", "count", "lower"),
    ("sdn.flow_memory_flows", "count", "lower"),
    ("sdn.register_host_us", "us", "lower"),
    ("sdn.packet_in_host_ns_p50", "ns", "lower"),
    ("sdn.packet_in_host_ns_p99", "ns", "lower"),
    ("sdn.expire_host_s", "s", "lower"),
    ("sdn.idle_notifications", "count", "lower"),
    ("core.deployments", "count", "lower"),
    ("core.deploy_failures", "count", "lower"),
    ("core.deploy_sim_ms_p50", "ms", "lower"),
    ("core.wait_ready_sim_ms_p50", "ms", "lower"),
    ("container.prepull_host_s", "s", "lower"),
    ("k8s.binds", "count", "lower"),
    ("k8s.pods_started", "count", "lower"),
    ("trace.spans", "count", "lower"),
    ("trace.dropped", "count", "lower"),
    ("trace.overhead_frac", "frac", "lower"),
] + [("trace.self_sim_ms." + span, "ms", "lower") for span in SPANS] + [
    ("host.calibration_ms", "ms", "lower"),
]

MIN_REPS = 3       # medians need a few repetitions even on a slow host
REP_TIMEOUT_S = 120

# Host times are calibrated: each repetition also times a fixed loop
# (calibration.cpp) before and after the workload, and its host times are
# scaled by how much slower than CALIBRATION_REF_MS that loop ran. On a host
# whose speed drifts by tens of percent over minutes this takes the drift
# out of the comparison (README.md, "Steadiness"). The reference is the
# loop's median on the 4-vCPU Xeon VM the benchmark was defined on.
CALIBRATION_REF_MS = 12.5
HOST_TIMES = ("setup_s", "simcore.host_ns_per_event", "sdn.register_host_us",
              "sdn.packet_in_host_ns_p50", "sdn.packet_in_host_ns_p99",
              "sdn.expire_host_s", "container.prepull_host_s")
HOST_RATES = ("req_per_host_s",)


def fail(message):
    print("perfbench: " + message, file=sys.stderr)
    sys.exit(1)


def build():
    """Configure once, then let the build tool decide what is stale."""
    if not os.path.isfile(os.path.join(ROOT, "src", "CMakeLists.txt")):
        fail("no src/ tree next to perfbench/; run from the root of a checkout")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = []
    if not os.path.isfile(os.path.join(BUILD, "CMakeCache.txt")):
        steps.append(["cmake", "-S", HERE, "-B", BUILD, "-DCMAKE_BUILD_TYPE=Release"])
    steps.append(["cmake", "--build", BUILD, "-j", jobs])
    for step in steps:
        # Build chatter goes to stderr: stdout ends with the result line.
        if subprocess.run(step, stdout=sys.stderr, stderr=sys.stderr).returncode != 0:
            fail("build failed: " + " ".join(step))


def run_rep(workload, seed, traced=False, lanes=0):
    cmd = [BINARY, "--workload", workload, "--seed", str(seed)]
    if traced:
        cmd.append("--traced")
    if lanes:
        cmd += ["--lanes", str(lanes)]
    try:
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=REP_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s seed %d: repetition exceeded %d s" % (workload, seed, REP_TIMEOUT_S))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        fail("%s seed %d: perfbench_tedge exited with %d" % (workload, seed, proc.returncode))
    rep = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = rep["metrics"]
    slowdown = metrics["host.calibration_ms"] / CALIBRATION_REF_MS
    for name in HOST_TIMES + HOST_RATES:
        if name in metrics:
            metrics["raw." + name] = metrics[name]
            metrics[name] *= slowdown if name in HOST_RATES else 1 / slowdown
    return rep


def digest_difference(reference, other):
    """Name of the first digest field that differs, or None."""
    for field in sorted(set(reference) | set(other)):
        if reference.get(field) != other.get(field):
            return "%s: %s vs %s" % (field, reference.get(field), other.get(field))
    return None


def host_manifest(seed, kernel):
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo") as info:
            for line in info:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    sha = "none"
    if os.path.exists(os.path.join(ROOT, ".git")):
        try:
            sha = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"], capture_output=True,
                                 text=True, timeout=10).stdout.strip() or "none"
        except (OSError, subprocess.TimeoutExpired):
            pass
    # An exported tree has no git sha: fingerprint the sources as well.
    source = hashlib.sha256()
    for top in ("src", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                if name.endswith((".cpp", ".hpp", ".txt", ".py")):
                    path = os.path.join(dirpath, name)
                    source.update(os.path.relpath(path, ROOT).encode())
                    with open(path, "rb") as handle:
                        source.update(handle.read())
    return {
        "seed": seed,
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "machine": platform.machine(),
        "compiler": kernel["compiler"],
        "build_type": kernel["build_type"],
        "git_sha": sha,
        "source_sha256": source.hexdigest()[:16],
        "kernel_defaults": {
            "backend": kernel["backend"],
            "sync": kernel["sync"],
            "grain": kernel["grain"],
            "pin": kernel["pin"],
            "cp_fill_workers": min(4, kernel["hardware_concurrency"]),
        },
    }


def quartile_spread(values):
    if len(values) < 2:
        return 0.0
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / q2 if q2 else 0.0


def main():
    parser = argparse.ArgumentParser(description=__doc__,
                                     formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", type=float, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    overrides = sorted(k for k in os.environ if k.startswith("TEDGE_"))
    if overrides:
        fail("refusing to run with %s set; the benchmark measures the defaults"
             % ", ".join(overrides))

    build()

    # Repeat until the time is spent. --trace 1 alternates untraced and
    # traced repetitions so both see the same host conditions.
    untraced, traced = [], []
    start = time.monotonic()
    while (time.monotonic() - start < args.seconds or len(untraced) < MIN_REPS
           or (args.trace and len(traced) < MIN_REPS)):
        untraced.append(run_rep(args.workload, args.seed))
        if args.trace:
            traced.append(run_rep(args.workload, args.seed, traced=True))

    # ---- output checks
    problems = []
    reference = untraced[0]["digest"]
    for i, rep in enumerate(untraced[1:] + traced, start=1):
        diff = digest_difference(reference, rep["digest"])
        if diff:
            kind = "traced" if rep["traced"] else "untraced"
            problems.append("digest of %s repetition %d differs: %s" % (kind, i, diff))
    for rep in untraced + traced:
        if rep["resolved"] != rep["attempted"]:
            problems.append("%d of %d simulated requests never completed"
                            % (rep["attempted"] - rep["resolved"], rep["attempted"]))
            break
    if args.workload == "cp-fill-sharded":
        one_lane = run_rep(args.workload, args.seed, lanes=1)
        diff = digest_difference(reference, one_lane["digest"])
        if diff:
            problems.append("sharded digest differs from the same fill on 1 lane: " + diff)
        # Every arrival is a new client, and the sweep outlasts the idle
        # timeout: each flow is installed once and expired once.
        for field, expected in (("packet_ins", "flows_attempted"),
                                ("recall_misses", "flows_attempted"),
                                ("peak_flow_memory_flows", "flows_attempted"),
                                ("aggregated_idle_notifications", "idle_notifications")):
            if reference[field] != reference[expected]:
                problems.append("%s: %s, expected %s = %s" % (
                    field, reference[field], expected, reference[expected]))
        if reference["flow_memory_flows"] != "0":
            problems.append("flow_memory_flows: %s left after the expiry sweep"
                            % reference["flow_memory_flows"])

    def values(reps, name):
        return [rep["metrics"].get(name, 0.0) for rep in reps]

    def median(reps, name):
        return statistics.median(values(reps, name))

    if args.trace:
        metrics = {name: median(untraced, name) for name, _, _ in PER_LAYER}
        for name, _, _ in PER_LAYER:
            if name.startswith(("trace.", "k8s.")):
                metrics[name] = median(traced, name)
        metrics["trace.overhead_frac"] = (median(untraced, "req_per_host_s")
                                          / median(traced, "req_per_host_s") - 1.0)
        table = PER_LAYER
    else:
        metrics = {name: median(untraced, name) for name, _, _ in REPORTED}
        table = REPORTED

    # ---- report
    manifest = host_manifest(args.seed, untraced[0]["kernel"])
    print("perfbench %s seed=%d: %d untraced + %d traced repetitions in %.1f s"
          % (args.workload, args.seed, len(untraced), len(traced), time.monotonic() - start))
    print("manifest " + json.dumps(manifest, sort_keys=True))
    print("load open-loop: arrivals scheduled in simulated time, generator lateness 0")
    print("digest " + json.dumps(reference))
    for name, unit, better in table:
        if name.startswith("sim_p") and args.workload not in C3_WORKLOADS:
            continue
        detail = ""
        if not args.trace:
            reps = values(untraced, name)
            detail = "  median of %d, IQR/median %.3f, min %.6g, max %.6g" % (
                len(reps), quartile_spread(reps), min(reps), max(reps))
        print("metric %-36s %16.6g %-6s (%s is better)%s"
              % (name, metrics[name], unit, better, detail))
    if not args.trace:
        for name in ("req_per_host_s", "setup_s"):
            print("uncalibrated %-30s %16.6g (median; host.calibration_ms median %.4g, "
                  "reference %.4g)" % (name, median(untraced, "raw." + name),
                                        median(untraced, "host.calibration_ms"),
                                        CALIBRATION_REF_MS))
    for problem in problems:
        print("CHECK FAILED: " + problem)

    gated = PER_LAYER if args.trace else END_TO_END
    result = {
        "correct": not problems,
        "attempted": sum(rep["attempted"] for rep in untraced),
        "failed": sum(rep["failed"] + rep["attempted"] - rep["resolved"] for rep in untraced),
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit, _ in gated},
    }
    print(json.dumps(result))
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
