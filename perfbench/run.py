#!/usr/bin/env python3
"""shedmon end-to-end benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Builds the library and perfbench/perfbench.cpp (Release, into
.bench_build/perfbench), runs the benchmark binary pinned to a fixed set of cores,
checks its outputs, prints a report, and prints one JSON object as the last
line of stdout: the end-to-end metrics with --trace 0, the per-layer metrics
of a traced run with --trace 1. See perfbench/README.md.
"""

import argparse
import json
import os
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.dont_write_bytecode = True  # leave nothing but .bench_build/ behind

import stats  # noqa: E402

BUILD_DIR = os.path.join(ROOT, ".bench_build", "perfbench")
BINARY = os.path.join(BUILD_DIR, "shedmon_perfbench")
BINARY_TIMEOUT_S = 170

WORKLOADS = ("overload-payload", "fullrate-headers", "capture-replay")
# How many cores the benchmark binary is pinned to.
PIN_CORES = {"overload-payload": 3, "fullrate-headers": 1, "capture-replay": 3}

END_TO_END = [
    ("setup_s", "s"),
    ("pkts_per_s", "1/s"),
    ("result_lag_p50_ms", "ms"),
    ("result_lag_p99_ms", "ms"),
    ("cpu_us_per_pkt", "us"),
    ("peak_rss_mb", "MB"),
    ("delivered_fraction", "ratio"),
    ("mean_accuracy", "ratio"),
    ("min_accuracy", "ratio"),
]

STAGE_METRICS = [
    ("api.sink_us_per_bin", "sink"),
    ("features.extraction_us_per_bin", "extraction"),
    ("predict.prediction_us_per_bin", "prediction"),
    ("shed.shed_decision_us_per_bin", "shed_decision"),
    ("query.query_us_per_bin", "query"),
    ("query.reference_us_per_bin", "reference"),
    ("exec.shard_us_per_bin", "shard"),
    ("exec.merge_us_per_bin", "merge"),
]

PER_LAYER = [
    ("api.push_ns_per_pkt", "ns"),
    ("api.ingest_copied_bytes_per_pkt", "B"),
    ("api.bin_close_ms_p50", "ms"),
    ("api.sink_us_per_bin", "us"),
    ("features.extraction_us_per_bin", "us"),
    ("predict.prediction_us_per_bin", "us"),
    ("predict.abs_error_ratio", "ratio"),
    ("shed.shed_decision_us_per_bin", "us"),
    ("shed.shed_fraction", "ratio"),
    ("query.query_us_per_bin", "us"),
    ("query.reference_us_per_bin", "us"),
    ("exec.shard_us_per_bin", "us"),
    ("exec.merge_us_per_bin", "us"),
    ("exec.tasks_per_bin", "count"),
    ("exec.busy_share", "ratio"),
    ("core.uncontrolled_drop_fraction", "ratio"),
    ("core.overload_bin_fraction", "ratio"),
    ("core.unaccounted_us_per_bin", "us"),
    ("net.decode_ns_per_pkt", "ns"),
    ("obs.tracing_overhead", "ratio"),
    ("obs.trace_spans_dropped", "count"),
]

# Capture front-end and generator layers. Only capture-replay runs them, and
# BENCHMARK.json does not list that workload (see README.md), so these are
# printed for capture-replay only and are not part of BENCHMARK.json.
CAPTURE_LAYER = [
    ("capture.drain_us_per_pkt", "us"),
    ("capture.dropped_queue", "count"),
    ("capture.dropped_no_slot", "count"),
    ("capture.dropped_late", "count"),
    ("capture.dropped_decode", "count"),
    ("gen.blocked_send_s", "s"),
]


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def build():
    if not os.path.isfile(os.path.join(ROOT, "CMakeLists.txt")) or not os.path.isdir(
        os.path.join(ROOT, "src")
    ):
        log("perfbench: no shedmon source tree next to perfbench/ (CMakeLists.txt, src/)")
        sys.exit(2)
    os.makedirs(BUILD_DIR, exist_ok=True)
    build_log = os.path.join(BUILD_DIR, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [
        ["cmake", "-S", HERE, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"],
        ["cmake", "--build", BUILD_DIR, "--target", "shedmon_perfbench", "-j", jobs],
    ]
    with open(build_log, "w") as out:
        for cmd in steps:
            if subprocess.run(cmd, stdout=out, stderr=subprocess.STDOUT).returncode != 0:
                with open(build_log) as f:
                    log("".join(f.readlines()[-30:]))
                log("perfbench: build failed (log: %s)" % build_log)
                sys.exit(1)


def steal_ticks():
    """Per-CPU steal ticks from /proc/stat ({} when unreadable)."""
    ticks = {}
    try:
        with open("/proc/stat") as f:
            for line in f:
                name, *fields = line.split()
                if name.startswith("cpu") and name[3:].isdigit() and len(fields) >= 8:
                    ticks[int(name[3:])] = int(fields[7])
    except OSError:
        pass
    return ticks


def pinned_cores(workload, probe_s=1.0):
    """The allowed cores the host disturbed least during a short probe.

    On a shared virtual machine some virtual CPUs lose much more time to the
    host than others at any moment; pinning to the quietest ones keeps that
    out of the measurement as far as the machine allows."""
    allowed = sorted(os.sched_getaffinity(0))
    before = steal_ticks()
    time.sleep(probe_s)
    after = steal_ticks()
    stolen = {c: after.get(c, 0) - before.get(c, 0) for c in allowed}
    quiet = sorted(allowed, key=lambda c: (stolen[c], c))
    return sorted(quiet[: min(PIN_CORES[workload], len(allowed))])


def run_binary(args, raw_path, cores):
    cmd = [
        BINARY,
        "--workload", args.workload,
        "--seed", str(args.seed),
        "--seconds", str(args.seconds),
        "--trace", str(args.trace),
        "--workdir", os.path.dirname(raw_path),
        "--out", raw_path,
    ]
    proc = subprocess.Popen(cmd, preexec_fn=lambda: os.sched_setaffinity(0, cores))
    try:
        code = proc.wait(timeout=BINARY_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        proc.kill()
        proc.wait()
        log("perfbench: binary exceeded %d s and was killed" % BINARY_TIMEOUT_S)
        return None, "timeout"
    if not os.path.isfile(raw_path):
        return None, "binary exited %d without output" % code
    with open(raw_path) as f:
        raw = json.load(f)
    if code != 0 and not raw.get("error"):
        raw["error"] = "binary exited %d" % code
    return raw, raw.get("error") or ""


# ---------------------------------------------------------------------------
# Checks
# ---------------------------------------------------------------------------


def check_passes(raw):
    """Marks every pass with its failed checks; returns the failed count.

    Per pass (in the binary): packet conservation, bin count, Stats() vs
    BinLogs, accuracy range, capture frames vs sent, capture vs offline Push.
    Across passes (here): every pass over the same input produces the same
    BinLogs and accuracies, traced or not, so the traced run is compared
    against the untraced one bin for bin (via the BinLog hash).
    """
    passes = raw["passes"]
    groups = {}
    for p in passes:
        p["failed"] = list(p["failed_checks"])
        if not p["rss_reset_ok"]:
            p["failed"].append("rss_reset")
        if p["kind"] in ("push", "offline"):
            groups.setdefault(p["kind"], []).append(p)
    for group in groups.values():
        ref = next((p for p in group if not p["traced"]), group[0])["binlog_hash"]
        for p in group:
            if p["binlog_hash"] != ref:
                p["failed"].append("binlogs_identical_across_passes")
    return sum(1 for p in passes if p["failed"])


# ---------------------------------------------------------------------------
# Metrics
# ---------------------------------------------------------------------------


def ratio(num, den):
    return num / den if den else 0.0


def stage_sum(p, stage):
    return p["stage_us"].get(stage, {}).get("sum", 0.0)


# Stages that run inside a bin close on the coordinator, besides query
# execution (see exec_us).
CLOSE_CHILDREN = ("extraction", "prediction", "shed_decision", "merge", "reference", "sink")


def exec_us(p, threads):
    """Coordinator time spent in query execution during bin closes: the
    waves' wall time when a pool runs them, the task spans when serial."""
    if threads > 0:
        return p["exec_wave_s"]["sum"] * 1e6
    return stage_sum(p, "query") + stage_sum(p, "shard")


def unaccounted_us(p, threads):
    """The part of the bin-close critical path no child stage covers."""
    children = sum(stage_sum(p, s) for s in CLOSE_CHILDREN) + exec_us(p, threads)
    return stage_sum(p, "bin_close") - children


def quiet_timing(passes):
    """Throughput, CPU per packet and result lags over the windows of the
    passes in which the host took no CPU time from the pinned cores (see
    stats.quiet_windows). On a shared virtual machine that "steal" slows a
    pass by up to half, and it comes in bursts."""
    windows = stats.quiet_windows([p["samples"] for p in passes])
    spans = [[] for _ in passes]
    for i, t0, t1, _, _ in windows:
        spans[i].append((t0, t1))
    wall = sum(t1 - t0 for _, t0, t1, _, _ in windows)
    packets = sum(w[3] for w in windows)
    lags, early = [], 0
    for i, p in enumerate(passes):
        pairs, n_early = stats.pair_lags(p["handover"], p["onbin"])
        lags.append([lag * 1e-6 for t, lag in pairs if stats.in_windows(t, spans[i])])
        early += n_early
    total = sum(p["samples"][-1][0] for p in passes)
    return {
        "pkts_per_s": ratio(packets * 1e9, wall),
        "cpu_us_per_pkt": ratio(sum(w[4] for w in windows) * 1e6, packets),
        "lags": lags,
        "early": early,
        "quiet_share": ratio(wall, total),
    }


def end_to_end(raw):
    every = [p for p in raw["passes"] if p["kind"] in ("push", "capture") and not p["traced"]]
    timing = quiet_timing(every)
    lags = timing["lags"]
    values = {
        "setup_s": stats.median([p["setup_s"] for p in every]),
        "pkts_per_s": timing["pkts_per_s"],
        "result_lag_p50_ms": stats.chunked_percentile(lags, 50),
        "result_lag_p99_ms": stats.chunked_percentile(lags, 99),
        "cpu_us_per_pkt": timing["cpu_us_per_pkt"],
        "peak_rss_mb": stats.median([p["rss_peak_mb"] for p in every]),
        "delivered_fraction": stats.median([ratio(p["delivered"], p["offered"]) for p in every]),
        "mean_accuracy": stats.median([p["mean_accuracy"] for p in every]),
        "min_accuracy": stats.median([p["min_accuracy"] for p in every]),
    }
    info = {"passes": len(every), "quiet_share": timing["quiet_share"],
            "lag_bins": sum(map(len, lags)), "early_bins": timing["early"]}
    return values, info


def per_layer(raw):
    passes = raw["passes"]
    capture = raw["workload"] == "capture-replay"
    main_kind = "capture" if capture else "push"
    traced = [p for p in passes if p["kind"] == main_kind and p["traced"]]
    # Push API timings: the Push passes themselves, or for capture-replay
    # the offline Push replicas of its trace.
    api_kind = "offline" if capture else "push"
    api_traced = [p for p in passes if p["kind"] == api_kind and p["traced"]]
    api_plain = [p for p in passes if p["kind"] == api_kind and not p["traced"]]
    threads = raw["threads"]

    def med(fn, group=None):
        return stats.median([fn(p) for p in (traced if group is None else group)])

    def busy_share(p):
        if threads == 0:
            return 0.0
        pool_wall_s = p["exec_wave_s"]["sum"] + stage_sum(p, "reference") * 1e-6
        return ratio(p["exec_task_s"]["sum"], threads * pool_wall_s)

    def bin_close_ms_p50(p):
        if p["close_ms"]:
            return stats.percentile(p["close_ms"], 50)
        h = p["stage_us"].get("bin_close")
        return stats.hist_quantile(h["bounds"], h["buckets"], 0.5) * 1e-3 if h else 0.0

    def wall_per_pkt(group):
        return ratio(1.0, quiet_timing(group)["pkts_per_s"])

    values = {
        "api.push_ns_per_pkt": med(lambda p: ratio(p["push_ns_sum"], p["push_n"]), api_traced),
        "api.ingest_copied_bytes_per_pkt": med(lambda p: ratio(p["copied_bytes"], p["offered"])),
        "api.bin_close_ms_p50": med(bin_close_ms_p50, traced if capture else api_traced),
        "predict.abs_error_ratio": med(lambda p: ratio(p["abs_error_sum"], p["abs_error_n"])),
        "shed.shed_fraction": med(lambda p: ratio(p["shed_packets"], p["packets_in"])),
        "exec.tasks_per_bin": med(lambda p: ratio(p["exec_tasks_total"], p["bins"])),
        "exec.busy_share": med(busy_share),
        "core.uncontrolled_drop_fraction": med(
            lambda p: ratio(p["drops"]["uncontrolled"], p["packets_in"])
        ),
        "core.overload_bin_fraction": med(lambda p: ratio(p["overload_bins"], p["bins"])),
        "core.unaccounted_us_per_bin": med(lambda p: ratio(unaccounted_us(p, threads), p["bins"])),
        "capture.drain_us_per_pkt": med(lambda p: ratio(p["drain_us_sum"], p["offered"])),
        "gen.blocked_send_s": med(lambda p: p["blocked_send_s"]),
        "net.decode_ns_per_pkt": raw["decode_ns_per_pkt"],
        "obs.tracing_overhead": ratio(wall_per_pkt(api_traced), wall_per_pkt(api_plain)) - 1.0,
        "obs.trace_spans_dropped": max(p["spans_dropped"] for p in traced + api_traced),
    }
    for name, stage in STAGE_METRICS:
        values[name] = med(lambda p, s=stage: ratio(stage_sum(p, s), p["bins"]))
    for reason in ("queue", "no_slot", "late", "decode"):
        values["capture.dropped_" + reason] = med(lambda p, r=reason: p["drops"].get(r, 0))
    return values


def stage_table(raw):
    """Per-stage wall time of the traced passes, from the
    shedmon_stage_wall_us histogram sums, with the unaccounted remainder
    of the bin-close critical path as its own row."""
    kind = "capture" if raw["workload"] == "capture-replay" else "push"
    traced = [p for p in raw["passes"] if p["kind"] == kind and p["traced"]]
    threads = raw["threads"]
    bins = sum(p["bins"] for p in traced)
    total = sum(stage_sum(p, "bin_close") for p in traced)
    rows = [(s, sum(stage_sum(p, s) for p in traced))
            for s in ("extraction", "prediction", "shed_decision", "query", "shard", "merge",
                      "reference", "sink")]
    if threads > 0:
        rows.append(("exec waves (wall)", sum(exec_us(p, threads) for p in traced)))
    rows.append(("unaccounted", sum(unaccounted_us(p, threads) for p in traced)))
    lines = ["stage                    us/bin     share of bin_close",
             "%-22s %10.2f %8.1f%%" % ("bin_close (total)", ratio(total, bins), 100.0)]
    for stage, us in rows:
        note = " (parallel; in waves)" if threads > 0 and stage in ("query", "shard") else ""
        lines.append("%-22s %10.2f %8.1f%%%s" % (stage, ratio(us, bins), 100 * ratio(us, total), note))
    capture_us = sum(stage_sum(p, "capture") for p in traced)
    if capture_us:
        lines.append("%-22s %10.2f   (capture thread, off the bin-close path)" %
                     ("capture", ratio(capture_us, bins)))
    return "\n".join(lines)


def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    build()
    work = os.path.join(BUILD_DIR, "work")
    os.makedirs(work, exist_ok=True)
    raw_path = os.path.join(work, "raw-%s-%d-%d.json" % (args.workload, args.seed, args.trace))
    if os.path.exists(raw_path):
        os.remove(raw_path)
    cores = pinned_cores(args.workload)
    raw, error = run_binary(args, raw_path, cores)
    if raw is None or not raw["passes"]:
        log("perfbench: run failed: %s" % (error or "no passes"))
        print(json.dumps({"correct": False, "attempted": 1, "failed": 1, "metrics": {}}))
        return 1

    failed = check_passes(raw)
    attempted = len(raw["passes"])
    if error:
        failed = attempted
    print("workload %s  seed %d  trace %d  cores %s" % (args.workload, args.seed, args.trace, cores))
    print("input generation %.3f s, %d packets, process RSS %.0f MB after it (not measured)" % (
        raw["gen_s"], raw["trace_packets"], raw["input_rss_mb"]))
    for i, p in enumerate(raw["passes"]):
        if p["failed"] or p["notes"]:
            print("pass %d (%s%s): failed %s notes %s" % (
                i, p["kind"], ", traced" if p["traced"] else "", p["failed"], p["notes"]))
    if args.trace:
        values = per_layer(raw)
        metrics = PER_LAYER + (CAPTURE_LAYER if args.workload == "capture-replay" else [])
        print(stage_table(raw))
        print("tracing overhead %.3f" % values["obs.tracing_overhead"])
    else:
        values, info = end_to_end(raw)
        metrics = END_TO_END
        print("passes %d, timed over the %.0f%% of their time the host took no CPU, "
              "lag pairs %d, bins closed before their last packet %d" % (
                  info["passes"], 100 * info["quiet_share"], info["lag_bins"], info["early_bins"]))
    for name, unit in metrics:
        if values[name] is None:  # e.g. no bin to take a lag from
            log("perfbench: metric %s could not be computed" % name)
            values[name] = 0.0
            failed = attempted
        print("%-34s %14.6g %s" % (name, values[name], unit))
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in metrics},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
