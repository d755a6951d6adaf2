#!/usr/bin/env python3
"""Gate hot-path benchmark throughput against a committed BENCH_*.json.

Usage (what the Bench workflow runs):
  python3 tools/compare_bench.py --baseline BENCH_PR3.json --current bench_micro.json

Compares the benchmarks named in HOT_PATH (prefix match) and exits non-zero
when any of them regressed by more than --threshold (default 20%) in
throughput. Throughput is items_per_second / bytes_per_second when the
benchmark reports one, otherwise 1 / real_time. Benchmarks present on only
one side are reported but never fail the gate (renames and new benchmarks are
expected between PRs); non-hot-path benchmarks are compared as FYI only.

Both inputs may be raw google-benchmark JSON or a condensed BENCH_*.json
(see make_bench_baseline.py, whose condense() this reuses). Keep in mind the
committed baselines are recorded on a developer box: cross-machine runs drift
for real reasons, which is why this gate lives in the nightly/manual Bench
workflow rather than the blocking CI matrix.
"""

import argparse
import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
from make_bench_baseline import condense  # noqa: E402

# Benchmarks whose throughput the paper's "deterministic worst-case cost"
# argument leans on (§3.2.1), the per-query cost-model fit that runs once per
# query per bin, plus the whole-pipeline runs; prefix-matched so
# parameterized variants (e.g. BM_PipelinePacketsThreads/threads:4) count.
HOT_PATH = (
    "BM_H3Hash",
    "BM_FusedAggregateHash",
    "BM_MultiResBitmapInsert",
    "BM_FeatureExtraction",
    "BM_MlrFitAndPredict",
    "BM_FcbfSelection",
    "BM_PacketSampler",
    "BM_FlowSampler",
    "BM_BoyerMoore",
    "BM_PipelinePackets",
    "BM_PipelinePacketsTraced",
    "BM_PipelinePacketsThreads",
    "BM_PipelinePacketsShards",
)

# Paired overhead gates: (instrumented, plain, max tolerated fractional
# slowdown). Both sides come from the *current* run, so the gate is immune to
# the cross-machine drift that makes the baseline comparison advisory.
OVERHEAD_PAIRS = (
    ("BM_PipelinePacketsTraced", "BM_PipelinePackets", 0.05),
)


def throughput(entry):
    """Higher-is-better rate for one condensed benchmark entry."""
    for key in ("items_per_second", "bytes_per_second"):
        if key in entry:
            return entry[key], key
    return 1e9 / entry["real_time_ns"], "1/real_time"


def is_hot(name):
    return any(name == h or name.startswith(h + "/") or name.startswith(h + "<")
               for h in HOT_PATH)


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--baseline", required=True,
                        help="committed BENCH_*.json (or raw google-benchmark JSON)")
    parser.add_argument("--current", required=True,
                        help="fresh bench_micro JSON to check")
    parser.add_argument("--threshold", type=float, default=0.20,
                        help="max tolerated fractional throughput drop (default 0.20)")
    args = parser.parse_args()

    baseline = condense(args.baseline)["benchmarks"]
    current = condense(args.current)["benchmarks"]

    failures = []
    rows = []
    for name in sorted(set(baseline) | set(current)):
        hot = is_hot(name)
        tag = "hot" if hot else "fyi"
        if name not in current:
            rows.append((name, tag, None, "missing from current run"))
            continue
        if name not in baseline:
            rows.append((name, tag, None, "new (no baseline)"))
            continue
        base_rate, base_kind = throughput(baseline[name])
        cur_rate, cur_kind = throughput(current[name])
        if base_kind != cur_kind or base_rate <= 0:
            rows.append((name, tag, None, f"not comparable ({base_kind} vs {cur_kind})"))
            continue
        ratio = cur_rate / base_rate
        note = f"{ratio:.3f}x"
        if hot and ratio < 1.0 - args.threshold:
            note += f"  REGRESSION (>{args.threshold:.0%} drop)"
            failures.append((name, ratio))
        rows.append((name, tag, ratio, note))

    width = max(len(name) for name, *_ in rows) if rows else 0
    for name, tag, _, note in rows:
        print(f"{name:<{width}}  [{tag}]  {note}")

    for instrumented, plain, budget in OVERHEAD_PAIRS:
        if instrumented not in current or plain not in current:
            continue
        inst_rate, inst_kind = throughput(current[instrumented])
        plain_rate, plain_kind = throughput(current[plain])
        if inst_kind != plain_kind or plain_rate <= 0:
            continue
        ratio = inst_rate / plain_rate
        note = f"{instrumented} vs {plain}: {ratio:.3f}x"
        if ratio < 1.0 - budget:
            note += f"  OVERHEAD REGRESSION (>{budget:.0%} slowdown)"
            failures.append((f"{instrumented} (vs {plain})", ratio))
        print(note)

    if failures:
        print(f"\nFAIL: {len(failures)} hot-path benchmark(s) regressed "
              f"beyond the threshold:", file=sys.stderr)
        for name, ratio in failures:
            print(f"  {name}: {ratio:.3f}x", file=sys.stderr)
        return 1
    print(f"\nOK: no hot-path throughput regression beyond {args.threshold:.0%}.")
    return 0


if __name__ == "__main__":
    sys.exit(main())
