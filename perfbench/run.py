#!/usr/bin/env python3
"""End-to-end benchmark: source text to printed answer, per workload.

    python3 perfbench/run.py --workload table1|corpus-ladder|serve \
        [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout. Builds perfbench/CMakeLists.txt (the
analyzer libraries from src/ plus the harness) in Release mode into
.bench_build/perfbench, runs the harness for one workload, prints a report
and, as the last line of standard output, one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end metrics of BENCHMARK.json;
with --trace 1 they are its per-layer metrics, taken from a run split
into an untraced and a traced half (the difference is the tracing
overhead). Exits non-zero without a result line when the checkout has no
analyzer sources or the harness cannot be built or run.
"""

import argparse
import json
import math
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import metrics  # noqa: E402

WORKLOADS = ("table1", "corpus-ladder", "serve")
HARNESS_TIMEOUT_S = 170


def die(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(root):
    build_dir = os.path.join(root, ".bench_build", "perfbench")
    if not os.path.exists(os.path.join(build_dir, "CMakeCache.txt")):
        subprocess.run(["cmake", "-S", HERE, "-B", build_dir,
                        "-DCMAKE_BUILD_TYPE=Release"],
                       check=True, stdout=sys.stderr, stderr=sys.stderr)
    jobs = str(min(4, os.cpu_count() or 1))
    subprocess.run(["cmake", "--build", build_dir, "-j", jobs,
                    "--target", "perfbench_harness"],
                   check=True, stdout=sys.stderr, stderr=sys.stderr)
    return os.path.join(build_dir, "perfbench_harness")


def declared_names(root):
    with open(os.path.join(root, "BENCHMARK.json")) as f:
        spec = json.load(f)
    return ([m["name"] for m in spec["end_to_end"]],
            [m["name"] for m in spec["per_layer"]],
            {m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]})


def fmt(v):
    if isinstance(v, float):
        if math.isinf(v):
            return "inf"
        return "%.4g" % v
    return str(v)


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=15)
    ap.add_argument("--trace", type=int, default=0, choices=(0, 1))
    args = ap.parse_args()

    root = os.path.dirname(HERE)
    if not os.path.isfile(os.path.join(root, "src", "CMakeLists.txt")):
        die("no analyzer sources at %s (run from the root of a checkout)"
            % os.path.join(root, "src"))
    try:
        harness = build(root)
    except (subprocess.CalledProcessError, OSError) as e:
        die("build failed: %s" % e)

    out_dir = os.path.join(root, ".bench_build", "runs")
    os.makedirs(out_dir, exist_ok=True)
    stem = os.path.join(out_dir, "%s-seed%d-trace%d" % (args.workload, args.seed, args.trace))
    raw_path, spans_path = stem + ".raw.json", stem + ".spans.tsv"
    try:
        subprocess.run([harness, "--workload", args.workload, "--seed", str(args.seed),
                        "--seconds", repr(args.seconds), "--trace", str(args.trace),
                        "--out", raw_path, "--spans", spans_path],
                       check=True, timeout=HARNESS_TIMEOUT_S, stdout=sys.stderr)
    except (subprocess.CalledProcessError, subprocess.TimeoutExpired, OSError) as e:
        die("harness failed: %s" % e)
    with open(raw_path) as f:
        raw = json.load(f)

    e2e, named = metrics.e2e_metrics(raw)
    if e2e is None:
        die("no operation of %s completed" % args.workload)

    print("== perfbench %s  seed=%d  seconds=%g  trace=%d" %
          (args.workload, args.seed, args.seconds, args.trace))
    print("-- end-to-end (workload names; n = samples)")
    for name, (value, unit, n) in named.items():
        print("  %-34s %12s %-6s n=%d" % (name, fmt(value), unit, n))
    values = raw["values"]
    print("  attempted=%d failed=%d (operations: one per input) timed_repetitions=%d "
          "oracle_disagreements=%d inconsistent=%d" %
          (raw["attempted"], raw["failed"], values.get("timed_operations", 0),
           raw["mismatches"], raw["inconsistent"]))
    if "oracle_programs" in values:
        print("  oracle (MetaAnalyzer): %d of %d programs checked equal" %
              (values.get("oracle_checked", 0), values["oracle_programs"]))
    for line in raw["failures"][:20]:
        print("  failed: " + line)
    if len(raw["failures"]) > 20:
        print("  ... %d more failures" % (len(raw["failures"]) - 20))
    for line in raw["notes"]:
        print("  note: " + line)

    e2e_names, layer_names, units = declared_names(root)
    if args.trace == 0:
        result = e2e
        names = e2e_names
    else:
        spans = metrics.read_spans(spans_path) if os.path.exists(spans_path) else []
        result, table, bases = metrics.layer_metrics(raw, spans, e2e["latency_ms"])
        print("-- per-layer self time (traced half; ms total / operations / calls)")
        for span, (total, roots, calls) in sorted(table.items()):
            print("  %-24s %12.3f ms  ops=%d calls=%d" % (span, total, roots, calls))
        print("-- per-layer metrics (-> the end-to-end metric each should move)")
        for name in layer_names:
            base = bases.get(name)
            extra = "  (%s / %s)" % (fmt(base[0]), fmt(base[1])) if base else ""
            print("  %-26s %12s %-6s%s  -> %s" % (name, fmt(result.get(name, 0.0)),
                                                  units[name], extra,
                                                  metrics.LAYER_MAP.get(name, "")))
        if args.workload == "corpus-ladder":
            for line in metrics.roadmap_crosscheck(raw, spans):
                print("  " + line)
        names = layer_names
    missing = set(names) ^ set(result)
    if missing:
        die("metric names differ from BENCHMARK.json: %s" % sorted(missing))
    unmeasured = [n for n in names if not math.isfinite(result[n])]
    if unmeasured:
        die("no finite value for %s (every operation behind it failed)" % unmeasured)
    out = {
        "correct": raw["inconsistent"] == 0,
        "attempted": raw["attempted"],
        "failed": raw["failed"],
        "metrics": {n: {"value": result[n], "unit": units[n]} for n in names},
    }
    print(json.dumps(out))


if __name__ == "__main__":
    main()
