"""Turns the harness's raw samples and spans into the benchmark's metrics.

Pure functions only (no I/O besides reading a spans file), so the
arithmetic is covered by perfbench/test_metrics.py.

Conventions:
  * a timing is reported as a median plus the highest percentile that has
    at least ten samples beyond it (capped at p99), with its sample count;
    the bounded end-to-end metrics use medians only: on a shared 4-CPU
    host the upper percentiles of sub-millisecond operations moved by
    0.14 (p90) to 0.32 (p99) of their median from one run to the next;
  * a failed or refused request has latency None: it misses every limit,
    so it sorts above every real latency;
  * a span's self time is its duration minus the part of it covered by its
    child spans.
"""

import math

# Percentiles the tail rule may pick, highest first.
TAIL_LADDER = (99.0, 90.0, 50.0)

# Serve: p99 request latency limit for max_rps_at_slo, and the in-flight
# requests allowed when a level's last request falls due.
SLO_MS = 250.0
BACKLOG_LIMIT = 16

# The reference work's time (referenceWorkMs in the harness) on a quiet
# host. Every end-to-end timing is reported at this reference speed: each
# sample is divided by the reference time taken around or during its
# round and multiplied by REF_NOMINAL_MS. Wall-clock figures are printed beside.
REF_NOMINAL_MS = 1.0

# Which end-to-end metric each per-layer metric should move, and where.
LAYER_MAP = {
    "term.parse_ms": "rate_per_s (clauses_per_s), largest_ms (largest_pipeline_ms) on corpus-ladder",
    "compiler.compile_ms": "rate_per_s (clauses_per_s), largest_ms (largest_pipeline_ms) on corpus-ladder",
    "compiler.link_ms": "rate_per_s (clauses_per_s), largest_ms (largest_pipeline_ms) on corpus-ladder",
    "compiler.code_size": "rate_per_s (clauses_per_s) on corpus-ladder",
    "analyzer.analyze_ms": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.format_ms": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.instructions": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.activation_runs": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.et_probes": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.et_entries": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.intern_hit_rate": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.lub_hit_rate": "latency_ms (pipeline_ms_geomean) on table1",
    "analyzer.dep_edges": "latency_ms (pipeline_ms_geomean) on table1",
    "compiler.specialize_ms": "second_ms (opt_run_ms_geomean) on table1",
    "wam.run_ms": "second_ms (opt_run_ms_geomean) on table1",
    "wam.instructions": "second_ms (opt_run_ms_geomean) on table1",
    "wam.opt_instructions": "second_ms (opt_run_ms_geomean) on table1",
    "wam.fast_path_hits": "second_ms (opt_run_ms_geomean) on table1",
    "store.reanalyze_ms": "second_ms (edit_ms_p50) on serve",
    "store.replay_share": "second_ms (edit_ms_p50) on serve",
    "store.bytes": "second_ms (edit_ms_p50) on serve",
    "store.export_ms": "second_ms (edit_ms_p50) on serve",
    "store.import_ms": "second_ms (edit_ms_p50) on serve",
    "store.bundle_bytes": "second_ms (edit_ms_p50) on serve",
    "server.warm_hit_rate": "rate_per_s (max_rps_at_slo), request_ms_p99 (report only) on serve",
    "server.drains": "rate_per_s (max_rps_at_slo), request_ms_p99 (report only) on serve",
    "server.coalesced": "rate_per_s (max_rps_at_slo), request_ms_p99 (report only) on serve",
    "server.generator_lag_ms": "latency_ms (request_ms_p50) on serve: lag inflates every latency",
    "trace.overhead_ms": "none: traced minus untraced latency_ms",
}

# Span name -> per-layer time metric.
SPAN_METRICS = {
    "term.parse": "term.parse_ms",
    "compiler.compile": "compiler.compile_ms",
    "compiler.link": "compiler.link_ms",
    "compiler.specialize": "compiler.specialize_ms",
    "analyzer.analyze": "analyzer.analyze_ms",
    "analyzer.format": "analyzer.format_ms",
    "wam.run": "wam.run_ms",
    "store.reanalyze": "store.reanalyze_ms",
    "store.export": "store.export_ms",
    "store.import": "store.import_ms",
}


def percentile(values, p):
    """Nearest-rank percentile; None (a failed request) sorts highest."""
    if not values:
        raise ValueError("percentile of no samples")
    ordered = sorted(values, key=lambda v: math.inf if v is None else v)
    rank = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[rank - 1]


def median(values):
    return percentile(values, 50.0)


def tail_percentile(n):
    """Highest ladder percentile with at least ten samples beyond it."""
    for p in TAIL_LADDER:
        if n * (100.0 - p) / 100.0 >= 10:
            return p
    return 50.0


def tail(values):
    """(percentile, value) under the tail rule."""
    p = tail_percentile(len(values))
    return p, percentile(values, p)


def geomean(values):
    values = list(values)
    if not values or any(v is None or v <= 0 for v in values):
        raise ValueError("geomean needs positive values")
    return math.exp(sum(math.log(v) for v in values) / len(values))


def self_times(spans):
    """spans: list of (id, name, start, end, parent, rid).

    Returns {id: self_ns}: duration minus the union of the children's
    intervals, each clipped to the parent's interval.
    """
    children = {}
    for s in spans:
        if s[4] >= 0:
            children.setdefault(s[4], []).append(s)
    out = {}
    for s in spans:
        start, end = s[2], s[3]
        covered = 0
        cur_start = cur_end = None
        for c in sorted(children.get(s[0], ()), key=lambda c: c[2]):
            cs, ce = max(c[2], start), min(c[3], end)
            if ce <= cs:
                continue
            if cur_end is None or cs > cur_end:
                if cur_end is not None:
                    covered += cur_end - cur_start
                cur_start, cur_end = cs, ce
            else:
                cur_end = max(cur_end, ce)
        if cur_end is not None:
            covered += cur_end - cur_start
        out[s[0]] = (end - start) - covered
    return out


def read_spans(path):
    spans = []
    with open(path) as f:
        for line in f:
            i, name, start, end, parent, rid = line.rstrip("\n").split("\t")
            spans.append((int(i), name, int(start), int(end), int(parent), int(rid)))
    return spans


def layer_self_ms(spans):
    """{span name: (total self ms, number of root operations containing it,
    number of calls)}."""
    selfs = self_times(spans)
    by_id = {s[0]: s for s in spans}

    def root(s):
        while s[4] >= 0:
            s = by_id[s[4]]
        return s[0]

    total, roots, calls = {}, {}, {}
    for s in spans:
        total[s[1]] = total.get(s[1], 0) + selfs[s[0]] / 1e6
        roots.setdefault(s[1], set()).add(root(s))
        calls[s[1]] = calls.get(s[1], 0) + 1
    return {k: (total[k], len(roots[k]), calls[k]) for k in total}


def host_normalized(samples):
    """Samples rescaled to the nominal reference speed: each sample of
    series k is divided by its paired "ref/k" sample (series without one
    are kept as they are)."""
    out = {}
    for k, v in samples.items():
        if k.startswith("ref/"):
            continue
        refs = samples.get("ref/" + k)
        out[k] = [x * REF_NOMINAL_MS / r for x, r in zip(v, refs)] if refs else v
    return out


def setup_seconds(raw, wall=False):
    """Median set-up time, at the reference speed unless wall."""
    secs, refs = raw["setup_s"], raw.get("setup_ref_ms") or []
    if wall or len(refs) != len(secs):
        return median(secs)
    return median([x * REF_NOMINAL_MS / r for x, r in zip(secs, refs)])


def _series(samples, prefix):
    """{suffix: values} of the series under prefix/."""
    return {k[len(prefix) + 1:]: v for k, v in samples.items()
            if k.startswith(prefix + "/")}


def _per_program(samples, prefix):
    """(geomean of medians, geomean of tails, tail percentile, min n)."""
    series = _series(samples, prefix)
    if not series:
        return None
    meds = [median(v) for v in series.values()]
    n = min(len(v) for v in series.values())
    p = tail_percentile(n)
    tails = [percentile(v, p) for v in series.values()]
    return geomean(meds), geomean(tails), p, n


def interpolate_max_rate(levels):
    """levels: [(rate, tail_ms or None, backlog_ok)] ascending by rate.

    The highest rate meeting the limit with no growing backlog. Between
    the last passing level and the first level whose tail misses the limit
    the crossing is interpolated on log(rate) against log(tail); a level
    that fails on its backlog alone ends the search at the previous rate.
    If even the lowest level misses, its rate is scaled by limit / tail
    (None when all its requests failed).
    """
    for i, (rate, t, ok) in enumerate(levels):
        if ok and t is not None and t <= SLO_MS:
            continue
        if i == 0:
            return rate * SLO_MS / t if t else None
        prev_rate, prev_t = levels[i - 1][0], levels[i - 1][1]
        if t is None or t <= SLO_MS:
            return prev_rate
        frac = (math.log(SLO_MS) - math.log(prev_t)) / (math.log(t) - math.log(prev_t))
        return math.exp(math.log(prev_rate) + frac * (math.log(rate) - math.log(prev_rate)))
    return levels[-1][0] if levels else None


def table1_metrics(raw, pre=""):
    s = raw["samples"]
    pipe = _per_program(s, pre + "pipeline")
    opt = _per_program(s, pre + "optrun")
    total = sum(len(v) for v in _series(s, pre + "pipeline").values())
    secs = sum(sum(v) for v in _series(s, pre + "pipeline").values()) / 1000.0
    sizes = {k[len("source_bytes/"):]: v for k, v in raw["values"].items()
             if k.startswith("source_bytes/")}
    largest = max(sizes, key=lambda k: sizes[k])
    largest_series = s[pre + "pipeline/" + largest]
    named = {
        "pipeline_ms_geomean": (pipe[0], "ms", pipe[3]),
        "pipeline_p%g_ms_geomean" % pipe[2]: (pipe[1], "ms", pipe[3]),
        "largest_pipeline_ms (%s)" % largest: (median(largest_series), "ms", len(largest_series)),
        "opt_run_ms_geomean": (opt[0], "ms", opt[3]),
        "pipelines_per_s": (total / secs, "1/s", total),
    }
    e2e = {
        "latency_ms": pipe[0],
        "largest_ms": median(largest_series),
        "rate_per_s": total / secs,
        "second_ms": opt[0],
    }
    return e2e, named


def corpus_metrics(raw, pre=""):
    s, values = raw["samples"], raw["values"]
    pipes = _series(s, pre + "pipeline")
    fronts = _series(s, pre + "frontend")
    if not pipes:
        return None, {}
    # A size rank's time is the geomean of its corpora's medians (names
    # start "r<rank>-"), as table1 takes its programs': the corpora of one
    # rank differ in time, so a median over their pooled samples would
    # jump with the share of samples each corpus got in a run.
    def rank_times(series):
        ranks = {}
        for k, v in series.items():
            ranks.setdefault(int(k[1]), []).append(median(v))
        return {r: geomean(meds) for r, meds in ranks.items()}
    pipe_ranks, front_ranks = rank_times(pipes), rank_times(fronts)
    top = max(pipe_ranks)
    n_top = sum(len(v) for k, v in pipes.items() if int(k[1]) == top)
    clauses = sum(values["clauses/" + k] * len(v) for k, v in pipes.items())
    secs = sum(sum(v) for v in pipes.values()) / 1000.0
    n = sum(len(v) for v in pipes.values())
    latency = geomean(pipe_ranks.values())
    named = {
        "clauses_per_s": (clauses / secs, "1/s", n),
        "largest_pipeline_ms": (pipe_ranks[top], "ms", n_top),
        "largest_frontend_ms": (front_ranks[top], "ms", n_top),
        "pipeline_ms_geomean_over_sizes": (latency, "ms", n),
    }
    if top != 2:
        named["largest_size_rank"] = (top, "rank", n_top)
    e2e = {
        "latency_ms": latency,
        "largest_ms": pipe_ranks[top],
        "rate_per_s": clauses / secs,
        "second_ms": front_ranks[top],
    }
    return e2e, named


def serve_levels(raw):
    s, values = raw["samples"], raw["values"]
    levels = []
    k = 0
    while "rate/L%d" % k in values:
        lat = s.get("lat/L%d" % k, [])
        lat = [None if v < 0 else v for v in lat]
        ok = values["outstanding/L%d" % k] <= BACKLOG_LIMIT
        p, t = tail(lat) if lat else (None, None)
        levels.append((values["rate/L%d" % k], t, ok, p, len(lat)))
        k += 1
    return levels


def serve_metrics(raw):
    s, values = raw["samples"], raw["values"]
    ref = int(values["ref_level"])
    lat = [None if v < 0 else v for v in s["lat/L%d" % ref]]
    edits = [None if v < 0 else v for v in s.get("edit/L%d" % ref, [])]
    lag = s["lag/L%d" % ref]
    p, t = tail(lat)
    ep, et = tail(edits)
    levels = serve_levels(raw)
    max_rate = interpolate_max_rate([(r, t_, ok) for r, t_, ok, _, _ in levels])
    named = {
        "request_ms_p50": (_or(median(lat), math.inf), "ms", len(lat)),
        "request_ms_p%g" % p: (_or(t, math.inf), "ms", len(lat)),
        "edit_ms_p50": (_or(median(edits), math.inf), "ms", len(edits)),
        "edit_ms_p%g" % ep: (_or(et, math.inf), "ms", len(edits)),
        "max_rps_at_slo": (max_rate if max_rate else 0.0, "1/s", len(levels)),
        "generator_lag_ms_p%g" % tail_percentile(len(lag)): (tail(lag)[1], "ms", len(lag)),
    }
    for r, t_, ok, p_, n in levels:
        named["request_ms_p%g@%grps" % (p_, r)] = (t_ if t_ is not None else math.inf, "ms", n)
    # The reported values need numbers: where failures reach the median or
    # the tail (failed requests miss every limit), fall back to the
    # completed requests; named[] keeps the failure-inclusive figures.
    corpus = [None if v < 0 else v for v in s.get("corpus/L%d" % ref, [])] or lat
    done_corpus = [v for v in corpus if v is not None]
    named["corpus_request_ms_p50"] = (_or(median(corpus), math.inf), "ms", len(corpus))
    done = [v for v in lat if v is not None] or [math.inf]
    done_corpus = done_corpus or done
    done_edits = [v for v in edits if v is not None] or [math.inf]
    e2e = {
        "latency_ms": _or(median(lat), median(done)),
        "largest_ms": _or(median(corpus), median(done_corpus)),
        "rate_per_s": max_rate if max_rate else 0.0,
        "second_ms": _or(median(edits), median(done_edits)),
    }
    return e2e, named


def _or(value, fallback):
    return fallback if value is None else value


def e2e_metrics(raw, pre=""):
    """The end-to-end metrics at the reference speed, and the report's
    named figures: the same at the reference speed, then wall-clock."""
    w = raw["workload"]
    by = {"table1": table1_metrics, "corpus-ladder": corpus_metrics}.get(w)
    if by is None:
        e2e, named = serve_metrics(raw)
    else:
        e2e, named = by(dict(raw, samples=host_normalized(raw["samples"])), pre)
        if e2e is not None:
            _, wall = by(raw, pre)
            named.update({k + " [wall]": v for k, v in wall.items()})
    if e2e is None:
        return None, named
    e2e["peak_rss_mb"] = raw["values"]["peak_rss_kb"] / 1024.0
    e2e["setup_s"] = setup_seconds(raw)
    named["peak_rss_mb"] = (e2e["peak_rss_mb"], "MB", 1)
    named["setup_s"] = (e2e["setup_s"], "s", len(raw["setup_s"]))
    named["setup_s [wall]"] = (setup_seconds(raw, wall=True), "s", len(raw["setup_s"]))
    attempted, failed = raw["attempted"], raw["failed"]
    named["failed_share"] = (failed / attempted if attempted else 0.0,
                             "%d/%d" % (failed, attempted), attempted)
    return e2e, named


def layer_metrics(raw, spans, untraced_latency_ms):
    """Every per-layer metric (0 where the workload does not reach the
    layer), plus the per-span self-time table for the report."""
    v = raw["values"]
    table = layer_self_ms(spans) if spans else {}
    out = {}
    for span, name in SPAN_METRICS.items():
        total, roots, _ = table.get(span, (0.0, 0, 0))
        out[name] = total / roots if roots else 0.0

    def ratio(num, den):
        return v.get(num, 0.0) / v[den] if v.get(den) else 0.0

    out["compiler.code_size"] = ratio("compiler.code_size", "traced/pipelines")
    for k in ("instructions", "activation_runs", "et_probes", "et_entries", "dep_edges"):
        out["analyzer." + k] = ratio("analyzer." + k, "traced/pipelines")
    out["analyzer.intern_hit_rate"] = ratio("analyzer.intern_hits", "analyzer.intern_lookups")
    out["analyzer.lub_hit_rate"] = ratio("analyzer.lub_hits", "analyzer.lub_lookups")
    for k in ("instructions", "opt_instructions", "fast_path_hits"):
        out["wam." + k] = ratio("wam." + k, "traced/run_phases")
    replayed, executed = v.get("store.replayed", 0.0), v.get("store.executed", 0.0)
    out["store.replay_share"] = replayed / (replayed + executed) if replayed + executed else 0.0
    out["store.bytes"] = ratio("store.bytes", "store.probes")
    out["store.bundle_bytes"] = ratio("store.bundle_bytes", "store.probes")
    out["server.warm_hit_rate"] = ratio("server.cache_hits", "server.queries")
    out["server.drains"] = v.get("server.drains", 0.0)
    out["server.coalesced"] = v.get("server.coalesced", 0.0)
    lag = raw["samples"].get("lag/L%d" % v["ref_level"]) if "ref_level" in v else None
    out["server.generator_lag_ms"] = tail(lag)[1] if lag else 0.0
    if raw["workload"] == "serve":
        # Serve spans are written after the loop from timestamps the
        # untraced run takes too; the cost is the recording itself.
        out["trace.overhead_ms"] = v.get("trace_record_ms", 0.0) / max(1, len(lag))
    else:
        traced, _ = e2e_metrics(raw, "traced/")
        out["trace.overhead_ms"] = (traced["latency_ms"] - untraced_latency_ms) if traced else 0.0
    bases = {
        "analyzer.intern_hit_rate": (v.get("analyzer.intern_hits", 0), v.get("analyzer.intern_lookups", 0)),
        "analyzer.lub_hit_rate": (v.get("analyzer.lub_hits", 0), v.get("analyzer.lub_lookups", 0)),
        "store.replay_share": (replayed, replayed + executed),
        "server.warm_hit_rate": (v.get("server.cache_hits", 0), v.get("server.queries", 0)),
    }
    return out, table, bases


# ROADMAP's front-end table (ms at 12k and 48k clauses, one thread).
ROADMAP_FRONT_END = {12000: {"parse": 55.0, "compile": 59.0, "analyze": 30.0},
                     48000: {"parse": 342.0, "compile": 762.0, "analyze": 242.0}}
PHASE_SPANS = {"parse": "term.parse", "compile": "compiler.compile",
               "analyze": "analyzer.analyze"}
AGREE_FACTOR = 1.5
SAME_RUNG = 1.3


def phase_ms_by_size(spans):
    """{rung clauses: {phase: median ms per operation}} from the
    corpus-ladder spans (each 'operation' span's rid is its corpus's clause
    count)."""
    by_id = {s[0]: s for s in spans}
    per_op = {}
    for s in spans:
        phase = next((p for p, n in PHASE_SPANS.items() if n == s[1]), None)
        if phase is None:
            continue
        r = s
        while r[4] >= 0:
            r = by_id[r[4]]
        if r[1] != "operation":
            continue
        op = per_op.setdefault(r[0], {"clauses": r[5]})
        op[phase] = op.get(phase, 0.0) + (s[3] - s[2]) / 1e6
    # Corpora of one ladder rung differ by a few percent in size: cluster
    # sizes within SAME_RUNG of each other and key each rung by its median.
    rungs = []
    for c in sorted({op["clauses"] for op in per_op.values()}):
        if rungs and c / rungs[-1][-1] < SAME_RUNG:
            rungs[-1].append(c)
        else:
            rungs.append([c])
    out = {}
    for rung in rungs:
        ops = [op for op in per_op.values() if op["clauses"] in rung]
        out[median(rung)] = {p: median([op[p] for op in ops if p in op])
                             for p in PHASE_SPANS if any(p in op for op in ops)}
    return out


def power_interpolate(points, x):
    """points: [(size, value)] with positive values; log-log interpolation
    (extrapolation past the ends) through the two sizes nearest x."""
    pts = sorted(points, key=lambda p: abs(math.log(p[0] / x)))[:2]
    if len(pts) < 2:
        return None
    (x0, y0), (x1, y1) = sorted(pts)
    if x0 == x1:
        return None
    k = (math.log(y1) - math.log(y0)) / (math.log(x1) - math.log(x0))
    return math.exp(math.log(y0) + k * (math.log(x) - math.log(x0)))


def roadmap_crosscheck(raw, spans):
    """Lines comparing the ladder's phase times, interpolated to 12k and
    48k clauses, with ROADMAP's front-end table."""
    by_size = phase_ms_by_size(spans)
    lines = ["ROADMAP front-end cross-check (agree = within %gx):" % AGREE_FACTOR]
    for target, ref in ROADMAP_FRONT_END.items():
        for phase, want in ref.items():
            pts = [(c, ph[phase]) for c, ph in by_size.items() if ph.get(phase, 0) > 0]
            got = power_interpolate(pts, target)
            if got is None:
                lines.append("  %dk %-8s ROADMAP %6.0f ms  ours: not enough sizes" %
                             (target // 1000, phase, want))
                continue
            ratio = got / want
            verdict = "agree" if 1 / AGREE_FACTOR <= ratio <= AGREE_FACTOR else "DISAGREE"
            lines.append("  %dk %-8s ROADMAP %6.0f ms  ours %8.1f ms  ratio %.2f  %s" %
                         (target // 1000, phase, want, got, ratio, verdict))
    return lines
