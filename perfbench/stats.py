"""Statistics core of the repository benchmark.

Turns the raw measurements `perfbench serve` writes into the benchmark's
metrics, and compares sets of runs:

* per run: latency percentiles with their sample counts, throughput,
  set-up time, and the per-layer metrics of a traced run (self times
  from span trees, ratios from work counters);
* across runs: median and quartiles of each metric, the spread
  (interquartile distance over median), and a gate that flags an
  end-to-end metric whose median got worse by more than its bound.

Run as a script it checks result files (one benchmark output line per
run, as `run.py` prints them):

    python3 perfbench/stats.py spread RUNS.jsonl
    python3 perfbench/stats.py compare BASE.jsonl CANDIDATE.jsonl
"""

import json
import os
import statistics
import sys

# Fewest samples a reported tail percentile must leave beyond itself.
MIN_TAIL_SAMPLES = 10


# ------------------------------------------------------------ per run


def percentile(values, p):
    """The p-th percentile (0..100) by linear interpolation between ranks."""
    if not values:
        raise ValueError("percentile of no values")
    ordered = sorted(values)
    pos = (len(ordered) - 1) * p / 100.0
    lo = int(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


def tail_supported(count, p):
    """Whether `count` samples leave MIN_TAIL_SAMPLES beyond the p-th percentile."""
    return count * (100.0 - p) / 100.0 >= MIN_TAIL_SAMPLES


def latency_summary(latencies_ms, tails=(99.0, 90.0)):
    """Median plus every tail percentile in `tails` the sample supports."""
    out = {"count": len(latencies_ms), "p50": percentile(latencies_ms, 50)}
    for p in tails:
        if tail_supported(len(latencies_ms), p):
            out["p%g" % p] = percentile(latencies_ms, p)
    return out


def whole_block_latencies_ms(raw):
    """Latencies of the requests in whole stream blocks.

    Every block of the request stream holds the workload's exact mix, so
    percentiles over whole blocks do not shift with the share of heavy
    templates in the last, partial block. Falls back to every latency
    when the run did not finish one block."""
    block = raw["block"]
    whole = len(raw["positions"]) // block * block
    pairs = zip(raw["positions"], raw["latency_ns"])
    kept = [ns / 1e6 for pos, ns in pairs if pos < whole]
    return kept if kept else [ns / 1e6 for ns in raw["latency_ns"]]


def end_to_end_metrics(raw):
    """End-to-end metrics of an untraced run."""
    latency_ms = whole_block_latencies_ms(raw)
    completed = raw["attempted"] - raw["failed"] - raw["shed"]
    return {
        "throughput_qps": completed / (raw["wall_ns"] / 1e9),
        "latency_p50_ms": percentile(latency_ms, 50),
        # Reported even when short runs leave under MIN_TAIL_SAMPLES
        # beyond it; run.py warns then.
        "latency_p90_ms": percentile(latency_ms, 90),
        # Set-up is fixed work that the host can only slow down, and its
        # slow spells last from seconds to minutes; the fastest of the
        # run's set-ups is its time.
        "setup_s": min(raw["setup_ns"]) / 1e9,
        "ok_frac": completed / raw["attempted"],
        "peak_rss_mb": raw["peak_rss_bytes"] / 2**20,
    }


def flatten(tree):
    """Every span of a rendered obs::Trace (one root, or {"spans": [...]})."""
    roots = tree["spans"] if "name" not in tree else [tree]
    out = []
    stack = list(reversed(roots))
    while stack:
        span = stack.pop()
        out.append(span)
        stack.extend(reversed(span.get("spans", [])))
    return out


def self_time_ns(span):
    """A span's duration minus the part of it its children cover."""
    start = span["start_ns"]
    end = start + span["duration_ns"]
    intervals = sorted(
        (max(c["start_ns"], start), min(c["start_ns"] + c["duration_ns"], end))
        for c in span.get("spans", [])
    )
    covered = 0
    cur_lo = cur_hi = None
    for lo, hi in intervals:
        if hi <= lo:
            continue
        if cur_hi is None or lo > cur_hi:
            if cur_hi is not None:
                covered += cur_hi - cur_lo
            cur_lo, cur_hi = lo, hi
        else:
            cur_hi = max(cur_hi, hi)
    if cur_hi is not None:
        covered += cur_hi - cur_lo
    return span["duration_ns"] - covered


def self_times_by_name(trees):
    """Summed self time (ns) of every span name across span trees."""
    totals = {}
    for tree in trees:
        for span in flatten(tree):
            totals[span["name"]] = totals.get(span["name"], 0) + self_time_ns(span)
    return totals


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(num, den):
    return num / den if den else 0.0


# Existing service spans whose self time per query is reported, by the
# metric suffix they report under.
SERVE_SPANS = {
    "ybound": "ybound",
    "import": "import",
    "round": "round",
    "b.advance_many": "advance_many",
    "final": "final",
    "write_back": "write_back",
}


def layer_metrics(raw):
    """Per-layer metrics of a traced run. A layer the workload does not
    reach reads 0."""
    queries = raw["queries"]
    n = len(queries)
    counters = raw["counters"]
    totals = raw["totals"]
    spans = {}
    for span in flatten(raw["bench_trace"]):
        spans.setdefault(span["name"], []).append(span)

    def dur_ms(name):
        return _mean([s["duration_ns"] / 1e6 for s in spans.get(name, [])])

    def attr_mean(name, key):
        return _mean([s.get(key, 0) for s in spans.get(name, [])])

    def per_rep_us(name):
        return _mean([s["duration_ns"] / 1e3 / s["reps"] for s in spans.get(name, [])])

    m = {"graph.load_s": raw["graph_load_ns"] / 1e9}

    batch = spans.get("dht.batch", [])
    m.update({
        "dht.ybound_ms": dur_ms("dht.ybound"),
        "dht.ybound_edges_relaxed": attr_mean("dht.ybound", "edges"),
        "dht.batch_ms": dur_ms("dht.batch"),
        "dht.batch_edges_per_us": _ratio(
            sum(s["edges"] for s in batch), sum(s["duration_ns"] for s in batch) / 1e3),
        "join2.bidj_ms": dur_ms("join2.bidj"),
        "join2.walk_steps_per_query": attr_mean("join2.bidj", "walk_steps"),
        "join2.rounds_per_query": attr_mean("join2.bidj", "rounds"),
        "join2.pool_barriers_per_query": attr_mean("join2.bidj", "barriers"),
        "join2.pruned_frac": attr_mean("join2.bidj", "pruned"),
    })

    served = [q for q in queries if q["service_ns"] > 0]
    twoway = [q for q in queries if q["kind"] == "twoway"]
    warm = sum(q["warm_targets"] for q in queries)
    cold = sum(q["cold_targets"] for q in queries)
    hits = counters.get("serve.cache_hits", 0)
    misses = counters.get("serve.cache_misses", 0)
    span_self = self_times_by_name(raw["service_traces"])
    m.update({
        "serve.service_ms": _mean([q["service_ns"] / 1e6 for q in served]),
        "serve.queue_wait_ms": _mean(
            [(q["client_ns"] - q["service_ns"]) / 1e6 for q in served]),
        "serve.pool_queue_wait_us": totals.get("serve.pool_queue_wait_ns_mean", 0) / 1e3,
        "serve.cache_hit_rate": _ratio(hits, hits + misses),
        "serve.cache_evictions_per_query": _ratio(
            counters.get("serve.cache_evictions", 0), n),
        "serve.cache_resident_mb": totals.get("serve.cache_resident_bytes", 0) / 2**20,
        "serve.cache_admission_rejects": counters.get("serve.cache_admission_rejects", 0),
        "serve.warm_target_frac": _ratio(warm, warm + cold),
        "serve.ybound_cached_frac": _ratio(
            sum(q["ybound_cached"] for q in twoway), len(twoway)) if served else 0.0,
        "serve.admission_shed": totals.get("serve.admission_shed", 0),
        "serve.walk_steps_per_query": _ratio(counters.get("serve.walk_steps", 0), n),
    })
    for span_name, suffix in SERVE_SPANS.items():
        m["serve.span.%s_ms" % suffix] = _ratio(span_self.get(span_name, 0) / 1e6, n)

    pji = [q for q in queries if q["kind"] == "pji"]
    nl = [q for q in queries if q["kind"] == "nl"]
    pji_hits = sum(q["cache_hits"] for q in pji)
    pji_lookups = pji_hits + sum(q["cache_misses"] for q in pji)
    m.update({
        "core.pji_ms": _mean([q["service_ns"] / 1e6 for q in pji]),
        "core.nl_ms": _mean([q["service_ns"] / 1e6 for q in nl]),
        "core.pji_state_hit_rate": _ratio(pji_hits, pji_lookups),
        "core.nl_table_hit_rate": _ratio(
            sum(q["table_hits"] for q in nl), sum(q["edges"] for q in nl)),
        "rankjoin.pulls_per_query": attr_mean("rankjoin.pji", "pulls"),
        "rankjoin.beyond_m_per_query": attr_mean("rankjoin.pji", "beyond_m"),
    })

    # The cluster pass (two-way workloads only) routes the same prefix
    # through the coordinator.
    routed = raw.get("cluster_queries", [])
    routed_warm = sum(q["warm_targets"] for q in routed)
    routed_cold = sum(q["cold_targets"] for q in routed)
    hedged = sum(q["hedged"] for q in routed)
    per_worker = {}
    for q in routed:
        per_worker[q["worker"]] = per_worker.get(q["worker"], 0) + 1
    m.update({
        "cluster.encode_us": per_rep_us("cluster.encode"),
        "cluster.decode_us": per_rep_us("cluster.decode"),
        "cluster.reply_bytes": attr_mean("cluster.decode", "reply_bytes"),
        "cluster.ping_us": dur_ms("cluster.ping") * 1e3,
        "cluster.attempts_per_query": _ratio(sum(q["attempts"] for q in routed), len(routed)),
        "cluster.hedged_frac": _ratio(hedged, len(routed)),
        "cluster.hedge_won_frac": _ratio(sum(q["hedge_won"] for q in routed), hedged),
        "cluster.failovers": sum(q["failover"] for q in routed),
        "cluster.local_fallbacks": sum(q["local_fallback"] for q in routed),
        "cluster.warm_target_frac": _ratio(routed_warm, routed_warm + routed_cold),
        # Busiest worker's share over an even share (1 = balanced).
        "cluster.worker_skew": _ratio(
            max(per_worker.values()) * len(per_worker), len(routed)) if routed else 0.0,
        "persist.load_ms": dur_ms("persist.load"),
        "persist.restored_entries": attr_mean("persist.load", "restored"),
        "persist.save_ms": dur_ms("persist.save"),
        "persist.snapshot_mb": attr_mean("persist.save", "bytes") / 2**20,
    })

    client = [s["duration_ns"] for s in spans.get("client.query", [])]
    untraced = raw["untraced_client_ns"]
    m["obs.tracing_overhead"] = _ratio(
        percentile(client, 50), percentile(untraced, 50)) if client and untraced else 0.0
    return m


def counter_mismatches(raw):
    """Work counters that differ between the two traced passes."""
    a, b = raw["counters"], raw["counters_repeat"]
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


# --------------------------------------------------------- across runs


def across_runs(values):
    """Median, quartiles and spread (IQR over median) of one metric's runs,
    with quartiles as statistics.quantiles(values, n=4) gives them."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median if median else 0.0,
        "runs": len(values),
    }


def worse_by(base_median, cand_median, better):
    """Relative worsening of a candidate median (negative = improvement)."""
    if base_median == 0:
        return 0.0
    change = (cand_median - base_median) / base_median
    return change if better == "lower" else -change


def gate(base_runs, cand_runs, spec):
    """Compares two run sets metric by metric.

    base_runs, cand_runs: lists of {metric: value} dicts (one per run).
    spec: the "end_to_end" list of BENCHMARK.json.
    Returns one verdict dict per metric; "regressed" is true when the
    candidate median is worse than the base median by more than the
    metric's bound.
    """
    verdicts = []
    for metric in spec:
        name = metric["name"]
        base = across_runs([r[name] for r in base_runs])
        cand = across_runs([r[name] for r in cand_runs])
        worse = worse_by(base["median"], cand["median"], metric["better"])
        verdicts.append({
            "metric": name,
            "base_median": base["median"],
            "candidate_median": cand["median"],
            "worse_by": worse,
            "bound": metric["bound"],
            "regressed": worse > metric["bound"],
        })
    return verdicts


def spread_verdicts(runs, spec):
    """Spread of each end-to-end metric across runs against its bound."""
    out = []
    for metric in spec:
        s = across_runs([r[metric["name"]] for r in runs])
        s["metric"] = metric["name"]
        s["bound"] = metric["bound"]
        s["steady"] = s["spread"] <= metric["bound"]
        out.append(s)
    return out


# ---------------------------------------------------------------- CLI


def _load_runs(path):
    runs = []
    with open(path) as f:
        for line in f:
            line = line.strip()
            if line:
                runs.append({k: v["value"] for k, v in json.loads(line)["metrics"].items()})
    return runs


def _load_spec():
    here = os.path.dirname(os.path.abspath(__file__))
    with open(os.path.join(os.path.dirname(here), "BENCHMARK.json")) as f:
        return json.load(f)["end_to_end"]


def main(argv):
    if len(argv) == 3 and argv[1] == "spread":
        ok = True
        for v in spread_verdicts(_load_runs(argv[2]), _load_spec()):
            ok = ok and v["steady"]
            print("%-16s median %12.5g  spread %6.3f  bound %.3f  %s" % (
                v["metric"], v["median"], v["spread"], v["bound"],
                "ok" if v["steady"] else "TOO NOISY"))
        return 0 if ok else 1
    if len(argv) == 4 and argv[1] == "compare":
        ok = True
        for v in gate(_load_runs(argv[2]), _load_runs(argv[3]), _load_spec()):
            ok = ok and not v["regressed"]
            print("%-16s %12.5g -> %12.5g  worse by %+7.3f (bound %.3f)  %s" % (
                v["metric"], v["base_median"], v["candidate_median"], v["worse_by"],
                v["bound"], "REGRESSED" if v["regressed"] else "ok"))
        return 0 if ok else 1
    print(__doc__, file=sys.stderr)
    return 2


if __name__ == "__main__":
    sys.exit(main(sys.argv))
