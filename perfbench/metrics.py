"""Statistics, correctness checks and the metric schema of the benchmark.

Pure functions over the per-replay records that perfbench_driver prints;
run.py feeds them and the tests in perfbench/tests exercise them directly.
"""

import math
import statistics

# End-to-end metrics: name -> unit.  Measured on untraced replays only.
END_TO_END = {
    "chunks_per_s": "1/s",
    "setup_s": "s",
    "prequential_error": "error",
    "work_per_chunk": "rows",
    "peak_rss_mb": "MB",
}

# Per-layer metrics: name -> unit.  Measured on traced replays.
PER_LAYER = {
    "core.chunk_p50_us": "us",
    "core.chunk_p99_us": "us",
    "core.chunk_samples": "count",
    "core.ingest_us": "us",
    "core.proactive_iter_p50_us": "us",
    "core.proactive_iter_p99_us": "us",
    "core.proactive_iter_samples": "count",
    "core.unattributed_share": "share",
    "pipeline.preprocess_us": "us",
    "pipeline.preprocess_share": "share",
    "pipeline.remat_us": "us",
    "pipeline.remat_chunks": "count",
    "pipeline.remat_share": "share",
    "ml.evaluate_us": "us",
    "ml.online_update_us": "us",
    "ml.online_share": "share",
    "ml.train_step_us": "us",
    "ml.proactive_share": "share",
    "sampling.sample_us": "us",
    "sampling.mu": "ratio",
    "storage.store_features_us": "us",
    "storage.memory_mu": "ratio",
    "storage.disk_mu": "ratio",
    "storage.spilled_chunks": "count",
    "storage.spill_mb": "MB",
    "storage.compression_ratio": "ratio",
    "storage.disk_loads": "count",
    "storage.prefetch_hit_rate": "ratio",
    "storage.bound_share": "share",
    "serving.service_p50_us": "us",
    "serving.service_p99_us": "us",
    "serving.queue_wait_p50_us": "us",
    "serving.serve_p50_us": "us",
    "serving.serve_p99_us": "us",
    "serving.slo_frac": "share",
    "serving.requests": "count",
    "serving.errors": "count",
    "serving.gen_lag_p99_us": "us",
    "obs.trace_overhead": "ratio",
}

# Samples a tail percentile must leave beyond it to be reported.
MIN_TAIL_SAMPLES = 10


def percentile(samples, pct):
    """Nearest-rank percentile of `samples` (0 < pct <= 100)."""
    if not samples:
        return 0.0
    ordered = sorted(samples)
    rank = max(1, math.ceil(pct / 100.0 * len(ordered)))
    return ordered[rank - 1]


def select_tail(samples, max_pct=99.0,
                candidates=(99.9, 99.0, 95.0, 90.0, 75.0, 50.0)):
    """The highest percentile <= max_pct with >= 10 samples beyond it.

    Returns (pct, value, n).  With too few samples for any candidate the
    median is returned; with none, (None, 0.0, 0).
    """
    n = len(samples)
    if n == 0:
        return None, 0.0, 0
    for pct in candidates:
        if pct > max_pct:
            continue
        rank = max(1, math.ceil(pct / 100.0 * n))
        if n - rank >= MIN_TAIL_SAMPLES:
            return pct, percentile(samples, pct), n
    return 50.0, percentile(samples, 50.0), n


def undisturbed(values, better="higher"):
    """Mean of the best quarter of `values` (at least two of them).

    Interference from other tenants of a shared machine only ever slows a
    replay down, and it comes and goes: per-replay rates are bimodal on a
    small virtual machine, with a slow mode whose share changes from minute
    to minute.  A median or mean moves with that share; the best quarter
    stays in the fast mode, so it measures the code rather than the
    neighbours, while a regression that slows every replay still shows.
    """
    ordered = sorted(values, reverse=(better == "higher"))
    if not ordered:
        return 0.0
    kept = ordered[:max(2, len(ordered) // 4)]
    return sum(kept) / len(kept)


def replay_rates(replays, seconds_key="replay_s"):
    """Chunks per second of each replay, by default per wall second.

    Wall seconds count every wait of the replay: a fetch blocked on a late
    prefetch, the loop thread blocked while pool threads rematerialize.
    Process CPU seconds ("replay_cpu_s") count neither, nor time stolen by
    other guests of a virtual machine; run.py reports that rate beside the
    wall rate as a diagnostic only.
    """
    return [r["chunks"] / r[seconds_key] for r in replays
            if r[seconds_key] > 0]


def median(values):
    return statistics.median(values) if values else 0.0


def _is_traced(replay):
    return replay["mode"] == "traced"


def check_replays(replays, reference=None):
    """Correctness of one run's replays.

    Returns a list of problems, one string per failed check (empty when
    correct).  Every replay of the run, traced or not, must end in the same
    prequential error (compared as a hexfloat) and total work; with a
    reference (the default seed's committed values) they must also equal
    it.  Every replay must process every chunk undegraded.
    """
    problems = []
    if not replays:
        return ["no replay completed"]
    outcomes = {(r["prequential_error_hex"], r["total_work"]) for r in replays}
    if len(outcomes) != 1:
        problems.append("replays disagree on (prequential error, total work): "
                        + ", ".join(sorted(f"{e}/{w}" for e, w in outcomes)))
    if not any(_is_traced(r) for r in replays):
        problems.append("no traced replica to compare with")
    if reference is not None:
        expected = (reference["prequential_error_hex"],
                    reference["total_work"])
        for error_hex, work in outcomes:
            if (error_hex, work) != expected:
                problems.append(
                    f"({error_hex}, {work}) differs from the reference "
                    f"({expected[0]}, {expected[1]})")
    for r in replays:
        if r["chunks_processed"] != r["chunks"] or r["degraded"] != 0:
            problems.append(
                f"{r['mode']} replay processed {r['chunks_processed']} of "
                f"{r['chunks']} chunks with {r['degraded']} degraded")
    return problems


def count_operations(replays):
    """(attempted, failed) over all replays: chunks and probe requests."""
    attempted = failed = 0
    for r in replays:
        attempted += r["chunks"] + r["requests_sent"]
        failed += (r["chunks"] - r["chunks_processed"]) + r["degraded"]
        failed += r["requests_errors"] + r["requests_over_limit"]
    return attempted, failed


def end_to_end(replays):
    """End-to-end metrics from the untraced replays of one run.

    Throughput and setup time take each replay's wall-clock figure and
    report the undisturbed level across replays; memory the median.  Setup
    times within one run are bimodal (on a 4-vCPU virtual machine, 8-9 ms
    and 12-15 ms for taxi_remat_spill's), and the median flips between the
    modes from run to run, while the best quarter stays put.
    """
    untraced = [r for r in replays if not _is_traced(r)]
    first = untraced[0]
    return {
        "chunks_per_s": undisturbed(replay_rates(untraced), "higher"),
        "setup_s": undisturbed([r["setup_s"] for r in untraced], "lower"),
        "prequential_error": first["prequential_error"],
        "work_per_chunk": first["total_work"] / first["chunks"],
        "peak_rss_mb": median([r["peak_rss_mb"] for r in untraced]),
    }


def _mean(values):
    return sum(values) / len(values) if values else 0.0


def _ratio(numerator, denominator):
    return numerator / denominator if denominator else 0.0


def per_layer(replays):
    """Per-layer metrics from the traced replays of one run.

    Timings and request counts pool every traced replay; the deployment's
    own counts are per replay (the stream is fixed, so they repeat
    exactly).  Shares are of loop time, the summed duration of all chunk
    spans.  The serving metrics come from the after-replay probe.
    """
    traced = [r for r in replays if _is_traced(r)]
    untraced = [r for r in replays if not _is_traced(r)]
    first = traced[0]

    def spans(name):
        return [x for r in traced for x in r["span_" + name]]

    loop = sum(spans("chunk"))

    def share(*names):
        return _ratio(sum(sum(spans(name)) for name in names), loop)

    chunk = spans("chunk")
    _, chunk_p99, _ = select_tail(chunk)
    iters = spans("proactive_iter")
    _, iter_p99, _ = select_tail(iters)
    service = [x for r in traced for x in r["service_us"]]
    latency = [x for r in traced for x in r["latency_us"]]
    lag = [x for r in traced for x in r["lag_us"]]
    _, service_p99, _ = select_tail(service)
    _, serve_p99, _ = select_tail(latency)
    _, lag_p99, _ = select_tail(lag)
    samples = (first["memory_hits"] + first["disk_hits"]
               + first["sample_misses"])
    loads = first["prefetch_hits"] + first["disk_loads"]
    sent = sum(r["requests_sent"] for r in traced)
    within = sum(r["requests_ok"] - r["requests_over_limit"] for r in traced)
    untraced_rate = undisturbed(replay_rates(untraced))
    traced_rate = undisturbed(replay_rates(traced))
    return {
        "core.chunk_p50_us": percentile(chunk, 50.0),
        "core.chunk_p99_us": chunk_p99,
        "core.chunk_samples": len(chunk),
        "core.ingest_us": _mean(spans("ingest")),
        "core.proactive_iter_p50_us": percentile(iters, 50.0),
        "core.proactive_iter_p99_us": iter_p99,
        "core.proactive_iter_samples": len(iters),
        "core.unattributed_share": _ratio(
            sum(x for r in traced for x in r["chunk_self_us"]), loop),
        "pipeline.preprocess_us": _mean(spans("preprocess")),
        "pipeline.preprocess_share": share("preprocess"),
        "pipeline.remat_us": _mean(spans("remat")),
        "pipeline.remat_chunks": first["remat_chunks"],
        "pipeline.remat_share": share("remat"),
        "ml.evaluate_us": _mean(spans("evaluate")),
        "ml.online_update_us": _mean(spans("online_update")),
        "ml.online_share": share("online_update"),
        "ml.train_step_us": _mean(spans("train_step")),
        "ml.proactive_share": share("train_step"),
        "sampling.sample_us": _mean(spans("sample")),
        "sampling.mu": _ratio(first["memory_hits"] + first["disk_hits"],
                              samples),
        "storage.store_features_us": _mean(spans("store_features")),
        "storage.memory_mu": _ratio(first["memory_hits"], samples),
        "storage.disk_mu": _ratio(first["disk_hits"], samples),
        "storage.spilled_chunks": first["chunks_spilled"],
        "storage.spill_mb": first["spill_bytes_written"] / (1 << 20),
        "storage.compression_ratio": _ratio(first["spill_bytes_written"],
                                            first["spill_raw_bytes"]),
        "storage.disk_loads": first["disk_loads"],
        "storage.prefetch_hit_rate": _ratio(first["prefetch_hits"], loads),
        "storage.bound_share": share("ingest", "sample", "remat"),
        "serving.service_p50_us": percentile(service, 50.0),
        "serving.service_p99_us": service_p99,
        "serving.queue_wait_p50_us": percentile(
            [c - s for c, s in zip(latency, service)], 50.0),
        "serving.serve_p50_us": percentile(latency, 50.0),
        "serving.serve_p99_us": serve_p99,
        "serving.slo_frac": _ratio(within, sent),
        "serving.requests": sum(r["requests_sent"] for r in traced),
        "serving.errors": sum(r["requests_errors"] for r in traced),
        "serving.gen_lag_p99_us": lag_p99,
        "obs.trace_overhead": _ratio(untraced_rate, traced_rate) - 1.0,
    }


def result(correct, attempted, failed, values=None, units=None):
    """The benchmark's last output line, as a dict.

    Metrics are reported only for a correct run: a run whose outputs are
    wrong reports its operation counts and no timings.
    """
    metrics = {}
    if correct and values is not None:
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in units.items()}
    return {"correct": bool(correct), "attempted": int(attempted),
            "failed": int(failed), "metrics": metrics}
