"""One benchmark run: set up, drive over HTTP, check answers, report.

``--trace 0`` measures the end-to-end metrics: ``setup_s`` is the median of
several set-ups, the last of which serves the phases (warm-up, a
nominal-rate phase for latency, then a ladder of offered rates for
``read_max_qps``).  ``--trace 1`` measures the per-layer metrics: it times
the build layers in-process, runs the warm-up and nominal phases against
an untraced server (for the response- and stats-derived layers and as the
base of ``trace.overhead_ratio``), then repeats them against the traced
launcher for span self times.  End-to-end numbers come only from
untraced servers.
"""

from __future__ import annotations

import argparse
import asyncio
import bisect
import hashlib
import json
import math
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

from perfbench import check, spans
from perfbench.httpgen import (
    BEHIND_SHARE,
    CONNECTIONS,
    THREADS,
    HttpConnection,
    get_json,
    post_json,
    run_phase,
)
from perfbench.serverproc import ROOT, Setup
from perfbench.workloads import (
    ANSWERS_K,
    DATASET,
    GRAPH_K,
    SCALE,
    SMOKE_SCALE,
    WORKLOADS,
    RequestStream,
    Workload,
)

#: (name, unit) of every end-to-end metric, in report order.
END_TO_END = (
    ("setup_s", "s"),
    ("read_p50_ms", "ms"),
    ("read_tail_ms", "ms"),
    ("read_max_qps", "req/s"),
    ("server_rss_mb", "MB"),
    ("recall_at_10", "ratio"),
)
#: (name, unit) of every per-layer metric, in report order.
PER_LAYER = (
    ("datasets.generate_s", "s"),
    ("graph.knn_s", "s"),
    ("clustering.louvain_s", "s"),
    ("core.index_build_s", "s"),
    ("core.spectral_build_s", "s"),
    ("core.serialize_save_s", "s"),
    ("core.serialize_load_s", "s"),
    ("service.startup_s", "s"),
    ("service.server.overhead_ms", "ms"),
    ("service.scheduler.wait_ms", "ms"),
    ("service.scheduler.batch_size", "count"),
    ("service.cache.hit_ratio", "ratio"),
    ("service.admission.rejected", "count"),
    ("core.engine.ms_per_query", "ms"),
    ("core.search.clusters_scored_per_query", "count"),
    ("core.search.nodes_scored_per_query", "count"),
    ("core.search.prune_fraction", "ratio"),
    ("core.tiered.nominate_ms", "ms"),
    ("core.tiered.rerank_ms", "ms"),
    ("core.tiered.candidates_per_query", "count"),
    ("core.sharded.faults_per_query", "count"),
    ("core.sharded.evicted_mb_per_query", "MB"),
    ("core.sharded.bound_fallbacks", "count"),
    ("core.sharded.peak_resident_mb", "MB"),
    ("core.live.add_ms", "ms"),
    ("core.live.remove_ms", "ms"),
    ("core.live.rebuilds", "count"),
    ("core.live.rebuild_s", "s"),
    ("core.live.max_query_stall_ms", "ms"),
    ("generator.max_lag_ms", "ms"),
    ("generator.cpu_ms_per_request", "ms"),
    ("trace.overhead_ratio", "ratio"),
    ("unattributed_ms", "ms"),
    ("write_p50_ms", "ms"),
    ("write_tail_ms", "ms"),
    ("failed_ratio", "ratio"),
)
#: Warm-up before any timed phase (lazy set-up, first faults): one second
#: at the nominal rate, at most this many requests.
WARMUP_REQUESTS = 60
#: Set-ups per ``--trace 0`` run; ``setup_s`` is their median.
SETUPS = 2
#: Sampled answers the live workload checks after its blocking rebuild.
LIVE_CHECK_SAMPLES = 40
#: A run that outlives this is stopped (the contract allows 180 s).
RUN_DEADLINE_S = 170


class Plan:
    """The sizes of one run: full scale, or the reduced smoke mode."""

    def __init__(self, workload: Workload, seconds: float, smoke: bool):
        self.workload = workload
        self.smoke = smoke
        self.scale = SMOKE_SCALE if smoke else SCALE
        self.seconds = seconds
        self.setups = SETUPS
        self.warmup = workload.warmup_requests or min(
            WARMUP_REQUESTS, round(workload.nominal_rate)
        )
        self.warmup_rate = workload.warmup_rate or workload.nominal_rate
        self.rung_requests = workload.rung_requests
        self.ladder = workload.ladder
        self.live_samples = LIVE_CHECK_SAMPLES
        if smoke:
            self.setups, self.warmup, self.rung_requests = 1, 10, 60
            self.ladder = workload.ladder[:4]
            self.live_samples = 10
        self.nominal_requests = max(
            20, round(workload.nominal_rate * workload.nominal_span * seconds)
        )


def percentile(values: list, pct: float) -> float:
    """Nearest-rank percentile (``inf`` entries, i.e. failures, sort last)."""
    ordered = sorted(values)
    rank = max(1, math.ceil(pct / 100 * len(ordered)))
    return ordered[rank - 1]


def _latencies(samples: list, kind: str) -> list:
    return [s.latency if s.ok else math.inf for s in samples if s.request.kind == kind]


def _completion_rate(phase, kind: str | None = "read") -> float:
    """Requests of ``kind`` (``None``: all) answered per second between the
    phase's first and last such answer."""
    done = sorted(
        s.done for s in phase.samples if s.ok and kind in (None, s.request.kind)
    )
    if len(done) < 2:
        return 0.0
    return (len(done) - 1) / (done[-1] - done[0])


class LadderSearch:
    """The search for the highest passing rung of a ladder of offered rates.

    ``low`` is the highest rung that passed (-1 for none), ``high`` the
    lowest that failed (``len(ladder)`` for none) and ``rung`` the one to
    try next.  The search starts at the top rung: over capacity, it falls
    behind at once and is cut short.  A rung that fell behind its schedule
    completed at about the server's capacity, so the search then tries the
    highest rung at or below that rate; after a pass, the next rung up (two,
    four, ... rungs up after passes in a row, in case that rate was taken
    in a stall); and after a rung failed on latency near capacity, where
    queueing takes off, the next rung down.  Without a capacity (none fell behind yet, or a
    rung failed on latency well below it) it bisects.  Like a binary search
    it ends on a passing rung whose next rung up fails, but in fewer rungs,
    so each rung can be longer.
    """

    #: A rung failing on latency below this share of the capacity is not
    #: near it.
    NEAR_CAPACITY = 0.9

    def __init__(self, ladder: tuple):
        self.ladder = ladder
        self.low, self.high = -1, len(ladder)
        self.rung = self.high - 1
        self.capacity: float | None = None
        #: How far the next step up goes; doubles with each pass in a row.
        self.step = 1

    def done(self) -> bool:
        return self.high - self.low <= 1

    def record(self, passed: bool, behind: bool, completed: float) -> None:
        """The outcome of ``rung``: passed, fell behind, and the rate (req/s)
        at which it completed requests."""
        rate = self.ladder[self.rung]
        if passed:
            self.low = self.rung
        else:
            self.high, self.step = self.rung, 1
        if behind:
            self.capacity = completed
        elif not passed and self.capacity and rate < self.NEAR_CAPACITY * self.capacity:
            self.capacity = None
        if self.capacity is None:
            guess = (self.low + self.high) // 2
        elif passed:
            guess = self.low + self.step
            self.step *= 2
        else:
            guess = bisect.bisect_right(self.ladder, self.capacity) - 1
        self.rung = min(max(guess, self.low + 1), self.high - 1)


# -- driving the server ---------------------------------------------------


async def _scrape(connection: HttpConnection) -> dict:
    return {
        "metrics": await get_json(connection, "/metrics"),
        "stats": await get_json(connection, "/stats"),
    }


def _rung_passes(phase, plan: Plan) -> tuple:
    reads = _latencies(phase.samples, "read")
    tail = percentile(reads, plan.workload.tail_percentile) if reads else math.inf
    over = phase.over_capacity()
    return (not over and tail <= plan.workload.limit_ms / 1e3), tail, over


async def drive(port: int, plan: Plan, stream: RequestStream, ladder: bool) -> dict:
    """Warm-up, nominal phase, optionally the ladder; plus scrapes around them."""
    workload = plan.workload
    connections = [HttpConnection("127.0.0.1", port) for _ in range(CONNECTIONS)]
    for connection in connections:
        await connection.open()
    try:
        session: dict = {"scrapes": {"start": await _scrape(connections[0])}}
        session["warmup"] = await run_phase(
            connections, stream.take(plan.warmup), plan.warmup_rate, "warmup"
        )
        session["scrapes"]["before"] = await _scrape(connections[0])
        session["nominal"] = await run_phase(
            connections,
            stream.take(plan.nominal_requests),
            workload.nominal_rate,
            "nominal",
        )
        session["scrapes"]["after"] = await _scrape(connections[0])
        session["rungs"] = []
        if ladder:
            search = LadderSearch(plan.ladder)
            while not search.done():
                if workload.write_share:
                    # Reads slow down as inserts pend and deletes pile up:
                    # every rung starts from a fresh index, so a rung's
                    # result does not depend on the rungs searched before.
                    await _fold_writes(connections[0])
                await asyncio.sleep(0.1)  # let the previous rung drain
                phase = await run_phase(
                    connections,
                    stream.take(plan.rung_requests),
                    plan.ladder[search.rung],
                    f"rung {search.rung}",
                    abort_after=4 * workload.limit_ms / 1e3,
                )
                passed, tail, over = _rung_passes(phase, plan)
                session["rungs"].append((search.rung, phase, passed, tail, over))
                search.record(passed, over, _completion_rate(phase, None))
            session["top_rung"] = search.low
        if workload.name == "live_rw":
            session["live"] = await _quiesce_and_sample(connections[0], plan, stream)
        session["scrapes"]["end"] = await _scrape(connections[0])
        return session
    finally:
        for connection in connections:
            await connection.close()


async def _fold_writes(connection) -> None:
    """Rebuild until the index holds exactly the live points.

    A rebuild already in flight snapshotted the points before the last
    writes, so blocking rebuilds repeat until no insert is pending and no
    deleted point is still in the graph.
    """
    for _ in range(4):
        status, body = await post_json(connection, "/rebuild", {"wait": True})
        if status != 200:
            raise RuntimeError(f"/rebuild answered {status}: {body}")
        live = (await get_json(connection, "/stats"))["live"]
        folded = live["n_pending"] == 0 and live["n_indexed"] == live["n_live"]
        if folded and not live["rebuild_in_flight"]:
            break
    else:
        raise RuntimeError(f"writes still pending after blocking rebuilds: {live}")


async def _quiesce_and_sample(connection, plan: Plan, stream: RequestStream) -> dict:
    """Fold every write into the index, then read back sampled answers."""
    await _fold_writes(connection)
    served, failed = {}, 0
    for node in stream.readable_sample(plan.live_samples):
        status, body = await post_json(
            connection, "/search", {"query": node, "k": ANSWERS_K}
        )
        if status == 200:
            served[node] = body
        else:
            failed += 1
    return {"served": served, "failed": failed}


# -- metrics ---------------------------------------------------------------


def _delta(after: dict, before: dict, *path) -> float:
    for key in path:
        after, before = after.get(key, {}), before.get(key, {})
    return float((after or 0) - (before or 0))


def _tier_delta(after: dict, before: dict, field: str) -> float:
    tiers_a = after["metrics"].get("tiers", {})
    tiers_b = before["metrics"].get("tiers", {})
    return sum(
        entry[field] - tiers_b.get(label, {}).get(field, 0)
        for label, entry in tiers_a.items()
    )


def response_layers(phase, before: dict, after: dict, start: dict, end: dict) -> dict:
    """Per-layer values from response bodies and ``/metrics``/``/stats`` deltas."""
    documents = []
    for sample in phase.samples:
        if sample.request.kind == "read" and sample.ok:
            documents.append((sample, json.loads(sample.body)))
    solved = [d for _, d in documents if not d.get("cached")]
    queries = max(1.0, _delta(after["metrics"], before["metrics"], "queries_batched"))
    residency_a = after["metrics"].get("residency", {})
    residency_b = before["metrics"].get("residency", {})
    live_end = end["stats"].get("live", {})
    live_start = start["stats"].get("live", {})
    tier_queries = _tier_delta(after, before, "queries")
    admission = ("sheds_total", "degraded_total", "deadline_timeouts_total")

    def per_query(field: str) -> float:
        return statistics.fmean(d["stats"][field] for d in solved) if solved else 0.0

    def per_tier_query(field: str, scale: float = 1.0) -> float:
        if not tier_queries:
            return 0.0
        return scale * _tier_delta(after, before, field) / tier_queries

    return {
        "service.server.overhead_ms": statistics.fmean(
            1e3 * (s.done - s.sent) - d["latency_ms"] for s, d in documents
        ),
        "service.scheduler.batch_size": (
            statistics.fmean(d["batch_size"] for d in solved) if solved else 0.0
        ),
        "service.cache.hit_ratio": (
            sum(1 for _, d in documents if d.get("cached")) / len(documents)
        ),
        "service.admission.rejected": sum(
            _delta(end["metrics"], start["metrics"], "admission", key)
            for key in admission
        ),
        "core.search.clusters_scored_per_query": per_query("clusters_scored"),
        "core.search.nodes_scored_per_query": per_query("nodes_scored"),
        "core.search.prune_fraction": per_query("prune_fraction"),
        "core.tiered.nominate_ms": per_tier_query("spectral_seconds", 1e3),
        "core.tiered.rerank_ms": per_tier_query("rerank_seconds", 1e3),
        "core.tiered.candidates_per_query": per_tier_query("candidates"),
        "core.sharded.faults_per_query": _delta(
            residency_a, residency_b, "faults_total"
        ) / queries,
        "core.sharded.evicted_mb_per_query": _delta(
            residency_a, residency_b, "evicted_bytes_total"
        ) / 1e6 / queries,
        "core.sharded.bound_fallbacks": _delta(
            residency_a, residency_b, "bound_fallbacks_total"
        ),
        "core.sharded.peak_resident_mb": float(
            end["metrics"].get("residency", {}).get("peak_resident_bytes", 0)
        ) / 1e6,
        "core.live.rebuilds": float(
            live_end.get("rebuilds", 0) - live_start.get("rebuilds", 0)
        ),
        "core.live.max_query_stall_ms": 1e3
        * float(live_end.get("max_query_stall_seconds", 0.0)),
        "generator.max_lag_ms": 1e3 * phase.max_loop_lag,
        "generator.cpu_ms_per_request": 1e3 * phase.cpu_seconds
        / max(1, len(phase.samples)),
    }


def _phase_counts(session: dict) -> dict:
    counts = {
        "warmup": session["warmup"].counts(),
        "nominal": session["nominal"].counts(),
    }
    for middle, phase, passed, tail, over in session["rungs"]:
        counts[f"rung_{middle}"] = {
            **phase.counts(),
            "offered_rate": phase.rate,
            "read_completion_rate": _completion_rate(phase),
            "passed": passed,
            "tail_ms": 1e3 * tail,
            "over_capacity": over,
        }
    return counts


def _all_samples(session: dict) -> list:
    samples = list(session["warmup"].samples) + list(session["nominal"].samples)
    for _, phase, *_ in session["rungs"]:
        samples.extend(phase.samples)
    return samples


def _write_metrics(session: dict, tail_percentile: int) -> dict:
    """``write_p50_ms`` over the nominal phase; ``write_tail_ms`` over the
    writes of the nominal phase and of every passing rung, since the nominal
    phase alone holds too few writes for a tail.  0 without writes."""
    nominal = _latencies(session["nominal"].samples, "write")
    timed = list(nominal)
    for _, phase, passed, *_ in session["rungs"]:
        if passed:
            timed.extend(_latencies(phase.samples, "write"))
    return {
        "write_p50_ms": 1e3 * percentile(nominal, 50) if nominal else 0.0,
        "write_tail_ms": 1e3 * percentile(timed, tail_percentile) if timed else 0.0,
    }


def verify(plan: Plan, session: dict, stream: RequestStream, artifact: Path) -> dict:
    """Check the served answers; returns counts, wrong answers and recall."""
    samples = _all_samples(session)
    workload = plan.workload
    if workload.name == "live_rw":
        inserted, deleted = {}, set()
        for sample in samples:
            if not sample.ok:
                continue
            if sample.request.path == "/insert":
                inserted[json.loads(sample.body)["id"]] = stream.features[
                    sample.request.ref
                ]
            elif sample.request.path == "/delete":
                deleted.add(sample.request.ref)
        engine, live_ids = check.fresh_live_engine(stream.corpus, inserted, deleted)
        return check.check_live(session["live"]["served"], engine, live_ids)
    from repro.core.engine import engine_from_index
    from repro.core.serialize import load_any_index
    from repro.graph import build_knn_graph

    graph = build_knn_graph(stream.corpus, k=GRAPH_K)
    engine = engine_from_index(graph, load_any_index(artifact))
    if workload.name == "tiered_zipf":
        reads = [s.request for s in samples if s.request.kind == "read"]
        return check.check_recall(samples, check.recall_reference(engine, reads))
    return check.check_exact(samples, engine, stream.features)


# -- the two kinds of run ---------------------------------------------------


def _load_corpus(plan: Plan) -> np.ndarray:
    from repro.datasets import load_dataset

    return load_dataset(DATASET, scale=plan.scale, seed=0).features


def _served_session(plan: Plan, seed: int, setup: Setup, ladder: bool, corpus) -> tuple:
    """Drive ``setup``'s server, stop it, then check what it answered."""
    stream = RequestStream(plan.workload, seed, corpus)
    session = asyncio.run(drive(setup.server.port, plan, stream, ladder))
    session["rss_mb"] = setup.server.peak_rss_mb()
    setup.server.stop()
    result = verify(plan, session, stream, setup.artifact)
    samples = _all_samples(session)
    live = session.get("live", {"served": {}, "failed": 0})
    attempted = len(samples) + len(live["served"]) + live["failed"]
    failed = sum(1 for s in samples if not s.ok) + live["failed"] + result["wrong"]
    session["checked"] = {
        **result,
        "attempted": attempted,
        "failed": failed,
        "failed_ratio": failed / attempted,
    }
    return session, stream


def untraced_run(plan: Plan, seed: int, run_dir: Path) -> dict:
    corpus = _load_corpus(plan)
    setup_seconds, startups = [], []
    setup = None
    for index in range(plan.setups):
        setup = Setup(plan.workload, plan.scale, run_dir)
        setup_seconds.append(setup.seconds)
        startups.append(setup.startup_seconds)
        if index < plan.setups - 1:
            setup.close()
    try:
        session, _ = _served_session(plan, seed, setup, True, corpus)
    finally:
        setup.close()
    checked = session["checked"]
    nominal = session["nominal"]
    # Both flags mean the host ran far slower than the rates were sized
    # for; the run still reports what it measured, and says so.
    flags = {
        "nominal_over_capacity": nominal.over_capacity(),
        "no_rung_passed": session["top_rung"] < 0,
    }
    for flag in (name for name, raised in flags.items() if raised):
        print(f"warning: {flag.replace('_', ' ')}", file=sys.stderr)
    reads = _latencies(nominal.samples, "read")
    # Without a passing rung, the lowest rung's rate is what was reached.
    top_index = max(session["top_rung"], 0)
    top = next(p for m, p, *_ in session["rungs"] if m == top_index)
    # Completion rate between the first and last answered read of the top
    # passing rung (free of the offset the first and last latency add).
    top_rate = _completion_rate(top)
    if not top_rate:
        raise RuntimeError(f"rung {top.name!r} answered fewer than 2 reads")
    end_to_end = {
        "setup_s": statistics.median(setup_seconds),
        "read_p50_ms": 1e3 * percentile(reads, 50),
        "read_tail_ms": 1e3 * percentile(reads, plan.workload.tail_percentile),
        "read_max_qps": top_rate,
        "server_rss_mb": session["rss_mb"],
        "recall_at_10": checked["recall"],
    }
    extra = {
        **_write_metrics(session, plan.workload.tail_percentile),
        "failed_ratio": checked["failed_ratio"],
    }
    return {
        "metrics": end_to_end,
        "extra": extra,
        "setups_s": setup_seconds,
        "startups_s": startups,
        "phases": _phase_counts(session),
        "checked": checked,
        "top_rung_rate": plan.ladder[top_index],
        **flags,
    }


def build_layers(plan: Plan, run_dir: Path) -> tuple:
    """In-process timings of the build layers, with the CLI's arguments."""
    from repro.clustering.louvain import louvain
    from repro.core.index import MogulIndex
    from repro.core.serialize import (
        load_any_index,
        load_spectral_tier,
        save_spectral_index,
        spectral_tier_path,
    )
    from repro.core.sharded import ShardedMogulIndex
    from repro.core.spectral import SpectralIndex
    from repro.datasets import load_dataset

    flags = plan.workload.build_flags
    timings = {}
    clock = time.perf_counter
    started = clock()
    dataset = load_dataset(DATASET, scale=plan.scale, seed=0)
    timings["datasets.generate_s"] = clock() - started
    started = clock()
    graph = dataset.build_graph(k=GRAPH_K)
    timings["graph.knn_s"] = clock() - started
    started = clock()
    labels = louvain(graph.adjacency)
    timings["clustering.louvain_s"] = clock() - started
    started = clock()
    if "--shards" in flags:
        shards = int(flags[flags.index("--shards") + 1])
        index = ShardedMogulIndex.build(graph, shards, cluster_labels=labels)
    else:
        index = MogulIndex.build(graph, cluster_labels=labels)
    timings["core.index_build_s"] = clock() - started
    tier = None
    timings["core.spectral_build_s"] = 0.0
    if "--spectral-rank" in flags:
        rank = int(flags[flags.index("--spectral-rank") + 1])
        started = clock()
        tier = SpectralIndex.build(graph, rank=rank, alpha=index.alpha)
        timings["core.spectral_build_s"] = clock() - started
    path = run_dir / f"layers-{plan.workload.artifact}"
    started = clock()
    index.save(str(path))
    if tier is not None:
        save_spectral_index(tier, spectral_tier_path(str(path)))
    timings["core.serialize_save_s"] = clock() - started
    started = clock()
    load_any_index(str(path))
    if tier is not None:
        load_spectral_tier(str(path))
    timings["core.serialize_load_s"] = clock() - started
    return timings, dataset.features


def traced_run(plan: Plan, seed: int, run_dir: Path) -> dict:
    timings, corpus = build_layers(plan, run_dir)
    setup = Setup(plan.workload, plan.scale, run_dir)
    startup = setup.startup_seconds
    try:
        plain, _ = _served_session(plan, seed, setup, False, corpus)
    finally:
        setup.close()
    spans_out = run_dir / "spans.json"
    setup = Setup(plan.workload, plan.scale, run_dir, spans_out=spans_out)
    try:
        traced, traced_stream = _served_session(plan, seed, setup, False, corpus)
    finally:
        setup.close()
    checked, traced_checked = plain["checked"], traced["checked"]
    with open(spans_out) as source:
        document = json.load(source)
    phase = traced["nominal"]
    reads = [
        (_request_key(s.request, traced_stream), s.sent, s.done, json.loads(s.body)["latency_ms"])
        for s in phase.samples
        if s.request.kind == "read" and s.ok
    ]
    analysis = spans.analyze(document, reads, (phase.started, phase.started + phase.elapsed))
    scrapes = plain["scrapes"]
    layers = response_layers(
        plain["nominal"], scrapes["before"], scrapes["after"], scrapes["start"], scrapes["end"]
    )
    plain_reads = _latencies(plain["nominal"].samples, "read")
    traced_reads = _latencies(phase.samples, "read")
    metrics = {
        **timings,
        "service.startup_s": startup,
        **layers,
        "service.scheduler.wait_ms": analysis["scheduler_wait_ms"],
        "core.engine.ms_per_query": analysis["engine_ms_per_query"],
        "core.live.add_ms": analysis["live_add_ms"],
        "core.live.remove_ms": analysis["live_remove_ms"],
        "core.live.rebuild_s": analysis["rebuild_s"],
        "trace.overhead_ratio": percentile(traced_reads, 50)
        / percentile(plain_reads, 50),
        "unattributed_ms": analysis["unattributed_ms"],
        **_write_metrics(plain, plan.workload.tail_percentile),
        "failed_ratio": (checked["failed"] + traced_checked["failed"])
        / (checked["attempted"] + traced_checked["attempted"]),
    }
    return {
        "metrics": metrics,
        "phases": {"untraced": _phase_counts(plain), "traced": _phase_counts(traced)},
        "checked": {"untraced": checked, "traced": traced_checked},
        "spans": analysis,
    }


def _request_key(request, stream) -> str:
    if request.path == "/search_oos":
        return spans.feature_key(stream.features[request.ref])
    return spans.node_key(request.ref)


# -- report ------------------------------------------------------------------


def environment() -> dict:
    """Where and on what the run happened (one schema for every row)."""
    import scipy

    try:
        commit = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
        ).stdout.strip() or None
    except OSError:
        commit = None
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "commit": commit,
        "source_sha256": digest.hexdigest(),
        "cpu_count": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "platform": platform.platform(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


def _row(args, plan: Plan, result: dict) -> dict:
    workload = plan.workload
    units = dict(END_TO_END + PER_LAYER)
    return {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "environment": environment(),
        "generator": {
            "connections": CONNECTIONS,
            "threads": THREADS,
            "loop": "open",
        },
        "load": {
            "nominal_rate": workload.nominal_rate,
            "nominal_requests": plan.nominal_requests,
            "ladder": list(plan.ladder),
            "limit_ms": workload.limit_ms,
            "tail_percentile": workload.tail_percentile,
            "behind_share": BEHIND_SHARE,
            "rung_requests": plan.rung_requests,
            "setups": plan.setups,
        },
        **{key: value for key, value in result.items() if key != "metrics"},
        "metrics": {
            name: {"value": value, "unit": units[name]}
            for name, value in result["metrics"].items()
        },
    }


def _print_report(row: dict) -> None:
    print(f"workload {row['workload']}  seed {row['seed']}  trace {row['trace']}")
    for name, metric in row["metrics"].items():
        print(f"  {name:40s} {metric['value']:14.6g} {metric['unit']}")
    for name, value in row.get("extra", {}).items():
        print(f"  {name:40s} {value:14.6g} {dict(PER_LAYER)[name]}")
    layers = row.get("spans", {}).get("layers", {})
    for name, entry in layers.items():
        print(
            f"  span {name:35s} calls {entry['calls']:6d}  mean "
            f"{entry['mean_ms']:9.4f} ms  self {entry['mean_self_ms']:9.4f} ms"
        )


def _on_signal(signum, frame):
    raise SystemExit(f"stopped by signal {signum}")


def main(argv: list) -> int:
    parser = argparse.ArgumentParser(prog="perfbench/run.py", description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--smoke",
        action="store_true",
        help="reduced scale and phases (the benchmark's own tests)",
    )
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    plan = Plan(WORKLOADS[args.workload], args.seconds, args.smoke)
    signal.signal(signal.SIGTERM, _on_signal)
    signal.signal(signal.SIGALRM, _on_signal)
    signal.alarm(RUN_DEADLINE_S)
    work = ROOT / ".perfbench"
    work.mkdir(exist_ok=True)
    run_dir = Path(tempfile.mkdtemp(prefix="run-", dir=work))
    try:
        if args.trace:
            result = traced_run(plan, args.seed, run_dir)
        else:
            result = untraced_run(plan, args.seed, run_dir)
    finally:
        signal.alarm(0)
        shutil.rmtree(run_dir, ignore_errors=True)
    row = _row(args, plan, result)
    _print_report(row)
    line = json.dumps(row)
    with open(work / "results.jsonl", "a") as results:
        results.write(line + "\n")
    print(line)
    checked = result["checked"]
    parts = checked.values() if args.trace else [checked]
    wanted = PER_LAYER if args.trace else END_TO_END
    print(
        json.dumps(
            {
                "correct": all(part["wrong"] == 0 for part in parts),
                "attempted": sum(part["attempted"] for part in parts),
                "failed": sum(part["failed"] for part in parts),
                "metrics": {
                    name: row["metrics"][name] for name, _ in wanted
                },
            }
        )
    )
    return 0
