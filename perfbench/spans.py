"""Timing wrappers around layer entry points, and the self-time analysis.

The traced launcher (``traced_serve.py``) installs these wrappers in the
server process before it calls the ordinary ``repro serve`` entry point;
nothing in ``src/`` knows about them.  A span is ``(id, name, start, end,
parent, key)``: ``parent`` links a span to the call that caused it (a
thread-local stack for nested engine calls, a context variable for calls
made inside a scheduler request), and ``key`` names the query a span
served, which is how a request's scheduler span is matched with the engine
call that answered it on a worker thread.  Spans stay in memory and are
written out when the server exits.
"""

from __future__ import annotations

import contextvars
import functools
import hashlib
import itertools
import json
import statistics
import threading
import time

import numpy as np

SCHEDULER = "service.scheduler"
CACHE_GET = "service.cache.get"
ENGINE = "core.engine"
TIERED_BASE = "core.tiered.base"
TIERED_SPECTRAL = "core.tiered.spectral"
LIVE_ADD = "core.live.add"
LIVE_REMOVE = "core.live.remove"
LIVE_REBUILD_ASYNC = "core.live.rebuild_async"


def node_key(node) -> str:
    return f"n:{int(node)}"


def feature_key(feature) -> str:
    """A process-independent key for a query vector (its float64 bytes)."""
    data = np.ascontiguousarray(feature, dtype=np.float64).tobytes()
    return "o:" + hashlib.blake2b(data, digest_size=8).hexdigest()


class SpanRecorder:
    """In-memory span store shared by every wrapper in one process."""

    def __init__(self) -> None:
        self.spans: list = []
        self.tickets: list = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._request = contextvars.ContextVar("perfbench_request", default=None)

    def _stack(self) -> list:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, cls, attr: str, name: str, key=None) -> None:
        """Replace ``cls.attr`` with a timed wrapper (sync methods)."""
        original = getattr(cls, attr)
        recorder = self

        @functools.wraps(original)
        def timed(obj, *args, **kwargs):
            span_id = next(recorder._ids)
            stack = recorder._stack()
            parent = stack[-1] if stack else recorder._request.get()
            stack.append(span_id)
            started = time.perf_counter()
            try:
                return original(obj, *args, **kwargs)
            finally:
                ended = time.perf_counter()
                stack.pop()
                recorder.spans.append(
                    (span_id, name, started, ended, parent, key(*args) if key else None)
                )

        setattr(cls, attr, timed)

    def wrap_request(self, cls, attr: str, key) -> None:
        """Time a scheduler coroutine; calls made inside it name it parent."""
        original = getattr(cls, attr)
        recorder = self

        @functools.wraps(original)
        async def timed(obj, *args, **kwargs):
            span_id = next(recorder._ids)
            token = recorder._request.set(span_id)
            started = time.perf_counter()
            try:
                return await original(obj, *args, **kwargs)
            finally:
                ended = time.perf_counter()
                recorder._request.reset(token)
                recorder.spans.append(
                    (span_id, SCHEDULER, started, ended, None, key(*args))
                )

        setattr(cls, attr, timed)

    def keep_tickets(self, cls, attr: str) -> None:
        """Remember every rebuild ticket ``cls.attr`` hands out."""
        original = getattr(cls, attr)
        recorder = self

        @functools.wraps(original)
        def keeping(obj, *args, **kwargs):
            ticket = original(obj, *args, **kwargs)
            recorder.tickets.append(ticket)
            return ticket

        setattr(cls, attr, keeping)

    def dump(self, path) -> None:
        tickets = {id(t): t for t in self.tickets}.values()
        document = {
            "spans": self.spans,
            "rebuild_seconds": [
                t.build_seconds for t in tickets if t.done and t.error is None
            ],
        }
        with open(path, "w") as out:
            json.dump(document, out)


def install(recorder: SpanRecorder) -> None:
    """Wrap the layer entry points the benchmark attributes time to."""
    from repro.core.index import MogulRanker
    from repro.core.live import LiveEngine
    from repro.core.sharded import ShardedMogulRanker
    from repro.core.spectral import SpectralEngine
    from repro.ranking.base import AmbientStatsMixin
    from repro.service.cache import ResultCache
    from repro.service.scheduler import MicroBatchScheduler

    recorder.wrap_request(
        MicroBatchScheduler, "search", lambda node, *a, **kw: node_key(node)
    )
    recorder.wrap_request(
        MicroBatchScheduler,
        "search_out_of_sample",
        lambda feature, *a, **kw: feature_key(feature),
    )
    recorder.wrap(ResultCache, "get", CACHE_GET)
    recorder.wrap(
        AmbientStatsMixin, "top_k_with_stats", ENGINE,
        lambda query, *a, **kw: [node_key(query)],
    )
    recorder.wrap(
        AmbientStatsMixin, "top_k_batch_with_stats", ENGINE,
        lambda queries, *a, **kw: [node_key(q) for q in queries],
    )
    recorder.wrap(
        AmbientStatsMixin, "top_k_out_of_sample_with_stats", ENGINE,
        lambda feature, *a, **kw: [feature_key(feature)],
    )
    recorder.wrap(
        AmbientStatsMixin, "top_k_out_of_sample_batch_with_stats", ENGINE,
        lambda features, *a, **kw: [feature_key(f) for f in features],
    )
    for base in (MogulRanker, ShardedMogulRanker):
        for attr in ("top_k_rerank", "top_k_rerank_batch", "top_k_rerank_seeded"):
            recorder.wrap(base, attr, TIERED_BASE)
    for attr in ("nominate", "nominate_batch"):
        recorder.wrap(SpectralEngine, attr, TIERED_SPECTRAL)
    recorder.wrap(LiveEngine, "add", LIVE_ADD)
    recorder.wrap(LiveEngine, "remove", LIVE_REMOVE)
    recorder.wrap(LiveEngine, "rebuild_async", LIVE_REBUILD_ASYNC)
    recorder.keep_tickets(LiveEngine, "rebuild_async")


def _mean(values) -> float:
    values = list(values)
    return statistics.fmean(values) if values else 0.0


def analyze(document: dict, reads: list, window: tuple) -> dict:
    """Per-layer self times for the ``reads`` of one traced phase.

    ``reads`` are ``(key, sent, done, latency_ms)`` for every read answered
    200 in the phase; ``window`` the phase's ``(start, end)``
    ``perf_counter`` interval (the clock is shared across processes).
    """
    spans = [tuple(s) for s in document["spans"]]
    lo, hi = window
    children: dict = {}
    for span in spans:
        if span[4] is not None:
            children.setdefault(span[4], []).append(span)
    requests: dict = {}
    engine_by_key: dict = {}
    for span in spans:
        if span[1] == SCHEDULER:
            requests.setdefault(span[5], []).append(span)
        elif span[1] == ENGINE:
            for key in span[5]:
                engine_by_key.setdefault(key, []).append(span)

    def inside(span, start, end) -> bool:
        return start <= span[2] and span[3] <= end

    layers: dict = {}
    for span in spans:
        if not lo <= span[2] <= hi:
            continue
        duration = span[3] - span[2]
        own = duration - sum(c[3] - c[2] for c in children.get(span[0], ()))
        entry = layers.setdefault(span[1], {"calls": 0, "ms": 0.0, "self_ms": 0.0})
        entry["calls"] += 1
        entry["ms"] += 1e3 * duration
        entry["self_ms"] += 1e3 * own

    waits, unattributed, unmatched = [], [], 0
    for key, sent, done, latency_ms in reads:
        match = [s for s in requests.get(key, ()) if inside(s, sent, done)]
        if len(match) != 1:
            unmatched += 1
            continue
        scheduler = match[0]
        cache_ms = 1e3 * sum(
            c[3] - c[2] for c in children.get(scheduler[0], ()) if c[1] == CACHE_GET
        )
        engines = [
            s for s in engine_by_key.get(key, ()) if inside(s, scheduler[2], scheduler[3])
        ]
        engine_ms = 1e3 * sum(s[3] - s[2] for s in engines)
        wait_ms = 1e3 * (scheduler[3] - scheduler[2]) - engine_ms - cache_ms
        rtt_ms = 1e3 * (done - sent)
        overhead_ms = rtt_ms - latency_ms
        waits.append(wait_ms)
        unattributed.append(rtt_ms - overhead_ms - wait_ms - engine_ms - cache_ms)

    engine_spans = [s for s in spans if s[1] == ENGINE and lo <= s[2] <= hi]
    queries = sum(len(s[5]) for s in engine_spans)
    return {
        "layers": {
            name: {
                "calls": entry["calls"],
                "mean_ms": entry["ms"] / entry["calls"],
                "mean_self_ms": entry["self_ms"] / entry["calls"],
            }
            for name, entry in sorted(layers.items())
        },
        "matched_reads": len(waits),
        "unmatched_reads": unmatched,
        "scheduler_wait_ms": _mean(waits),
        "unattributed_ms": _mean(unattributed),
        "engine_ms_per_query": (
            1e3 * sum(s[3] - s[2] for s in engine_spans) / queries if queries else 0.0
        ),
        "cache_get_ms": _mean(
            1e3 * (s[3] - s[2]) for s in spans if s[1] == CACHE_GET and lo <= s[2] <= hi
        ),
        "live_add_ms": _mean(
            1e3 * (s[3] - s[2]) for s in spans if s[1] == LIVE_ADD and lo <= s[2] <= hi
        ),
        "live_remove_ms": _mean(
            1e3 * (s[3] - s[2]) for s in spans if s[1] == LIVE_REMOVE and lo <= s[2] <= hi
        ),
        "rebuild_s": _mean(document["rebuild_seconds"]),
    }
