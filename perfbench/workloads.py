"""Workload definitions and their seeded request streams.

Every workload serves the same corpus: the INRIA substitute at
``--scale 1.25`` (n = 10^4 points, 128-D), a k = 5 graph, k = 10 answers.
The corpus seed is fixed; the workload seed given on the command line only
chooses which requests are sent, so the program under test receives nothing
but the generated inputs.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

import numpy as np

DATASET = "inria"
SCALE = 1.25
SMOKE_SCALE = 0.25
GRAPH_K = 5
ANSWERS_K = 10
#: Standard deviation of the per-coordinate noise added to database points
#: to make out-of-sample queries and inserted points (features are unit-norm
#: 128-D vectors with per-coordinate spread ~0.07).
FEATURE_NOISE = 0.005


def geometric_ladder(start: float, stop: float, step: float = 1.05) -> tuple:
    """Offered rates from ``start`` up to ``stop``, adjacent rungs ``step`` apart."""
    rungs = [start]
    while rungs[-1] * step <= stop:
        rungs.append(rungs[-1] * step)
    return tuple(round(rate, 2) for rate in rungs)


@dataclass(frozen=True)
class Workload:
    """One traffic mix against one server configuration.

    ``nominal_rate`` (req/s) is the fixed rate at which latency is sampled,
    at most a third of the capacity measured on a quiet 2-core host so that
    a busy host does not push the phase over capacity;
    ``ladder`` the offered rates searched for ``read_max_qps``; a rung
    passes when its read tail stays within ``limit_ms`` and the generator
    keeps up with the schedule (see :meth:`perfbench.httpgen.Phase.over_capacity`).
    The limit sits about ten times above the nominal tail, so a rung fails
    where queueing takes off, not on tail noise.  ``rung_requests`` is the
    sample of one rung.  ``tail_percentile`` is the percentile of
    ``read_tail_ms``, ``write_tail_ms`` and of the rung latency check; p75
    unless the workload's latencies have a gap there.  ``nominal_span`` is
    the length of the nominal phase in multiples of ``--seconds``, for a
    workload whose nominal rate leaves too few samples otherwise.
    """

    name: str
    why: str
    build_flags: tuple = ()
    serve_flags: tuple = ()
    nominal_rate: float = 100.0
    nominal_span: float = 1.0
    ladder: tuple = ()
    limit_ms: float = 25.0
    rung_requests: int = 500
    #: On a shared 2-core VM, CPU steal bursts of 5-18% lasting 10-25 s
    #: (the hypervisor running other guests) land on whole runs; over ten
    #: runs of ``exact_uniform`` they moved p90 by 0.33 (IQR / median) and
    #: p75 by 0.10.
    tail_percentile: int = 75
    write_share: float = 0.0
    #: Untimed requests before the nominal phase (0: one second's worth at
    #: the nominal rate) and the rate they are sent at (0: nominal).
    warmup_requests: int = 0
    warmup_rate: float = 0.0

    @property
    def artifact(self) -> str:
        """File name ``repro build`` writes: a directory when sharded."""
        return "index" if "--shards" in self.build_flags else "index.npz"


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="exact_uniform",
            why="flat index, /search on distinct uniform node ids so the "
            "result cache never hits: the engine scan and the bare request "
            "path do all the work",
            nominal_rate=100.0,
            ladder=geometric_ladder(75.0, 900.0),
            limit_ms=50.0,
        ),
        Workload(
            name="tiered_zipf",
            why="spectral tier served at the default dial, Zipf-skewed node "
            "ids so many requests hit the result cache: exercises "
            "nominate/re-rank and the cache",
            build_flags=("--spectral-rank", "128"),
            # Fill the result cache to near its steady hit ratio (~70%)
            # before timing; timed while it fills, the ratio sits near 50%
            # and the latency median flips between the hit and miss modes.
            warmup_requests=800,
            warmup_rate=500.0,
            nominal_rate=150.0,
            ladder=geometric_ladder(100.0, 1800.0),
            limit_ms=50.0,
            rung_requests=700,
        ),
        Workload(
            name="sharded_oos_budget",
            why="4 shards under a memory budget with int8 bounds, "
            "/search_oos with 128-float bodies: request parsing, the "
            "out-of-sample probe, scatter-gather and shard faults",
            build_flags=("--shards", "4"),
            # About half the evictable shard state (4 shards of ~0.30 MB at
            # this scale), as two shards fit: a query faults 0-5 shards in,
            # 10-15 ms each, so its latency has one mode per fault count.
            # The p50 falls inside the one-fault mode (~30% of queries
            # fault none, ~40% one) and the p80 inside the two-fault mode;
            # the p75 lay on the edge between them and flipped between
            # ~25 and ~33 ms from seed to seed.  At 0.45 MB (one shard
            # resident) the p50 lay on such an edge.
            serve_flags=("--memory-budget-mb", "0.6", "--bounds-dtype", "int8"),
            tail_percentile=80,
            # About a third of the ~55 req/s capacity, for 1.75 x --seconds:
            # ~210 queries at --seconds 6, for medians over fault modes.
            nominal_rate=20.0,
            nominal_span=1.75,
            ladder=geometric_ladder(20.0, 120.0),
            limit_ms=300.0,
            # With fault counts this varied, the service time of a query has
            # a coefficient of variation near 0.85: 250 queries put a rung's
            # capacity within ~5%; at 50 the highest passing rung moved by
            # 25-33% (IQR / median) between seeds.
            rung_requests=250,
        ),
        Workload(
            name="live_rw",
            why="mutable flat index, 90% uniform /search beside 10% "
            "inserts/deletes, background rebuilds between phases: writes, "
            "the pending buffer, tombstones and epoch swaps beside reads",
            # Automatic rebuilds are off; the run rebuilds between phases.
            # A rebuild running under timed reads stalls them for 10-200 ms
            # depending on where in its ~2 s cycle they land: with one
            # always running, the nominal p50 moved by ~13% and p90 by ~34%
            # (IQR / median) between seeds even over 16 s phases.
            serve_flags=("--mutable", "--auto-rebuild-fraction", "0"),
            nominal_rate=40.0,
            ladder=geometric_ladder(50.0, 300.0),
            limit_ms=100.0,
            # Reads slow down as the rung's writes pend, so the rung length
            # is part of what this capacity means: at 400 requests (40
            # writes) it fell from ~190 to ~60 req/s.  An even number of
            # writes per rung (and per phase before the ladder) makes every
            # rung start with the same write, an insert.
            rung_requests=160,
            write_share=0.1,
        ),
    )
}


@dataclass(frozen=True)
class Request:
    """One prepared HTTP request.

    ``ref`` identifies the input for the answer check: the node id of a
    ``/search`` or ``/delete``, or the row of :attr:`RequestStream.features`
    holding the vector of a ``/search_oos`` or ``/insert``.
    """

    kind: str  # "read" or "write"
    path: str
    body: bytes
    ref: int


def _body(document: dict) -> bytes:
    return json.dumps(document, separators=(",", ":")).encode("ascii")


class RequestStream:
    """The seeded, deterministic request sequence of one workload run.

    Phases take consecutive chunks with :meth:`take`, so a given seed sends
    the same requests in the same order on every commit.
    """

    def __init__(self, workload: Workload, seed: int, corpus: np.ndarray):
        self.workload = workload
        self.corpus = corpus
        self.n = corpus.shape[0]
        self._rng = np.random.default_rng([seed, 0x5EED])
        #: Vectors sent in ``/search_oos`` and ``/insert`` bodies, by row.
        self.features: list[np.ndarray] = []
        self._issued = self._writes = 0
        order = self._rng.permutation(self.n)
        if workload.name == "tiered_zipf":
            # Zipf(s = 1.1) over node ranks; the rank -> node map is a
            # seeded permutation so hot nodes differ between seeds.
            ranks = np.arange(1, self.n + 1, dtype=np.float64)
            weights = ranks**-1.1
            self._zipf_nodes = order
            self._zipf_cdf = np.cumsum(weights / weights.sum())
        elif workload.name == "live_rw":
            # Reads never target a node that may be deleted, so no read
            # can race a delete of its own query node.
            reserved = max(1, self.n // 20)
            self._deletable = list(order[:reserved])
            self._readable = order[reserved:]
        else:
            self._distinct = list(order[::-1])

    def _noisy(self, node: int) -> int:
        """Store a database point plus seeded noise; returns its row."""
        noise = FEATURE_NOISE * self._rng.standard_normal(self.corpus.shape[1])
        self.features.append(self.corpus[node] + noise)
        return len(self.features) - 1

    def _distinct_node(self) -> int:
        if not self._distinct:
            raise RuntimeError(
                f"{self.workload.name}: more requests than distinct nodes "
                f"({self.n}); shorten the run"
            )
        return int(self._distinct.pop())

    def _next(self) -> Request:
        name = self.workload.name
        k = ANSWERS_K
        if name == "exact_uniform":
            node = self._distinct_node()
            return Request("read", "/search", _body({"query": node, "k": k}), node)
        if name == "tiered_zipf":
            rank = int(np.searchsorted(self._zipf_cdf, self._rng.random()))
            rank = min(rank, self.n - 1)
            node = int(self._zipf_nodes[rank])
            return Request("read", "/search", _body({"query": node, "k": k}), node)
        if name == "sharded_oos_budget":
            row = self._noisy(self._distinct_node())
            body = _body({"feature": self.features[row].tolist(), "k": k})
            return Request("read", "/search_oos", body, row)
        # live_rw: every tenth request writes, inserts and deletes in turn,
        # at fixed positions so the pending buffer grows alike for every
        # seed.
        self._issued += 1
        if self._issued % round(1 / self.workload.write_share) == 0:
            self._writes += 1
            if self._writes % 2 == 0 and self._deletable:
                node = int(self._deletable.pop())
                return Request("write", "/delete", _body({"node": node}), node)
            row = self._noisy(int(self._rng.integers(self.n)))
            body = _body({"feature": self.features[row].tolist()})
            return Request("write", "/insert", body, row)
        node = int(self._readable[self._rng.integers(self._readable.shape[0])])
        return Request("read", "/search", _body({"query": node, "k": k}), node)

    def take(self, count: int) -> list[Request]:
        """The next ``count`` requests of the sequence."""
        return [self._next() for _ in range(count)]

    def readable_sample(self, count: int) -> list[int]:
        """Nodes a ``live_rw`` answer check may query (never deleted)."""
        picks = self._rng.choice(self._readable.shape[0], size=count, replace=False)
        return [int(self._readable[i]) for i in picks]
