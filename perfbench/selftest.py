"""The benchmark's own tests.

Run from the root of a checkout::

    PYTHONPATH=src python -m pytest perfbench/selftest.py -q

The file is not named ``test_*.py`` so the repository's test suite does not
collect it; the smoke runs spawn servers and take a few minutes in all.
"""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT)]

from perfbench import bench, check, spans  # noqa: E402
from perfbench.httpgen import Phase, Sample  # noqa: E402
from perfbench.workloads import (  # noqa: E402
    WORKLOADS,
    Request,
    RequestStream,
    geometric_ladder,
)


def _benchmark_json() -> dict:
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def test_benchmark_json_declares_the_emitted_names():
    declared = _benchmark_json()
    assert [w["name"] for w in declared["workloads"]] == list(WORKLOADS)
    for workload in declared["workloads"]:
        assert workload["why"] == WORKLOADS[workload["name"]].why
    assert [(m["name"], m["unit"]) for m in declared["end_to_end"]] == list(
        bench.END_TO_END
    )
    assert [(m["name"], m["unit"]) for m in declared["per_layer"]] == list(
        bench.PER_LAYER
    )


def _run(tmp_cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "perfbench/run.py", *args],
        cwd=tmp_cwd,
        capture_output=True,
        text=True,
        timeout=180,
    )


@pytest.mark.parametrize("trace", ["0", "1"])
@pytest.mark.parametrize("workload", list(WORKLOADS))
def test_smoke_run_emits_every_metric_with_its_unit(workload, trace):
    done = _run(
        ROOT, "--workload", workload, "--seed", "3", "--seconds", "1",
        "--trace", trace, "--smoke",
    )
    assert done.returncode == 0, done.stderr[-2000:]
    result = json.loads(done.stdout.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    wanted = bench.PER_LAYER if trace == "1" else bench.END_TO_END
    assert [(name, m["unit"]) for name, m in result["metrics"].items()] == list(wanted)
    for metric in result["metrics"].values():
        assert isinstance(metric["value"], float | int)
        assert math.isfinite(metric["value"])
    if trace == "0":
        assert all(m["value"] > 0 for m in result["metrics"].values())


def test_run_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench")
    done = _run(
        tmp_path, "--workload", "exact_uniform", "--seed", "1", "--seconds", "1",
        "--trace", "0",
    )
    assert done.returncode != 0
    assert done.stdout.strip() == ""


def _tiny_engine():
    from repro.core.engine import engine_from_index
    from repro.core.index import MogulIndex
    from repro.graph import build_knn_graph

    rng = np.random.default_rng(0)
    features = rng.standard_normal((150, 8))
    graph = build_knn_graph(features, k=5)
    return engine_from_index(graph, MogulIndex.build(graph)), features


def _served(result, batch_size: int) -> bytes:
    return json.dumps(
        {
            "batch_size": batch_size,
            "indices": [int(i) for i in result.indices],
            "scores": [float(s) for s in result.scores],
        }
    ).encode()


class _Planted:
    """A reference engine whose answer for one node is planted wrong."""

    def __init__(self, engine, node: int, mutate):
        self.engine, self.node, self.mutate = engine, node, mutate

    def top_k_with_stats(self, query, k, **kwargs):
        result, stats = self.engine.top_k_with_stats(query, k, **kwargs)
        return (self.mutate(result) if query == self.node else result), stats

    def top_k_batch_with_stats(self, queries, k, **kwargs):
        results, stats = self.engine.top_k_batch_with_stats(queries, k, **kwargs)
        return [
            self.mutate(r) if q == self.node else r for q, r in zip(queries, results)
        ], stats


def test_planted_wrong_answer_fails_the_check():
    from repro.ranking.base import TopKResult

    engine, _ = _tiny_engine()
    # Node 3 alone; nodes 40 and 77 in flight together, answered as a pair.
    alone = Request("read", "/search", b"", 3)
    first, second = (Request("read", "/search", b"", n) for n in (40, 77))
    pair, _ = engine.top_k_batch_with_stats(np.asarray([40, 77]), 10)
    samples = [
        Sample(alone, 0.0, 0.0, 1.0, 200, _served(engine.top_k(3, 10), 1)),
        Sample(first, 2.0, 2.0, 3.0, 200, _served(pair[0], 2)),
        Sample(second, 2.1, 2.1, 3.01, 200, _served(pair[1], 2)),
    ]
    assert check.check_exact(samples, engine, [])["wrong"] == 0

    def one_ulp_off(result):
        scores = result.scores.copy()
        scores[0] = np.nextafter(scores[0], np.inf)
        return TopKResult(indices=result.indices, scores=scores)

    def swapped(result):
        indices = result.indices.copy()
        indices[[0, 1]] = indices[[1, 0]]
        return TopKResult(indices=indices, scores=result.scores)

    for node in (3, 77):
        for mutate in (one_ulp_off, swapped):
            planted = _Planted(engine, node, mutate)
            result = check.check_exact(samples, planted, [])
            assert result["wrong"] == 1
            assert result["mismatches"][0]["ref"] == node


def test_request_stream_depends_only_on_the_seed():
    corpus = np.random.default_rng(0).standard_normal((400, 16))
    for workload in WORKLOADS.values():
        first = RequestStream(workload, 5, corpus).take(50)
        again = RequestStream(workload, 5, corpus).take(50)
        other = RequestStream(workload, 6, corpus).take(50)
        assert [r.body for r in first] == [r.body for r in again]
        assert [r.body for r in first] != [r.body for r in other]


def test_exact_uniform_never_repeats_a_node():
    corpus = np.zeros((300, 4))
    requests = RequestStream(WORKLOADS["exact_uniform"], 1, corpus).take(300)
    assert len({r.ref for r in requests}) == 300


def test_percentile_is_nearest_rank_with_failures_last():
    values = [float(v) for v in range(1, 101)] + [math.inf]
    assert bench.percentile(values, 50) == 51.0
    assert bench.percentile(values, 75) == 76.0
    assert bench.percentile(values, 100) == math.inf


def _phase(first_delay: float, final_delay: float, aborted: bool = False) -> Phase:
    # 400 requests at 100 req/s: a 4 s schedule, quarter midpoints 3 s apart.
    return Phase("rung", 100.0, 400, [], 0.0, 4.0, 0.1, 0.0, aborted,
                 first_delay, final_delay)


def test_a_phase_falling_behind_schedule_is_over_capacity():
    # Completing at 0.97x the offered rate, the delay grows 3% of 3 s.
    assert not _phase(0.001, 0.001 + 0.03 * 3).over_capacity()
    # At 0.93x it grows (1 / 0.93 - 1) of 3 s.
    assert _phase(0.001, 0.001 + (1 / 0.93 - 1) * 3).over_capacity()
    assert _phase(0.0, 0.0, aborted=True).over_capacity()


def _search(ladder: tuple, edge: float, completes_at: float) -> tuple:
    """Run the ladder search against a server that passes rungs up to
    ``edge`` req/s and completes at most ``completes_at`` req/s; returns
    the top rung and the rungs tried."""
    search = bench.LadderSearch(ladder)
    tried = []
    while not search.done():
        rate = ladder[search.rung]
        tried.append(search.rung)
        search.record(rate <= edge, rate > completes_at, min(rate, completes_at))
    return search.low, tried


def test_ladder_search_ends_on_the_highest_passing_rung():
    ladder = geometric_ladder(20.0, 120.0)
    for edge in (19.0, 25.0, 55.0, 58.0, 119.0, 200.0):
        for completes_at in (edge, 1.04 * edge):
            top, tried = _search(ladder, edge, completes_at)
            assert top == max((i for i, r in enumerate(ladder) if r <= edge), default=-1)
            assert len(tried) == len(set(tried))
    # From a top rung that falls behind, the edge takes three rungs where a
    # bisection of the 37 rungs takes five or six.
    assert len(_search(ladder, 55.0, 55.0)[1]) == 3
    # A top rung caught in a stall underrates the capacity; the steps up
    # double, so the search still ends in a few rungs.
    search = bench.LadderSearch(ladder)
    search.record(False, True, 21.0)
    tried = [search.rung]
    while not search.done():
        passed = ladder[search.rung] <= 55.0
        search.record(passed, not passed, min(ladder[search.rung], 56.0))
        tried.append(search.rung)
    assert ladder[search.low] <= 55.0 < ladder[search.low + 1]
    assert len(tried) <= 9  # stepping one rung at a time takes 22
    # Rungs failing on latency alone give no capacity: the search bisects.
    top, tried = _search(ladder, 30.0, 1e9)
    assert ladder[top] <= 30.0 < ladder[top + 1]
    assert len(tried) <= 6


def test_span_analysis_splits_a_request_into_its_layers():
    # One request: scheduler 10 ms, of which cache lookup 1 ms and the
    # engine call that answered it 4 ms; client round trip 15 ms with a
    # server-measured 12 ms.
    document = {
        "spans": [
            [1, spans.SCHEDULER, 0.100, 0.110, None, "n:7"],
            [2, spans.CACHE_GET, 0.100, 0.101, 1, None],
            [3, spans.ENGINE, 0.104, 0.108, None, ["n:7", "n:9"]],
            [4, spans.TIERED_BASE, 0.105, 0.107, 3, None],
        ],
        "rebuild_seconds": [],
    }
    reads = [("n:7", 0.098, 0.113, 12.0)]
    result = spans.analyze(document, reads, (0.0, 1.0))
    assert result["matched_reads"] == 1
    assert result["scheduler_wait_ms"] == pytest.approx(5.0)
    assert result["engine_ms_per_query"] == pytest.approx(2.0)
    # 15 ms round trip - 3 ms overhead - 5 wait - 4 engine - 1 cache.
    assert result["unattributed_ms"] == pytest.approx(2.0)
    assert result["layers"][spans.ENGINE]["mean_self_ms"] == pytest.approx(2.0)
