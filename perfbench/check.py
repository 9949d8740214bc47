"""Answer checks against an in-process reference engine.

Exact workloads compare every served answer bitwise (indices and scores;
JSON carries Python floats with a round-trip exact repr).  The tiered
workload scores recall@10 against the exact engine.  The live workload
checks sampled answers, after a blocking rebuild, against an engine built
afresh over the surviving points.
"""

from __future__ import annotations

import json

import numpy as np

from perfbench.workloads import ANSWERS_K, GRAPH_K


def compare(served: dict, expected, exact: bool) -> tuple:
    """``(matches, recall@k)`` of one served answer against the reference."""
    indices = served.get("indices", [])
    scores = served.get("scores", [])
    want = [int(i) for i in expected.indices]
    recall = len(set(indices) & set(want)) / len(want) if want else 1.0
    if not exact:
        return len(indices) == len(want), recall
    matches = indices == want and scores == [float(s) for s in expected.scores]
    return matches, recall


def recall_reference(engine, requests: list) -> dict:
    """The exact engine's top-k for every distinct ``/search`` node."""
    nodes = sorted({r.ref for r in requests if r.path == "/search"})
    results, _ = engine.top_k_batch_with_stats(
        np.asarray(nodes, dtype=np.int64), ANSWERS_K, exclude_query=True
    )
    return dict(zip(nodes, results))


def check_recall(samples: list, reference: dict) -> dict:
    """Recall@k of every successful ``/search`` against ``reference``.

    ``recall`` averages over distinct query nodes, so the few hot nodes a
    skewed stream repeats do not dominate it.
    """
    checked = wrong = 0
    by_node: dict = {}
    for sample in samples:
        if sample.request.kind != "read" or not sample.ok:
            continue
        served = json.loads(sample.body)
        well_formed, recall = compare(served, reference[sample.request.ref], False)
        checked += 1
        by_node.setdefault(sample.request.ref, []).append(recall)
        wrong += 0 if well_formed else 1
    recalls = [min(values) for values in by_node.values()]
    return {
        "checked": checked,
        "wrong": wrong,
        "recall": float(np.mean(recalls)) if recalls else 1.0,
        "mismatches": [],
    }


def _pairs(reads: list, documents: list) -> dict:
    """Which answered reads the server solved together in one batch of two.

    Two connections put at most two requests in flight, so a read answered
    with ``batch_size`` 2 shared the dispatch with the other connection's
    in-flight read; both answers are written back to back, so partners are
    neighbours in completion order and their intervals overlap.
    """
    paired = sorted(
        (i for i, d in enumerate(documents) if d.get("batch_size") == 2),
        key=lambda i: reads[i].done,
    )
    partner: dict = {}
    for a, b in zip(paired, paired[1:]):
        if a in partner or b in partner:
            continue
        if reads[a].sent < reads[b].done and reads[b].sent < reads[a].done:
            partner[a], partner[b] = b, a
    return partner


def _solve(engine, requests: list, features: list) -> list:
    """Answer ``requests`` the way the server's engine call did (one batch)."""
    if requests[0].path == "/search":
        nodes = [r.ref for r in requests]
        if len(nodes) == 1:
            return [engine.top_k_with_stats(nodes[0], ANSWERS_K, exclude_query=True)[0]]
        return engine.top_k_batch_with_stats(
            np.asarray(nodes, dtype=np.int64), ANSWERS_K, exclude_query=True
        )[0]
    vectors = [features[r.ref] for r in requests]
    if len(vectors) == 1:
        return [engine.top_k_out_of_sample_with_stats(vectors[0], ANSWERS_K)[0]]
    return engine.top_k_out_of_sample_batch_with_stats(
        np.asarray(vectors), ANSWERS_K
    )[0]


def check_exact(samples: list, engine, features: list) -> dict:
    """Compare every successful read bitwise with the reference engine.

    The reference repeats the server's engine call: alone for a singleton,
    together with its partner for a batch of two (in either order, since
    the client cannot see which of the two the server queued first).
    """
    reads = [s for s in samples if s.request.kind == "read" and s.ok]
    documents = [json.loads(s.body) for s in reads]
    partner = _pairs(reads, documents)
    wrong = 0
    recalls, mismatches = [], []
    for i, (sample, served) in enumerate(zip(reads, documents)):
        if i in partner:
            other = reads[partner[i]].request
            candidates = [
                _solve(engine, [sample.request, other], features)[0],
                _solve(engine, [other, sample.request], features)[1],
            ]
        else:
            candidates = _solve(engine, [sample.request], features)
        outcomes = [compare(served, c, exact=True) for c in candidates]
        recalls.append(max(recall for _, recall in outcomes))
        if not any(matches for matches, _ in outcomes):
            wrong += 1
            mismatches.append(_describe(sample.request, served, candidates[0]))
    return {
        "checked": len(reads),
        "wrong": wrong,
        "recall": float(np.mean(recalls)) if recalls else 1.0,
        "mismatches": mismatches[:5],
    }


def _describe(request, served: dict, expected) -> dict:
    """What differed in one wrong answer (kept in the result row)."""
    want = [float(s) for s in expected.scores]
    got = served.get("scores", [])
    return {
        "path": request.path,
        "ref": request.ref,
        "batch_size": served.get("batch_size"),
        "cached": served.get("cached"),
        "indices_equal": served.get("indices") == [int(i) for i in expected.indices],
        "max_score_diff": max(
            (abs(a - b) for a, b in zip(got, want)), default=None
        ),
    }


def fresh_live_engine(corpus: np.ndarray, inserted: dict, deleted: set):
    """An engine over the surviving points, and its local -> global id map.

    ``inserted`` maps the ids the server assigned to the inserted vectors.
    """
    from repro.core.engine import engine_from_index
    from repro.core.index import MogulIndex
    from repro.graph import build_knn_graph

    n = corpus.shape[0]
    live = [g for g in range(n) if g not in deleted]
    live += sorted(g for g in inserted if g not in deleted)
    features = np.asarray(
        [corpus[g] if g < n else inserted[g] for g in live], dtype=np.float64
    )
    graph = build_knn_graph(features, k=GRAPH_K)
    engine = engine_from_index(graph, MogulIndex.build(graph))
    return engine, np.asarray(live, dtype=np.int64)


def check_live(served: dict, engine, live_ids: np.ndarray) -> dict:
    """Compare ``{node: served answer}`` with the fresh engine, bitwise."""
    local_of = {int(g): i for i, g in enumerate(live_ids)}
    nodes = sorted(served)
    results, _ = engine.top_k_batch_with_stats(
        np.asarray([local_of[g] for g in nodes], dtype=np.int64),
        ANSWERS_K,
        exclude_query=True,
    )
    wrong = 0
    recalls = []
    for node, result in zip(nodes, results):
        expected = type(result)(
            indices=live_ids[result.indices], scores=result.scores
        )
        matches, recall = compare(served[node], expected, exact=True)
        recalls.append(recall)
        wrong += 0 if matches else 1
    return {
        "checked": len(nodes),
        "wrong": wrong,
        "recall": float(np.mean(recalls)) if recalls else 1.0,
    }
