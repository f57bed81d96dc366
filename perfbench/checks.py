"""Correctness checks run on every round, after its timing ends.

Each check compares the program's output with a computation made apart
from it (scipy's BFS, a numpy cosine ranking, a recount from the gold
labels, the price table) or with a property the method must have.  None
compares with stored output.  A check returns a list of problems; an
empty list means the round passed.
"""

from __future__ import annotations

import math
from collections import Counter

import numpy as np
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import shortest_path

from repro.llm.pricing import cache_discount_usd, cost_usd


def _close(a: float, b: float) -> bool:
    return math.isclose(a, b, rel_tol=1e-9, abs_tol=1e-12)


def batch_round(queries, outcome, report, ledger, labels) -> list[str]:
    """Properties every strategy run must have, whatever the strategy."""
    problems = []
    records = outcome.run.records
    nodes = [r.node for r in records]
    if sorted(nodes) != sorted(int(v) for v in queries) or len(set(nodes)) != len(nodes):
        problems.append("queries did not each settle exactly once")
    flat = [node for members in outcome.rounds for node in members]
    if sorted(flat) != sorted(nodes) or any(not members for members in outcome.rounds):
        problems.append("boosting rounds do not partition the query set")
    for index, members in enumerate(outcome.rounds):
        stamped = {r.node for r in records if r.round_index == index}
        if stamped != set(members):
            problems.append(f"records stamped round {index} differ from the round's members")
            break
    if len(report.waves) != len(outcome.rounds):
        problems.append(f"{len(report.waves)} waves for {len(outcome.rounds)} rounds")
    if any(r.true_label != labels[r.node] for r in records):
        problems.append("a record's true label differs from graph.labels")
    if ledger.spent != sum(r.total_tokens for r in records):
        problems.append("ledger spend differs from the records' token sum")
    if ledger.shared_tokens > sum(r.prompt_tokens for r in records):
        problems.append("shared tokens exceed prompt tokens")
    return problems


def sns_round_zero(exp, queries, outcome, gamma1=3, gamma2=2, max_hops=5) -> list[str]:
    """Recompute Algorithm 2's first candidate set for SNS independently.

    Hop distances come from scipy's unweighted shortest paths, neighbor
    ranking from a numpy cosine over the encoded features, and the label
    state is the gold labeled set (no pseudo-labels exist before round 0).
    """
    graph = exp.graph
    n = graph.num_nodes
    queries = np.asarray(queries, dtype=np.int64)
    adjacency = csr_matrix(
        (np.ones(graph.indices.size), graph.indices, graph.indptr), shape=(n, n)
    )
    distances = shortest_path(adjacency, unweighted=True, indices=queries)
    gold = np.zeros(n, dtype=bool)
    gold[exp.split.labeled] = True
    features = graph.features.astype(np.float64)
    norms = np.linalg.norm(features, axis=1)
    limit = exp.max_neighbors
    stats = {}
    for node, row in zip(queries.tolist(), distances):
        found: list[int] = []
        for hop in range(1, max_hops + 1):
            found.extend(np.flatnonzero((row == hop) & gold).tolist())
            if len(found) >= limit:
                break
        if not found:
            stats[node] = (0, 0)
            continue
        candidates = np.asarray(found)
        denominator = norms[candidates] * norms[node]
        dots = features[candidates] @ features[node]
        sims = np.where(denominator > 0, dots / np.where(denominator > 0, denominator, 1.0), 0.0)
        best = sorted(range(len(found)), key=lambda i: (-sims[i], i))[:limit]
        picked = graph.labels[candidates[best]]
        stats[node] = (len(picked), len(set(picked.tolist())))
    g1, g2 = gamma1, gamma2
    while True:
        expected = {v for v, (count, conflicts) in stats.items() if count >= g1 and conflicts <= g2}
        if expected:
            break
        if g1 > 0:
            g1 -= 1
        elif g2 < graph.num_classes:
            g2 += 1
        else:
            expected = set(stats)
            break
    actual = set(outcome.rounds[0]) if outcome.rounds else set()
    if actual != expected:
        return [
            f"SNS round-0 candidates differ from the independent recomputation "
            f"({len(actual ^ expected)} of {len(queries)} queries)"
        ]
    return []


def joint_pruning(exp, scorer, queries, outcome, plan, tau) -> list[str]:
    """The pruned set is the round(tau*N) lowest-D(t_i) queries; 1-hop bounds hold."""
    problems = []
    records = outcome.run.records
    scores = scorer.score(queries)
    ranked = sorted(zip(scores.tolist(), (int(v) for v in queries)))
    expected = {node for _, node in ranked[: int(round(tau * len(ranked)))]}
    if {r.node for r in records if r.pruned} != expected or set(plan.pruned) != expected:
        problems.append("pruned set is not the lowest-inadequacy round(tau*N) queries")
    if any(r.pruned and r.num_neighbors for r in records):
        problems.append("a pruned query carries neighbor text")
    limit = exp.max_neighbors
    if any(r.num_neighbors > min(limit, exp.graph.degree(r.node)) for r in records):
        problems.append("a 1-hop query uses more than min(M, degree) neighbors")
    return problems


def serve_round(stream, report, book, tenants, labels, model) -> list[str]:
    """Settlement, chronology and per-tenant ledger reconciliation."""
    problems = []
    outcomes = report.outcomes
    settled = Counter(id(o.request) for o in outcomes)
    if len(outcomes) != len(stream) or set(settled) != {id(r) for r in stream} or max(
        settled.values()
    ) != 1:
        problems.append("requests did not each settle exactly once")
    if any(o.completed_at < o.request.arrival for o in outcomes):
        problems.append("a request completed before it arrived")
    if any(o.record is not None and o.record.true_label != labels[o.request.node] for o in outcomes):
        problems.append("a record's true label differs from graph.labels")
    for tenant in tenants:
        ledger = book.ledger(tenant.name)
        mine = [o for o in outcomes if o.request.tenant == tenant.name and o.record is not None]
        prompt = sum(o.record.prompt_tokens for o in mine)
        completion = sum(o.record.completion_tokens for o in mine)
        shared = sum(o.shared_prompt_tokens for o in mine)
        usd = sum(cost_usd(model, o.record.prompt_tokens, o.record.completion_tokens) for o in mine)
        if ledger.spent != prompt + completion or ledger.shared_tokens != shared:
            problems.append(f"tenant {tenant.name}: ledger tokens do not reconcile")
        if shared > prompt:
            problems.append(f"tenant {tenant.name}: shared tokens exceed prompt tokens")
        if not _close(ledger.spent_usd, usd) or not _close(
            ledger.shared_usd, cache_discount_usd(model, shared)
        ):
            problems.append(f"tenant {tenant.name}: ledger dollars do not reconcile")
    return problems
