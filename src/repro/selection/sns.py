"""Similarity-based Neighbor Selection (SNS) [Li et al., 2024].

SNS explores progressively farther hops (up to five) until it has gathered
enough *labeled* neighbors, then ranks them by the similarity between the
query node's text and each candidate's text, keeping the top ``M``.  The
original uses SimCSE embeddings; here similarity is cosine over the graph's
encoded features (see DESIGN.md's substitution table).  When no labeled
node is reachable within five hops, SNS falls back to random unlabeled
1-hop neighbors so the query still gets some context.

The hop layers come from the lazy walk
:func:`repro.graph.sampling.iter_bfs_layers`, and ``select`` stops pulling
layers at the first hop where its labeled count reaches ``M``: on dense
graphs the 5-hop ball covers the whole graph, yet selection usually stops
at hop 1 or 2, so only those hops are ever expanded.
"""

from __future__ import annotations

import numpy as np

from repro.graph.sampling import iter_bfs_layers
from repro.graph.tag import TextAttributedGraph
from repro.selection.base import NeighborSelector, SelectedNeighbor
from repro.text.similarity import top_k_similar


class SNSSelector(NeighborSelector):
    """Progressive-hop labeled-neighbor search with similarity ranking."""

    similarity_ranked = True

    def __init__(self, max_hops: int = 5):
        if max_hops < 1:
            raise ValueError(f"max_hops must be >= 1, got {max_hops}")
        self.max_hops = max_hops

    def label_support(self, graph: TextAttributedGraph, node: int) -> frozenset[int]:
        # Every label_map read — the per-layer labeled test, the stop
        # condition, and the unlabeled-1-hop fallback — touches only nodes
        # inside the max_hops ball, whose union of BFS layers is the k-hop
        # neighborhood; similarity ranking reads features, not labels.
        return frozenset(int(v) for v in graph.k_hop(node, self.max_hops)) | {int(node)}

    def select(
        self,
        graph: TextAttributedGraph,
        node: int,
        label_map: dict[int, int],
        max_neighbors: int,
        rng: np.random.Generator,
    ) -> list[SelectedNeighbor]:
        if max_neighbors < 0:
            raise ValueError("max_neighbors must be >= 0")
        if max_neighbors == 0:
            return []
        labeled: list[int] = []
        first_hop: np.ndarray | None = None
        for hop, layer in iter_bfs_layers(graph, node, self.max_hops):
            if hop == 1:
                first_hop = layer
            labeled.extend(v for v in layer.tolist() if v in label_map)
            if len(labeled) >= max_neighbors:
                break
        if not labeled:
            if first_hop is None:
                return []
            take = min(max_neighbors, int(first_hop.size))
            fallback = [int(v) for v in rng.choice(first_hop, size=take, replace=False)]
            return self._attach_labels(fallback, label_map)
        candidates = np.asarray(labeled, dtype=np.int64)
        ranked = top_k_similar(
            graph.features[node], graph.features[candidates], k=max_neighbors
        )
        chosen = [int(candidates[i]) for i in ranked]
        return self._attach_labels(chosen, label_map)
