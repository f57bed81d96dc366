"""Tests for neighbor-selection methods."""

from __future__ import annotations

import numpy as np
import pytest

from repro.graph.sampling import bfs_hops, k_hop_neighbors
from repro.selection.base import VanillaSelector
from repro.selection.random_khop import KHopRandomSelector
from repro.selection.registry import METHOD_NAMES, make_selector
from repro.selection.base import SelectedNeighbor
from repro.selection.sns import SNSSelector
from repro.text.similarity import top_k_similar
from repro.utils.rng import spawn_rng


def label_map_for(graph, labeled) -> dict[int, int]:
    return {int(v): int(graph.labels[v]) for v in labeled}


class TestVanilla:
    def test_selects_nothing(self, tiny_graph, tiny_split, rng):
        sel = VanillaSelector()
        assert sel.select(tiny_graph, 0, label_map_for(tiny_graph, tiny_split.labeled), 4, rng) == []


class TestKHopRandom:
    def test_respects_max(self, tiny_graph, tiny_split, rng):
        sel = KHopRandomSelector(k=2)
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        for node in tiny_split.queries[:20]:
            assert len(sel.select(tiny_graph, int(node), labels, 4, rng)) <= 4

    def test_candidates_within_k_hops(self, tiny_graph, tiny_split, rng):
        sel = KHopRandomSelector(k=1)
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        for node in tiny_split.queries[:20]:
            allowed = set(k_hop_neighbors(tiny_graph, int(node), 1).tolist())
            chosen = sel.select(tiny_graph, int(node), labels, 4, rng)
            assert all(sn.node in allowed for sn in chosen)

    def test_labeled_preferred(self, tiny_graph, tiny_split, rng):
        sel = KHopRandomSelector(k=2)
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        for node in tiny_split.queries[:30]:
            candidates = k_hop_neighbors(tiny_graph, int(node), 2)
            n_labeled = sum(1 for v in candidates if int(v) in labels)
            chosen = sel.select(tiny_graph, int(node), labels, 4, rng)
            chosen_labeled = sum(1 for sn in chosen if sn.label is not None)
            assert chosen_labeled == min(4, n_labeled)

    def test_no_duplicates(self, tiny_graph, tiny_split, rng):
        sel = KHopRandomSelector(k=2)
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        for node in tiny_split.queries[:20]:
            chosen = [sn.node for sn in sel.select(tiny_graph, int(node), labels, 6, rng)]
            assert len(chosen) == len(set(chosen))

    def test_labels_attached_correctly(self, tiny_graph, tiny_split, rng):
        sel = KHopRandomSelector(k=1)
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        for node in tiny_split.queries[:20]:
            for sn in sel.select(tiny_graph, int(node), labels, 4, rng):
                assert sn.label == labels.get(sn.node)

    def test_zero_max_neighbors(self, tiny_graph, tiny_split, rng):
        sel = KHopRandomSelector(k=1)
        assert sel.select(tiny_graph, int(tiny_split.queries[0]), {}, 0, rng) == []

    def test_invalid_k(self):
        with pytest.raises(ValueError):
            KHopRandomSelector(k=0)


class TestSNS:
    def test_prefers_labeled(self, tiny_graph, tiny_split, rng):
        sel = SNSSelector()
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        found_any = False
        for node in tiny_split.queries[:30]:
            chosen = sel.select(tiny_graph, int(node), labels, 4, rng)
            if chosen and all(sn.label is not None for sn in chosen):
                found_any = True
        assert found_any

    def test_similarity_ordering(self, tiny_graph, tiny_split, rng):
        """Selected neighbors arrive most-similar-first."""
        from repro.text.similarity import cosine_similarity

        sel = SNSSelector()
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        for node in tiny_split.queries[:20]:
            chosen = sel.select(tiny_graph, int(node), labels, 4, rng)
            if len(chosen) < 2 or any(sn.label is None for sn in chosen):
                continue
            sims = [
                cosine_similarity(tiny_graph.features[int(node)], tiny_graph.features[sn.node])
                for sn in chosen
            ]
            assert all(sims[i] >= sims[i + 1] - 1e-9 for i in range(len(sims) - 1))

    def test_fallback_to_unlabeled_one_hop(self, tiny_graph, tiny_split, rng):
        sel = SNSSelector()
        node = int(tiny_split.queries[0])
        chosen = sel.select(tiny_graph, node, {}, 4, rng)  # nothing labeled anywhere
        one_hop = set(k_hop_neighbors(tiny_graph, node, 1).tolist())
        assert all(sn.node in one_hop for sn in chosen)
        assert all(sn.label is None for sn in chosen)

    def test_deterministic_given_rng_seed(self, tiny_graph, tiny_split):
        sel = SNSSelector()
        labels = label_map_for(tiny_graph, tiny_split.labeled)
        node = int(tiny_split.queries[1])
        a = sel.select(tiny_graph, node, labels, 4, spawn_rng(1, "s"))
        b = sel.select(tiny_graph, node, labels, 4, spawn_rng(1, "s"))
        assert a == b

    def test_invalid_hops(self):
        with pytest.raises(ValueError):
            SNSSelector(max_hops=0)


def reference_sns_select(graph, node, label_map, max_neighbors, rng, max_hops=5):
    """SNS over the full, eagerly built ``max_hops`` ball (no early stop)."""
    if max_neighbors == 0:
        return []
    layers = bfs_hops(graph, node, max_hops)
    labeled: list[int] = []
    for hop in sorted(layers):
        labeled.extend(int(v) for v in layers[hop] if int(v) in label_map)
        if len(labeled) >= max_neighbors:
            break
    if not labeled:
        first_hop = layers.get(1)
        if first_hop is None:
            return []
        take = min(max_neighbors, int(first_hop.size))
        chosen = [int(v) for v in rng.choice(first_hop, size=take, replace=False)]
    else:
        candidates = np.asarray(labeled, dtype=np.int64)
        ranked = top_k_similar(graph.features[node], graph.features[candidates], k=max_neighbors)
        chosen = [int(candidates[i]) for i in ranked]
    return [SelectedNeighbor(node=v, label=label_map.get(v)) for v in chosen]


class TestSNSMatchesFullBall:
    """The early-stopping walk selects exactly what the full-ball SNS does."""

    @pytest.mark.parametrize("labeled_fraction", [0.0, 0.01, 0.05, 0.3, 1.0])
    @pytest.mark.parametrize("max_hops", [1, 2, 5])
    def test_random_label_maps(self, tiny_graph, labeled_fraction, max_hops):
        sel = SNSSelector(max_hops=max_hops)
        draw = np.random.default_rng(int(labeled_fraction * 1000) + max_hops)
        mask = draw.random(tiny_graph.num_nodes) < labeled_fraction
        labels = label_map_for(tiny_graph, np.flatnonzero(mask))
        for node in draw.choice(tiny_graph.num_nodes, size=40, replace=False):
            node = int(node)
            for max_neighbors in (0, 1, 4, 9):
                want = reference_sns_select(
                    tiny_graph, node, labels, max_neighbors, spawn_rng(7, "sns", node), max_hops
                )
                got = sel.select(tiny_graph, node, labels, max_neighbors, spawn_rng(7, "sns", node))
                assert got == want

    def test_no_labels_falls_back_to_the_same_draws(self, tiny_graph):
        sel = SNSSelector()
        for node in range(0, tiny_graph.num_nodes, 7):
            want = reference_sns_select(tiny_graph, node, {}, 4, spawn_rng(3, "fb", node))
            got = sel.select(tiny_graph, node, {}, 4, spawn_rng(3, "fb", node))
            assert got == want
            assert all(sn.label is None for sn in got)


class TestRegistry:
    @pytest.mark.parametrize("name", METHOD_NAMES)
    def test_known_methods(self, name):
        make_selector(name)

    def test_aliases(self):
        assert isinstance(make_selector("1hop"), KHopRandomSelector)
        assert isinstance(make_selector("zero-shot"), VanillaSelector)

    def test_unknown(self):
        with pytest.raises(ValueError):
            make_selector("3-hop")

    def test_sns_flagged_similarity_ranked(self):
        assert make_selector("sns").similarity_ranked
        assert not make_selector("1-hop").similarity_ranked
