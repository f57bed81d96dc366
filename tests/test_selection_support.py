"""Executable oracle for the selectors' ``label_support`` read-set contract.

``NeighborSelector.label_support(node)`` promises that restricting the label
map to that set leaves ``select(node)`` unchanged; the readiness DAG derives
each query's pseudo-label reads from it.  Over random small graphs, random
label states and random ``max_neighbors``, a recording label map checks that

* every key ``select`` reads (``in``, ``[]`` or ``get``) lies in the
  support, and
* the selection over the map restricted to the support equals the
  selection over the full map, for the same rng seed.
"""

from __future__ import annotations

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph.tag import TextAttributedGraph
from repro.selection.base import NeighborSelector, VanillaSelector
from repro.selection.random_khop import KHopRandomSelector
from repro.selection.sns import SNSSelector
from repro.text.corpus import NodeText
from repro.utils.rng import spawn_rng

NUM_CLASSES = 3


class RecordingLabelMap(dict):
    """A label map that logs every key looked up in it."""

    def __init__(self, *args, **kwargs):
        super().__init__(*args, **kwargs)
        self.reads: set[int] = set()

    def __contains__(self, key):
        self.reads.add(int(key))
        return super().__contains__(key)

    def __getitem__(self, key):
        self.reads.add(int(key))
        return super().__getitem__(key)

    def get(self, key, default=None):
        self.reads.add(int(key))
        return super().get(key, default)


@st.composite
def graphs(draw) -> TextAttributedGraph:
    n = draw(st.integers(min_value=1, max_value=14))
    pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = draw(st.lists(st.sampled_from(pairs), unique=True, max_size=3 * n)) if pairs else []
    feature_seed = draw(st.integers(min_value=0, max_value=2**16))
    features = np.random.default_rng(feature_seed).normal(size=(n, 4)).astype(np.float32)
    return TextAttributedGraph.from_edges(
        num_nodes=n,
        edges=np.asarray(edges, dtype=np.int64).reshape(-1, 2),
        labels=np.asarray([v % NUM_CLASSES for v in range(n)], dtype=np.int64),
        texts=[NodeText(f"t{v}", f"a{v}") for v in range(n)],
        features=features,
        class_names=[f"c{c}" for c in range(NUM_CLASSES)],
    )


selectors = st.one_of(
    st.just(VanillaSelector()),
    st.builds(KHopRandomSelector, k=st.integers(min_value=1, max_value=3)),
    st.builds(SNSSelector, max_hops=st.integers(min_value=1, max_value=5)),
)


@st.composite
def cases(draw):
    graph = draw(graphs())
    node = draw(st.integers(min_value=0, max_value=graph.num_nodes - 1))
    labeled = draw(st.sets(st.integers(min_value=0, max_value=graph.num_nodes - 1)))
    label_map = {v: draw(st.integers(min_value=0, max_value=NUM_CLASSES - 1)) for v in sorted(labeled)}
    return graph, node, label_map


@settings(max_examples=150, deadline=None)
@given(
    case=cases(),
    selector=selectors,
    max_neighbors=st.integers(min_value=0, max_value=6),
    seed=st.integers(min_value=0, max_value=2**16),
)
def test_select_reads_only_its_label_support(
    case, selector: NeighborSelector, max_neighbors: int, seed: int
):
    graph, node, label_map = case
    support = selector.label_support(graph, node)
    assert support is not None

    recording = RecordingLabelMap(label_map)
    full = selector.select(graph, node, recording, max_neighbors, spawn_rng(seed, "oracle"))
    assert recording.reads <= support, (
        f"{type(selector).__name__} read {sorted(recording.reads - support)} "
        f"outside label_support({node})"
    )

    restricted = {v: c for v, c in label_map.items() if v in support}
    assert selector.select(graph, node, restricted, max_neighbors, spawn_rng(seed, "oracle")) == full
