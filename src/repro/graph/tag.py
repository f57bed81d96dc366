"""Text-attributed graph (TAG) container.

A TAG is ``G = (V, E, T, X)`` (paper Sec. III-A): nodes, undirected edges,
per-node text attributes, and per-node input features encoded from the text.
Adjacency is stored in CSR form (``indptr``/``indices``) for O(1) neighbor
slicing, which the k-hop samplers and the boosting scheduler rely on heavily.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.text.corpus import NodeText


@dataclass
class TextAttributedGraph:
    """Immutable-by-convention TAG with CSR adjacency.

    Attributes
    ----------
    indptr, indices:
        CSR adjacency of the *undirected* graph: the neighbors of node ``i``
        are ``indices[indptr[i]:indptr[i+1]]``.  Each undirected edge appears
        in both endpoints' neighbor lists.
    labels:
        ``(n,)`` int array of ground-truth class indices.
    texts:
        Per-node :class:`NodeText` (title + abstract).
    features:
        ``(n, d)`` float32 features encoded from the text.
    class_names:
        Human-readable label names, index-aligned with ``labels`` values.
    name:
        Dataset name for reporting.
    """

    indptr: np.ndarray
    indices: np.ndarray
    labels: np.ndarray
    texts: list[NodeText]
    features: np.ndarray
    class_names: list[str]
    name: str = "tag"
    _degree: np.ndarray = field(init=False, repr=False)
    _khop_cache: dict = field(init=False, repr=False, default_factory=dict)

    def __post_init__(self) -> None:
        self.indptr = np.asarray(self.indptr, dtype=np.int64)
        self.indices = np.asarray(self.indices, dtype=np.int64)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        n = self.num_nodes
        if self.indptr.ndim != 1 or self.indptr.shape[0] != n + 1:
            raise ValueError(f"indptr must have length num_nodes+1={n + 1}, got {self.indptr.shape}")
        if self.indptr[0] != 0 or (np.diff(self.indptr) < 0).any():
            raise ValueError("indptr must start at 0 and be non-decreasing")
        if self.indptr[-1] != self.indices.shape[0]:
            raise ValueError("indptr[-1] must equal len(indices)")
        if self.indices.size and (self.indices.min() < 0 or self.indices.max() >= n):
            raise ValueError("indices contain out-of-range node ids")
        if len(self.texts) != n:
            raise ValueError(f"texts must have one entry per node ({n}), got {len(self.texts)}")
        if self.features.ndim != 2 or self.features.shape[0] != n:
            raise ValueError(f"features must be (num_nodes, d), got {self.features.shape}")
        if self.labels.size and (self.labels.min() < 0 or self.labels.max() >= len(self.class_names)):
            raise ValueError("labels out of range for class_names")
        self._degree = np.diff(self.indptr)

    @property
    def num_nodes(self) -> int:
        return self.labels.shape[0]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each stored twice in CSR)."""
        return self.indices.shape[0] // 2

    @property
    def num_classes(self) -> int:
        return len(self.class_names)

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def neighbors(self, node: int) -> np.ndarray:
        """Neighbor ids of ``node`` (a CSR slice; do not mutate)."""
        return self.indices[self.indptr[node] : self.indptr[node + 1]]

    def degree(self, node: int | None = None) -> np.ndarray | int:
        """Degree of one node, or the full degree vector when ``node is None``."""
        if node is None:
            return self._degree
        return int(self._degree[node])

    def label_name(self, node: int) -> str:
        """Class name of ``node``'s ground-truth label."""
        return self.class_names[int(self.labels[node])]

    def k_hop(self, node: int, k: int) -> np.ndarray:
        """Cached k-hop neighborhood (see :func:`repro.graph.sampling`).

        The graph is immutable by convention, so neighborhoods are computed
        once per (node, k).  Strategies that re-select neighbors every round
        (query boosting, the Fig. 8 scheduling simulation) rely on this.
        """
        key = (int(node), int(k))
        cached = self._khop_cache.get(key)
        if cached is None:
            from repro.graph.sampling import k_hop_neighbors

            cached = k_hop_neighbors(self, int(node), int(k))
            self._khop_cache[key] = cached
        return cached

    def has_edge(self, u: int, v: int) -> bool:
        """Whether the undirected edge ``(u, v)`` exists."""
        nbrs = self.neighbors(u)
        lo = int(np.searchsorted(nbrs, v))
        return lo < nbrs.shape[0] and int(nbrs[lo]) == v

    @classmethod
    def from_edges(
        cls,
        num_nodes: int,
        edges: np.ndarray,
        labels: np.ndarray,
        texts: list[NodeText],
        features: np.ndarray,
        class_names: list[str],
        name: str = "tag",
    ) -> "TextAttributedGraph":
        """Build from an ``(m, 2)`` array of unique undirected edges.

        Self-loops and duplicate edges must already be removed; each edge is
        symmetrized into the CSR structure with sorted neighbor lists.
        """
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        if edges.size and ((edges < 0).any() or (edges >= num_nodes).any()):
            raise ValueError("edge endpoints out of range")
        if edges.size and (edges[:, 0] == edges[:, 1]).any():
            raise ValueError("self-loops are not allowed")
        both = np.concatenate([edges, edges[:, ::-1]], axis=0)
        order = np.lexsort((both[:, 1], both[:, 0]))
        both = both[order]
        counts = np.bincount(both[:, 0], minlength=num_nodes)
        indptr = np.zeros(num_nodes + 1, dtype=np.int64)
        np.cumsum(counts, out=indptr[1:])
        return cls(
            indptr=indptr,
            indices=both[:, 1].copy(),
            labels=labels,
            texts=texts,
            features=features,
            class_names=class_names,
            name=name,
        )

    def edge_array(self) -> np.ndarray:
        """Return the ``(m, 2)`` array of undirected edges with ``u < v``."""
        sources = np.repeat(np.arange(self.num_nodes, dtype=np.int64), self._degree)
        mask = sources < self.indices
        return np.stack([sources[mask], self.indices[mask]], axis=1)
