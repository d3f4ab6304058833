"""Seeded two-block stochastic block model sampling, special graphs and degree statistics."""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional, TextIO, Tuple

import numpy as np

__all__ = [
    "SbmParams",
    "Graph",
    "DegreeStats",
    "sample_sbm",
    "complete_graph",
    "circulant",
    "er_pool",
    "fig1_params",
    "expected_stats",
    "degree_concentration",
    "write_edge_list",
    "read_edge_list",
]


class InvalidParameters(ValueError):
    """Raised when SBM parameters violate their constraints."""


@dataclass(frozen=True)
class SbmParams:
    """Parameters of a two-block SBM with equal block sizes.

    ``p`` is the intra-block connection probability, ``q`` the inter-block
    one.  ``p == q`` degenerates to an Erdos-Renyi graph; the difference
    statistic ``beta`` is then undefined and downstream classifiers expect a
    single outlier.
    """

    n: int
    p: float
    q: float
    seed: int = 0

    def __post_init__(self):
        if self.n < 4 or self.n % 2 != 0:
            raise InvalidParameters(f"n must be an even integer >= 4, got {self.n}")
        for name, val in (("p", self.p), ("q", self.q)):
            if not (0.0 < val < 1.0):
                raise InvalidParameters(f"{name} must lie in (0,1), got {val}")
        if self.seed < 0:
            raise InvalidParameters("seed must be a nonnegative integer")


@dataclass(frozen=True)
class Graph:
    """An undirected simple graph with planted two-block labels.

    ``edges`` is an (m, 2) int64 array of rows (i, j) with i < j, in
    lexicographic order; ``degrees`` is computed from it.  ``labels`` is
    stored as an int8 copy of length n.  Immutable after construction; safe
    to share across threads.
    """

    n: int
    edges: np.ndarray
    labels: np.ndarray
    degrees: np.ndarray = field(init=False)

    def __post_init__(self):
        edges = np.asarray(self.edges, dtype=np.int64).reshape(-1, 2)
        labels = np.array(self.labels, dtype=np.int8)  # a copy: the caller's array stays writable
        if labels.shape != (self.n,):
            raise InvalidParameters(f"labels must be {self.n} values, got shape {labels.shape}")
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "labels", labels)
        object.__setattr__(self, "degrees", np.bincount(edges.ravel(), minlength=self.n))
        for arr in (edges, labels, self.degrees):
            arr.setflags(write=False)

    @property
    def num_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> np.ndarray:
        """Dense n x n symmetric 0/1 adjacency matrix (built on demand)."""
        a = np.zeros((self.n, self.n))
        i, j = self.edges.T
        a[i, j] = 1.0
        a[j, i] = 1.0
        return a

    def min_degree(self) -> int:
        return int(self.degrees.min()) if self.n else 0


@dataclass(frozen=True)
class DegreeStats:
    """Mean-degree statistics of an SBM configuration.

    alpha = n(p+q)/2 - p is the expected degree; beta = n(p-q)/2 - p the
    expected in-minus-out degree difference (None when p == q, where it is
    undefined).
    """

    alpha: float
    beta: Optional[float]

    def __post_init__(self):
        if self.alpha <= 0:
            raise InvalidParameters(f"alpha must be positive, got {self.alpha}")

    @property
    def gamma(self) -> float:
        """alpha - 1, the squared radius of the bulk circle."""
        return self.alpha - 1.0


def expected_stats(params: SbmParams) -> DegreeStats:
    """Expected-degree statistics from the parameters alone.

    For q > p the sign convention beta = n(q-p)/2 + p is used so that beta
    stays positive; for p == q beta is undefined (returned as None).
    """
    n, p, q = params.n, params.p, params.q
    alpha = n * (p + q) / 2 - p
    if p > q:
        beta = n * (p - q) / 2 - p
    elif q > p:
        beta = n * (q - p) / 2 + p
    else:
        beta = None
    return DegreeStats(alpha=alpha, beta=beta)


def sample_sbm(params: SbmParams) -> Graph:
    """Draw one SBM graph, deterministically in ``params``.

    Vertices 0..n/2-1 form block 0, the rest block 1.  Pairs (i, j), i < j,
    are visited in lexicographic order and each consumes exactly one uniform
    draw from a PCG64 stream seeded with ``params.seed``, so identical
    parameters give bit-identical edge sets.
    """
    n, p, q = params.n, params.p, params.q
    rng = np.random.Generator(np.random.PCG64(params.seed))

    # one uniform per pair, lexicographic (i, j) order: row i's pairs start at off[i]
    rows = np.arange(n)
    off = rows * n - rows * (rows + 1) // 2
    u = rng.random(n * (n - 1) // 2)
    # pairs under the larger threshold, then each against its own
    cand = np.flatnonzero(u < max(p, q))
    i = np.searchsorted(off, cand, side="right") - 1
    j = cand - off[i] + i + 1
    cross = (i < n // 2) & (j >= n // 2)
    keep = u[cand] < np.where(cross, q, p)
    return Graph(n=n, edges=np.column_stack((i[keep], j[keep])), labels=_halves(n))


def _halves(n: int) -> np.ndarray:
    """Labels 0 for vertices 0..n/2-1 and 1 for the rest."""
    labels = np.zeros(n, dtype=np.int8)
    labels[n // 2 :] = 1
    return labels


def complete_graph(n: int) -> Graph:
    """K_n, labelled in two halves."""
    return Graph(n=n, edges=np.column_stack(np.triu_indices(n, k=1)), labels=_halves(n))


def circulant(n: int, offsets) -> Graph:
    """The circulant graph joining i and i + k mod n for every k in ``offsets``."""
    i = np.arange(n)
    j = (i[None, :] + np.asarray(offsets, dtype=np.int64)[:, None]) % n
    pairs = np.column_stack((np.minimum(i, j).ravel(), np.maximum(i, j).ravel()))
    edges, _ = np.unique(pairs, axis=0, return_index=True)  # the bare form imports numpy.ma
    return Graph(n=n, edges=edges, labels=_halves(n))


def er_pool(count, n=16, p=0.4, start_seed=0, min_degree=1):
    """Seeded Erdos-Renyi graphs conditioned on a minimum degree."""
    graphs = []
    seed = start_seed
    while len(graphs) < count:
        g = sample_sbm(SbmParams(n=n, p=p, q=p, seed=seed))
        seed += 1
        if g.min_degree() >= min_degree:
            graphs.append(g)
    return graphs


def fig1_params(which: str, n: int = 1000, seed: int = 1) -> SbmParams:
    """The paper's Figure 1 family: q = (log n)^2 / n, and p = 3q ("right") or p = q."""
    logsq = math.log(n) ** 2 / n
    if which == "right":
        return SbmParams(n=n, p=3 * logsq, q=logsq, seed=seed)
    return SbmParams(n=n, p=logsq, q=logsq, seed=seed)


def degree_concentration(
    graph: Graph, stats: DegreeStats, threshold: float = 0.3
) -> Tuple[float, float, bool]:
    """(max_deviation, relative_deviation, concentrated) of a graph's degrees.

    max_deviation = max_i |d_i - alpha|, relative_deviation divides it by
    alpha, and concentrated is relative_deviation <= threshold.
    """
    if graph.n == 0:
        raise InvalidParameters("graph must be nonempty")
    dev = float(np.max(np.abs(graph.degrees - stats.alpha)))
    rel = dev / stats.alpha
    return dev, rel, bool(rel <= threshold)


def write_edge_list(graph: Graph, fh: TextIO, params: Optional[SbmParams] = None):
    """Plain-text edge list: header `n m seed p q`, a label line, one `i j` per edge."""
    seed = params.seed if params is not None else 0
    p = params.p if params is not None else math.nan
    q = params.q if params is not None else math.nan
    fh.write(f"{graph.n} {graph.num_edges} {seed} {p!r} {q!r}\n")
    fh.write("".join(str(int(b)) for b in graph.labels) + "\n")
    for i, j in graph.edges.tolist():
        fh.write(f"{i} {j}\n")


def read_edge_list(fh: TextIO) -> Graph:
    """Parse the format of ``write_edge_list``; a malformed line raises naming it."""
    header = fh.readline().split()
    if len(header) != 5:
        raise InvalidParameters("line 1: bad edge-list header, expected `n m seed p q`")
    try:
        n, m = int(header[0]), int(header[1])
    except ValueError:
        raise InvalidParameters("line 1: expected `n m seed p q` with integer n and m") from None
    if m < 0:
        raise InvalidParameters(f"line 1: the edge count m must be non-negative, got {m}")
    label_line = fh.readline().strip()
    if len(label_line) != n or set(label_line) - {"0", "1"}:
        raise InvalidParameters("line 2: label line must be n characters of 0/1")
    labels = np.array([int(c) for c in label_line], dtype=np.int8)
    edges = set()
    for line_no in range(3, m + 3):
        try:
            i, j = map(int, fh.readline().split())
        except ValueError:
            raise InvalidParameters(
                f"line {line_no}: expected an edge `i j` (the header says m = {m})"
            ) from None
        if i == j or not (0 <= i < n and 0 <= j < n):
            raise InvalidParameters(f"line {line_no}: bad edge ({i}, {j})")
        edge = (min(i, j), max(i, j))
        if edge in edges:
            raise InvalidParameters(f"line {line_no}: duplicate edge {edge}")
        edges.add(edge)
    for line_no, line in enumerate(fh, start=m + 3):
        if line.strip():
            raise InvalidParameters(f"line {line_no}: more edge lines than the header's m = {m}")
    return Graph(n=n, edges=np.array(sorted(edges), dtype=np.int64), labels=labels)
