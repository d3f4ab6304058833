"""Non-backtracking operator, companion linearizations, and the Bethe Hessian."""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, TextIO

import numpy as np

from .graphgen import DegreeStats, Graph

__all__ = [
    "Linearization",
    "TooLargeError",
    "DegreeTooSmallError",
    "companion",
    "build_B",
    "build_H",
    "build_H0",
    "build_K",
    "build_K0",
    "bethe_hessian",
    "write_matrix_csv",
    "DEFAULT_DENSE_CAP",
]

DEFAULT_DENSE_CAP = 4000


class TooLargeError(ValueError):
    """Requested dense matrix exceeds the configured cap."""


class DegreeTooSmallError(ValueError):
    """Construction requires minimum degree >= 2."""


@dataclass(frozen=True)
class Linearization:
    """A matrix representing the non-backtracking spectrum.

    ``kind`` is one of B, H, H0, K, K0.  For the companion kinds (all but B)
    ``matrix`` has block shape [[a_block, x_block], [I, 0]]; for B the blocks
    are absent and ``matrix`` acts on directed edges.
    """

    kind: str
    matrix: np.ndarray
    a_block: Optional[np.ndarray] = None
    x_block: Optional[np.ndarray] = None

    def __post_init__(self):
        self.matrix.setflags(write=False)


def companion(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 2n x 2n companion matrix [[A, X], [I, 0]] of the pencil z^2 I - z A - X."""
    n = a.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a
    m[:n, n:] = x
    m[n:, :n] = np.eye(n)
    return m


def _companion(kind, a_block, x_block) -> Linearization:
    return Linearization(
        kind=kind, matrix=companion(a_block, x_block), a_block=a_block, x_block=x_block
    )


def build_B(graph: Graph, dense_cap: int = DEFAULT_DENSE_CAP) -> Linearization:
    """The 2|E| x 2|E| non-backtracking matrix on directed edges.

    Entry ((i,j),(k,l)) is 1 iff j = k and l != i.  Directed edges are
    indexed in lexicographic (i, j) order; any fixed order gives a similar
    matrix, this one makes outputs byte-stable.  Refuses to build beyond
    ``dense_cap`` rows: at scale the spectrum must come from H instead.
    """
    m2 = 2 * graph.num_edges
    if m2 > dense_cap:
        raise TooLargeError(
            f"B would be {m2} x {m2}, over the dense cap {dense_cap}; use build_H"
        )
    darts = np.concatenate((graph.edges, graph.edges[:, ::-1]))
    tail, head = darts[np.lexsort((darts[:, 1], darts[:, 0]))].T
    b = (head[:, None] == tail[None, :]) & (head[None, :] != tail[:, None])
    return Linearization(kind="B", matrix=b.astype(float))


def build_H(graph: Graph) -> Linearization:
    """The 2n x 2n companion matrix [[A, I-D], [I, 0]] of the pencil z^2 I - z A + D - I."""
    a = graph.adjacency()
    x = np.eye(graph.n) - np.diag(graph.degrees.astype(float))
    return _companion("H", a, x)


def build_H0(graph: Graph, stats: DegreeStats) -> Linearization:
    """The partial derandomization [[A, -gamma I], [I, 0]] with gamma = alpha - 1.

    Its spectrum is the union over eigenvalues lambda of A of the roots of
    z^2 - lambda z + gamma = 0.
    """
    if stats.gamma <= 0:
        raise ValueError(f"requires alpha > 1, got alpha = {stats.alpha}")
    a = graph.adjacency()
    x = -stats.gamma * np.eye(graph.n)
    return _companion("H0", a, x)


def build_K(graph: Graph) -> Linearization:
    """[[ (D-I)^-1 A, -(D-I)^-1 ], [I, 0]]; same spectrum as H^-1.

    Requires every degree >= 2 so D - I is safely invertible.
    """
    if graph.min_degree() < 2:
        raise DegreeTooSmallError(
            f"K needs min degree >= 2, got {graph.min_degree()}"
        )
    inv = 1.0 / (graph.degrees.astype(float) - 1.0)
    a = inv[:, None] * graph.adjacency()
    x = -np.diag(inv)
    return _companion("K", a, x)


def build_K0(graph: Graph, stats: DegreeStats) -> Linearization:
    """[[ A/(alpha-1), -I/(alpha-1) ], [I, 0]]; same spectrum as H0^-1."""
    if stats.gamma <= 0:
        raise ValueError(f"requires alpha > 1, got alpha = {stats.alpha}")
    a = graph.adjacency() / stats.gamma
    x = -np.eye(graph.n) / stats.gamma
    return _companion("K0", a, x)


def bethe_hessian(graph: Graph, r: float) -> np.ndarray:
    """The deformed Laplacian (r^2 - 1) I + D - r A, read-only and exactly symmetric.

    At r = 1 this is the graph Laplacian.
    """
    n = graph.n
    m = (r * r - 1.0) * np.eye(n) + np.diag(graph.degrees.astype(float))
    m -= r * graph.adjacency()
    m = (m + m.T) / 2.0  # kill roundoff asymmetry from the subtraction
    m.setflags(write=False)
    return m


def write_matrix_csv(m: np.ndarray, fh: TextIO):
    """Plain CSV, one row per line, for cross-checking with external tools."""
    for row in np.asarray(m):
        fh.write(",".join(f"{v:.17g}" for v in row) + "\n")
