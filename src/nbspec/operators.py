"""Non-backtracking operator, companion linearizations, and the Bethe Hessian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eig import _read_only, _symmetric, eigs_general, eigs_symmetric, quadratic_roots
from .graphgen import DegreeStats, Graph, InvalidParameters

__all__ = [
    "QepPair",
    "TooLargeError",
    "DegreeTooSmallError",
    "companion",
    "build_B",
    "build_H",
    "build_H0",
    "build_K",
    "build_K0",
    "bethe_hessian",
    "DENSE_CAP",
]

DENSE_CAP = 4000


class TooLargeError(ValueError):
    """Requested dense matrix exceeds ``DENSE_CAP`` rows."""


class DegreeTooSmallError(ValueError):
    """Construction requires minimum degree >= 2."""


def companion(a: np.ndarray, x: np.ndarray) -> np.ndarray:
    """The 2n x 2n companion matrix [[A, X], [I, 0]] of the pencil z^2 I - z A - X."""
    n = a.shape[0]
    m = np.zeros((2 * n, 2 * n))
    m[:n, :n] = a
    m[:n, n:] = x
    m[n:, :n] = np.eye(n)
    return m


@dataclass(frozen=True)
class QepPair:
    """Coefficient blocks (A, X) of the pencil z^2 I - z A - X.

    H, H0, K and K0 are all such pencils; ``matrix`` is their 2n x 2n
    companion linearization, built on each access rather than stored, and
    ``spectrum()`` its eigenvalues.
    """

    a_block: np.ndarray
    x_block: np.ndarray

    def __post_init__(self):
        a = np.asarray(self.a_block, dtype=float)
        x = np.asarray(self.x_block, dtype=float)
        if a.shape != x.shape or a.ndim != 2 or a.shape[0] != a.shape[1]:
            raise ValueError("blocks must be square and of equal shape")
        object.__setattr__(self, "a_block", a)
        object.__setattr__(self, "x_block", x)

    @property
    def matrix(self) -> np.ndarray:
        return companion(self.a_block, self.x_block)

    @property
    def a_symmetric(self) -> bool:
        """Whether A = A^T within 1e-12 relative, the tolerance of ``eigs_symmetric``."""
        return _symmetric(self.a_block)

    @property
    def symmetric_scalar(self) -> bool:
        """Whether A is symmetric and X = cI (within 1e-12 relative to max(|c|, 1)).

        Such blocks co-diagonalize orthogonally, so kappa(P) = 1, and the
        spectrum is the roots of z^2 - lambda z - c over lambda in Spec(A).
        """
        x = self.x_block
        c = x[0, 0]
        scalar = np.abs(x - c * np.eye(x.shape[0])).max() <= 1e-12 * max(abs(c), 1.0)
        return bool(scalar) and self.a_symmetric

    def spectrum(self) -> np.ndarray:
        """The 2n eigenvalues of ``matrix``, a read-only complex128 array.

        For ``symmetric_scalar`` blocks they come in closed form from one
        symmetric eigensolve of A: the two roots of z^2 - lambda z - c for
        each lambda, ascending in lambda.  Otherwise from a dense
        eigensolve of the companion matrix.
        """
        if not self.symmetric_scalar:
            return eigs_general(self.matrix)
        r1, r2 = quadratic_roots(eigs_symmetric(self.a_block), self.x_block[0, 0])
        return _read_only(np.column_stack((r1, r2)).ravel())


def build_B(graph: Graph) -> np.ndarray:
    """The read-only 2|E| x 2|E| 0/1 non-backtracking matrix on directed edges.

    Entry ((i,j),(k,l)) is 1 iff j = k and l != i.  Directed edges are
    indexed in lexicographic (i, j) order; any fixed order gives a similar
    matrix, this one makes outputs byte-stable.  Refuses to build beyond
    ``DENSE_CAP`` rows: at scale the spectrum must come from H instead.
    """
    m2 = 2 * graph.num_edges
    if m2 > DENSE_CAP:
        raise TooLargeError(
            f"B would be {m2} x {m2}, over the dense cap {DENSE_CAP}; use build_H"
        )
    darts = np.concatenate((graph.edges, graph.edges[:, ::-1]))
    tail, head = darts[np.lexsort((darts[:, 1], darts[:, 0]))].T
    b = ((head[:, None] == tail[None, :]) & (head[None, :] != tail[:, None])).astype(float)
    b.setflags(write=False)
    return b


def build_H(graph: Graph) -> QepPair:
    """The pencil z^2 I - z A + D - I, whose companion is [[A, I-D], [I, 0]]."""
    a = graph.adjacency()
    x = np.eye(graph.n) - np.diag(graph.degrees.astype(float))
    return QepPair(a, x)


def build_H0(graph: Graph, stats: DegreeStats) -> QepPair:
    """The partial derandomization [[A, -gamma I], [I, 0]] with gamma = alpha - 1.

    Its spectrum is the union over eigenvalues lambda of A of the roots of
    z^2 - lambda z + gamma = 0.
    """
    if stats.gamma <= 0:
        raise InvalidParameters(f"requires alpha > 1, got alpha = {stats.alpha}")
    a = graph.adjacency()
    x = -stats.gamma * np.eye(graph.n)
    return QepPair(a, x)


def build_K(graph: Graph) -> QepPair:
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
    return QepPair(a, x)


def build_K0(graph: Graph, stats: DegreeStats) -> QepPair:
    """[[ A/(alpha-1), -I/(alpha-1) ], [I, 0]]; same spectrum as H0^-1."""
    if stats.gamma <= 0:
        raise InvalidParameters(f"requires alpha > 1, got alpha = {stats.alpha}")
    a = graph.adjacency() / stats.gamma
    x = -np.eye(graph.n) / stats.gamma
    return QepPair(a, x)


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
