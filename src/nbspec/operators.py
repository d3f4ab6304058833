"""Non-backtracking operator, linearized quadratic pencils, and the Bethe Hessian."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .eig import _read_only, _symmetric, eigs_general, eigs_symmetric, quadratic_roots
from .graphgen import DegreeStats, Graph, InvalidParameters

__all__ = [
    "QepPair",
    "TooLargeError",
    "DegreeTooSmallError",
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


class DegreeTooSmallError(InvalidParameters):
    """Construction requires minimum degree >= 2."""


@dataclass(frozen=True)
class QepPair:
    """Coefficient blocks (A, X) of the pencil Q(z) = z^2 I - z A - X.

    H, H0 and their ``reciprocal()`` pencils K, K0 are all such pencils;
    ``matrix`` is their 2n x 2n linearization, built on each access rather
    than stored, ``spectrum()`` its eigenvalues, and det(zI - ``matrix``) = det ``at(z)``.
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
        """The 2n x 2n linearization [[A, X], [I, 0]]."""
        n = self.a_block.shape[0]
        m = np.zeros((2 * n, 2 * n))
        m[:n, :n] = self.a_block
        m[:n, n:] = self.x_block
        m[n:, :n] = np.eye(n)
        return m

    @property
    def symmetric_scalar(self) -> bool:
        """Whether A is symmetric and X = cI (within 1e-12 relative to max(|c|, 1)).

        Such blocks co-diagonalize orthogonally, so kappa(P) = 1, and the
        spectrum is the roots of z^2 - lambda z - c over lambda in Spec(A).
        The diagonal of X is checked first, in O(n): H of an irregular graph
        fails there without an n x n temporary.  A symmetric A is one that
        ``eigs_symmetric`` accepts.
        """
        x = self.x_block
        if not x.size:
            return True  # the empty pencil
        c = x[0, 0]
        tol = 1e-12 * max(abs(c), 1.0)
        if np.abs(np.diagonal(x) - c).max() > tol:
            return False
        return bool(np.abs(x - c * np.eye(x.shape[0])).max() <= tol) and _symmetric(self.a_block)

    def spectrum(self) -> np.ndarray:
        """The 2n eigenvalues of ``matrix``, a read-only complex128 array.

        For ``symmetric_scalar`` blocks they come in closed form from one
        symmetric eigensolve of A: the two roots of z^2 - lambda z - c for
        each lambda, ascending in lambda.  Otherwise from a dense
        eigensolve of ``matrix``.
        """
        if not self.symmetric_scalar:
            return eigs_general(self.matrix)
        # c = x[0, 0] as a length-1 slice, which an empty pencil leaves empty
        r1, r2 = quadratic_roots(eigs_symmetric(self.a_block), np.diagonal(self.x_block)[:1])
        return _read_only(np.column_stack((r1, r2)).ravel())

    def at(self, z) -> np.ndarray:
        """Q(z) = z^2 I - z A - X: n x n for a scalar z, a stack of them for an array.

        Exactly symmetric for a symmetric A, a diagonal X and a real z: each
        entry is computed from the same operands as its mirror image.
        """
        w = np.asarray(z)[..., None, None]
        return w * w * np.eye(len(self.a_block)) - w * self.a_block - self.x_block

    def reciprocal(self) -> QepPair:
        """The pencil (-X^-1 A, X^-1): its Q(z) is -z^2 X^-1 Q_self(1/z), its spectrum 1/Spec(self).

        X must be diagonal and nonsingular; any other X raises ``ValueError``.
        """
        d = np.diagonal(self.x_block)
        if not np.count_nonzero(self.x_block) == np.count_nonzero(d) == len(d):
            raise ValueError("reciprocal() needs a diagonal, nonsingular X")
        inv = 1.0 / d
        return QepPair(-inv[:, None] * self.a_block, np.diag(inv))


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
    """The pencil z^2 I - z A + D - I, whose linearization is [[A, I-D], [I, 0]]."""
    return QepPair(graph.adjacency(), np.eye(graph.n) - np.diag(graph.degrees.astype(float)))


def build_H0(graph: Graph, stats: DegreeStats) -> QepPair:
    """The partial derandomization [[A, -gamma I], [I, 0]] with gamma = alpha - 1.

    Its spectrum is the union over eigenvalues lambda of A of the roots of
    z^2 - lambda z + gamma = 0.
    """
    if stats.gamma <= 0:
        raise InvalidParameters(f"requires alpha > 1, got alpha = {stats.alpha}")
    return QepPair(graph.adjacency(), -stats.gamma * np.eye(graph.n))


def build_K(graph: Graph) -> QepPair:
    """H's reciprocal [[(D-I)^-1 A, -(D-I)^-1], [I, 0]]; Spec(K) = 1/Spec(H).

    Requires every degree >= 2 so D - I is safely invertible.
    """
    if graph.min_degree() < 2:
        raise DegreeTooSmallError(f"K needs min degree >= 2, got {graph.min_degree()}")
    return build_H(graph).reciprocal()


def build_K0(graph: Graph, stats: DegreeStats) -> QepPair:
    """H0's reciprocal [[A/(alpha-1), -I/(alpha-1)], [I, 0]]; Spec(K0) = 1/Spec(H0)."""
    return build_H0(graph, stats).reciprocal()


def bethe_hessian(graph: Graph, r: float) -> np.ndarray:
    """The deformed Laplacian (r^2 - 1) I + D - r A = Q_H(r), read-only and exactly symmetric.

    At r = 1 this is the graph Laplacian.
    """
    return _read_only(build_H(graph).at(r))
