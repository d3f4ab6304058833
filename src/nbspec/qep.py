"""Bauer-Fike perturbation radii for quadratic eigenvalue problems.

For linearizations L0 = [[A, X], [I, 0]] and L = [[B, Y], [I, 0]] with L0
QEP-diagonalizable (A, X co-diagonalized by P), every eigenvalue mu of L lies
within sqrt(kappa(P)) * sqrt(||X - Y + mu (A - B)||) of some eigenvalue of
L0, and eigenvalue counts inside well-separated unions of such balls are
preserved.  Only a reference with a symmetric A and X = cI is accepted
(``QepPair.symmetric_scalar``, as for H0, K0 and the (A, cI) trial pencils):
its P is orthogonal, so kappa(P) = 1 and eps(mu) = sqrt(||X - Y + mu (A - B)||).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from .operators import QepPair

__all__ = [
    "QepBoundReport",
    "NotQepDiagonalizableError",
    "spectral_norm",
    "qep_bound",
]

# envelope cells per coordinate across the bulk of Spec(L)
ENVELOPE_CELLS = 3
# split an envelope cell while its corners' mean norm exceeds its centre's by more
ENVELOPE_RTOL = 0.1


class NotQepDiagonalizableError(ValueError):
    """The reference pencil is not ``symmetric_scalar``, so no orthogonal P co-diagonalizes it."""


@dataclass(frozen=True)
class QepBoundReport:
    """Everything the QEP Bauer-Fike theorem asserts about one (L0, L) pair."""

    kappa: ClassVar[float] = 1.0  # kappa(P) of the orthogonal P of a symmetric_scalar reference
    per_mu: List[Tuple[complex, float, complex, float]]  # (mu, eps(mu), nu, |mu-nu|)
    norm_methods: Tuple[str, ...]  # per row: "diagonal", "gram" or "envelope"

    @property
    def epsilon_global(self) -> float:
        """The largest eps(mu), 0.0 when there are no rows."""
        return max((eps for _, eps, _, _ in self.per_mu), default=0.0)

    def all_within_bound(self) -> bool:
        return all(dist <= eps for _, eps, _, dist in self.per_mu)

    def to_json(self) -> str:
        doc = {
            "kappa": self.kappa,
            "epsilon_global": self.epsilon_global,
            "per_mu": [
                {
                    "mu": [mu.real, mu.imag],
                    "epsilon": eps,
                    "matched_nu": [nu.real, nu.imag],
                    "distance": dist,
                    "norm_method": method,
                }
                for (mu, eps, nu, dist), method in zip(self.per_mu, self.norm_methods)
            ],
        }
        return json.dumps(doc, indent=2)


def _abs_norm_bound(m: np.ndarray) -> float:
    """An upper bound on ||abs(m)||_2: the smaller of ||m||_F and sqrt(||m||_1 ||m||_inf)."""
    a = np.abs(m)
    return float(min(np.sqrt((a * a).sum()), np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())))


class _Gram:
    """The nonzero terms of E E^H = P + Re(mu) S + |mu|^2 R + i |Im mu| T for real blocks.

    P = Xd Xd^T, C = Ad Xd^T, S = C + C^T, T = C - C^T and R = Ad Ad^T.
    ``axes`` index the coordinates (Re mu, |mu|^2, |Im mu|) that scale them;
    f >= ||abs(Xd)||_2 and g >= ||abs(Ad)||_2 come from ``_abs_norm_bound``.
    """

    def __init__(self, x_diff: np.ndarray, a_diff: np.ndarray):
        self.n = max(x_diff.shape)
        self.p = x_diff @ x_diff.T
        self.f, self.g = _abs_norm_bound(x_diff), 0.0
        terms = []  # (axis, matrix, unit)
        if a_diff.any():
            self.g = _abs_norm_bound(a_diff)
            c = a_diff @ x_diff.T
            terms = [(0, c + c.T, 1.0), (1, a_diff @ a_diff.T, 1.0), (2, c - c.T, 1j)]
        self.terms = [term for term in terms if term[1].any()]
        self.axes = [axis for axis, _, _ in self.terms]
        self.top = {}  # key -> lambda_max of the computed Gram matrix

    def exact(self, mus: np.ndarray) -> np.ndarray:
        """Upper bounds on ||E(mu)||_2 for E(mu) = x_diff + mu a_diff, every mu.

        For real blocks E E^H = P + Re(mu) S + |mu|^2 R + i Im(mu) T, so
        ||E(mu)||^2 = lambda_max(G(mu)).  Only the nonzero terms are formed, and
        G depends on mu only through (Re mu, |mu|^2, |Im mu|) restricted to them:
        one solve per distinct key, so a conjugate pair shares one eigensolve,
        and Ad = 0 needs one in all.  Solves are kept in ``top``.

        Rounding allowance.  Let u be the unit roundoff, gamma_k = k u / (1 - k u),
        n the larger dimension, f >= ||abs(Xd)||_2, g >= ||abs(Ad)||_2 (from
        ``_abs_norm_bound``) and h = f + sqrt(2) |mu| g.  Every matrix formed is
        bounded entrywise by |Xd||Xd|^T, |Ad||Xd|^T, |Xd||Ad|^T or |Ad||Ad|^T, so
        with |Re mu| + |Im mu| <= sqrt(2) |mu| the errors against the exact Gram
        matrix G of the exact E are at most:
          - gamma_3 h^2 from rounding the differences X0 - X and A0 - A;
          - gamma_(n+1) h^2 from the length-n inner products and S, T;
          - gamma_6 h^2 from scaling by Re mu, |mu|^2, Im mu and summing.
        So the computed G^ has ||G^ - G||_2 <= gamma_(n+10) h^2 =: F.  ``eigvalsh``
        returns lambda^ with |lambda^ - lambda_max(G^)| <= p(n) u ||G^||_2, taking
        p(n) = n for LAPACK's "modestly growing function".  G is positive
        semidefinite, so lambda_min(G^) >= -F and ||G^||_2 <= (|lambda^| + F) / (1 - n u).
        Together ||E||^2 <= lambda^ + gamma_(n+10) h^2 + gamma_n (|lambda^| + F), which
        gamma_(n+12) (h^2 + |lambda^|) covers; the two spare units absorb the
        second-order terms and the rounding in evaluating the allowance and the
        square roots.  Relative to ||E||, the bound is high by about
        (n + 12) u (1 + h^2 / ||E||^2) / 2.
        """
        keys = [()] * mus.size  # no term depends on mu: one Gram matrix for every mu
        if self.axes:
            coords = np.column_stack((mus.real, mus.real ** 2 + mus.imag ** 2, np.abs(mus.imag)))
            keys = list(map(tuple, coords[:, self.axes]))
        for key in dict.fromkeys(key for key in keys if key not in self.top):
            gram = self.p
            for coef, (_, m, unit) in zip(key, self.terms):
                gram = gram + (coef * unit) * m
            self.top[key] = np.linalg.eigvalsh(gram)[-1]
        lam = np.array([self.top[key] for key in keys], dtype=float)
        h = self.f + np.sqrt(2.0) * np.abs(mus) * self.g
        return np.sqrt(np.maximum(lam + _gamma(self.n + 12) * (h * h + np.abs(lam)), 0.0))

    def envelope(self, mus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Upper bounds on ||E(mu)||_2 for every mu, and the method of each.

        ||E(mu)||_2 is convex in mu, as the norm of an affine function of mu,
        and the same at mu and its conjugate, as the blocks are real.
        ``_grid`` puts each point (Re mu, |Im mu|) in a cell [x0, x1) x [y0, y1),
        where it is a convex combination, with bilinear weights, of the four
        corners x + i y.  A cell of more than two conjugate classes is split
        in four at its centre while the mean of its corners' norms exceeds
        the centre's by more than ``ENVELOPE_RTOL``, as around the minimum of
        ||E||, where it curves most.  Then each of its mu gets that
        combination of the corners' norms ("envelope").  Corners and centres
        are shared between cells, each bounded by ``exact``, and every other
        mu gets its class solve ("gram").

        Rounding: Re mu and |Im mu| are exact and lie in their cell, as the
        split compares them with the centre, and the corners are exact.  Each
        computed weight lies in [0, 1] within gamma_9 of the exact one, and
        the sum of the four products is within gamma_4 of itself, so with N_k
        the corner bounds, adding gamma_48 max_k N_k covers the exact
        combination and this addition.
        """
        norms = np.empty(mus.size)
        crowded = np.zeros(mus.size, dtype=bool)
        if self.terms:
            x, y = mus.real, np.abs(mus.imag)
            edges = np.column_stack(_grid(x) + _grid(y))  # x0, x1, y0, y1 of each mu's cell
            _, first, cell = np.unique(edges, axis=0, return_index=True, return_inverse=True)
            cells = [(*edges[i], np.flatnonzero(cell.ravel() == c)) for c, i in enumerate(first)]
            while cells:
                x0, x1, y0, y1, m = cells.pop()
                if len(set(zip(x[m], y[m]))) <= 2:
                    continue
                corner = self.exact(np.array([x0, x0, x1, x1]) + 1j * np.array([y0, y1, y0, y1]))
                # a side with no float strictly between its ends is not split
                xm = (x0 + x1) / 2 if x0 < (x0 + x1) / 2 < x1 else x0
                ym = (y0 + y1) / 2 if y0 < (y0 + y1) / 2 < y1 else y0
                if (xm, ym) != (x0, y0) and \
                        corner.mean() > (1 + ENVELOPE_RTOL) * self.exact(np.array([xm + 1j * ym]))[0]:
                    right, upper = x[m] >= xm, y[m] >= ym
                    cells += [((x0, xm)[r], (xm, x1)[r], (y0, ym)[u], (ym, y1)[u],
                               m[(right == r) & (upper == u)]) for r in (0, 1) for u in (0, 1)]
                    continue
                wx, wy = (x[m] - x0) / (x1 - x0), (y[m] - y0) / (y1 - y0)
                weight = [(1 - wx) * (1 - wy), (1 - wx) * wy, wx * (1 - wy), wx * wy]
                # elementwise, so equal (Re mu, |Im mu|) get equal bounds wherever they
                # sit in mus: a matrix product's rounding depends on the position
                norms[m] = sum(c * w for c, w in zip(corner, weight)) + _gamma(48) * corner.max()
                crowded[m] = True
        norms[~crowded] = self.exact(mus[~crowded])
        return norms, np.where(crowded, "envelope", "gram")


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), with u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _grid(v: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """The lower and upper edge of each value's cell on a grid of one coordinate.

    ``ENVELOPE_CELLS`` cells of equal width span v without its two smallest
    and two largest values, and cells of the same width extend the grid past
    them, so an isolated mu (1 and beta/alpha for K) sits in a cell of its
    own.  The width is at least 16 units in the last place of max |v|, so the
    computed edges increase with the cell index k and the division misplaces
    a value by at most one cell; the comparisons put it in [edge k, edge k+1).
    """
    ranked = np.sort(v)  # np.quantile imports numpy.ma: 1.6 MB more RSS
    k = min(2, (v.size - 1) // 2)
    lo = ranked[k]
    width = ((ranked[-1 - k] - lo) or (ranked[-1] - ranked[0]) or 1.0) / ENVELOPE_CELLS
    width = max(width, 16 * np.spacing(max(-ranked[0], ranked[-1])))
    cell = np.floor((v - lo) / width)
    cell -= v < lo + cell * width
    cell += v >= lo + (cell + 1) * width
    return lo + cell * width, lo + (cell + 1) * width


def _norms(x_diff: np.ndarray, a_diff: np.ndarray, mus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Upper bounds on ||x_diff + mu a_diff||_2 for every mu, and the method of each.

    "diagonal" when a_diff = 0 and x_diff is diagonal: the exact norm is
    max |x_ii|, and gamma_4 relative covers the rounding of the differences
    and of the square roots taken from it.  Otherwise ``_Gram.envelope``
    gives "envelope" or "gram" per mu.
    """
    diag = np.diagonal(x_diff)
    if not a_diff.any() and np.count_nonzero(x_diff) == np.count_nonzero(diag):
        norm = float(np.abs(diag).max(initial=0.0)) * (1 + _gamma(4))
        return np.full(mus.size, norm), np.full(mus.size, "diagonal")
    return _Gram(x_diff, a_diff).envelope(mus)


def spectral_norm(m: np.ndarray) -> float:
    """An upper bound on ||m||_2 of a real matrix: exact for a diagonal m, else ``_Gram.exact``."""
    m = np.asarray(m, dtype=float)
    return float(_norms(m, np.zeros_like(m), np.zeros(1, dtype=complex))[0][0])


def qep_bound(
    l0: QepPair,
    l: QepPair,
    spec0: Optional[np.ndarray] = None,
    spec: Optional[np.ndarray] = None,
) -> QepBoundReport:
    """Per-eigenvalue radii eps(mu) = sqrt(||E(mu)||) and nearest-reference matching.

    ``l0`` must be ``symmetric_scalar`` (kappa(P) = 1, see the module
    docstring); any other reference raises ``NotQepDiagonalizableError``.
    Precomputed spectra of the linearizations may be passed to avoid repeated
    eigensolves; otherwise both come from ``QepPair.spectrum``, so a pencil
    identical to the reference (H of a regular graph against H0) takes the
    same path and matches it exactly.

    Every radius is an upper bound on the theorem's.  The norm of
    E(mu) = X0 - X + mu (A0 - A) is taken by one of three methods, chosen
    from the blocks and recorded per row in ``norm_methods``:
      - "diagonal": A0 = A and X0 - X diagonal, as for (H0, H).  The norm
        is max |(X0 - X)_ii| for every mu, in O(n).
      - "envelope": every mu in a cell of a grid over (Re mu, |Im mu|) that
        holds more than two conjugate classes is bounded by interpolating
        the norms at the cell's corners, after splitting cells whose centre
        lies well below that interpolation (``_Gram.envelope``).
      - "gram": every other mu, from ``_Gram.exact``: one eigensolve
        per conjugate class, one in all when A0 = A.  Among them are 1 and
        beta/alpha of a K pencil, which sit in cells of their own.
    "diagonal" and "gram" are exact up to a rounding allowance of about
    n u relative; "envelope" is looser, by a few percent in tested pencils.
    """
    if not l0.symmetric_scalar:
        raise NotQepDiagonalizableError("the reference pencil needs a symmetric A and X = cI")
    if spec0 is None:
        spec0 = l0.spectrum()
    if spec is None:
        spec = l.spectrum()
    mus = np.asarray(spec, dtype=complex)
    norms, methods = _norms(l0.x_block - l.x_block, l0.a_block - l.a_block, mus)
    nus = np.asarray(spec0, dtype=complex)
    nearest, dists = _nearest(mus, nus)
    per_mu = list(zip(mus.tolist(), np.sqrt(norms).tolist(), nus[nearest].tolist(), dists.tolist()))
    return QepBoundReport(per_mu=per_mu, norm_methods=tuple(methods.tolist()))


# mu - nu differences per block: 1 MB of complex values, 0.5 MB of their moduli
_NEAREST_BLOCK = 1 << 16


def _nearest(mus: np.ndarray, nus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """For each mu, the index of the first nearest nu and |mu - nu| there.

    Rows are taken in blocks of at most ``_NEAREST_BLOCK`` differences.  Each
    distance is the same elementwise ``abs`` of the same difference as
    ``np.abs(nus - mu)``, so the bytes do not depend on the blocking.
    """
    nearest = np.empty(mus.size, dtype=np.intp)
    dists = np.empty(mus.size)
    rows = max(1, _NEAREST_BLOCK // max(nus.size, 1))
    for start in range(0, mus.size, rows):
        gaps = np.abs(nus[None, :] - mus[start:start + rows, None])
        nearest[start:start + rows] = gaps.argmin(axis=1)
        dists[start:start + rows] = gaps.min(axis=1)
    return nearest, dists
