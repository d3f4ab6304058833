"""Bauer-Fike perturbation radii for quadratic eigenvalue problems.

For linearizations L0 = [[A, X], [I, 0]] and L = [[B, Y], [I, 0]] with L0
QEP-diagonalizable (A, X co-diagonalized by P), every eigenvalue mu of L lies
within sqrt(kappa(P)) * sqrt(||X - Y + mu (A - B)||) of some eigenvalue of
L0, and eigenvalue counts inside well-separated unions of such balls are
preserved.  Only a reference with a symmetric A and X = cI is accepted
(``QepPair.symmetric_scalar``, as for H0, K0 and the (A, cI) trial pencils):
its P is orthogonal, so kappa(P) = 1 and eps(mu) = sqrt(||X - Y + mu (A - B)||).
Each ||E(mu)|| is bounded from above by a Gram eigensolve or, across the bulk,
by interpolation on a fixed grid over the Gram keys (Re mu, |mu|^2).
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import product
from typing import ClassVar, List, Optional, Tuple

import numpy as np

from .operators import QepPair

__all__ = [
    "QepBoundReport",
    "NotQepDiagonalizableError",
    "spectral_norm",
    "qep_bound",
]

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
        """``json.dumps`` of the report with ``indent=2``, byte for byte, each row from one template.

        Numbers are written by ``str``, which spells a finite float as json
        does, and NaN and +-inf as nan and +-inf.  Only a number follows a
        space and starts with n, i or -i, so three replacements give json's
        NaN, Infinity and -Infinity.  Methods are plain words, written unescaped.
        """
        row = ('    {\n      "mu": [\n        %s,\n        %s\n      ],\n      "epsilon": %s,\n'
               '      "matched_nu": [\n        %s,\n        %s\n      ],\n      "distance": %s,\n'
               '      "norm_method": "%s"\n    }')
        rows = ",\n".join(
            row % (mu.real, mu.imag, eps, nu.real, nu.imag, dist, method)
            for (mu, eps, nu, dist), method in zip(self.per_mu, self.norm_methods)
        )
        text = '{\n  "kappa": %s,\n  "epsilon_global": %s,\n  "per_mu": %s\n}' % (
            self.kappa, self.epsilon_global, "[\n" + rows + "\n  ]" if rows else "[]")
        return text.replace(" nan", " NaN").replace(" inf", " Infinity").replace(" -inf", " -Infinity")


def _abs_norm_bound(m: np.ndarray) -> float:
    """An upper bound on ||abs(m)||_2: the smaller of ||m||_F and sqrt(||m||_1 ||m||_inf)."""
    a = np.abs(m)
    return float(min(np.sqrt((a * a).sum()), np.sqrt(a.sum(axis=0).max() * a.sum(axis=1).max())))


class _Gram:
    """The nonzero terms of E E^H = P + Re(mu) S + |mu|^2 R + i |Im mu| T for real blocks.

    P = Xd Xd^T, C = Ad Xd^T, S = C + C^T, T = C - C^T and R = Ad Ad^T.
    ``axes`` index the coordinates (Re mu, |mu|^2, |Im mu|) that scale them,
    and mu's key is its coordinates on ``axes``: the Gram matrix G is affine
    in the key.  f >= ||abs(Xd)||_2 and g >= ||abs(Ad)||_2 come from ``_abs_norm_bound``.
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

    def keys(self, mus: np.ndarray) -> np.ndarray:
        """The computed key of each mu, one row per mu; only its |mu|^2 is rounded."""
        return np.column_stack((mus.real, mus.real ** 2 + mus.imag ** 2, np.abs(mus.imag)))[:, self.axes]

    def _top(self, keys: np.ndarray) -> np.ndarray:
        """lambda_max of the computed G at each key (row), one eigensolve per key not in ``top``."""
        keys = list(map(tuple, keys.tolist()))
        for key in dict.fromkeys(key for key in keys if key not in self.top):
            gram = self.p
            for coef, (_, m, unit) in zip(key, self.terms):
                gram = gram + (coef * unit) * m
            self.top[key] = np.linalg.eigvalsh(gram)[-1]
        return np.array([self.top[key] for key in keys], dtype=float)

    def exact(self, mus: np.ndarray) -> np.ndarray:
        """Upper bounds on ||E(mu)||_2 for E(mu) = x_diff + mu a_diff, every mu.

        ||E(mu)||^2 = lambda_max(G(mu)), and G depends on mu only through its
        key: one solve per distinct key, so a conjugate pair shares one
        eigensolve, and Ad = 0 needs one in all.

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
        lam = self._top(self.keys(mus) if self.axes else np.empty((mus.size, 0)))  # one G for all mu
        h = self.f + np.sqrt(2.0) * np.abs(mus) * self.g
        return np.sqrt(np.maximum(lam + _gamma(self.n + 12) * (h * h + np.abs(lam)), 0.0))

    def envelope(self, mus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Upper bounds on ||E(mu)||_2 for every mu, and the method of each.

        G is affine in the key, so lambda_max(G) = ||E||^2 is convex in it
        (Overton 1988; Lewis and Overton 1996), also at keys of no mu.
        ``_key_grid`` puts a box over the keys, with 3 equal cells along Re mu
        and 1 along each other coordinate.  A mu whose key lies in the box
        gets the root of the multilinear combination of its cell's corner
        bounds N on ||E||^2 ("envelope"): the weights are at least 0, sum to 1
        and reproduce the key, so by Jensen it is an upper bound.  Every other
        mu gets its ``exact`` solve ("gram"), and so does every mu if the box
        holds no more keys than the grid has corners, or if the band check
        fails: B, the sum over the coordinates other than Re mu of the box's
        extent times ``_abs_norm_bound`` of the term, bounds what the box's
        thickness adds to ||E||^2, and may not exceed min N.  It holds when
        the mu lie in a thin band of |mu|^2, as K's bulk does, not in a plane.

        Rounding, with u, gamma_k, n, f and g as in ``exact``.  G may be
        indefinite at a corner key (x, r, y), where r < x^2 + y^2 is allowed;
        with rho^2 = r + x^2 + y^2 and h = f + sqrt(2) rho g, ||G|| <= h^2
        and ``exact``'s F <= gamma_(n+10) h^2, so N = lambda^ + gamma_(2n+12) h^2
        covers lambda^ + F + n u (h^2 + F).  At a mu, only |mu|^2 is rounded,
        by gamma_2 r, which moves G by gamma_2 r g^2, and a computed S or T
        that is exactly 0 leaves out 2 gamma_(n+2) f g times |Re mu| or
        |Im mu| at most: gamma_(n+4) h^2 covers both, with ``exact``'s h.  As
        ``_key_grid`` puts each computed key in its cell [a, b], each
        t^ = (v - a) / (b - a) lies in [0, 1] within gamma_3 of t, and 1 - t^
        within gamma_4 of 1 - t.  So each of the 2^d weights, a product of d
        such factors, is within gamma_(5d), and their sum of products within
        gamma_(2^d), which gamma_(2^d (5d + 1) + 8) max |N| covers; the spare
        units absorb the square roots.
        """
        norms, crowded = np.empty(mus.size), np.zeros(mus.size, dtype=bool)
        if self.axes and mus.size:
            keys = self.keys(mus)
            edges, inside, cell = _key_grid(keys, [3 if axis == 0 else 1 for axis in self.axes])
            corners = np.stack(np.meshgrid(*edges, indexing="ij"), axis=-1)
            if len(set(map(tuple, keys[inside].tolist()))) > corners[..., 0].size:
                rho2 = sum(c if a == 1 else c * c for a, c in zip(self.axes, np.moveaxis(corners, -1, 0)))
                h = self.f + np.sqrt(2.0 * rho2) * self.g
                bound = self._top(corners.reshape(-1, len(edges))).reshape(h.shape)
                bound = bound + _gamma(2 * self.n + 12) * (h * h)
                band = sum((e[-1] - e[0]) * _abs_norm_bound(m)
                           for e, (axis, m, _) in zip(edges, self.terms) if axis)
                crowded = inside if band <= bound.min() else crowded
        if crowded.any():
            # elementwise, so equal keys get equal bounds wherever they sit in mus
            t = [np.divide(v - e[i], e[i + 1] - e[i], out=np.zeros(v.size), where=e[i + 1] > e[i])
                 for v, e, i in zip(keys[crowded].T, edges, cell.T)]
            total = np.zeros(len(cell))
            for bits in product((0, 1), repeat=len(t)):
                weight = np.prod([t_j if bit else 1 - t_j for t_j, bit in zip(t, bits)], axis=0)
                total = total + weight * bound[tuple(cell.T + np.array(bits)[:, None])]
            d, h = bound.ndim, self.f + np.sqrt(2.0) * np.abs(mus[crowded]) * self.g
            total += _gamma(2 ** d * (5 * d + 1) + 8) * np.abs(bound).max() + _gamma(self.n + 4) * (h * h)
            norms[crowded] = np.sqrt(np.maximum(total, 0.0))
        norms[~crowded] = self.exact(mus[~crowded])
        return norms, np.where(crowded, "envelope", "gram")


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), with u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _key_grid(keys: np.ndarray, cells: List[int]) -> Tuple[List[np.ndarray], np.ndarray, np.ndarray]:
    """A box over the keys (rows), cut in ``cells[j]`` equal cells along coordinate j.

    The box drops each coordinate's two smallest and two largest values.  Returns its edges,
    which keys lie in it, and their cells.  The edges do not fall and end at the box's ends,
    and a cell comes from comparisons with them: edge k <= key <= edge k+1 on each coordinate.
    """
    ranked = np.sort(keys, axis=0)
    k = min(2, (len(keys) - 1) // 2)
    lo, hi = ranked[k], ranked[-1 - k]
    edges = [np.append(np.minimum(a + (b - a) / c * np.arange(c), b), b)
             for a, b, c in zip(lo, hi, cells)]
    inside = np.all((lo <= keys) & (keys <= hi), axis=1)
    cell = [np.minimum(np.searchsorted(e, v, side="right"), c) - 1
            for e, v, c in zip(edges, keys[inside].T, cells)]
    return edges, inside, np.column_stack(cell)


def _norms(x_diff: np.ndarray, a_diff: np.ndarray, mus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Upper bounds on ||x_diff + mu a_diff||_2 for every mu, and the method of each.

    "diagonal" when a_diff = 0 and x_diff is diagonal: the exact norm is
    max |x_ii|, and gamma_4 relative covers the rounding of the differences
    and of the square roots taken from it.  Otherwise ``_Gram.envelope``
    gives "envelope" or "gram" per mu.  Non-finite input raises ``ValueError``.
    """
    if not all(np.isfinite(v).all() for v in (x_diff, a_diff, mus)):
        raise ValueError("matrix has non-finite entries")
    diag = np.diagonal(x_diff)
    if not a_diff.any() and np.count_nonzero(x_diff) == np.count_nonzero(diag):
        norm = float(np.abs(diag).max(initial=0.0)) * (1 + _gamma(4))
        return np.full(mus.size, norm), np.full(mus.size, "diagonal")
    return _Gram(x_diff, a_diff).envelope(mus)


def spectral_norm(m: np.ndarray) -> float:
    """An upper bound on ||m||_2 of a real matrix: exact for a diagonal m, else ``_Gram.exact``.

    Raises ``ValueError`` when m has a non-finite entry.
    """
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
      - "envelope": every mu in a box over the bulk's keys (Re mu, |mu|^2,
        |Im mu|) is bounded by interpolating on a fixed grid of that box
        (``_Gram.envelope``), unless the bulk is no thin band of |mu|^2.
      - "gram": every other mu, from ``_Gram.exact``: one eigensolve
        per conjugate class, one in all when A0 = A.  Among them are 1 and
        beta/alpha of a K pencil, which lie outside the box.
    "diagonal" and "gram" are exact up to a rounding allowance of about
    n u relative; "envelope" is looser, by up to 2 % in tested K pencils.
    A non-finite block or mu in ``spec`` raises ``ValueError``.
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
