"""Bauer-Fike perturbation radii for quadratic eigenvalue problems.

For linearizations L0 = [[A, X], [I, 0]] and L = [[B, Y], [I, 0]] with L0
QEP-diagonalizable (A, X co-diagonalized by P), every eigenvalue mu of L lies
within eps(mu) = sqrt(kappa(P)) * sqrt(||X - Y + mu (A - B)||) of some
eigenvalue of L0, and eigenvalue counts inside well-separated unions of
eps-balls are preserved.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .eig import Spectrum
from .operators import QepPair

__all__ = [
    "QepBoundReport",
    "NotQepDiagonalizableError",
    "SingularMatrixError",
    "perturbation_norms",
    "spectral_norm",
    "condition_number",
    "qep_bound",
    "corollary_bound",
    "cluster_certificate",
]

COMMUTATION_RTOL = 1e-8
# a_diff counts as diag(delta) S when the residual is this small relative to it
STRUCTURE_RTOL = 1e-8
# envelope cells per coordinate across the bulk of Spec(L)
ENVELOPE_CELLS = 4


class NotQepDiagonalizableError(ValueError):
    """The reference pencil's coefficient blocks do not co-diagonalize."""


class SingularMatrixError(ValueError):
    """Condition number requested for a (numerically) singular matrix."""


@dataclass(frozen=True)
class QepBoundReport:
    """Everything the QEP Bauer-Fike theorem asserts about one (L0, L) pair."""

    kappa: float
    per_mu: List[Tuple[complex, float, complex, float]]  # (mu, eps(mu), nu, |mu-nu|)
    epsilon_global: float
    norm_methods: Tuple[str, ...]  # per row: "diagonal", "gram" or "envelope"

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


def perturbation_norms(x_diff: np.ndarray, a_diff: np.ndarray, mus) -> np.ndarray:
    """Upper bounds on ||E(mu)||_2 for E(mu) = x_diff + mu a_diff, real blocks, every mu.

    For real blocks E E^H = P + Re(mu) S + |mu|^2 R + i Im(mu) T with
    P = Xd Xd^T, C = Ad Xd^T, S = C + C^T, T = C - C^T and R = Ad Ad^T, so
    ||E(mu)||^2 = lambda_max(G(mu)).  Only the nonzero terms are formed, and
    G depends on mu only through (Re mu, |mu|^2, |Im mu|) restricted to them:
    a conjugate pair shares one eigensolve, and Ad = 0 needs one in all.

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
    x_diff = np.asarray(x_diff, dtype=float)
    a_diff = np.asarray(a_diff, dtype=float)
    mus = np.asarray(mus, dtype=complex).ravel()
    n = max(x_diff.shape)
    if n == 0:
        return np.zeros(mus.size)
    p = x_diff @ x_diff.T
    f = _abs_norm_bound(x_diff)
    g = 0.0
    terms = []  # (coefficient per mu, matrix, unit)
    if a_diff.any():
        c = a_diff @ x_diff.T
        g = _abs_norm_bound(a_diff)
        terms = [
            (mus.real, c + c.T, 1.0),
            (mus.real ** 2 + mus.imag ** 2, a_diff @ a_diff.T, 1.0),
            (np.abs(mus.imag), c - c.T, 1j),
        ]
        terms = [term for term in terms if term[1].any()]
    keys = np.column_stack([coef for coef, _, _ in terms] or [np.zeros(mus.size)])
    top = {}
    for key in map(tuple, keys):
        if key not in top:
            gram = p
            for coef, (_, m, unit) in zip(key, terms):
                gram = gram + (coef * unit) * m
            top[key] = np.linalg.eigvalsh(gram)[-1]
    lam = np.array([top[key] for key in map(tuple, keys)], dtype=float)
    h = f + np.sqrt(2.0) * np.abs(mus) * g
    return np.sqrt(np.maximum(lam + _gamma(n + 12) * (h * h + np.abs(lam)), 0.0))


def _gamma(k: int) -> float:
    """gamma_k = k u / (1 - k u), with u the unit roundoff."""
    u = np.finfo(float).eps / 2
    return k * u / (1 - k * u)


def _row_scaling(x_diff: np.ndarray, a_diff: np.ndarray):
    """(delta, S, r) with x_diff = -diag(delta), a_diff ~ diag(delta) S, S symmetric, or None.

    Row i of S is row i of a_diff over delta_i; a row with delta_i = 0 is
    taken from its column, and S is then symmetrized.  r >= ||abs(R^)||_2 of
    the computed residual R^ = a_diff - diag(delta) S.  None when r exceeds
    ``STRUCTURE_RTOL`` relative to ||abs(a_diff)||_2: the residual would then
    loosen every radius, and the Gram expansion is the better method.
    """
    delta = -np.diagonal(x_diff)
    scaled = delta != 0
    s = np.zeros_like(a_diff)
    s[scaled] = a_diff[scaled] / delta[scaled, None]
    s[~scaled] = s[:, ~scaled].T
    s = (s + s.T) / 2
    r = _abs_norm_bound(a_diff - delta[:, None] * s)
    if r > STRUCTURE_RTOL * _abs_norm_bound(a_diff):
        return None
    return delta, s, r


def _cells(mus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Cell of each mu on a grid over (Re mu, |mu|^2), and whether its cell holds one class.

    The grid has ``ENVELOPE_CELLS`` cells per coordinate across the central
    96 % of the mu and extends with cells of the same size past it, so an
    isolated mu (1 and beta/alpha for K) sits in a cell of its own.  A class
    is a mu and its conjugate, which always share a cell.
    """
    coords = np.column_stack((mus.real, mus.real ** 2 + mus.imag ** 2))
    ranked = np.sort(coords, axis=0)  # np.quantile imports numpy.ma: 1.6 MB more RSS
    k = mus.size // 50
    lo, hi = ranked[k], ranked[-1 - k]
    width = (hi - lo) / ENVELOPE_CELLS
    spread = (ranked[-1] - ranked[0]) / ENVELOPE_CELLS
    width = np.where(width > 0, width, np.where(spread > 0, spread, 1.0))
    _, cell = np.unique(np.floor((coords - lo) / width), axis=0, return_inverse=True)
    cell = cell.ravel()
    _, first = np.unique(np.column_stack((mus.real, np.abs(mus.imag))), axis=0, return_index=True)
    return cell, np.bincount(cell[first])[cell] == 1


def _row_scaled_norms(x_diff, a_diff, delta, s, r, mus) -> Tuple[np.ndarray, np.ndarray]:
    """Upper bounds on ||E(mu)||_2 when E(mu) = -diag(delta) (I - mu S) + mu R, S symmetric.

    With S = Q Lambda Q^T and w_j = |1 - mu lambda_j|,
    ||diag(delta)(I - mu S)|| = ||diag(delta) Q diag(w)||, which is
    nondecreasing in each w_j.  The mu are put in cells by ``_cells``.  A mu
    alone in its cell (up to its conjugate) gets the exact
    ``perturbation_norms`` ("gram").  Every other cell, with Re mu in
    [x_lo, x_hi] and |mu|^2 <= s_hi, gets one bound for all its mu
    ("envelope"): w_j^2 = 1 - 2 Re(mu) lambda_j + |mu|^2 lambda_j^2 is at
    most W_j^2 = 1 - 2 x* lambda_j + s_hi lambda_j^2, with x* = x_lo when
    lambda_j >= 0 and x_hi otherwise, so ||E||^2 <= lambda_max(diag(W) M diag(W))
    with M = (diag(delta) Q)^T (diag(delta) Q), one real symmetric eigensolve.

    Rounding allowance, with u, gamma_k, n, f and g as in
    ``perturbation_norms``, rho = sqrt(s_hi) >= |mu|, d = max |delta_i|,
    sigma >= ||abs(S)||_2 and b >= ||abs(diag(delta) Q^)||_2 (all from
    ``_abs_norm_bound``):
      - the exact block differences are within gamma_1 (f + rho g) of E;
      - the exact residual a_diff - diag(delta) S is within gamma_2 (g + d sigma)
        of R^, so its norm is at most r' = r + gamma_2 (g + d sigma);
      - ``eigh`` returns Q^, Lambda^ with Q^ within p(n) u of an orthogonal Q,
        and Q Lambda^ Q^T = S + dS, ||dS||_2 <= 3 p(n) u ||S||_2 + O(u^2)
        (p(n) = n as in ``perturbation_norms``).  Replacing S and Q by S + dS
        and Q^ changes the norm by at most gamma_(3n+2) d (W_max + rho sigma);
      - W is computed upward: each W_j^2 is raised by gamma_8 (1 + 2 |x*
        lambda_j| + s_hi lambda_j^2), which bounds its rounding error, and
        s_hi by gamma_3;
      - forming M^ and G^ = diag(W) M^ diag(W) errs by at most
        gamma_(n+5) b^2 W_max^2 =: F, and with ``eigvalsh``'s error as in
        ``perturbation_norms``, lambda_max(diag(W) M diag(W)) <=
        lambda^ + gamma_(2n+8) (b^2 W_max^2 + |lambda^|).
    So ||E(mu)|| <= sqrt(lambda^ + gamma_(2n+8) (b^2 W_max^2 + |lambda^|))
    + gamma_(3n+2) d (W_max + rho sigma) + rho r' + gamma_1 (f + rho g).
    Relative to ||E|| the allowance grows like n^2 u: 1.5e-12 at n = 100 and
    1.2e-10 at n = 1000 on SBM K pencils, far below the envelope's own excess.
    """
    n = delta.size
    lam, q = np.linalg.eigh(s)
    b_mat = delta[:, None] * q
    del q
    m = b_mat.T @ b_mat
    b = _abs_norm_bound(b_mat)
    del b_mat
    d = float(np.abs(delta).max())
    sigma = _abs_norm_bound(s)
    f, g = _abs_norm_bound(x_diff), _abs_norm_bound(a_diff)
    r += _gamma(2) * (g + d * sigma)

    cell, alone = _cells(mus)
    norms = np.empty(mus.size)
    methods = np.where(alone, "gram", "envelope")
    if alone.any():
        norms[alone] = perturbation_norms(x_diff, a_diff, mus[alone])
    sq = mus.real ** 2 + mus.imag ** 2
    for c in set(cell[~alone].tolist()):
        members = cell == c
        x_lo, x_hi = mus.real[members].min(), mus.real[members].max()
        s_hi = sq[members].max() * (1 + _gamma(3))
        rho = np.sqrt(s_hi)
        t = np.where(lam >= 0, x_lo, x_hi) * lam
        v = s_hi * lam * lam
        w = np.sqrt(np.maximum(1.0 - 2.0 * t + v + _gamma(8) * (1.0 + 2.0 * np.abs(t) + v), 0.0))
        w_max = w.max()
        top = np.linalg.eigvalsh(w[:, None] * m * w[None, :])[-1]
        top += _gamma(2 * n + 8) * (b * b * w_max * w_max + abs(top))
        norms[members] = (
            np.sqrt(max(top, 0.0))
            + _gamma(3 * n + 2) * d * (w_max + rho * sigma)
            + rho * r
            + _gamma(1) * (f + rho * g)
        )
    return norms, methods


def _norms(x_diff: np.ndarray, a_diff: np.ndarray, mus: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Upper bounds on ||x_diff + mu a_diff||_2 for every mu, and the method of each.

    "diagonal" when a_diff = 0 and x_diff is diagonal: the exact norm is
    max |x_ii|, and gamma_4 relative covers the rounding of the differences
    and of the square roots taken from it.  The row-scaled structure of
    (K0, K) goes to ``_row_scaled_norms``; everything else to
    ``perturbation_norms`` ("gram").
    """
    diag = np.diagonal(x_diff)
    if np.count_nonzero(x_diff) == np.count_nonzero(diag):
        if not a_diff.any():
            norm = float(np.abs(diag).max(initial=0.0)) * (1 + _gamma(4))
            return np.full(mus.size, norm), np.full(mus.size, "diagonal")
        structure = _row_scaling(x_diff, a_diff)
        if structure is not None:
            return _row_scaled_norms(x_diff, a_diff, *structure, mus)
    return perturbation_norms(x_diff, a_diff, mus), np.full(mus.size, "gram")


def spectral_norm(m: np.ndarray) -> float:
    """An upper bound on ||m||_2 of a real matrix: exact for a diagonal m, else ``perturbation_norms``."""
    m = np.asarray(m, dtype=float)
    return float(_norms(m, np.zeros_like(m), np.zeros(1, dtype=complex))[0][0])


def condition_number(p: np.ndarray) -> float:
    """Ratio of the largest to the smallest singular value."""
    s = np.linalg.svd(np.asarray(p), compute_uv=False)
    if s[-1] <= np.finfo(float).eps * max(p.shape) * s[0]:
        raise SingularMatrixError("matrix is numerically singular")
    return float(s[0] / s[-1])


def _codiag_kappa(pair: QepPair) -> float:
    """kappa(P) of a co-diagonalizer of (A, X), or raise if there is none.

    Symmetric A with scalar X co-diagonalize orthogonally: kappa = 1 exactly.
    Otherwise commutation is required.  Commuting symmetric A and X also
    co-diagonalize orthogonally; a symmetric A with a non-symmetric X is
    rejected, since such an X need not be diagonalizable at all.  For a
    non-symmetric A, P comes from diagonalizing A.
    """
    if pair.symmetric_scalar:
        return 1.0
    a, x = pair.a_block, pair.x_block
    comm = np.linalg.norm(a @ x - x @ a)
    gate = COMMUTATION_RTOL * max(np.linalg.norm(a) * np.linalg.norm(x), 1e-300)
    if comm > gate:
        raise NotQepDiagonalizableError(
            f"blocks do not commute: ||AX - XA||_F = {comm:.3e} > {gate:.3e}"
        )
    if pair.a_symmetric:
        if not pair.x_symmetric:
            raise NotQepDiagonalizableError("A is symmetric but X is not")
        return 1.0
    w, p = np.linalg.eig(a)
    # eig may return defective-looking P for repeated eigenvalues; the
    # condition number surfaces that rather than hiding it
    try:
        return condition_number(p)
    except SingularMatrixError as exc:
        raise NotQepDiagonalizableError("A is not diagonalizable") from exc


def qep_bound(
    l0: QepPair,
    l: QepPair,
    spec0: Optional[Spectrum] = None,
    spec: Optional[Spectrum] = None,
) -> QepBoundReport:
    """Per-eigenvalue radii eps(mu) and nearest-reference matching.

    Precomputed spectra of the linearizations may be passed to avoid repeated
    eigensolves; otherwise both come from ``QepPair.spectrum``, so a pencil
    identical to the reference (H of a regular graph against H0) takes the
    same path and matches it exactly.

    Every radius is an upper bound on the theorem's.  The norm of
    E(mu) = X0 - X + mu (A0 - A) is taken by one of three methods, chosen
    from the blocks and recorded per row in ``norm_methods``:
      - "diagonal": A0 = A and X0 - X diagonal, as for (H0, H).  The norm
        is max |(X0 - X)_ii| for every mu, in O(n).
      - "envelope": X0 - X = -diag(delta) and A0 - A = diag(delta) S with
        S symmetric, as for (K0, K).  One eigendecomposition of S, then one
        real eigensolve per cell of a grid over (Re mu, |mu|^2) bounds every
        mu in the cell (``_row_scaled_norms``).  A mu alone in its cell,
        such as 1 and beta/alpha, gets "gram" instead.
      - "gram": everything else, from ``perturbation_norms``: one
        eigensolve per conjugate class of mu, one in all when A0 = A.
    "diagonal" and "gram" are exact up to a rounding allowance of about
    n u relative; "envelope" is looser, by a few percent at n >= 100.
    """
    kappa = _codiag_kappa(l0)
    if spec0 is None:
        spec0 = l0.spectrum()
    if spec is None:
        spec = l.spectrum()
    mus = np.asarray(spec.values, dtype=complex)
    norms, methods = _norms(l0.x_block - l.x_block, l0.a_block - l.a_block, mus)
    nus = spec0.values
    per_mu = []
    for mu, norm in zip(mus, norms):
        eps = float(np.sqrt(kappa) * np.sqrt(norm))
        gaps = np.abs(nus - mu)
        k = int(gaps.argmin())
        per_mu.append((complex(mu), eps, complex(nus[k]), float(gaps[k])))
    eps_global = max((eps for _, eps, _, _ in per_mu), default=0.0)
    return QepBoundReport(kappa=kappa, per_mu=per_mu, epsilon_global=eps_global,
                          norm_methods=tuple(methods.tolist()))


def corollary_bound(a: np.ndarray, x_block: np.ndarray, y_block: np.ndarray) -> float:
    """Global radius sqrt(kappa(P) ||X - Y||) for the shared-A case."""
    kappa = _codiag_kappa(QepPair(a, x_block))
    return float(np.sqrt(kappa * spectral_norm(np.asarray(x_block) - np.asarray(y_block))))


def cluster_certificate(
    spec0: Spectrum,
    spec: Spectrum,
    epsilon: float,
    k_subset: Sequence[int],
) -> Tuple[int, int, bool]:
    """Eigenvalue-count certificate over a union of epsilon-balls.

    Returns (expected, observed, separated): whether the balls around the
    selected reference eigenvalues are disjoint from the balls around the
    rest, and if so how many perturbed eigenvalues land inside the selected
    union (the theorem says exactly |k_subset| when separated).
    """
    if epsilon < 0:
        raise ValueError("epsilon must be nonnegative")
    nus = spec0.values
    sel = np.zeros(nus.size, dtype=bool)
    sel[list(k_subset)] = True
    expected = int(sel.sum())
    if expected and (~sel).any():
        gap = np.abs(nus[sel][:, None] - nus[~sel][None, :]).min()
        separated = bool(gap > 2 * epsilon)
    else:
        separated = True
    inside = np.abs(spec.values[:, None] - nus[sel][None, :]).min(axis=1) <= epsilon \
        if expected else np.zeros(len(spec), dtype=bool)
    observed = int(np.count_nonzero(inside))
    return expected, observed, separated
