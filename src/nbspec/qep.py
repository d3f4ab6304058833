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
                }
                for mu, eps, nu, dist in self.per_mu
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
    u = np.finfo(float).eps / 2
    gamma = (n + 12) * u / (1 - (n + 12) * u)
    h = f + np.sqrt(2.0) * np.abs(mus) * g
    return np.sqrt(np.maximum(lam + gamma * (h * h + np.abs(lam)), 0.0))


def spectral_norm(m: np.ndarray) -> float:
    """An upper bound on ||m||_2 of a real matrix: ``perturbation_norms`` with Ad = 0."""
    m = np.asarray(m, dtype=float)
    return float(perturbation_norms(m, np.zeros_like(m), [0.0])[0])


def condition_number(p: np.ndarray) -> float:
    """Ratio of the largest to the smallest singular value."""
    s = np.linalg.svd(np.asarray(p), compute_uv=False)
    if s[-1] <= np.finfo(float).eps * max(p.shape) * s[0]:
        raise SingularMatrixError("matrix is numerically singular")
    return float(s[0] / s[-1])


def _codiag_kappa(pair: QepPair) -> float:
    """kappa(P) of a co-diagonalizer of (A, X), or raise if there is none.

    Symmetric A with scalar X co-diagonalize orthogonally: kappa = 1 exactly.
    Otherwise commutation is required and P comes from diagonalizing A.
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
    same path and matches it exactly.  Every radius is an upper bound on the
    theorem's, from ``perturbation_norms``: one symmetric eigensolve per
    conjugate class of mu, and one in all when the A blocks coincide.
    """
    kappa = _codiag_kappa(l0)
    if spec0 is None:
        spec0 = l0.spectrum()
    if spec is None:
        spec = l.spectrum()
    norms = perturbation_norms(l0.x_block - l.x_block, l0.a_block - l.a_block, spec.values)
    nus = spec0.values
    per_mu = []
    for mu, norm in zip(spec.values, norms):
        eps = float(np.sqrt(kappa) * np.sqrt(norm))
        gaps = np.abs(nus - mu)
        k = int(gaps.argmin())
        per_mu.append((complex(mu), eps, complex(nus[k]), float(gaps[k])))
    eps_global = max((eps for _, eps, _, _ in per_mu), default=0.0)
    return QepBoundReport(kappa=kappa, per_mu=per_mu, epsilon_global=eps_global)


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
