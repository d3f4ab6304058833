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

from .eig import Spectrum, eigs_general
from .operators import QepPair

__all__ = [
    "QepBoundReport",
    "NotQepDiagonalizableError",
    "SingularMatrixError",
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


def spectral_norm(m: np.ndarray, tol: float = 1e-9, max_iter: int = 10000) -> float:
    """Largest singular value by power iteration on M^H M.

    Deterministic all-ones start vector for reproducibility.  Handles real
    and complex inputs.
    """
    m = np.asarray(m)
    n = m.shape[1]
    if n == 0:
        return 0.0
    v = np.ones(n, dtype=m.dtype) / np.sqrt(n)
    prev = 0.0
    for _ in range(max_iter):
        w = m.conj().T @ (m @ v)
        norm = np.linalg.norm(w)
        if norm == 0.0:
            return 0.0
        v = w / norm
        sigma = np.sqrt(norm)
        if abs(sigma - prev) <= tol * max(sigma, 1.0):
            return float(sigma)
        prev = sigma
    return float(prev)


def condition_number(p: np.ndarray) -> float:
    """Ratio of the largest to the smallest singular value."""
    s = np.linalg.svd(np.asarray(p), compute_uv=False)
    if s[-1] <= np.finfo(float).eps * max(p.shape) * s[0]:
        raise SingularMatrixError("matrix is numerically singular")
    return float(s[0] / s[-1])


def _is_scalar_matrix(x: np.ndarray) -> bool:
    c = x[0, 0]
    return bool(np.abs(x - c * np.eye(x.shape[0])).max() <= 1e-12 * max(abs(c), 1.0))


def _codiag_kappa(pair: QepPair) -> float:
    """kappa(P) of a co-diagonalizer of (A, X), or raise if there is none.

    Symmetric A with scalar X co-diagonalize orthogonally: kappa = 1 exactly.
    Otherwise commutation is required and P comes from diagonalizing A.
    """
    a, x = pair.a_block, pair.x_block
    sym = np.abs(a - a.T).max() <= 1e-12 * max(np.abs(a).max(), 1.0)
    if sym and _is_scalar_matrix(x):
        return 1.0
    comm = np.linalg.norm(a @ x - x @ a)
    gate = COMMUTATION_RTOL * max(np.linalg.norm(a) * np.linalg.norm(x), 1e-300)
    if comm > gate:
        raise NotQepDiagonalizableError(
            f"blocks do not commute: ||AX - XA||_F = {comm:.3e} > {gate:.3e}"
        )
    if sym:
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
    eigensolves.  When the A blocks coincide the norm is mu-independent and
    computed once.
    """
    kappa = _codiag_kappa(l0)
    if spec0 is None:
        spec0 = eigs_general(l0.matrix)
    if spec is None:
        spec = eigs_general(l.matrix)
    xy = l0.x_block - l.x_block
    ab = l0.a_block - l.a_block
    a_shared = np.abs(ab).max() == 0.0
    const_norm = spectral_norm(xy) if a_shared else None

    nus = spec0.values
    per_mu = []
    for mu in spec.values:
        norm = const_norm if a_shared else spectral_norm(xy + mu * ab)
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
