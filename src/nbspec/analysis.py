"""Spectrum classification, the invariant checks, semicircle fit, community recovery."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .eig import eigs_symmetric
from .graphgen import DegreeStats, Graph, InvalidParameters
from .operators import (
    QepPair,
    bethe_hessian,
    build_B,
    build_H,
    build_K,
)
from .qep import qep_bound, spectral_norm

__all__ = [
    "ClassificationReport",
    "CommunityResult",
    "classify_spectrum",
    "check_classifiable",
    "ihara_bass_check",
    "check_ihara_bass",
    "check_det_identity",
    "check_eigenvalue_one",
    "check_reciprocity",
    "check_qep_trials",
    "semicircle_cdf",
    "ks_distance",
    "semicircle_ks",
    "estimate_stats",
    "recover_communities",
    "write_spectrum_svg",
]


@dataclass(frozen=True)
class ClassificationReport:
    """Partition of a non-backtracking spectrum into outliers, insiders, bulk.

    Outliers are the isolated real eigenvalues outside the bulk circle of
    radius sqrt(gamma), gamma = alpha - 1, expected near alpha and beta;
    insiders the isolated real ones inside it, expected near 1 and
    alpha/beta.  ``ambiguous`` is set when the candidate counts differ from
    the expected (2, 2) picture (or (1, 1) in the single-community case).
    """

    alpha: float
    beta: Optional[float]
    outliers: List[Tuple[float, float, float]]  # (eigenvalue, target, gap)
    insiders: List[Tuple[float, float, float]]
    bulk_distances: np.ndarray  # | |z| - sqrt(gamma) | per bulk eigenvalue, ascending
    tau: float
    ambiguous: bool

    def bulk_fraction_within(self, dist: float) -> float:
        if self.bulk_distances.size == 0:
            return 1.0
        return float(np.mean(self.bulk_distances <= dist))

    def to_dict(self) -> dict:
        ranked = self.bulk_distances
        qs = (0.5, 0.9, 0.99, 1.0) if ranked.size else ()
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.alpha - 1.0,
            "tau": self.tau,
            "outliers": [
                {"value": v, "target": t, "gap": g} for v, t, g in self.outliers
            ],
            "insiders": [
                {"value": v, "target": t, "gap": g} for v, t, g in self.insiders
            ],
            "bulk_count": int(ranked.size),
            "max_bulk_distance": float(ranked[-1]) if ranked.size else 0.0,
            "bulk_distance_quantiles": {f"q{q:g}": _quantile(ranked, q) for q in qs},
            "ambiguous": self.ambiguous,
        }


@dataclass(frozen=True)
class CommunityResult:
    r: float
    negative_eigenvalue_count: int
    accuracy: float


def _quantile(ranked: np.ndarray, q: float) -> float:
    """``np.quantile(ranked, q)`` of ascending values, by numpy's default "linear" rule.

    Spelled out, to the same floating-point operations, because
    ``np.quantile`` imports ``numpy.ma``.
    """
    pos = (ranked.size - 1) * q
    if pos >= ranked.size - 1:
        return float(ranked[-1])
    k = int(pos)
    lo, hi, frac = ranked[k], ranked[k + 1], pos - k
    step = hi - lo
    return float(hi - step * (1 - frac) if frac >= 0.5 else lo + step * frac)


def check_classifiable(stats: DegreeStats) -> None:
    """Raise ``InvalidParameters`` unless alpha > 1 and beta is None or positive."""
    if stats.gamma <= 0:
        raise InvalidParameters("classification requires alpha > 1")
    if stats.beta is not None and stats.beta <= 0:
        raise InvalidParameters(f"classification requires beta > 0, got beta = {stats.beta}")


def classify_spectrum(
    spec: np.ndarray,
    stats: DegreeStats,
    tau: float = 0.25,
) -> ClassificationReport:
    """Classify a non-backtracking spectrum against its predicted layout.

    ``spec`` should come from build_H, or from build_B with the trivial
    +-1 eigenvalues already removed.  Real eigenvalues (|Im z| below
    1e-8 sqrt(alpha), a scale-aware cutoff) with modulus above
    (1 + tau) sqrt(gamma) are outlier candidates matched to {alpha, beta};
    those below (1 - tau) sqrt(gamma) are insider candidates matched to
    {1, alpha/beta}; everything else is bulk.  Needs alpha > 1 and a beta
    that is None or positive.
    """
    check_classifiable(stats)
    alpha, beta, gamma = stats.alpha, stats.beta, stats.gamma
    root_g = math.sqrt(gamma)
    imag_tol = 1e-8 * math.sqrt(alpha)

    values = np.asarray(spec, dtype=complex)
    is_real = np.abs(values.imag) <= imag_tol
    mod = np.abs(values)
    out_mask = is_real & (mod > (1 + tau) * root_g)
    in_mask = is_real & (mod < (1 - tau) * root_g)
    bulk_mask = ~(out_mask | in_mask)

    if beta is None:
        out_targets = [alpha]
        in_targets = [1.0]
    else:
        out_targets = [alpha, beta]
        in_targets = [1.0, alpha / beta]

    def matched(cands, targets):
        rows = []
        for v in sorted(cands.real, key=abs, reverse=True):
            t = min(targets, key=lambda t: abs(v - t))
            rows.append((float(v), float(t), float(abs(v - t))))
        return rows

    outliers = matched(values[out_mask], out_targets)
    insiders = matched(values[in_mask], in_targets)
    ambiguous = (len(outliers), len(insiders)) != (len(out_targets), len(in_targets))
    return ClassificationReport(
        alpha=alpha,
        beta=beta,
        outliers=outliers,
        insiders=insiders,
        bulk_distances=np.sort(np.abs(np.abs(values[bulk_mask]) - root_g)),
        tau=tau,
        ambiguous=ambiguous,
    )


_IHARA_BASS_Z = 2.5 * np.exp(1j * np.array([0.3, 1.7, 2.9]))


def ihara_bass_check(graph: Graph) -> Tuple[bool, float]:
    """Ihara-Bass, det(zI - B) = (z^2 - 1)^(m-n) det(z^2 I - zA - X), at three fixed z.

    (A, X) = (A, I - D) are build_H's blocks, so a fault in build_B or
    build_H fails the check.  Both determinants come from LU factorizations
    (``slogdet``) at z = 2.5 e^(i theta), theta = 0.3, 1.7, 2.9: no
    eigensolve and no root matching, so a defective eigenvalue of H (0,
    where a vertex has degree 1) does not matter.  Returns whether the
    worst relative gap |det ratio - 1| is within 1e-10, and that gap.
    """
    b = build_B(graph)
    sign_b, log_b = np.linalg.slogdet(_IHARA_BASS_Z[:, None, None] * np.eye(b.shape[0]) - b)
    sign_h, log_h = np.linalg.slogdet(build_H(graph).at(_IHARA_BASS_Z))
    trivial = (graph.num_edges - graph.n) * np.log(_IHARA_BASS_Z**2 - 1)
    ratio = sign_b / sign_h * np.exp(log_b - log_h - trivial)
    gap = float(np.abs(ratio - 1).max())
    return gap <= 1e-10, gap


def _verdict(rows: Iterable[Tuple[bool, float]], key: str) -> dict:
    """The ``verify`` entry of per-graph (ok, value) rows: every row must pass."""
    ok, worst = True, 0.0
    for row_ok, value in rows:
        ok = ok and row_ok
        worst = max(worst, value)
    return {"status": "pass" if ok else "fail", key: worst}


def check_ihara_bass(graphs: Sequence[Graph]) -> dict:
    """``ihara_bass_check`` within 1e-10 relative on every graph."""
    return _verdict(map(ihara_bass_check, graphs), "max_gap")


def check_det_identity(graphs: Sequence[Graph]) -> dict:
    """det H = prod(d_i - 1), compared in log space.

    A degree-1 vertex makes the product 0, so det H must be exactly 0 or
    below e^-6.  Otherwise det H must have the sign of prod(d_i - 1), which a
    degree-0 vertex makes -1, with log |det H| within 1e-6 (relative) of
    sum log |d_i - 1|.  det H comes from an LU factorization of H, not from Spec(H).
    """

    def row(g: Graph) -> Tuple[bool, float]:
        sign, logdet = np.linalg.slogdet(build_H(g).matrix)
        shifted = g.degrees - 1.0
        if not shifted.all():
            return sign == 0 or logdet < -6, 0.0
        target = float(np.sum(np.log(np.abs(shifted))))
        rel = abs(logdet - target) / max(abs(target), 1.0)
        return sign == np.prod(np.sign(shifted)) and rel <= 1e-6, rel

    return _verdict(map(row, graphs), "max_rel")


def check_eigenvalue_one(graphs: Sequence[Graph]) -> dict:
    """H maps the all-ones vector 1 of length 2n to itself, exactly, on every graph.

    H1, the row sums of [[A, I - D], [I, 0]], is (A1 + 1 - d, 1) = 1.  Every
    entry and partial sum is an integer below 2^53, so max |H1 - 1| must be 0.
    """
    gaps = [float(np.abs(build_H(g).matrix.sum(axis=1) - 1.0).max()) for g in graphs]
    return _verdict(((gap == 0.0, gap) for gap in gaps), "max_gap")


def check_reciprocity(graphs: Sequence[Graph]) -> dict:
    """Spec(K) = 1/Spec(H) as an identity, on every graph of min degree >= 2.

    det(z^2 I - z A_K - X_K) det(D - I) = z^(2n) det(w^2 I - w A_H - X_H),
    w = 1/z, to 1e-10 relative, by ``slogdet`` at the Ihara-Bass points z.
    """

    def row(g: Graph) -> Tuple[bool, float]:
        sign_k, log_k = np.linalg.slogdet(build_K(g).at(_IHARA_BASS_Z))
        sign_h, log_h = np.linalg.slogdet(build_H(g).at(1.0 / _IHARA_BASS_Z))
        log_ratio = log_k + np.log(g.degrees - 1.0).sum() - log_h - 2 * g.n * np.log(_IHARA_BASS_Z)
        gap = float(np.abs(sign_k / sign_h * np.exp(log_ratio) - 1).max())
        return gap <= 1e-10, gap

    return _verdict((row(g) for g in graphs if g.min_degree() >= 2), "max_gap")


def check_qep_trials(rng: np.random.Generator, trials: int) -> dict:
    """The QEP Bauer-Fike bound on random pencils (A, cI) and (A, cI + E).

    Each trial draws n in [2, 12], a symmetric A with entries in [-1, 1],
    c in [0.5, 2] and an E rescaled to spectral norm at most 0.5; a trial is
    a violation when some eigenvalue lies outside its radius.
    """
    violations = 0
    for _ in range(trials):
        n = int(rng.integers(2, 13))
        a = rng.uniform(-1, 1, (n, n))
        a = (a + a.T) / 2
        c = rng.uniform(0.5, 2.0)
        e = rng.uniform(-1, 1, (n, n))
        e *= rng.uniform(0, 0.5) / max(spectral_norm(e), 1e-12)
        report = qep_bound(QepPair(a, c * np.eye(n)), QepPair(a, c * np.eye(n) + e))
        if not report.all_within_bound():
            violations += 1
    return {
        "status": "pass" if violations == 0 else "fail",
        "trials": trials,
        "violations": violations,
    }


def semicircle_cdf(x: np.ndarray, radius: float) -> np.ndarray:
    """Exact CDF of the semicircle law on [-radius, radius]."""
    r = radius
    x = np.clip(np.asarray(x, dtype=float), -r, r)
    return 0.5 + x * np.sqrt(r * r - x * x) / (math.pi * r * r) + np.arcsin(x / r) / math.pi


def ks_distance(sample: np.ndarray, cdf_values: np.ndarray) -> float:
    """One-sample KS statistic given the reference CDF at the sorted sample."""
    n = sample.size
    i = np.arange(1, n + 1)
    upper = np.max(i / n - cdf_values)
    lower = np.max(cdf_values - (i - 1) / n)
    return float(max(upper, lower))


def semicircle_ks(spec: np.ndarray, mode: str, stats: DegreeStats) -> float:
    """Kolmogorov-Smirnov distance of a rescaled spectrum to the semicircle law.

    mode "A-spectrum": Spec(A)/sqrt(alpha) against the semicircle on [-2, 2].
    mode "H-real-parts": Re(Spec)/sqrt(alpha) of a 2n x 2n linearization
    spectrum against the semicircle on [-1, 1] (each adjacency eigenvalue
    contributes its half twice).
    """
    radius = {"A-spectrum": 2.0, "H-real-parts": 1.0}.get(mode)
    if radius is None:
        raise ValueError(f"unknown mode {mode!r}")
    sample = np.sort(np.real(spec) / math.sqrt(stats.alpha))
    return ks_distance(sample, semicircle_cdf(sample, radius))


def estimate_stats(graph: Graph) -> DegreeStats:
    """Estimate (alpha, beta) from the graph itself.

    alpha is the observed mean degree; beta the second adjacency eigenvalue,
    kept only when it is detached from the bulk edge 2 sqrt(alpha).
    """
    alpha = float(graph.degrees.mean())
    if alpha <= 1:
        raise InvalidParameters("graph too sparse to estimate spectral statistics")
    lam2 = float(eigs_symmetric(graph.adjacency())[-2])
    beta = lam2 if lam2 > 2.0 * math.sqrt(alpha) else None
    return DegreeStats(alpha=alpha, beta=beta)


def recover_communities(
    graph: Graph,
    stats: DegreeStats,
    r: Optional[float] = None,
) -> CommunityResult:
    """Two-block recovery from the Bethe Hessian at r = alpha/beta.

    Labels come from the sign of the eigenvector of the second-smallest
    eigenvalue (the deterministic two-block variant).  Accuracy is scored
    against the planted labels, maximized over the global flip, so it is
    always >= 1/2.  An explicit ``r`` overrides the alpha/beta
    default (needed when beta is undefined, e.g. a single community).
    """
    if r is None:
        if stats.beta is None or stats.beta <= 0:
            raise ValueError("recovery needs beta > 0 (two distinguishable blocks)")
        r = stats.alpha / stats.beta
    values, vectors = eigs_symmetric(bethe_hessian(graph, r), with_vectors=True)
    neg_count = int(np.count_nonzero(values < 0))
    signs = np.where(vectors[:, 1] >= 0, 1, -1)
    planted = np.where(graph.labels == 0, 1, -1)
    agree = float(np.mean(signs == planted))
    return CommunityResult(
        r=r,
        negative_eigenvalue_count=neg_count,
        accuracy=max(agree, 1.0 - agree),
    )


def write_spectrum_svg(spec: np.ndarray, radius: float, fh: TextIO):
    """Scatter of a complex spectrum with the bulk circle overlaid.

    Self-contained SVG, 640 pixels square, no plotting dependency;
    coordinates scaled so the circle of the given radius fits with margin.
    """
    size = 640
    vals = np.asarray(spec, dtype=complex)
    extent = max(float(np.abs(vals).max(initial=0.0)), radius) * 1.1 or 1.0
    half = size / 2.0

    def sx(x):
        return half + x / extent * half

    def sy(y):
        return half - y / extent * half

    fh.write(
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{size}" height="{size}" '
        f'viewBox="0 0 {size} {size}">\n'
    )
    fh.write(f'<rect width="{size}" height="{size}" fill="white"/>\n')
    fh.write(
        f'<circle cx="{half}" cy="{half}" r="{radius / extent * half:.3f}" '
        'fill="none" stroke="#e75480" stroke-width="1.5"/>\n'
    )
    for z in vals:
        fh.write(
            f'<circle cx="{sx(z.real):.3f}" cy="{sy(z.imag):.3f}" r="2" '
            'fill="#1f4e9c" fill-opacity="0.6"/>\n'
        )
    fh.write("</svg>\n")
