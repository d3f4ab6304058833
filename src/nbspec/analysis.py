"""Spectrum classification, the invariant checks, semicircle fit, community recovery."""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, List, Optional, Sequence, TextIO, Tuple

import numpy as np

from .eig import Spectrum, eigs_general, eigs_symmetric, match_spectra
from .graphgen import DegreeStats, Graph
from .operators import (
    DEFAULT_DENSE_CAP,
    QepPair,
    bethe_hessian,
    build_B,
    build_H,
    build_K,
)
from .qep import qep_bound, spectral_norm

__all__ = [
    "ClassificationReport",
    "EsdReport",
    "CommunityResult",
    "classify_spectrum",
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
    radius sqrt(gamma), expected near alpha and beta; insiders the isolated
    real ones inside it, expected near 1 and alpha/beta.  ``ambiguous`` is
    set when the candidate counts differ from the expected (2, 2) picture
    (or (1, 1) in the single-community case).
    """

    alpha: float
    beta: Optional[float]
    gamma: float
    outliers: List[Tuple[float, float, float]]  # (eigenvalue, target, gap)
    insiders: List[Tuple[float, float, float]]
    bulk: np.ndarray
    bulk_distances: np.ndarray  # | |z| - sqrt(gamma) | per bulk eigenvalue
    max_bulk_distance: float
    bulk_distance_quantiles: dict
    tau: float
    ambiguous: bool

    def bulk_fraction_within(self, dist: float) -> float:
        if self.bulk_distances.size == 0:
            return 1.0
        return float(np.mean(self.bulk_distances <= dist))

    def to_dict(self) -> dict:
        return {
            "alpha": self.alpha,
            "beta": self.beta,
            "gamma": self.gamma,
            "tau": self.tau,
            "outliers": [
                {"value": v, "target": t, "gap": g} for v, t, g in self.outliers
            ],
            "insiders": [
                {"value": v, "target": t, "gap": g} for v, t, g in self.insiders
            ],
            "bulk_count": int(self.bulk.size),
            "max_bulk_distance": self.max_bulk_distance,
            "bulk_distance_quantiles": self.bulk_distance_quantiles,
            "ambiguous": self.ambiguous,
        }


@dataclass(frozen=True)
class EsdReport:
    """Kolmogorov-Smirnov fit of a rescaled empirical spectrum to a semicircle law."""

    radius: float  # semicircle support [-radius, radius]
    ks_distance: float


@dataclass(frozen=True)
class CommunityResult:
    r: float
    negative_eigenvalue_count: int
    accuracy: float


def classify_spectrum(
    spec: Spectrum,
    stats: DegreeStats,
    tau: float = 0.25,
) -> ClassificationReport:
    """Classify a non-backtracking spectrum against its predicted layout.

    ``spec`` should come from build_H, or from build_B with the trivial
    +-1 eigenvalues already removed.  Real eigenvalues (|Im z| below
    1e-8 sqrt(alpha), a scale-aware cutoff) with modulus above
    (1 + tau) sqrt(gamma) are outlier candidates matched to {alpha, beta};
    those below (1 - tau) sqrt(gamma) are insider candidates matched to
    {1, alpha/beta}; everything else is bulk.
    """
    alpha, beta, gamma = stats.alpha, stats.beta, stats.gamma
    if gamma <= 0:
        raise ValueError("classification requires alpha > 1")
    root_g = math.sqrt(gamma)
    imag_tol = 1e-8 * math.sqrt(alpha)

    values = spec.values
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
    bulk = values[bulk_mask]
    dists = np.abs(np.abs(bulk) - root_g)
    quantiles = {}
    if dists.size:
        for qq in (0.5, 0.9, 0.99, 1.0):
            quantiles[f"q{qq:g}"] = float(np.quantile(dists, qq))
    ambiguous = (len(outliers), len(insiders)) != (len(out_targets), len(in_targets))
    return ClassificationReport(
        alpha=alpha,
        beta=beta,
        gamma=gamma,
        outliers=outliers,
        insiders=insiders,
        bulk=bulk,
        bulk_distances=dists,
        max_bulk_distance=float(dists.max()) if dists.size else 0.0,
        bulk_distance_quantiles=quantiles,
        tau=tau,
        ambiguous=ambiguous,
    )


def ihara_bass_check(
    graph: Graph, dense_cap: int = DEFAULT_DENSE_CAP, tolerance: float = 1e-6
) -> Tuple[bool, float]:
    """Spec(B) vs Spec(H) union the trivial +-1 eigenvalues, as multisets.

    The trivial eigenvalues come with multiplicity |E| - |V| each.  H's
    eigenvalue 0 is defective where a vertex has degree 1: the eigensolver
    spreads it over a ring of radius (eps ||H||)^(1/k), too wide for a
    root-by-root match at ``tolerance``, but the ring's centroid is good to
    O(eps).  So when the root match misses, each cluster of the union must
    hold as many eigenvalues of either side, with centroids within
    ``tolerance``.  Returns the pass flag and the worst root or centroid gap.
    """
    spec_b = eigs_general(build_B(graph, dense_cap=dense_cap))
    spec_h = eigs_general(build_H(graph).matrix)
    extra = graph.num_edges - graph.n
    if extra < 0:
        raise ValueError("graph has more vertices than edges; |E| >= |V| expected")
    padded = np.concatenate(
        [spec_h.values, np.full(extra, 1.0 + 0j), np.full(extra, -1.0 + 0j)]
    )
    ok, gap = match_spectra(spec_b.values, padded, tolerance=tolerance)
    if ok:
        return ok, gap
    centroid_gap = _centroid_gap(spec_b.values, padded)
    if centroid_gap is None:
        return False, gap
    return centroid_gap <= tolerance, centroid_gap


def _centroid_gap(a: np.ndarray, b: np.ndarray, radius: float = 1e-3) -> Optional[float]:
    """Worst centroid gap over the single-linkage clusters (at ``radius``) of a and b together.

    None when some cluster holds more points of one side than of the other.
    """
    # imported on this rare path only: at import time it costs about 1 MB of RSS
    from scipy.sparse.csgraph import connected_components

    points = np.concatenate((a, b))
    k, label = connected_components(
        np.abs(points[:, None] - points[None, :]) <= radius, directed=False
    )
    la, lb = label[: a.size], label[a.size :]
    count = np.bincount(la, minlength=k)
    if not np.array_equal(count, np.bincount(lb, minlength=k)):
        return None

    def sums(lab, z):
        return np.bincount(lab, z.real, k) + 1j * np.bincount(lab, z.imag, k)

    return float((np.abs(sums(la, a) - sums(lb, b)) / count).max())


def _verdict(rows: Iterable[Tuple[bool, float]], key: str) -> dict:
    """The ``verify`` entry of per-graph (ok, value) rows: every row must pass."""
    ok, worst = True, 0.0
    for row_ok, value in rows:
        ok = ok and row_ok
        worst = max(worst, value)
    return {"status": "pass" if ok else "fail", key: worst}


def check_ihara_bass(graphs: Sequence[Graph], dense_cap: int = DEFAULT_DENSE_CAP) -> dict:
    """``ihara_bass_check`` within 1e-6 on every graph; skipped when some B exceeds the cap."""
    if 2 * max(g.num_edges for g in graphs) > dense_cap:
        return {"status": "skipped", "reason": "dense cap too low"}
    return _verdict(
        (ihara_bass_check(g, dense_cap=dense_cap, tolerance=1e-6) for g in graphs), "max_gap"
    )


def check_det_identity(graphs: Sequence[Graph]) -> dict:
    """det H = prod(d_i - 1), compared in log space.

    With min degree >= 2, det H must be positive with log within 1e-6
    (relative) of sum log(d_i - 1).  A degree-1 vertex makes the product 0,
    so det H must be exactly 0 or below e^-6.
    """

    def row(g: Graph) -> Tuple[bool, float]:
        sign, logdet = np.linalg.slogdet(build_H(g).matrix)
        if g.min_degree() < 2:
            return sign == 0 or logdet < -6, 0.0
        target = float(np.sum(np.log(g.degrees - 1.0)))
        rel = abs(logdet - target) / max(abs(target), 1.0)
        return sign > 0 and rel <= 1e-6, rel

    return _verdict(map(row, graphs), "max_rel")


def check_eigenvalue_one(graphs: Sequence[Graph]) -> dict:
    """1 is an eigenvalue of H, to 1e-8, on every graph."""

    def row(g: Graph) -> Tuple[bool, float]:
        gap = float(np.min(np.abs(eigs_general(build_H(g).matrix).values - 1.0)))
        return gap <= 1e-8, gap

    return _verdict(map(row, graphs), "max_gap")


def check_reciprocity(graphs: Sequence[Graph]) -> dict:
    """Spec(K) = 1/Spec(H) within 1e-6 on every graph of min degree >= 2 (K needs it)."""

    def row(g: Graph) -> Tuple[bool, float]:
        spec_h = eigs_general(build_H(g).matrix)
        spec_k = eigs_general(build_K(g).matrix)
        return match_spectra(spec_k.values, 1.0 / spec_h.values, tolerance=1e-6)

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


def semicircle_ks(spec: Spectrum, mode: str, stats: DegreeStats) -> EsdReport:
    """KS distance of a rescaled spectrum to the semicircle law.

    mode "A-spectrum": Spec(A)/sqrt(alpha) against the semicircle on [-2, 2].
    mode "H-real-parts": Re(Spec)/sqrt(alpha) of a 2n x 2n linearization
    spectrum against the semicircle on [-1, 1] (each adjacency eigenvalue
    contributes its half twice).
    """
    if mode == "A-spectrum":
        radius = 2.0
        sample = np.sort(spec.values.real / math.sqrt(stats.alpha))
    elif mode == "H-real-parts":
        radius = 1.0
        sample = np.sort(spec.values.real / math.sqrt(stats.alpha))
    else:
        raise ValueError(f"unknown mode {mode!r}")
    ks = ks_distance(sample, semicircle_cdf(sample, radius))
    return EsdReport(radius=radius, ks_distance=ks)


def estimate_stats(graph: Graph) -> DegreeStats:
    """Estimate (alpha, beta) from the graph itself.

    alpha is the observed mean degree; beta the second adjacency eigenvalue,
    kept only when it is detached from the bulk edge 2 sqrt(alpha).
    """
    alpha = float(graph.degrees.mean())
    if alpha <= 1:
        raise ValueError("graph too sparse to estimate spectral statistics")
    vals = eigs_symmetric(graph.adjacency()).values.real
    lam2 = float(np.sort(vals)[-2])
    beta = lam2 if lam2 > 2.0 * math.sqrt(alpha) else None
    return DegreeStats(alpha=alpha, beta=beta, gamma=alpha - 1.0)


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
    spectrum, vectors = eigs_symmetric(bethe_hessian(graph, r), with_vectors=True)
    neg_count = int(np.count_nonzero(spectrum.values.real < 0))
    signs = np.where(vectors[:, 1] >= 0, 1, -1)
    planted = np.where(graph.labels == 0, 1, -1)
    agree = float(np.mean(signs == planted))
    return CommunityResult(
        r=r,
        negative_eigenvalue_count=neg_count,
        accuracy=max(agree, 1.0 - agree),
    )


def write_spectrum_svg(
    spec: Spectrum,
    radius: float,
    fh: TextIO,
    size: int = 640,
):
    """Scatter of a complex spectrum with the bulk circle overlaid.

    Self-contained SVG, no plotting dependency; coordinates scaled so the
    circle of the given radius fits with margin.
    """
    vals = spec.values
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
