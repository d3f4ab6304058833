"""Non-backtracking spectra of stochastic block models.

Operators (B, H, H0, K, K0, Bethe Hessian), dense eigensolvers, the
QEP Bauer-Fike perturbation bound, and spectrum classification.
"""

from .graphgen import (
    DegreeStats,
    Graph,
    SbmParams,
    degree_concentration,
    expected_stats,
    sample_sbm,
)
from .operators import (
    QepPair,
    bethe_hessian,
    build_B,
    build_H,
    build_H0,
    build_K,
    build_K0,
)
from .eig import eigs_general, eigs_symmetric, match_spectra, quadratic_roots
from .qep import (
    QepBoundReport,
    qep_bound,
    spectral_norm,
)
from .analysis import (
    ClassificationReport,
    CommunityResult,
    classify_spectrum,
    estimate_stats,
    ihara_bass_check,
    recover_communities,
    semicircle_ks,
)

__version__ = "0.1.0"
