import collections
import dataclasses
import json
import math

import numpy as np
import pytest

from nbspec.analysis import check_qep_trials
from nbspec.eig import eigs_general
from nbspec.graphgen import (
    DegreeStats,
    SbmParams,
    complete_graph,
    degree_concentration,
    expected_stats,
    fig1_params,
    sample_sbm,
)
from nbspec import qep
from nbspec.operators import QepPair, build_H, build_H0, build_K, build_K0
from nbspec.qep import (
    NotQepDiagonalizableError,
    QepBoundReport,
    cluster_certificate,
    corollary_bound,
    perturbation_norms,
    qep_bound,
    spectral_norm,
)


def random_instance(rng, n, e_norm=None):
    a = rng.uniform(-1, 1, (n, n))
    a = (a + a.T) / 2
    c = rng.uniform(0.5, 2.0)
    e = rng.uniform(-1, 1, (n, n))
    target = rng.uniform(0, 0.5) if e_norm is None else e_norm
    e *= target / max(spectral_norm(e), 1e-12)
    return QepPair(a, c * np.eye(n)), QepPair(a, c * np.eye(n) + e), e


class TestSpectralNorm:
    def test_diagonal(self):
        assert spectral_norm(np.diag([3.0, -7.0, 1.0])) == pytest.approx(7.0, rel=1e-8)

    def test_matches_svd(self):
        rng = np.random.default_rng(0)
        for _ in range(10):
            m = rng.standard_normal((12, 12))
            assert spectral_norm(m) == pytest.approx(
                np.linalg.norm(m, 2), rel=1e-12
            )

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0

    def test_start_vector_in_null_space(self):
        # power iteration from the all-ones vector returned 0.0 here
        norm = spectral_norm(np.array([[1.0, -1.0], [-1.0, 1.0]]))
        assert norm >= 2.0
        assert norm == pytest.approx(2.0, rel=1e-12)

    def test_top_singular_vector_orthogonal_to_ones(self):
        # power iteration from the all-ones vector returned 0.01 here
        n = 50
        v = np.where(np.arange(n) % 2, -1.0, 1.0)
        norm = spectral_norm(np.outer(v, v) / n + 0.01 * np.eye(n))
        assert norm >= 1.01
        assert norm == pytest.approx(1.01, rel=1e-12)


class TestQepBound:
    def test_identical_pencils_give_zero(self):
        rng = np.random.default_rng(1)
        l0, _, _ = random_instance(rng, n=6)
        report = qep_bound(l0, l0)
        assert report.epsilon_global == 0.0
        assert all(d == 0.0 and e == 0.0 for _, e, _, d in report.per_mu)

    def test_kappa_one_for_symmetric_scalar(self):
        rng = np.random.default_rng(2)
        l0, l1, _ = random_instance(rng, n=8)
        assert qep_bound(l0, l1).kappa == 1.0

    def test_h0_to_h_radius_is_sqrt_max_deviation(self, fig1_instance):
        g, stats = fig1_instance
        h0 = build_H0(g, stats)
        h = build_H(g)
        eps = corollary_bound(h0.a_block, h0.x_block, h.x_block)
        maxdev, _, _ = degree_concentration(g, stats)
        assert eps == pytest.approx(math.sqrt(maxdev), rel=1e-6)

    def test_k4_regular_graph_zero_radius(self):
        g = complete_graph(4)
        h = build_H(g)
        x = 2.0 * np.eye(4)  # alpha - 1 = 2 for the 3-regular K4
        assert corollary_bound(g.adjacency(), -x, h.x_block) == 0.0

    def test_random_8x8_bound(self):
        rng = np.random.default_rng(3)
        l0, l1, _ = random_instance(rng, n=8, e_norm=0.01)
        report = qep_bound(l0, l1)
        assert report.epsilon_global == pytest.approx(math.sqrt(0.01), rel=1e-6)
        assert report.all_within_bound()

    def test_constant_radius_when_a_shared(self):
        rng = np.random.default_rng(4)
        l0, l1, _ = random_instance(rng, n=7)
        report = qep_bound(l0, l1)
        radii = {round(e, 12) for _, e, _, _ in report.per_mu}
        assert len(radii) == 1
        cb = corollary_bound(l0.a_block, l0.x_block, l1.x_block)
        assert report.epsilon_global == pytest.approx(cb, rel=1e-9)

    def test_monotone_in_perturbation_scale(self):
        rng = np.random.default_rng(5)
        a = rng.uniform(-1, 1, (6, 6))
        a = (a + a.T) / 2
        x = 1.3 * np.eye(6)
        e = rng.uniform(-1, 1, (6, 6))
        e *= 0.4 / spectral_norm(e)
        l0 = QepPair(a, x)
        prev = 0.0
        for t in (0.25, 0.5, 1.0):
            eps = qep_bound(l0, QepPair(a, x + t * e)).epsilon_global
            assert eps >= prev
            prev = eps

    @pytest.mark.parametrize("a, x", [
        # X commutes with A = I but has no eigenbasis, so no P co-diagonalizes them
        (np.eye(2), np.array([[0.0, 1.0], [0.0, 0.0]])),
        # symmetric blocks that commute co-diagonalize, but X is not cI
        (np.diag([1.0, 1.0, 2.0]), np.array([[0.5, 0.2, 0.0], [0.2, 0.5, 0.0], [0.0, 0.0, -0.5]])),
        (np.array([[0.0, 1.0], [1.0, 0.0]]), np.diag([1.0, 2.0])),  # blocks do not commute
        # A is diagonalizable and X scalar, but A is not symmetric
        (np.array([[1.0, 1.0], [0.0, 2.0]]), 0.5 * np.eye(2)),
    ], ids=["defective-x", "commuting", "noncommuting", "nonsymmetric-a"])
    def test_rejects_reference_that_is_not_symmetric_scalar(self, a, x):
        y = x + 1e-6 * np.eye(len(x))
        with pytest.raises(NotQepDiagonalizableError):
            qep_bound(QepPair(a, x), QepPair(a, y))
        with pytest.raises(NotQepDiagonalizableError):
            corollary_bound(a, x, y)

    def test_mu_dependent_radius_with_distinct_a(self):
        # different A blocks: radius varies with mu and the theorem still holds
        rng = np.random.default_rng(6)
        n = 6
        a = rng.uniform(-1, 1, (n, n))
        a = (a + a.T) / 2
        l0 = QepPair(a, 1.5 * np.eye(n))
        b = a + 0.02 * ((lambda m: (m + m.T) / 2)(rng.uniform(-1, 1, (n, n))))
        l1 = QepPair(b, 1.5 * np.eye(n) + 0.01 * np.eye(n))
        report = qep_bound(l0, l1)
        radii = {round(e, 12) for _, e, _, _ in report.per_mu}
        assert len(radii) > 1
        assert report.all_within_bound()

    def test_property_200_random_trials(self):
        result = check_qep_trials(np.random.default_rng(42), 200)
        assert result == {"status": "pass", "trials": 200, "violations": 0}

    def test_epsilon_global_is_the_largest_radius(self):
        rng = np.random.default_rng(8)
        report = qep_bound(*_random_pencils(rng, 5))
        assert report.epsilon_global == max(eps for _, eps, _, _ in report.per_mu) > 0
        assert [f.name for f in dataclasses.fields(QepBoundReport)] == ["per_mu", "norm_methods"]
        assert QepBoundReport(per_mu=[], norm_methods=()).epsilon_global == 0.0

    def test_report_json_round_trip(self):
        rng = np.random.default_rng(7)
        l0, l1, _ = random_instance(rng, n=4)
        report = qep_bound(l0, l1)
        doc = json.loads(report.to_json())
        assert doc["kappa"] == report.kappa
        assert doc["epsilon_global"] == report.epsilon_global
        assert len(doc["per_mu"]) == len(report.per_mu)


def _lapack_radii(l0, l1, report):
    """The radii of ``report`` recomputed with LAPACK's 2-norm of each E(mu)."""
    xd = l0.x_block - l1.x_block
    ad = l0.a_block - l1.a_block
    if ad.any():
        norms = [np.linalg.norm(xd + mu * ad, 2) for mu, _, _, _ in report.per_mu]
    else:  # E does not depend on mu
        norms = [np.linalg.norm(xd, 2)] * len(report.per_mu)
    return np.sqrt(norms)


def _symmetric_uniform(rng, n):
    m = rng.uniform(-1, 1, (n, n))
    return (m + m.T) / 2


def _random_pencils(rng, n):
    """(A, -cI) against a pencil whose A and X blocks are both generic; most mu are complex."""
    a = rng.uniform(-1, 1, (n, n))
    a = (a + a.T) / 2
    x = -rng.uniform(0.5, 2.0) * np.eye(n)
    l1 = QepPair(a + 0.1 * rng.uniform(-1, 1, (n, n)), x + 0.1 * rng.uniform(-1, 1, (n, n)))
    return QepPair(a, x), l1


def _k_pencils(seed=300007):
    """(K0, K) on the graph of the benchmark's certify-K op."""
    params = SbmParams(n=100, p=0.28, q=0.1, seed=seed)
    g = sample_sbm(params)
    return build_K0(g, expected_stats(params)), build_K(g)


def _k_pencils_with_zero_rows():
    """(K0, K) with gamma = d - 1 for the median degree d, so delta_i = 0 for every such vertex."""
    g = sample_sbm(SbmParams(n=100, p=0.28, q=0.1, seed=3))
    d = float(np.median(g.degrees))
    k0, k = build_K0(g, DegreeStats(alpha=d, beta=None)), build_K(g)
    assert np.any(np.diagonal(k0.x_block - k.x_block) == 0)
    return k0, k


def _real_gram_pencils(n=60):
    """(A, -1.5 I) against a dense symmetric change of X and A - 0.01 I, exactly: T = 0."""
    rng = np.random.default_rng(14)
    a = _symmetric_uniform(rng, n)
    np.fill_diagonal(a, 0.0)
    l0 = QepPair(a, -1.5 * np.eye(n))
    return l0, QepPair(a - 0.01 * np.eye(n), l0.x_block - 0.1 * _symmetric_uniform(rng, n))


def _complex_gram_pencils(n=60):
    """``_random_pencils`` at n = 60: A and X change by the same size, so T != 0 and
    ||E(mu)|| curves strongly around its minimum near mu = 0, inside the bulk."""
    return _random_pencils(np.random.default_rng(5), n)


def _shifted_a_pencils(n=50):
    """(I, -0.6 I) against (1.1 I, -diag(d)): the complex mu share Re mu = 0.55 up to
    rounding, and four real mu (two d_i = -1) lie far from it."""
    d = np.random.default_rng(16).uniform(0.32, 1.0, n)
    d[:2] = -1.0
    return QepPair(np.eye(n), -0.6 * np.eye(n)), QepPair(1.1 * np.eye(n), -np.diag(d))


def _h_pencils():
    params = fig1_params("right", n=400)
    g = sample_sbm(params)
    return build_H0(g, expected_stats(params)), build_H(g)


# how far above the theorem's radius an "envelope" radius may lie
ENVELOPE_FACTOR = 1.1


class TestRadiiSoundness:
    """Every radius is at least the theorem's.  One from an exact method is at
    most 1e-12 relative above it, one from the envelope at most ENVELOPE_FACTOR."""

    def _assert_sound_and_tight(self, l0, l1):
        report = qep_bound(l0, l1)
        radii = np.array([eps for _, eps, _, _ in report.per_mu])
        exact = _lapack_radii(l0, l1, report)
        envelope = np.array(report.norm_methods) == "envelope"
        assert np.all(radii >= exact)
        assert np.all(radii[~envelope] <= exact[~envelope] * (1 + 1e-12))
        assert np.all(radii[envelope] <= exact[envelope] * ENVELOPE_FACTOR)
        return report

    def test_k_pencil(self):
        for seed in (3, 18, 300007):
            report = self._assert_sound_and_tight(*_k_pencils(seed))
            methods = collections.Counter(report.norm_methods)
            assert set(methods) == {"gram", "envelope"}
            assert methods["envelope"] > methods["gram"]
            # epsilon_global is attained at mu = 1, alone in its cell
            top = int(np.argmax([eps for _, eps, _, _ in report.per_mu]))
            assert report.norm_methods[top] == "gram"

    def test_k_pencil_with_zero_rows(self):
        report = self._assert_sound_and_tight(*_k_pencils_with_zero_rows())
        assert "envelope" in report.norm_methods

    def test_k_pencil_of_regular_graph(self):
        g = complete_graph(6)
        stats = DegreeStats(alpha=5.0, beta=None)
        report = self._assert_sound_and_tight(build_K0(g, stats), build_K(g))
        assert report.epsilon_global == 0.0

    def test_k_pencil_off_its_structure(self):
        # a 1e-9 change to one entry of A leaves a residual off diag(delta) S
        k0, k = _k_pencils(3)
        a = k.a_block.copy()
        a[0, 1] += 1e-9
        report = self._assert_sound_and_tight(k0, QepPair(a, k.x_block))
        assert "envelope" in report.norm_methods

    def test_h_pencil(self):
        report = self._assert_sound_and_tight(*_h_pencils())
        assert set(report.norm_methods) == {"diagonal"}

    def test_h_corollary_bound(self):
        h0, h = _h_pencils()
        eps = corollary_bound(h0.a_block, h0.x_block, h.x_block)
        exact = math.sqrt(np.linalg.norm(h0.x_block - h.x_block, 2))
        assert exact <= eps <= exact * (1 + 1e-12)

    def test_random_pencils_with_generic_a_difference(self):
        rng = np.random.default_rng(11)
        for _ in range(40):
            self._assert_sound_and_tight(*_random_pencils(rng, int(rng.integers(2, 13))))

    def _assert_envelope_covers(self, l0, l1):
        report = self._assert_sound_and_tight(l0, l1)
        assert "envelope" in report.norm_methods
        radius = {complex(mu): eps for mu, eps, _, _ in report.per_mu}
        assert any(mu.imag != 0 for mu in radius)
        for mu, eps in radius.items():
            assert radius[mu.conjugate()] == eps

    def test_pencil_with_real_gram_off_the_k_structure(self):
        l0, l1 = _real_gram_pencils()
        c = (l0.a_block - l1.a_block) @ (l0.x_block - l1.x_block).T
        assert not (c - c.T).any()  # T = 0
        self._assert_envelope_covers(l0, l1)

    def test_pencil_with_complex_gram(self):
        l0, l1 = _complex_gram_pencils()
        c = (l0.a_block - l1.a_block) @ (l0.x_block - l1.x_block).T
        assert (c - c.T).any()  # T != 0
        self._assert_envelope_covers(l0, l1)

    def test_pencil_with_one_real_part_in_the_bulk(self):
        # the grid's width must not come from the rounding noise of Re mu
        l0, l1 = _shifted_a_pencils()
        mus = l1.spectrum()
        assert 0 < np.ptp(mus[mus.imag != 0].real) < 1e-14
        self._assert_envelope_covers(l0, l1)

    def test_grid_brackets_every_value(self):
        # the last list puts a value where floor((v - lo) / width) is one cell off
        for v in ([1.0, 1.0 + 2.0 ** -52], [0.0, 5e-324], [3.0, 3.0, 3.0], [-2.0, 1e300],
                  [0.025019093320933397, 0.07944276019391511, 0.055137138049038706,
                   -0.05495856200188163, -0.039966743017754915, 0.07471068907925238,
                   -0.09894693908688507]):
            lower, upper = qep._grid(np.array(v))
            assert np.all(lower <= v) and np.all(np.array(v) < upper)

    def test_conjugates_share_a_radius(self):
        rng = np.random.default_rng(12)
        for l0, l1 in [_k_pencils(), _k_pencils_with_zero_rows(), _random_pencils(rng, 9)]:
            radius = {complex(mu): eps for mu, eps, _, _ in qep_bound(l0, l1).per_mu}
            assert any(mu.imag != 0 for mu in radius)
            for mu, eps in radius.items():
                assert radius[mu.conjugate()] == eps


@pytest.mark.parametrize("pencils", [
    _complex_gram_pencils, lambda: _k_pencils(300007), lambda: _k_pencils(3),
], ids=["complex-gram", "k-300007", "k-3"])
def test_radii_independent_of_the_order_of_spec_l(pencils):
    # each mu's radius, bit for bit, whatever position it holds in Spec(L)
    l0, l1 = pencils()
    spec0, spec = l0.spectrum(), l1.spectrum()
    radii = [eps for _, eps, _, _ in qep_bound(l0, l1, spec0=spec0, spec=spec).per_mu]
    rng = np.random.default_rng(19)
    for _ in range(20):
        order = rng.permutation(spec.size)
        report = qep_bound(l0, l1, spec0=spec0, spec=spec[order])
        permuted = np.empty(spec.size)
        permuted[order] = [eps for _, eps, _, _ in report.per_mu]
        assert permuted.tolist() == radii


class TestPerturbationNorms:
    def _count_solves(self, monkeypatch, *args):
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or solve(m))
        perturbation_norms(*args)
        return len(calls)

    def test_one_solve_per_conjugate_class(self, monkeypatch):
        l0, l1 = _k_pencils()
        mus = eigs_general(l1.matrix)
        solves = self._count_solves(
            monkeypatch, l0.x_block - l1.x_block, l0.a_block - l1.a_block, mus
        )
        assert solves == len({(mu.real, abs(mu.imag)) for mu in mus})
        assert solves < len(mus)

    def test_one_solve_when_a_blocks_agree(self, monkeypatch):
        l0, l1 = _h_pencils()
        mus = np.array([0.5, 1 + 2j, 1 - 2j, -3.0])
        solves = self._count_solves(monkeypatch, l0.x_block - l1.x_block, np.zeros((400, 400)), mus)
        assert solves == 1

    def test_k_pencil_takes_few_solves(self, monkeypatch):
        # about one per envelope cell and isolated mu, where the Gram
        # expansion alone needs one per conjugate class
        l0, l1 = _k_pencils()
        spec0, spec = l0.spectrum(), l1.spectrum()
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or solve(m))
        qep_bound(l0, l1, spec0=spec0, spec=spec)
        classes = len({(mu.real, abs(mu.imag)) for mu in spec})
        assert 0 < len(calls) < classes / 3

    def test_pencil_off_the_k_structure_takes_few_solves(self, monkeypatch):
        # grid vertices are shared between cells whatever the pencil
        l0, l1 = _real_gram_pencils()
        spec0, spec = l0.spectrum(), l1.spectrum()
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or solve(m))
        qep_bound(l0, l1, spec0=spec0, spec=spec)
        classes = len({(mu.real, abs(mu.imag)) for mu in spec})
        assert 0 < len(calls) < classes / 3

    def test_h_pencil_takes_no_solve(self, monkeypatch):
        l0, l1 = _h_pencils()
        spec0, spec = l0.spectrum(), l1.spectrum()
        monkeypatch.setattr(np.linalg, "eigvalsh", None)
        assert qep_bound(l0, l1, spec0=spec0, spec=spec).epsilon_global > 0

    def test_complex_hermitian_path_matches_lapack(self):
        rng = np.random.default_rng(13)
        xd = rng.standard_normal((7, 7))
        ad = rng.standard_normal((7, 7))  # Ad Xd^T is not symmetric
        mus = rng.standard_normal(5) + 1j * rng.standard_normal(5)
        norms = perturbation_norms(xd, ad, mus)
        exact = np.array([np.linalg.norm(xd + mu * ad, 2) for mu in mus])
        assert np.all(norms >= exact)
        assert np.all(norms <= exact * (1 + 1e-12))


class TestClusterCertificate:
    def test_trivial_singleton(self):
        spec = np.array([0.0, 5.0, 10.0])
        expected, observed, separated = cluster_certificate(spec, spec, 1e-12, [1])
        assert (expected, observed, separated) == (1, 1, True)

    def test_non_separation_is_reported(self):
        spec = np.array([0.0, 1.0])
        expected, observed, separated = cluster_certificate(spec, spec, 0.6, [0])
        assert not separated

    def test_rejects_negative_epsilon(self):
        spec = np.array([0.0])
        with pytest.raises(ValueError):
            cluster_certificate(spec, spec, -1.0, [0])

    def test_h_vs_h0_outlier_ball(self, fig1_instance, fig1_spectra):
        g, stats = fig1_instance
        h0 = build_H0(g, stats)
        h = build_H(g)
        spec0 = h0.spectrum()
        spec, _ = fig1_spectra
        eps = corollary_bound(h0.a_block, h0.x_block, h.x_block)
        k_top = [int(np.argmax(spec0.real))]
        expected, observed, separated = cluster_certificate(spec0, spec, eps, k_top)
        assert (expected, observed, separated) == (1, 1, True)
