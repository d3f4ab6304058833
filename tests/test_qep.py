import json
import math

import numpy as np
import pytest

from nbspec.analysis import check_qep_trials
from nbspec.eig import Spectrum, eigs_general
from nbspec.graphgen import complete_graph, degree_concentration
from nbspec.operators import QepPair, build_H, build_H0, build_K, build_K0
from nbspec.qep import (
    NotQepDiagonalizableError,
    SingularMatrixError,
    cluster_certificate,
    condition_number,
    corollary_bound,
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
                np.linalg.norm(m, 2), rel=1e-7
            )

    def test_zero_matrix(self):
        assert spectral_norm(np.zeros((3, 3))) == 0.0


class TestConditionNumber:
    def test_identity(self):
        assert condition_number(np.eye(4)) == pytest.approx(1.0)

    def test_orthogonal(self):
        theta = 0.7
        q = np.array(
            [[math.cos(theta), -math.sin(theta)], [math.sin(theta), math.cos(theta)]]
        )
        assert condition_number(q) == pytest.approx(1.0, rel=1e-12)

    def test_diagonal(self):
        assert condition_number(np.diag([10.0, 1.0])) == pytest.approx(10.0)

    def test_singular_rejected(self):
        with pytest.raises(SingularMatrixError):
            condition_number(np.array([[1.0, 1.0], [1.0, 1.0]]))


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
        maxdev = degree_concentration(g, stats).max_deviation
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

    def test_rejects_noncommuting_blocks(self):
        a = np.array([[0.0, 1.0], [1.0, 0.0]])
        x = np.diag([1.0, 2.0])
        with pytest.raises(NotQepDiagonalizableError):
            qep_bound(QepPair(a, x), QepPair(a, x))

    def test_nonsymmetric_codiagonalizable_kappa(self):
        # A diagonalizable but not symmetric; X scalar commutes with everything
        a = np.array([[1.0, 1.0], [0.0, 2.0]])
        x = 0.5 * np.eye(2)
        report = qep_bound(QepPair(a, x), QepPair(a, x + 0.01 * np.eye(2)))
        assert report.kappa > 1.0
        assert report.all_within_bound()

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

    def test_report_json_round_trip(self):
        rng = np.random.default_rng(7)
        l0, l1, _ = random_instance(rng, n=4)
        report = qep_bound(l0, l1)
        doc = json.loads(report.to_json())
        assert doc["kappa"] == report.kappa
        assert doc["epsilon_global"] == report.epsilon_global
        assert len(doc["per_mu"]) == len(report.per_mu)


class TestClusterCertificate:
    def test_trivial_singleton(self):
        spec = Spectrum(np.array([0.0, 5.0, 10.0]))
        expected, observed, separated = cluster_certificate(spec, spec, 1e-12, [1])
        assert (expected, observed, separated) == (1, 1, True)

    def test_non_separation_is_reported(self):
        spec = Spectrum(np.array([0.0, 1.0]))
        expected, observed, separated = cluster_certificate(spec, spec, 0.6, [0])
        assert not separated

    def test_rejects_negative_epsilon(self):
        spec = Spectrum(np.array([0.0]))
        with pytest.raises(ValueError):
            cluster_certificate(spec, spec, -1.0, [0])

    def test_h_vs_h0_outlier_ball(self, fig1_instance):
        g, stats = fig1_instance
        h0 = build_H0(g, stats)
        h = build_H(g)
        spec0 = eigs_general(h0.matrix)
        spec = eigs_general(h.matrix)
        eps = corollary_bound(h0.a_block, h0.x_block, h.x_block)
        k_top = [int(np.argmax(spec0.values.real))]
        expected, observed, separated = cluster_certificate(spec0, spec, eps, k_top)
        assert (expected, observed, separated) == (1, 1, True)
