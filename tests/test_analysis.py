import dataclasses
import io
import math

import numpy as np
import pytest

from nbspec import analysis
from nbspec.analysis import (
    check_det_identity,
    check_eigenvalue_one,
    check_ihara_bass,
    check_qep_trials,
    check_reciprocity,
    classify_spectrum,
    estimate_stats,
    ihara_bass_check,
    ks_distance,
    recover_communities,
    semicircle_cdf,
    semicircle_ks,
    write_spectrum_svg,
)
from nbspec.eig import Spectrum, eigs_general, eigs_symmetric
from nbspec.graphgen import (
    DegreeStats,
    SbmParams,
    circulant,
    er_pool,
    expected_stats,
    sample_sbm,
)
from nbspec.operators import TooLargeError, build_H, build_H0
from nbspec.qep import qep_bound


class TestClassify:
    def test_fig1_layout(self, fig1_instance):
        g, stats = fig1_instance
        spec = eigs_general(build_H(g).matrix)
        report = classify_spectrum(spec, stats)
        assert not report.ambiguous
        assert len(report.outliers) == 2
        assert len(report.insiders) == 2
        # insiders near 1 and alpha/beta ~ 2.003
        targets = sorted(t for _, t, _ in report.insiders)
        assert targets[0] == 1.0
        assert targets[1] == pytest.approx(stats.alpha / stats.beta)
        one = min(report.insiders, key=lambda row: abs(row[1] - 1.0))
        assert one[2] <= 1e-8
        # partition covers everything
        total = len(report.outliers) + len(report.insiders) + report.bulk.size
        assert total == len(spec)

    def test_fig1_outlier_gaps(self, fig1_instance):
        g, stats = fig1_instance
        spec = eigs_general(build_H(g).matrix)
        report = classify_spectrum(spec, stats)
        by_target = {round(t, 6): gap for _, t, gap in report.outliers}
        scale = stats.alpha ** 0.75  # ~30.5
        assert by_target[round(stats.alpha, 6)] <= 2 * scale
        assert by_target[round(stats.beta, 6)] <= 2 * scale

    def test_regular_graph_degenerate_case(self):
        g = circulant(12, [1, 2])  # 4-regular: Spec(H) roots of z^2 - lam z + 3
        stats = DegreeStats(alpha=4.0, beta=None, gamma=3.0)
        spec = eigs_general(build_H(g).matrix)
        report = classify_spectrum(spec, stats)
        # single outlier at d-1 = 3 and single insider at 1
        assert len(report.outliers) == 1
        assert report.outliers[0][0] == pytest.approx(3.0, abs=1e-8)
        assert len(report.insiders) == 1
        assert report.insiders[0][0] == pytest.approx(1.0, abs=1e-8)
        assert not report.ambiguous

    def test_spectral_inclusion_guard(self):
        # min degree >= 2: complex eigenvalues within the degree annulus,
        # real ones within [1, d_max - 1]
        for g in er_pool(5, n=14, p=0.6, start_seed=11, min_degree=2):
            spec = eigs_general(build_H(g).matrix)
            dmin, dmax = g.degrees.min(), g.degrees.max()
            cplx = spec.values[np.abs(spec.values.imag) > 1e-7]
            if cplx.size:
                assert np.all(np.abs(cplx) >= math.sqrt(dmin - 1) - 1e-7)
                assert np.all(np.abs(cplx) <= math.sqrt(dmax - 1) + 1e-7)
            real = spec.values[np.abs(spec.values.imag) <= 1e-7]
            assert np.all(np.abs(real) >= 1 - 1e-7)
            assert np.all(np.abs(real) <= dmax - 1 + 1e-7)

    def test_reciprocity_of_reports(self, fig1_instance):
        from nbspec.operators import build_K

        g, stats = fig1_instance
        spec_h = eigs_general(build_H(g).matrix)
        spec_k = eigs_general(build_K(g).matrix)
        rep_h = classify_spectrum(spec_h, stats)
        rep_k = classify_spectrum(Spectrum(1 / spec_k.values), stats)
        for (v1, t1, _), (v2, t2, _) in zip(
            sorted(rep_h.insiders), sorted(rep_k.insiders)
        ):
            assert v1 == pytest.approx(v2, abs=1e-6)
            assert t1 == t2
        assert len(rep_h.outliers) == len(rep_k.outliers)

    def test_rejects_alpha_at_most_one(self):
        with pytest.raises(ValueError):
            classify_spectrum(
                Spectrum(np.array([1.0])), DegreeStats(alpha=1.0, beta=None, gamma=0.0)
            )


class TestIharaBass:
    def test_triangle_exact(self, k3):
        match, gap = ihara_bass_check(k3)
        assert match and gap <= 1e-8

    def test_k4(self, k4):
        match, gap = ihara_bass_check(k4)
        assert match and gap <= 1e-8

    def test_er_sweep(self):
        for g in er_pool(10, n=16, p=0.4, start_seed=0):
            match, gap = ihara_bass_check(g)
            assert match, gap

    def test_cap_propagates(self, k4):
        with pytest.raises(TooLargeError):
            ihara_bass_check(k4, dense_cap=4)

    def test_defective_zero_matched_by_centroid(self):
        # graph 4 has a degree-1 vertex, so 0 is a defective eigenvalue of H;
        # the eigensolver spreads it up to 9.7e-6 wide, past the 1e-6 root
        # match, while its cluster's centroid agrees with Spec(B)'s
        assert DEFECTIVE_POOL[4].min_degree() == 1
        result = check_ihara_bass(DEFECTIVE_POOL)
        assert result["status"] == "pass"
        assert result["max_gap"] <= 1e-12

    def test_centroid_match_still_sees_a_small_fault(self, monkeypatch):
        def shifted(graph):
            h = build_H(graph)
            a = h.a_block.copy()
            a[0, 0] += 1e-5
            return dataclasses.replace(h, a_block=a)

        monkeypatch.setattr(analysis, "build_H", shifted)
        ok, gap = ihara_bass_check(DEFECTIVE_POOL[4])
        assert not ok and gap > 1e-6


DEFECTIVE_POOL = er_pool(10, n=16, p=0.4, start_seed=10300000)


def _h_off_by_identity(graph):
    """H with its X block shifted by -I: the pencil of D, not D - I."""
    h = build_H(graph)
    return dataclasses.replace(h, x_block=h.x_block - np.eye(graph.n))


def _qep_bound_zero_radius(l0, l1):
    report = qep_bound(l0, l1)
    return dataclasses.replace(
        report, per_mu=[(mu, 0.0, nu, dist) for mu, _, nu, dist in report.per_mu]
    )


CHECK_GRAPHS = er_pool(3, n=12, p=0.5, start_seed=0, min_degree=2)


class TestChecks:
    @pytest.mark.parametrize("check, attr, broken", [
        (lambda: check_ihara_bass(CHECK_GRAPHS), "build_H", _h_off_by_identity),
        (lambda: check_det_identity(CHECK_GRAPHS), "build_H", _h_off_by_identity),
        (lambda: check_eigenvalue_one(CHECK_GRAPHS), "build_H", _h_off_by_identity),
        (lambda: check_reciprocity(CHECK_GRAPHS), "build_H", _h_off_by_identity),
        (lambda: check_qep_trials(np.random.default_rng(0), 5),
         "qep_bound", _qep_bound_zero_radius),
    ], ids=["ihara-bass", "det-identity", "eigenvalue-one", "reciprocity", "qep-trials"])
    def test_fails_on_broken_operator(self, monkeypatch, check, attr, broken):
        assert check()["status"] == "pass"
        monkeypatch.setattr(analysis, attr, broken)
        assert check()["status"] == "fail"


class TestSemicircle:
    def test_cdf_endpoints(self):
        for r in (1.0, 2.0):
            assert semicircle_cdf(np.array([-r]), r)[0] == pytest.approx(0.0, abs=1e-12)
            assert semicircle_cdf(np.array([0.0]), r)[0] == pytest.approx(0.5)
            assert semicircle_cdf(np.array([r]), r)[0] == pytest.approx(1.0, abs=1e-12)

    def test_ks_of_exact_quantiles_is_small(self):
        # invert the CDF on a fine grid: KS must be ~ 1/n
        r = 2.0
        grid = np.linspace(-r, r, 20001)
        cdf = semicircle_cdf(grid, r)
        u = (np.arange(1000) + 0.5) / 1000
        sample = np.interp(u, cdf, grid)
        ks = ks_distance(sample, semicircle_cdf(sample, r))
        assert ks <= 2e-3

    def test_mode_a_fig1(self, fig1_instance):
        g, stats = fig1_instance
        spec = eigs_symmetric(g.adjacency())
        esd = semicircle_ks(spec, "A-spectrum", stats)
        assert esd.radius == 2.0
        assert esd.ks_distance <= 0.05

    def test_mode_h_real_parts_matches_mode_a(self, fig1_instance):
        # H0 real parts are the adjacency eigenvalues halved, two copies each
        g, stats = fig1_instance
        spec_a = eigs_symmetric(g.adjacency())
        spec_h0 = eigs_general(build_H0(g, stats).matrix)
        esd_a = semicircle_ks(spec_a, "A-spectrum", stats)
        esd_h = semicircle_ks(spec_h0, "H-real-parts", stats)
        assert esd_h.radius == 1.0
        assert esd_h.ks_distance == pytest.approx(esd_a.ks_distance, abs=5e-3)

    def test_unknown_mode(self, fig1_instance):
        _, stats = fig1_instance
        with pytest.raises(ValueError):
            semicircle_ks(Spectrum(np.array([0.0])), "nope", stats)


class TestRecovery:
    def test_disjoint_cliques_exact(self):
        params = SbmParams(n=16, p=1 - 1e-12, q=1e-12, seed=0)
        g = sample_sbm(params)
        stats = expected_stats(params)
        result = recover_communities(g, stats)
        assert result.accuracy == 1.0

    def test_fig1_high_accuracy(self, fig1_instance):
        g, stats = fig1_instance
        result = recover_communities(g, stats)
        assert result.accuracy >= 0.99
        assert result.r == pytest.approx(stats.alpha / stats.beta)
        assert result.negative_eigenvalue_count == 2

    def test_no_signal_when_p_equals_q(self):
        params = SbmParams(n=300, p=0.2, q=0.2, seed=3)
        g = sample_sbm(params)
        stats = expected_stats(params)
        with pytest.raises(ValueError):
            recover_communities(g, stats)
        result = recover_communities(g, stats, r=math.sqrt(stats.alpha))
        assert result.accuracy < 0.6
        assert result.negative_eigenvalue_count == 1

    def test_accuracy_at_least_half(self):
        params = SbmParams(n=100, p=0.3, q=0.25, seed=8)
        g = sample_sbm(params)
        result = recover_communities(g, expected_stats(params))
        assert result.accuracy >= 0.5


class TestEstimate:
    def test_recovers_fig1_parameters(self, fig1_instance):
        g, stats = fig1_instance
        est = estimate_stats(g)
        assert est.alpha == pytest.approx(stats.alpha, rel=0.05)
        assert est.beta == pytest.approx(stats.beta, rel=2 / math.sqrt(stats.alpha))

    def test_no_beta_for_single_community(self):
        g = sample_sbm(SbmParams(n=400, p=0.2, q=0.2, seed=0))
        assert estimate_stats(g).beta is None


class TestSvg:
    def test_emits_scatter_and_circle(self):
        spec = Spectrum(np.array([1 + 1j, -2.0, 0.5j]))
        buf = io.StringIO()
        write_spectrum_svg(spec, radius=1.5, fh=buf)
        text = buf.getvalue()
        assert text.startswith("<svg")
        assert text.count("<circle") == 4  # 3 points + bulk circle
        assert "</svg>" in text
