import math

import numpy as np
import pytest

from nbspec.eig import eigs_general, eigs_symmetric, match_spectra, quadratic_roots
from nbspec.graphgen import (
    DegreeStats,
    SbmParams,
    circulant,
    complete_graph,
    expected_stats,
    sample_sbm,
)
from nbspec.operators import (
    DegreeTooSmallError,
    TooLargeError,
    bethe_hessian,
    build_B,
    build_H,
    build_H0,
    build_K,
    build_K0,
)

from conftest import make_graph, path3


K4_H_SPECTRUM = [2, 1] + [complex(-0.5, s * math.sqrt(7) / 2) for s in (1, -1)] * 3


class TestBuildB:
    def test_path_is_nilpotent(self):
        b = build_B(path3())
        assert b.shape == (4, 4)
        assert not b.flags.writeable
        assert np.all(np.linalg.matrix_power(b, 4) == 0)
        ok, gap = match_spectra(eigs_general(b).values, [0, 0, 0, 0], 1e-8)
        assert ok, gap

    def test_triangle_spectrum(self):
        spec = eigs_general(build_B(complete_graph(3)))
        w = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        expected = [1, 1, w, w, w.conjugate(), w.conjugate()]
        ok, gap = match_spectra(spec.values, expected, tolerance=1e-8)
        assert ok, gap

    def test_k4_spectrum(self):
        spec = eigs_general(build_B(complete_graph(4)))
        expected = [2, 1, 1, 1, -1, -1]
        expected += [complex(-0.5, s * math.sqrt(7) / 2) for s in (1, -1)] * 3
        ok, gap = match_spectra(spec.values, expected, tolerance=1e-8)
        assert ok, gap

    @pytest.mark.parametrize("g", [
        complete_graph(4),
        path3(),
        make_graph(5, [(0, 1), (0, 2), (1, 2), (2, 3)]),  # 3 has degree 1, 4 is isolated
        sample_sbm(SbmParams(n=16, p=0.4, q=0.2, seed=3)),
    ], ids=["k4", "path3", "pendant-isolated", "sbm16"])
    def test_row_structure(self, g):
        # entry ((i,j),(k,l)) nonzero iff j=k and l != i
        b = build_B(g)
        edges = g.edges.tolist()
        darts = sorted([(i, j) for i, j in edges] + [(j, i) for i, j in edges])
        for t, (i, j) in enumerate(darts):
            for s, (k, l) in enumerate(darts):
                expected = 1.0 if j == k and l != i else 0.0
                assert b[t, s] == expected

    def test_dense_cap(self):
        with pytest.raises(TooLargeError):
            build_B(complete_graph(10), dense_cap=20)

    def test_similarity_under_vertex_relabeling(self):
        # edge order is pinned, but any relabeling gives an isospectral B
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        perm = [3, 5, 0, 2, 4, 1]
        g2 = make_graph(6, [tuple(sorted((perm[i], perm[j]))) for i, j in g.edges])
        s1 = eigs_general(build_B(g))
        s2 = eigs_general(build_B(g2))
        ok, gap = match_spectra(s1.values, s2.values, tolerance=1e-8)
        assert ok, gap


class TestBuildH:
    def test_blocks(self):
        g = complete_graph(4)
        h = build_H(g)
        n = g.n
        assert np.array_equal(h.matrix[:n, :n], g.adjacency())
        assert np.array_equal(h.matrix[:n, n:], np.eye(n) - np.diag(g.degrees))
        assert np.array_equal(h.matrix[n:, :n], np.eye(n))
        assert np.all(h.matrix[n:, n:] == 0)

    def test_empty_graph(self):
        g = make_graph(4, [])
        spec = eigs_general(build_H(g).matrix)
        ok, gap = match_spectra(spec.values, [1] * 4 + [-1] * 4, tolerance=1e-8)
        assert ok, gap

    def test_k4_determinant_identity(self):
        h = build_H(complete_graph(4))
        assert np.linalg.det(h.matrix) == pytest.approx(16.0, rel=1e-10)

    def test_det_equals_degree_product_logspace(self):
        params = SbmParams(n=24, p=0.7, q=0.5, seed=2)
        g = sample_sbm(params)
        assert g.min_degree() >= 2
        sign, logdet = np.linalg.slogdet(build_H(g).matrix)
        target = float(np.sum(np.log(g.degrees - 1.0)))
        assert abs(logdet - target) <= 1e-6 * max(abs(target), 1.0)

    def test_regular_graph_equals_h0(self):
        g = circulant(10, [1, 2])  # 4-regular
        stats = DegreeStats(alpha=4.0, beta=None, gamma=3.0)
        assert np.array_equal(build_H(g).matrix, build_H0(g, stats).matrix)

    def test_one_is_always_an_eigenvalue(self):
        params = SbmParams(n=20, p=0.5, q=0.3, seed=9)
        g = sample_sbm(params)
        spec = eigs_general(build_H(g).matrix)
        assert np.min(np.abs(spec.values - 1.0)) <= 1e-8


class TestBuildH0:
    def test_rejects_alpha_at_most_one(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            build_H0(g, DegreeStats(alpha=1.0, beta=None, gamma=0.0))

    def test_empty_graph_gamma_one(self):
        g = make_graph(4, [])
        spec = eigs_general(build_H0(g, DegreeStats(alpha=2.0, beta=None, gamma=1.0)).matrix)
        ok, gap = match_spectra(spec.values, [1j] * 4 + [-1j] * 4, tolerance=1e-8)
        assert ok, gap

    def test_closed_form_via_quadratic_roots(self):
        params = SbmParams(n=16, p=0.6, q=0.4, seed=0)
        g = sample_sbm(params)
        stats = expected_stats(params)
        lam = eigs_symmetric(g.adjacency()).values.real
        expected = [r for l in lam for r in quadratic_roots(l, -stats.gamma)]
        spec = eigs_general(build_H0(g, stats).matrix)
        ok, gap = match_spectra(spec.values, expected, tolerance=1e-6)
        assert ok, gap


class TestBuildK:
    def test_k4_reciprocal_spectrum(self):
        g = complete_graph(4)
        spec_k = eigs_general(build_K(g).matrix)
        expected = [1.0 / z for z in K4_H_SPECTRUM]
        ok, gap = match_spectra(spec_k.values, expected, tolerance=1e-8)
        assert ok, gap
        # complex reciprocals of (-1 +- i sqrt7)/2 have modulus 1/sqrt2
        cplx = spec_k.values[np.abs(spec_k.values.imag) > 1e-8]
        assert np.allclose(np.abs(cplx), 1 / math.sqrt(2), atol=1e-10)

    def test_reciprocity_random_graph(self):
        params = SbmParams(n=18, p=0.7, q=0.5, seed=3)
        g = sample_sbm(params)
        assert g.min_degree() >= 2
        spec_h = eigs_general(build_H(g).matrix)
        spec_k = eigs_general(build_K(g).matrix)
        ok, gap = match_spectra(spec_k.values, 1.0 / spec_h.values, tolerance=1e-6)
        assert ok, gap

    def test_rejects_degree_one(self):
        with pytest.raises(DegreeTooSmallError):
            build_K(path3())

    def test_k0_rejects_alpha_at_most_one(self):
        with pytest.raises(ValueError):
            build_K0(complete_graph(4), DegreeStats(alpha=0.5, beta=None, gamma=-0.5))

    def test_k0_reciprocal_of_h0(self):
        params = SbmParams(n=16, p=0.6, q=0.4, seed=5)
        g = sample_sbm(params)
        stats = expected_stats(params)
        spec_h0 = eigs_general(build_H0(g, stats).matrix)
        spec_k0 = eigs_general(build_K0(g, stats).matrix)
        ok, gap = match_spectra(spec_k0.values, 1.0 / spec_h0.values, tolerance=1e-6)
        assert ok, gap


class TestBetheHessian:
    def test_r_one_is_laplacian(self):
        g = complete_graph(4)
        m = bethe_hessian(g, 1.0)
        lap = np.diag(g.degrees.astype(float)) - g.adjacency()
        assert np.array_equal(m, lap)
        assert eigs_symmetric(m).values.real[0] == pytest.approx(0.0, abs=1e-12)

    def test_r_minus_one_is_signless_laplacian(self):
        g = complete_graph(4)
        m = bethe_hessian(g, -1.0)
        assert np.array_equal(
            m, np.diag(g.degrees.astype(float)) + g.adjacency()
        )

    def test_exactly_symmetric(self):
        params = SbmParams(n=30, p=0.5, q=0.2, seed=1)
        g = sample_sbm(params)
        m = bethe_hessian(g, 1.7320508)
        assert np.array_equal(m, m.T)
        assert not m.flags.writeable

    def test_fig1_two_negative_eigenvalues(self, fig1_instance):
        g, stats = fig1_instance
        m = bethe_hessian(g, stats.alpha / stats.beta)
        vals = eigs_symmetric(m).values.real
        assert int(np.count_nonzero(vals < 0)) == 2
