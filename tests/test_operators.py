import math
import tracemalloc

import numpy as np
import pytest

from nbspec.eig import eigs_general, eigs_symmetric, match_spectra, quadratic_roots
from nbspec.graphgen import (
    DegreeStats,
    Graph,
    SbmParams,
    circulant,
    complete_graph,
    expected_stats,
    sample_sbm,
)
from nbspec.operators import (
    DegreeTooSmallError,
    QepPair,
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

# the points at which verify's Ihara-Bass and reciprocity checks compare determinants
IHARA_BASS_Z = 2.5 * np.exp(1j * np.array([0.3, 1.7, 2.9]))


def _random_pencil(seed, diagonal_x=False):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(1, 9))
    x = np.diag(rng.uniform(0.5, 2.0, n)) if diagonal_x else rng.standard_normal((n, n))
    return QepPair(rng.standard_normal((n, n)), x)


def _sbm_pencils():
    """H, K, H0 and K0 of a small SBM of min degree >= 2."""
    params = SbmParams(n=18, p=0.7, q=0.5, seed=3)
    g, stats = sample_sbm(params), expected_stats(params)
    assert g.min_degree() >= 2
    return {"H": build_H(g), "K": build_K(g), "H0": build_H0(g, stats), "K0": build_K0(g, stats)}


def _det_gap(sign_logdet_1, sign_logdet_2):
    """max |det_1 / det_2 - 1| of two ``slogdet`` results."""
    (s1, l1), (s2, l2) = sign_logdet_1, sign_logdet_2
    return float(np.abs(s1 / s2 * np.exp(l1 - l2) - 1).max())


class TestQepPair:
    @pytest.mark.parametrize("pair", [
        *(_random_pencil(seed) for seed in range(4)),
        *_sbm_pencils().values(),
    ], ids=[*(f"random-{seed}" for seed in range(4)), *_sbm_pencils()])
    def test_linearization_identity(self, pair):
        # det(zI - [[A, X], [I, 0]]) = det(z^2 I - zA - X)
        z = IHARA_BASS_Z[:, None, None]
        m = pair.matrix
        lhs = np.linalg.slogdet(z * np.eye(len(m)) - m)
        assert _det_gap(lhs, np.linalg.slogdet(pair.at(IHARA_BASS_Z))) <= 1e-10

    def test_at_scalar_and_stack(self):
        pair = _random_pencil(7)
        stack = pair.at(IHARA_BASS_Z)
        assert stack.shape == (3, *pair.a_block.shape)
        for k, z in enumerate(IHARA_BASS_Z):
            assert np.array_equal(stack[k], pair.at(z))
        q = _sbm_pencils()["H"].at(0.7)
        assert np.array_equal(q, q.T)

    @pytest.mark.parametrize("seed", range(4))
    def test_reciprocal_pencil_identity(self, seed):
        # Q_rec(z) = -z^2 X^-1 Q(1/z), entry by entry
        pair = _random_pencil(seed, diagonal_x=True)
        rec = pair.reciprocal()
        z = IHARA_BASS_Z[:, None, None]
        expected = -z * z * (pair.at(1.0 / IHARA_BASS_Z) / np.diagonal(pair.x_block)[:, None])
        assert np.allclose(rec.at(IHARA_BASS_Z), expected, rtol=0, atol=1e-12)

    def test_k_and_k0_are_the_reciprocals_of_h_and_h0(self):
        params = SbmParams(n=18, p=0.7, q=0.5, seed=3)
        g, stats = sample_sbm(params), expected_stats(params)
        k, k0 = build_K(g), build_K0(g, stats)
        # the closed forms they had before they were derived from H and H0
        inv = 1.0 / (g.degrees - 1.0)
        assert np.array_equal(k.a_block, inv[:, None] * g.adjacency())
        assert np.array_equal(k.x_block, -np.diag(inv))
        assert np.array_equal(k0.a_block, g.adjacency() / stats.gamma)
        assert np.array_equal(k0.x_block, -np.eye(g.n) / stats.gamma)

    def test_reference_pencils_reciprocity(self):
        # Spec(K0) = 1/Spec(H0), as a determinant identity and as spectra:
        # det Q_K0(z) gamma^n = z^(2n) det Q_H0(1/z), with det(-X_H0) = gamma^n
        pencils = _sbm_pencils()
        h0, k0 = pencils["H0"], pencils["K0"]
        n, gamma = len(h0.a_block), -h0.x_block[0, 0]
        sign_k, log_k = np.linalg.slogdet(k0.at(IHARA_BASS_Z))
        lhs = (sign_k, log_k + n * np.log(gamma) - 2 * n * np.log(IHARA_BASS_Z))
        assert _det_gap(lhs, np.linalg.slogdet(h0.at(1.0 / IHARA_BASS_Z))) <= 1e-10
        ok, gap = match_spectra(k0.spectrum(), 1.0 / h0.spectrum(), tolerance=1e-10)
        assert ok, gap

    @pytest.mark.parametrize("x", [
        1.5 * np.eye(5) + 0.1 * np.random.default_rng(0).uniform(-1, 1, (5, 5)),  # cI + E
        np.diag([1.0, -2.0, 0.0, 3.0, 0.5]),
    ], ids=["not-diagonal", "singular"])
    def test_reciprocal_rejects(self, x):
        with pytest.raises(ValueError, match="diagonal, nonsingular"):
            QepPair(np.ones((5, 5)), x).reciprocal()

    def test_reciprocal_rejects_h_with_degree_one(self):
        # X = I - D is 0 at a degree-1 vertex
        with pytest.raises(ValueError, match="diagonal, nonsingular"):
            build_H(path3()).reciprocal()

    def test_linearization_is_fresh_and_fortran_ordered(self):
        pair = _random_pencil(5)
        n = len(pair.a_block)
        m = pair.matrix
        assert m.flags.f_contiguous and m.flags.writeable and m is not pair.matrix
        assert np.array_equal(m, np.block([[pair.a_block, pair.x_block],
                                           [np.eye(n), np.zeros((n, n))]]))

    def test_dense_solve_holds_only_the_linearization(self):
        # beside H's blocks: the 2n x 2n linearization (4 n^2), solved in
        # place, and dgeev's workspace; no identity, and no copy for LAPACK
        g = sample_sbm(SbmParams(n=300, p=0.2, q=0.07, seed=1))
        h = build_H(g)
        h.spectrum()  # warm-up
        tracemalloc.start()
        try:
            h.spectrum()
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 4.5 * 8 * g.n ** 2

    def test_empty_pencil(self):
        h = build_H(Graph(n=0, edges=np.zeros((0, 2)), labels=[]))
        assert h.symmetric_scalar
        spec = h.spectrum()
        assert spec.shape == (0,) and spec.dtype == np.complex128
        assert not spec.flags.writeable
        assert h.at(1.5).shape == (0, 0)
        assert h.at(IHARA_BASS_Z).shape == (3, 0, 0)


class TestBuildB:
    def test_path_is_nilpotent(self):
        b = build_B(path3())
        assert b.shape == (4, 4)
        assert not b.flags.writeable
        assert np.all(np.linalg.matrix_power(b, 4) == 0)
        ok, gap = match_spectra(eigs_general(b), [0, 0, 0, 0], 1e-8)
        assert ok, gap

    def test_triangle_spectrum(self):
        spec = eigs_general(build_B(complete_graph(3)))
        w = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
        expected = [1, 1, w, w, w.conjugate(), w.conjugate()]
        ok, gap = match_spectra(spec, expected, tolerance=1e-8)
        assert ok, gap

    def test_k4_spectrum(self):
        spec = eigs_general(build_B(complete_graph(4)))
        expected = [2, 1, 1, 1, -1, -1]
        expected += [complex(-0.5, s * math.sqrt(7) / 2) for s in (1, -1)] * 3
        ok, gap = match_spectra(spec, expected, tolerance=1e-8)
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
        # K64 needs 2 * 2016 = 4032 rows, over the 4000-row cap
        with pytest.raises(TooLargeError):
            build_B(complete_graph(64))

    def test_similarity_under_vertex_relabeling(self):
        # edge order is pinned, but any relabeling gives an isospectral B
        g = make_graph(6, [(0, 1), (1, 2), (2, 0), (2, 3), (3, 4), (4, 5), (5, 3)])
        perm = [3, 5, 0, 2, 4, 1]
        g2 = make_graph(6, [tuple(sorted((perm[i], perm[j]))) for i, j in g.edges])
        s1 = eigs_general(build_B(g))
        s2 = eigs_general(build_B(g2))
        ok, gap = match_spectra(s1, s2, tolerance=1e-8)
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
        ok, gap = match_spectra(spec, [1] * 4 + [-1] * 4, tolerance=1e-8)
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
        stats = DegreeStats(alpha=4.0, beta=None)
        assert np.array_equal(build_H(g).matrix, build_H0(g, stats).matrix)

    def test_one_is_always_an_eigenvalue(self):
        params = SbmParams(n=20, p=0.5, q=0.3, seed=9)
        g = sample_sbm(params)
        spec = eigs_general(build_H(g).matrix)
        assert np.min(np.abs(spec - 1.0)) <= 1e-8


class TestBuildH0:
    def test_rejects_alpha_at_most_one(self):
        g = complete_graph(4)
        with pytest.raises(ValueError):
            build_H0(g, DegreeStats(alpha=1.0, beta=None))

    def test_empty_graph_gamma_one(self):
        g = make_graph(4, [])
        spec = eigs_general(build_H0(g, DegreeStats(alpha=2.0, beta=None)).matrix)
        ok, gap = match_spectra(spec, [1j] * 4 + [-1j] * 4, tolerance=1e-8)
        assert ok, gap

    def test_closed_form_via_quadratic_roots(self):
        params = SbmParams(n=16, p=0.6, q=0.4, seed=0)
        g = sample_sbm(params)
        stats = expected_stats(params)
        lam = eigs_symmetric(g.adjacency())
        expected = [r for l in lam for r in quadratic_roots(l, -stats.gamma)]
        spec = eigs_general(build_H0(g, stats).matrix)
        ok, gap = match_spectra(spec, expected, tolerance=1e-6)
        assert ok, gap


class TestBuildK:
    def test_k4_reciprocal_spectrum(self):
        g = complete_graph(4)
        spec_k = eigs_general(build_K(g).matrix)
        expected = [1.0 / z for z in K4_H_SPECTRUM]
        ok, gap = match_spectra(spec_k, expected, tolerance=1e-8)
        assert ok, gap
        # complex reciprocals of (-1 +- i sqrt7)/2 have modulus 1/sqrt2
        cplx = spec_k[np.abs(spec_k.imag) > 1e-8]
        assert np.allclose(np.abs(cplx), 1 / math.sqrt(2), atol=1e-10)

    def test_reciprocity_random_graph(self):
        params = SbmParams(n=18, p=0.7, q=0.5, seed=3)
        g = sample_sbm(params)
        assert g.min_degree() >= 2
        spec_h = eigs_general(build_H(g).matrix)
        spec_k = eigs_general(build_K(g).matrix)
        ok, gap = match_spectra(spec_k, 1.0 / spec_h, tolerance=1e-6)
        assert ok, gap

    def test_rejects_degree_one(self):
        with pytest.raises(DegreeTooSmallError):
            build_K(path3())

    def test_k0_rejects_alpha_at_most_one(self):
        with pytest.raises(ValueError):
            build_K0(complete_graph(4), DegreeStats(alpha=0.5, beta=None))

    def test_k0_reciprocal_of_h0(self):
        params = SbmParams(n=16, p=0.6, q=0.4, seed=5)
        g = sample_sbm(params)
        stats = expected_stats(params)
        spec_h0 = eigs_general(build_H0(g, stats).matrix)
        spec_k0 = eigs_general(build_K0(g, stats).matrix)
        ok, gap = match_spectra(spec_k0, 1.0 / spec_h0, tolerance=1e-6)
        assert ok, gap


class TestBetheHessian:
    def test_r_one_is_laplacian(self):
        g = complete_graph(4)
        m = bethe_hessian(g, 1.0)
        lap = np.diag(g.degrees.astype(float)) - g.adjacency()
        assert np.array_equal(m, lap)
        assert eigs_symmetric(m)[0] == pytest.approx(0.0, abs=1e-12)

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

    @pytest.mark.parametrize("r", [1.7320508, 0.3, -2.5])
    def test_is_h_at_r(self, r):
        g = sample_sbm(SbmParams(n=30, p=0.5, q=0.2, seed=1))
        m = bethe_hessian(g, r)
        assert np.array_equal(m, build_H(g).at(r))
        deformed = (r * r - 1.0) * np.eye(g.n) + np.diag(g.degrees * 1.0) - r * g.adjacency()
        assert np.allclose(m, deformed, rtol=0, atol=1e-12)

    def test_fig1_two_negative_eigenvalues(self, fig1_instance):
        g, stats = fig1_instance
        m = bethe_hessian(g, stats.alpha / stats.beta)
        vals = eigs_symmetric(m)
        assert int(np.count_nonzero(vals < 0)) == 2
