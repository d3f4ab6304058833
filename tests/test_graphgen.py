import dataclasses
import io
import math

import numpy as np
import pytest
from hypothesis import example, given

from nbspec.graphgen import (
    DegreeStats,
    InvalidParameters,
    SbmParams,
    circulant,
    degree_concentration,
    expected_stats,
    read_edge_list,
    sample_sbm,
    write_edge_list,
)

from conftest import edge_sets, make_graph


FIG1_N = 1000
FIG1_P = 3 * math.log(FIG1_N) ** 2 / FIG1_N  # ~0.143151
FIG1_Q = math.log(FIG1_N) ** 2 / FIG1_N  # ~0.047717


class TestParams:
    def test_rejects_odd_n(self):
        with pytest.raises(InvalidParameters):
            SbmParams(n=5, p=0.5, q=0.2)

    def test_rejects_small_n(self):
        with pytest.raises(InvalidParameters):
            SbmParams(n=2, p=0.5, q=0.2)

    @pytest.mark.parametrize("p,q", [(0.0, 0.2), (1.0, 0.2), (0.5, -0.1), (0.5, 1.5)])
    def test_rejects_bad_probabilities(self, p, q):
        with pytest.raises(InvalidParameters):
            SbmParams(n=10, p=p, q=q)


class TestExpectedStats:
    def test_fig1_values(self):
        stats = expected_stats(SbmParams(n=FIG1_N, p=FIG1_P, q=FIG1_Q))
        assert stats.alpha == pytest.approx(95.29101473962824, abs=1e-9)
        assert stats.beta == pytest.approx(47.57393174532266, abs=1e-9)
        assert stats.alpha / stats.beta == pytest.approx(2.003009027081244, abs=1e-9)
        assert stats.gamma == stats.alpha - 1.0

    @pytest.mark.parametrize("alpha, beta", [(2.0, None), (3.0, 1.5), (95.29101473962824, 47.5),
                                             (0.5, None), (7.0 / 3.0, 0.1)])
    def test_gamma_is_alpha_minus_one(self, alpha, beta):
        stats = DegreeStats(alpha=alpha, beta=beta)
        assert stats.gamma == alpha - 1.0
        assert [f.name for f in dataclasses.fields(DegreeStats)] == ["alpha", "beta"]

    def test_erdos_renyi_beta_undefined(self):
        stats = expected_stats(SbmParams(n=100, p=0.3, q=0.3))
        assert stats.beta is None

    def test_beta_zero_boundary(self):
        # p = q + 2p/n makes beta vanish exactly
        n, p = 100, 0.4
        q = p - 2 * p / n
        stats = expected_stats(SbmParams(n=n, p=p, q=q))
        assert stats.beta == pytest.approx(0.0, abs=1e-15)

    def test_swapped_sign_convention(self):
        a = expected_stats(SbmParams(n=200, p=0.3, q=0.1))
        b = expected_stats(SbmParams(n=200, p=0.1, q=0.3))
        # alpha keeps its -p correction on the intra-block probability
        assert b.alpha == pytest.approx(200 * 0.4 / 2 - 0.1)
        # q > p uses beta = n(q-p)/2 + p, keeping beta positive
        assert b.beta == pytest.approx(200 * 0.2 / 2 + 0.1)
        assert a.beta > 0 and b.beta > 0


class TestSampling:
    def test_reproducible(self):
        params = SbmParams(n=60, p=0.3, q=0.1, seed=7)
        assert np.array_equal(sample_sbm(params).edges, sample_sbm(params).edges)

    def test_seed_changes_graph(self):
        a = sample_sbm(SbmParams(n=60, p=0.3, q=0.1, seed=7))
        b = sample_sbm(SbmParams(n=60, p=0.3, q=0.1, seed=8))
        assert not np.array_equal(a.edges, b.edges)

    @pytest.mark.parametrize("n", [4, 6, 16, 350, 800])
    @pytest.mark.parametrize("p, q", [(0.3, 0.1), (0.1, 0.3), (0.2, 0.2)],
                             ids=["p>q", "p<q", "p=q"])
    def test_edges_equal_the_triu_indices_sampler(self, n, p, q):
        def reference(params):
            # one uniform per pair of np.triu_indices, thresholded by block
            rng = np.random.Generator(np.random.PCG64(params.seed))
            iu, ju = np.triu_indices(params.n, k=1)
            u = rng.random(iu.size)
            half = params.n // 2
            thresh = np.where((iu < half) == (ju < half), params.p, params.q)
            keep = u < thresh
            return np.column_stack((iu[keep], ju[keep]))

        for seed in (0, 1, 7, 12345):
            params = SbmParams(n=n, p=p, q=q, seed=seed)
            assert np.array_equal(sample_sbm(params).edges, reference(params))

    def test_dense_limit_is_complete(self):
        g = sample_sbm(SbmParams(n=4, p=1 - 1e-12, q=1 - 1e-12, seed=0))
        assert g.num_edges == 6
        assert np.all(g.degrees == 3)

    def test_sparse_limit_is_empty(self):
        g = sample_sbm(SbmParams(n=4, p=1e-12, q=1e-12, seed=0))
        assert g.num_edges == 0

    def test_no_self_loops_or_duplicates(self):
        g = sample_sbm(SbmParams(n=40, p=0.5, q=0.3, seed=3))
        assert np.all(g.edges[:, 0] < g.edges[:, 1])
        assert len(np.unique(g.edges, axis=0)) == g.num_edges

    def test_degrees_consistent(self):
        g = sample_sbm(SbmParams(n=40, p=0.5, q=0.3, seed=3))
        a = g.adjacency()
        assert np.array_equal(a, a.T)
        assert np.all(np.diag(a) == 0)
        assert np.array_equal(a.sum(axis=1), g.degrees)

    def test_labels_balanced(self):
        g = sample_sbm(SbmParams(n=40, p=0.5, q=0.3, seed=3))
        assert int(g.labels.sum()) == 20

    def test_fig1_edge_count_near_expectation(self):
        params = SbmParams(n=FIG1_N, p=FIG1_P, q=FIG1_Q, seed=1)
        g = sample_sbm(params)
        expected = FIG1_N * expected_stats(params).alpha / 2  # ~47646
        assert abs(g.num_edges - expected) <= 0.1 * expected

    def test_unbiased_mean_degree(self):
        # over 200 seeds at n=200 the mean degree is within 3 SE of alpha
        params0 = SbmParams(n=200, p=0.2, q=0.1, seed=0)
        stats = expected_stats(params0)
        means = []
        for seed in range(200):
            g = sample_sbm(SbmParams(n=200, p=0.2, q=0.1, seed=seed))
            means.append(2 * g.num_edges / 200)
        n, p, q = 200, 0.2, 0.1
        pairs_intra = 2 * (n // 2) * (n // 2 - 1) // 2
        pairs_inter = (n // 2) ** 2
        var_edges = pairs_intra * p * (1 - p) + pairs_inter * q * (1 - q)
        se = 2 / n * math.sqrt(var_edges / 200)
        assert abs(np.mean(means) - stats.alpha) <= 3 * se


class TestDegreeConcentration:
    def test_regular_graph_zero_deviation(self):
        g = circulant(12, [1, 2])
        max_deviation, _, concentrated = degree_concentration(g, DegreeStats(alpha=4.0, beta=None))
        assert max_deviation == 0.0
        assert concentrated

    def test_star_graph_not_concentrated(self):
        n = 20
        g = make_graph(n, [(0, j) for j in range(1, n)])
        mean_deg = 2 * g.num_edges / n
        stats = DegreeStats(alpha=mean_deg, beta=None)
        _, relative_deviation, concentrated = degree_concentration(g, stats)
        assert relative_deviation > 1.0
        assert not concentrated

    def test_fig1_sweep_bernstein_threshold(self):
        # Bernstein tail evaluated numerically: solve
        # 2 n exp(-x^2 / (2 (sigma^2 + x/3))) = 0.05 for x, then require the
        # observed max deviation under x in >= 95% of 20 seeds.
        n, p, q = FIG1_N, FIG1_P, FIG1_Q
        sigma2 = (n / 2 - 1) * p * (1 - p) + n / 2 * q * (1 - q)
        target = math.log(2 * n / 0.05)
        x = 1.0
        for _ in range(100):  # fixed-point solve of x^2 = 2 target (sigma^2 + x/3)
            x = math.sqrt(2 * target * (sigma2 + x / 3))
        stats = expected_stats(SbmParams(n=n, p=p, q=q))
        hits = 0
        for seed in range(20):
            g = sample_sbm(SbmParams(n=n, p=p, q=q, seed=seed))
            _, _, concentrated = degree_concentration(g, stats, threshold=x / stats.alpha)
            if concentrated:
                hits += 1
        assert hits >= 19


class TestSerialization:
    def test_round_trip(self):
        params = SbmParams(n=20, p=0.4, q=0.2, seed=5)
        g = sample_sbm(params)
        buf = io.StringIO()
        write_edge_list(g, buf, params)
        buf.seek(0)
        g2 = read_edge_list(buf)
        assert g2.n == g.n
        assert np.array_equal(g2.edges, g.edges)
        assert np.array_equal(g2.labels, g.labels)
        assert np.array_equal(g2.degrees, g.degrees)

    @given(edge_sets())
    @example(make_graph(5, []))
    def test_edge_array_invariants(self, g):
        a = g.adjacency()
        ref = np.zeros((g.n, g.n))
        for i, j in g.edges.tolist():
            ref[i, j] = ref[j, i] = 1.0
        assert np.array_equal(a, ref)
        assert np.array_equal(g.degrees, a.sum(axis=1))
        assert np.array_equal(a, a.T)
        assert set(np.unique(a)) <= {0.0, 1.0}
        assert np.all(np.diag(a) == 0)
        buf = io.StringIO()
        write_edge_list(g, buf)
        buf.seek(0)
        g2 = read_edge_list(buf)
        assert np.array_equal(g2.edges, g.edges)
        assert np.array_equal(g2.degrees, g.degrees)

    def test_rejects_bad_header(self):
        with pytest.raises(InvalidParameters):
            read_edge_list(io.StringIO("1 2 3\n"))

    def test_rejects_bad_labels(self):
        with pytest.raises(InvalidParameters):
            read_edge_list(io.StringIO("4 1 0 0.5 0.5\n0102\n0 1\n"))
