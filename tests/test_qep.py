import collections
import dataclasses
import json
import math
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from nbspec.analysis import check_qep_trials
from nbspec.eig import eigs_general
from nbspec.graphgen import (
    DegreeStats,
    SbmParams,
    circulant,
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

    @pytest.mark.parametrize("m", [[[1.0, math.inf], [0.0, 1.0]], [[math.nan]]], ids=["inf", "nan"])
    def test_non_finite_entries_raise(self, m):
        # no finite number bounds the norm; NaN is no upper bound
        with pytest.raises(ValueError, match="non-finite"):
            spectral_norm(np.array(m))


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
        eps = math.sqrt(spectral_norm(h0.x_block - h.x_block))
        maxdev, _, _ = degree_concentration(g, stats)
        assert eps == pytest.approx(math.sqrt(maxdev), rel=1e-6)

    def test_k4_regular_graph_zero_radius(self):
        g = complete_graph(4)
        h = build_H(g)
        x = 2.0 * np.eye(4)  # alpha - 1 = 2 for the 3-regular K4
        assert qep_bound(QepPair(g.adjacency(), -x), h).epsilon_global == 0.0

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
        assert report.epsilon_global == math.sqrt(spectral_norm(l0.x_block - l1.x_block))

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

    def test_non_finite_spectrum_raises(self):
        l0, l1 = _k_pencils(3)
        spec = l1.spectrum().copy()
        spec[5] = complex(math.nan, 0.0)
        with pytest.raises(ValueError, match="non-finite"):
            qep_bound(l0, l1, spec=spec)

    def test_non_finite_reference_spectrum_raises(self):
        # a NaN nu would otherwise be every mu's nearest, at distance NaN
        l0 = QepPair(np.diag([1.0, 2.0]), -np.eye(2))
        l1 = QepPair(np.diag([1.0, 2.0]), -np.eye(2) + 0.01)
        spec0 = np.concatenate(([complex(math.nan, 0.0)], l0.spectrum()[1:]))
        with pytest.raises(ValueError, match="non-finite"):
            qep_bound(l0, l1, spec0=spec0)

    def test_report_json_round_trip(self):
        rng = np.random.default_rng(7)
        l0, l1, _ = random_instance(rng, n=4)
        report = qep_bound(l0, l1)
        doc = json.loads(report.to_json())
        assert doc["kappa"] == report.kappa
        assert doc["epsilon_global"] == report.epsilon_global
        assert len(doc["per_mu"]) == len(report.per_mu)


def _json_dumps(report):
    """``json.dumps`` with ``indent=2`` of the report's document, as ``to_json`` must write it."""
    return json.dumps({
        "kappa": report.kappa,
        "epsilon_global": report.epsilon_global,
        "per_mu": [
            {"mu": [mu.real, mu.imag], "epsilon": eps, "matched_nu": [nu.real, nu.imag],
             "distance": dist, "norm_method": method}
            for (mu, eps, nu, dist), method in zip(report.per_mu, report.norm_methods)
        ],
    }, indent=2)


class TestReportJson:
    """``to_json`` writes json.dumps's bytes, whatever the values."""

    VALUES = [-0.0, 5e-324, 1e16, 1e-5, math.nan, math.inf, -math.inf, 0.1, 1.0, -2.5e-310]

    def test_every_value_in_every_field(self):
        methods = ["diagonal", "gram", "envelope"]
        per_mu, n = [], len(self.VALUES)
        for i, x in enumerate(self.VALUES):
            for k in range(n):  # each value beside every other, in each field
                y = self.VALUES[(i + k) % n]
                per_mu.append((complex(x, y), y, complex(y, x), x))
        report = QepBoundReport(per_mu, tuple(methods[i % 3] for i in range(len(per_mu))))
        assert report.to_json() == _json_dumps(report)
        for x in self.VALUES:  # epsilon_global takes each value too
            one = QepBoundReport([(complex(x, x), x, complex(x, x), x)], ("gram",))
            assert one.to_json() == _json_dumps(one)

    def test_numpy_floats(self):
        report = QepBoundReport([(1j, np.float64(1e16), complex(np.float64(0.1)), np.float64(-0.0))],
                                ("envelope",))
        assert report.to_json() == _json_dumps(report)

    def test_no_rows(self):
        report = QepBoundReport(per_mu=[], norm_methods=())
        assert report.to_json() == _json_dumps(report) == \
            '{\n  "kappa": 1.0,\n  "epsilon_global": 0.0,\n  "per_mu": []\n}'

    @pytest.mark.parametrize("pencils", [
        lambda: _k_pencils(100000),
        lambda: _h_pencils(seed=100000),
    ], ids=["certify-k", "certify-h"])
    def test_reports_of_the_first_bench_ops(self, pencils):
        report = qep_bound(*pencils())
        assert report.to_json() == _json_dumps(report)


def _lapack_radii(l0, l1, report):
    """The radii of ``report`` recomputed with LAPACK's 2-norm of each E(mu), once per
    conjugate pair: E(conj mu) = conj E(mu) for real blocks."""
    xd = l0.x_block - l1.x_block
    ad = l0.a_block - l1.a_block
    if ad.any():
        norm = {}
        for mu, _, _, _ in report.per_mu:
            key = complex(mu.real, abs(mu.imag))
            if key not in norm:
                norm[key] = np.linalg.norm(xd + key * ad, 2)
        norms = [norm[complex(mu.real, abs(mu.imag))] for mu, _, _, _ in report.per_mu]
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


def _row_scaled_pencils(n=60):
    """(A, -cI) against (A - D A, -cI + D) for a random symmetric A and diagonal D:
    E(mu) = -D (I - mu A), as for K, but the mu fill the plane rather than a ring."""
    rng = np.random.default_rng(22)
    a = _symmetric_uniform(rng, n)
    x = -rng.uniform(0.5, 2.0) * np.eye(n)
    d = np.diag(rng.uniform(-0.1, 0.1, n))
    return QepPair(a, x), QepPair(a - d @ a, x + d)


def _shifted_a_pencils(n=50):
    """(I, -0.6 I) against (1.1 I, -diag(d)): the complex mu share Re mu = 0.55 up to
    rounding, and four real mu (two d_i = -1) lie far from it."""
    d = np.random.default_rng(16).uniform(0.32, 1.0, n)
    d[:2] = -1.0
    return QepPair(np.eye(n), -0.6 * np.eye(n)), QepPair(1.1 * np.eye(n), -np.diag(d))


def _h_pencils(seed=1):
    params = fig1_params("right", n=400, seed=seed)
    g = sample_sbm(params)
    return build_H0(g, expected_stats(params)), build_H(g)


# how far above the theorem's radius an "envelope" radius may lie
ENVELOPE_FACTOR = 1.02


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
            # epsilon_global is attained at mu = 1, outside the box
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
        # the shared-A case: one radius sqrt(||X0 - X||) for every mu
        h0, h = _h_pencils()
        eps = qep_bound(h0, h).epsilon_global
        exact = math.sqrt(np.linalg.norm(h0.x_block - h.x_block, 2))
        assert eps == math.sqrt(spectral_norm(h0.x_block - h.x_block))
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
        # the band check sends every mu to its exact solve
        assert set(self._assert_sound_and_tight(l0, l1).norm_methods) == {"gram"}

    def test_row_scaled_pencil_filling_the_plane(self):
        # the structure of a K pencil, but no thin band of |mu|^2: the band check fails
        report = self._assert_sound_and_tight(*_row_scaled_pencils())
        assert set(report.norm_methods) == {"gram"}

    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(half=st.integers(20, 80), p=st.floats(0.2, 0.4), ratio=st.floats(0.1, 0.6),
           seed=st.integers(0, 2 ** 32 - 1))
    def test_drawn_k_pencils(self, half, p, ratio, seed):
        params = SbmParams(n=2 * half, p=p, q=ratio * p, seed=seed)
        g = sample_sbm(params)
        assume(g.degrees.min() >= 2)
        self._assert_sound_and_tight(build_K0(g, expected_stats(params)), build_K(g))

    def test_pencil_with_one_real_part_in_the_bulk(self):
        # the grid's width must not come from the rounding noise of Re mu
        l0, l1 = _shifted_a_pencils()
        mus = l1.spectrum()
        assert 0 < np.ptp(mus[mus.imag != 0].real) < 1e-14
        self._assert_envelope_covers(l0, l1)

    def test_every_interpolated_key_lies_in_its_cell(self):
        # the computed key lies in its cell, and the exact |mu|^2 within gamma_2 |mu|^2 of it
        l0, l1 = _k_pencils(100000)
        mus = np.asarray(l1.spectrum(), dtype=complex)
        gram = qep._Gram(l0.x_block - l1.x_block, l0.a_block - l1.a_block)
        keys = gram.keys(mus)
        edges, inside, cell = qep._key_grid(keys, [3, 1])
        _, methods = gram.envelope(mus)
        assert (methods == "envelope").tolist() == inside.tolist()
        for e, i, v in zip(edges, cell.T, keys[inside].T):
            assert np.all(e[i] <= v) and np.all(v <= e[i + 1])
        on_edge = 0
        for mu, (_, r) in zip(mus[inside], keys[inside]):
            exact = Fraction(mu.real) ** 2 + Fraction(mu.imag) ** 2
            assert abs(exact - Fraction(r)) <= Fraction(qep._gamma(2)) * exact
            on_edge += r in edges[1] and exact != r
        assert on_edge  # a |mu|^2 that rounds onto an edge of the band

    @pytest.mark.parametrize("v", [
        [1.0, 1.0 + 2.0 ** -52], [0.0, 5e-324], [3.0, 3.0, 3.0], [-2.0, 1e300],
        [0.025019093320933397, 0.07944276019391511, 0.055137138049038706, -0.05495856200188163,
         -0.039966743017754915, 0.07471068907925238, -0.09894693908688507],
    ], ids=["ulp", "subnormal", "equal", "wide", "seven"])
    def test_key_grid_brackets_awkward_values(self, v):
        v = np.array(v)
        edges, inside, cell = qep._key_grid(v[:, None], [3])
        assert np.all(np.diff(edges[0]) >= 0) and inside.any()
        e, i = edges[0], cell[:, 0]
        assert np.all(e[i] <= v[inside]) and np.all(v[inside] <= e[i + 1])

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


def _regular_pencils():
    """(H0, H) of the 4-regular circulant on 12 vertices: H = H0, so every mu is some nu."""
    g = circulant(12, [1, 2])
    return build_H0(g, DegreeStats(alpha=4.0, beta=None)), build_H(g)


@pytest.mark.parametrize("pencils", [_regular_pencils, _k_pencils, _h_pencils],
                         ids=["regular", "k-n100", "h-n400"])
def test_matching_is_the_loop_over_mu(pencils):
    # each row's nearest nu and distance are those of a loop over mu, taking
    # the first of equally near nu: the bound_<pair>.json bytes are the same
    l0, l1 = pencils()
    spec0, spec = l0.spectrum(), l1.spectrum()
    report = qep_bound(l0, l1, spec0=spec0, spec=spec)
    per_mu = []
    for mu, (_, eps, _, _) in zip(spec, report.per_mu):
        gaps = np.abs(spec0 - mu)
        k = int(gaps.argmin())
        per_mu.append((complex(mu), eps, complex(spec0[k]), float(gaps[k])))
    assert report.to_json() == QepBoundReport(per_mu, report.norm_methods).to_json()
    if pencils is _regular_pencils:
        assert all(dist == 0.0 for _, _, _, dist in report.per_mu)
        assert max(np.count_nonzero(spec0 == mu) for mu in spec) >= 2  # ties occur
    if pencils is _h_pencils:
        assert spec.size > qep._NEAREST_BLOCK // spec0.size  # more than one block of rows


def test_matching_takes_the_first_of_equally_near_nu():
    nearest, dists = qep._nearest(np.array([0j, 2j]), np.array([1, -1, 1j, -1j]))
    assert nearest.tolist() == [0, 2]
    assert dists.tolist() == [1.0, 1.0]


class TestPerturbationNorms:
    def _count_solves(self, monkeypatch, x_diff, a_diff, mus):
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or solve(m))
        qep._Gram(x_diff, a_diff).exact(mus)
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
        # 8 corners, and one for each of the 5 conjugate classes outside the
        # box, where the Gram expansion alone needs one per conjugate class
        # (the certify-K op of --seed 100000)
        l0, l1 = _k_pencils(100000)
        spec0, spec = l0.spectrum(), l1.spectrum()
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or solve(m))
        qep_bound(l0, l1, spec0=spec0, spec=spec)
        classes = len({(mu.real, abs(mu.imag)) for mu in spec})
        assert len(calls) == 13 < classes / 7

    def test_pencil_off_the_k_structure_takes_few_solves(self, monkeypatch):
        # the grid's corners serve every mu in the box whatever the pencil
        l0, l1 = _real_gram_pencils()
        spec0, spec = l0.spectrum(), l1.spectrum()
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or solve(m))
        qep_bound(l0, l1, spec0=spec0, spec=spec)
        classes = len({(mu.real, abs(mu.imag)) for mu in spec})
        assert 0 < len(calls) < classes / 3

    @pytest.mark.parametrize("pencils, solves", [(_complex_gram_pencils, 97), (_row_scaled_pencils, 105)],
                             ids=["complex-gram", "row-scaled"])
    def test_failing_band_check_solves_corners_then_each_class(self, monkeypatch, pencils, solves):
        # the band check needs the 16 corner bounds; once it fails, every mu
        # takes its exact solve, one per conjugate class
        l0, l1 = pencils()
        spec0, spec = l0.spectrum(), l1.spectrum()
        calls = []
        solve = np.linalg.eigvalsh
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda m: calls.append(m) or solve(m))
        qep_bound(l0, l1, spec0=spec0, spec=spec)
        assert len(calls) == solves == 16 + len({(mu.real, abs(mu.imag)) for mu in spec})

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
        norms = qep._Gram(xd, ad).exact(mus)
        exact = np.array([np.linalg.norm(xd + mu * ad, 2) for mu in mus])
        assert np.all(norms >= exact)
        assert np.all(norms <= exact * (1 + 1e-12))
