import cmath
import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from nbspec import cli, eig, operators
from nbspec.eig import (
    NotSymmetricError,
    eigs_general,
    eigs_symmetric,
    match_spectra,
    quadratic_roots,
    single_blas_thread,
)
from nbspec.operators import QepPair, build_H, build_H0, build_K, build_K0
from nbspec.graphgen import (
    DegreeStats,
    SbmParams,
    circulant,
    complete_graph,
    expected_stats,
    fig1_params,
    sample_sbm,
)


class TestSymmetric:
    def test_swap_matrix(self):
        spec = eigs_symmetric(np.array([[0.0, 1.0], [1.0, 0.0]]))
        assert np.allclose(spec, [-1, 1])

    def test_identity(self):
        spec = eigs_symmetric(np.eye(5))
        assert np.allclose(spec, 1.0)

    def test_k4_adjacency(self):
        spec = eigs_symmetric(complete_graph(4).adjacency())
        assert np.allclose(spec.real, [-1, -1, -1, 3], atol=1e-10)

    def test_rejects_nonsymmetric(self):
        with pytest.raises(NotSymmetricError):
            eigs_symmetric(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_one_symmetry_rule(self):
        # eigs_symmetric and QepPair accept and reject the same matrices
        tilted = np.array([[1.0, 1.0], [1.0 + 2e-12, 1.0]])
        for m, symmetric in [(np.zeros((3, 3)), True), (np.eye(2) + 1e-13 * tilted, True),
                             (tilted, False)]:
            assert QepPair(m, np.eye(len(m))).symmetric_scalar == symmetric
            if symmetric:
                eigs_symmetric(m)
            else:
                with pytest.raises(NotSymmetricError):
                    eigs_symmetric(m)

    def test_symmetry_rule_verdicts_unchanged(self):
        # the rule as first written, with three n x n temporaries
        def reference(m):
            return bool(np.abs(m - m.T).max() <= 1e-12 * np.abs(m).max())

        rng = np.random.default_rng(17)
        cases = [(np.zeros((4, 4)), True), (-np.eye(3), True),
                 (np.array([[0.0, -1.0], [-1.0, 0.0]]), True)]
        for n in (2, 5, 40):
            a = rng.standard_normal((n, n))
            s = a + a.T
            cases += [(s, True), (-np.abs(s), True)]
            for rel, symmetric in ((1e-13, True), (1e-11, False)):
                tilted = s.copy()
                tilted[0, -1] += rel * np.abs(s).max()
                cases.append((tilted, symmetric))
        for m, symmetric in cases:
            assert eig._symmetric(m) == reference(m) == symmetric

    def test_residuals(self):
        rng = np.random.default_rng(0)
        m = rng.standard_normal((30, 30))
        m = (m + m.T) / 2
        spec, vecs = eigs_symmetric(m, with_vectors=True)
        norm = np.linalg.norm(m, 2)
        for lam, v in zip(spec.real, vecs.T):
            assert np.linalg.norm(m @ v - lam * v) <= 1e-8 * norm


class TestGeneral:
    def test_rotation(self):
        spec = eigs_general(np.array([[0.0, -1.0], [1.0, 0.0]]))
        ok, gap = match_spectra(spec, [1j, -1j])
        assert ok, gap

    def test_companion_of_quadratic(self):
        # z^2 - 3z + 2 = (z-2)(z-1)
        spec = eigs_general(np.array([[3.0, -2.0], [1.0, 0.0]]))
        ok, gap = match_spectra(spec, [2.0, 1.0])
        assert ok, gap

    def test_k4_h_closed_form(self):
        spec = eigs_general(build_H(complete_graph(4)).matrix)
        expected = [2, 1] + [complex(-0.5, s * math.sqrt(7) / 2) for s in (1, -1)] * 3
        ok, gap = match_spectra(spec, expected)
        assert ok, gap

    def test_agrees_with_symmetric(self):
        rng = np.random.default_rng(1)
        m = rng.standard_normal((20, 20))
        m = (m + m.T) / 2
        s1 = eigs_symmetric(m)
        s2 = eigs_general(m)
        ok, gap = match_spectra(s1, s2, tolerance=1e-8)
        assert ok, gap

    def test_conjugation_closure(self):
        rng = np.random.default_rng(2)
        spec = eigs_general(rng.standard_normal((15, 15)))
        ok, gap = match_spectra(spec, spec.conj(), tolerance=1e-8)
        assert ok, gap

    def test_rejects_nonsquare(self):
        with pytest.raises(ValueError):
            eigs_general(np.zeros((2, 3)))

    @pytest.mark.parametrize("m", [
        [[1e308, 1e308], [1e308, 1e308]],  # LAPACK returns inf and 2.2e292
        [[1e308, 0.0], [0.0, 1e308]],  # finite eigenvalues whose sum and trace overflow
    ], ids=["infinite-eigenvalue", "overflowing-trace"])
    def test_rejects_what_it_cannot_check(self, m):
        with pytest.raises(eig.EigenSolveError):
            eigs_general(np.array(m))

    def test_nan_eigenvalue_exits_3(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(np.linalg, "eigvals", lambda m: np.full(len(m), np.nan))
        assert cli.main(["spectrum", "--n", "40", "--p", "0.5", "--q", "0.2", "--out", str(tmp_path)]) == 3
        assert capsys.readouterr().err.count("\n") == 1


class TestQuadraticRoots:
    def test_factored(self):
        assert quadratic_roots(3, -2) == (2, 1)

    def test_pure_imaginary(self):
        r1, r2 = quadratic_roots(0, -1)
        assert r1 == 1j and r2 == -1j

    def test_conjugate_pair_modulus(self):
        gamma = 5.0
        lam = 2.0  # |lam| < 2 sqrt(gamma)
        r1, r2 = quadratic_roots(lam, -gamma)
        assert r1.imag > 0 > r2.imag
        assert abs(r1) == pytest.approx(math.sqrt(gamma), rel=1e-12)
        assert r1 == pytest.approx(complex(lam / 2, math.sqrt(4 * gamma - lam**2) / 2))

    def test_harmonic_conjugates(self):
        gamma = 2.0
        lam = 5.0  # |lam| > 2 sqrt(gamma)
        r1, r2 = quadratic_roots(lam, -gamma)
        assert r1.imag == 0 and r2.imag == 0
        assert r1.real > r2.real
        assert (r1 * r2).real == pytest.approx(gamma, rel=1e-12)

    def test_no_cancellation_at_large_a(self):
        r1, r2 = quadratic_roots(1e12, 1.0)
        # small root is -x/big = -1e-12 exactly, not lost to cancellation
        assert r2.real == pytest.approx(-1e-12, rel=1e-10)

    @given(
        st.floats(-1e6, 1e6, allow_nan=False),
        st.floats(-1e6, 1e6, allow_nan=False),
    )
    def test_vieta(self, a, x):
        r1, r2 = quadratic_roots(a, x)
        scale = max(abs(a), abs(x), 1.0)
        assert abs((r1 + r2) - a) <= 1e-12 * scale
        assert abs(r1 * r2 + x) <= 1e-12 * scale

    @given(st.floats(-100, 100, allow_nan=False), st.floats(-100, 100, allow_nan=False))
    def test_roots_solve_equation(self, a, x):
        for r in quadratic_roots(a, x):
            scale = max(abs(r) ** 2, 1.0)
            assert abs(r * r - a * r - x) <= 1e-9 * scale

    def test_array_input_matches_scalar_calls(self):
        # discriminant exactly 0 (a = +-2, x = -1), a = x = 0, then mixed
        # real and complex roots; x = -1 broadcasts against a as a scalar
        a = np.array([2.0, -2.0, 0.0, 3.0, 1.0, -5.0, 0.5])
        x = np.array([-1.0, -1.0, 0.0, -2.0, -1.0, 1.0, -4.0])
        r1, r2 = quadratic_roots(a, x)
        assert r1.dtype == r2.dtype == complex and r1.shape == r2.shape == a.shape
        for i in range(a.size):
            assert (r1[i], r2[i]) == quadratic_roots(a[i], x[i])
        assert (r1[0], r2[0]) == (1, 1) and (r1[1], r2[1]) == (-1, -1)
        assert (r1[2], r2[2]) == (0, 0)
        assert np.all(r1.imag[[3, 5]] == 0) and np.all(r1.real[[3, 5]] > r2.real[[3, 5]])
        assert np.all(r1.imag[[4, 6]] > 0) and np.array_equal(r2[[4, 6]], r1[[4, 6]].conj())
        b1, b2 = quadratic_roots(a[:, None], np.array([-1.0, 0.0]))
        assert b1.shape == (a.size, 2)
        assert np.array_equal(b1[:, 0], quadratic_roots(a, -1.0)[0])
        assert np.array_equal(b2[:, 1], quadratic_roots(a, 0.0)[1])


def _closed_form_cases():
    """(name, graph, stats) on which H0 and K0 are checked against the dense companion."""
    fig1 = fig1_params("right", n=400)
    n30 = SbmParams(n=30, p=0.6, q=0.3, seed=4)
    return [
        ("fig1-right-n400", sample_sbm(fig1), expected_stats(fig1)),
        ("sbm-n30", sample_sbm(n30), expected_stats(n30)),
        ("k4", complete_graph(4), DegreeStats(alpha=3.0, beta=None)),
    ]


class TestH0ClosedForm:
    def test_spectrum_is_union_of_quadratic_roots(self):
        params = SbmParams(n=30, p=0.6, q=0.3, seed=4)
        g = sample_sbm(params)
        stats = expected_stats(params)
        spec_a = eigs_symmetric(g.adjacency())
        expected = []
        for lam in spec_a.real:
            expected.extend(quadratic_roots(lam, -stats.gamma))
        spec_h0 = eigs_general(build_H0(g, stats).matrix)
        ok, gap = match_spectra(spec_h0, expected, tolerance=1e-6)
        assert ok, gap

    def test_complex_values_on_circle(self):
        params = SbmParams(n=30, p=0.6, q=0.3, seed=4)
        g = sample_sbm(params)
        stats = expected_stats(params)
        spec = eigs_general(build_H0(g, stats).matrix)
        complex_vals = spec[np.abs(spec.imag) > 1e-8]
        assert complex_vals.size > 0
        assert np.allclose(np.abs(complex_vals), math.sqrt(stats.gamma), atol=1e-8)

    @pytest.mark.parametrize("case", _closed_form_cases(), ids=lambda case: case[0])
    def test_spectrum_matches_dense_companion(self, case, monkeypatch):
        _, g, stats = case
        pairs = [build_H0(g, stats), build_K0(g, stats)]
        dense = [eigs_general(pair.matrix) for pair in pairs]
        monkeypatch.setattr(operators, "eigs_general", None)  # the closed form needs none
        for pair, reference in zip(pairs, dense):
            closed = pair.spectrum()
            assert len(closed) == 2 * g.n
            ok, gap = match_spectra(closed, reference, tolerance=1e-10)
            assert ok, gap

    def test_double_roots_of_the_cycle(self):
        # regular:2,10 is the cycle C10 with gamma = 1: its adjacency
        # eigenvalues +-2 = +-2 sqrt(gamma) give the double roots +-1.  A dense
        # eigensolve is good to about sqrt(u) there, splitting each into a
        # pair 2e-8 apart, but the pair's centroid is good to O(u)
        g = circulant(10, [1])
        stats = DegreeStats(alpha=2.0, beta=None)
        for build in (build_H0, build_K0):
            pair = build(g, stats)
            closed = pair.spectrum()
            dense = eigs_general(pair.matrix)
            ok, gap = match_spectra(closed, dense, tolerance=1e-7)
            assert ok, gap
            for root in (1.0, -1.0):
                near_closed = closed[np.abs(closed - root) < 1e-4]
                near_dense = dense[np.abs(dense - root) < 1e-4]
                assert near_closed.size == near_dense.size == 2
                assert abs(near_closed.mean() - near_dense.mean()) <= 1e-10

    def test_other_pencils_take_the_dense_path(self):
        rng = np.random.default_rng(3)
        a = rng.standard_normal((6, 6))
        sym = (a + a.T) / 2
        g = sample_sbm(SbmParams(n=20, p=0.5, q=0.3, seed=9))
        assert len(set(g.degrees)) > 1
        pairs = [
            QepPair(a, 1.5 * np.eye(6)),  # A not symmetric
            QepPair(sym, np.diag(np.arange(1.0, 7.0))),  # X not scalar
            build_H(g),
            build_K(g),
        ]
        for pair in pairs:
            assert not pair.symmetric_scalar
            assert np.array_equal(pair.spectrum(), eigs_general(pair.matrix))
        assert QepPair(sym, 1.5 * np.eye(6)).symmetric_scalar


def _assert_read_only(values, dtype):
    assert values.dtype == dtype and values.ndim == 1
    with pytest.raises(ValueError, match="read-only"):
        values[0] = 0


class TestSpectrumType:
    """Spectra are plain read-only arrays: float64 from the symmetric solver, else complex128."""

    def test_cardinality(self):
        spec = eigs_general(np.eye(7))
        assert len(spec) == 7

    def test_symmetric_values_are_read_only_floats(self):
        values = eigs_symmetric(complete_graph(4).adjacency())
        _assert_read_only(values, np.float64)
        assert np.all(np.diff(values) >= 0)
        values, vectors = eigs_symmetric(np.diag([2.0, -1.0]), with_vectors=True)
        _assert_read_only(values, np.float64)
        assert values.tolist() == [-1.0, 2.0] and vectors.shape == (2, 2)

    def test_general_values_stay_complex_when_all_real(self):
        values = eigs_general(np.diag([3.0, 1.0, 2.0]))
        _assert_read_only(values, np.complex128)
        assert sorted(values.tolist(), key=abs) == [1, 2, 3]

    @pytest.mark.parametrize("pair", [
        QepPair(np.diag([1.0, 3.0]), -0.5 * np.eye(2)),  # closed form, real roots
        QepPair(np.array([[0.0, 1.0], [1.0, 0.0]]), -4.0 * np.eye(2)),  # closed form, complex
        QepPair(np.array([[1.0, 2.0], [0.0, 1.0]]), 0.5 * np.eye(2)),  # dense: A not symmetric
    ], ids=["closed-real", "closed-complex", "dense"])
    def test_pencil_spectrum_is_read_only_complex(self, pair):
        values = pair.spectrum()
        _assert_read_only(values, np.complex128)
        assert values.size == 4

    def test_csv_round_trip(self, tmp_path):
        spec = np.array([1 + 2j, -0.5, 3.25 - 1j])
        path = tmp_path / "s.csv"
        with open(path, "w") as fh:
            cli._write_csv(spec, fh)
        rows = path.read_text().strip().splitlines()
        assert rows == ["re,im", "-0.5,0", "1,2", "3.25,-1"]  # ascending by (re, im)
        got = [complex(float(r.split(",")[0]), float(r.split(",")[1])) for r in rows[1:]]
        ok, gap = match_spectra(np.array(got), spec, tolerance=0)
        assert ok

    def test_match_requires_equal_sizes(self):
        with pytest.raises(ValueError):
            match_spectra(np.array([1.0]), np.array([1.0, 2.0]))

    def test_match_fallback_reports_optimal_gap(self):
        # the greedy matching misses the tolerance; here its worst gap is also the optimal one
        a = np.array([0.0, 1.0])
        b = np.array([3.0, 4.0])
        ok, gap = match_spectra(a, b, tolerance=2.9)
        assert not ok
        assert gap == pytest.approx(3.0)


class TestSingleBlasThread:
    def test_limits_inside_and_restores_after(self):
        setters = eig._openblas_setters()
        if not setters:
            pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
        # each setter returns the count it replaces
        original = [set_threads(2) for set_threads in setters]
        try:
            with single_blas_thread() as pinned:
                inside = [set_threads(1) for set_threads in setters]
            after = [set_threads(2) for set_threads in setters]
        finally:
            for set_threads, count in zip(setters, original):
                set_threads(count)
        assert pinned
        assert inside == [1] * len(setters)
        assert after == [2] * len(setters)

    def test_maps_read_once_however_many_runs(self, tmp_path):
        # scipy.linalg maps scipy's own OpenBLAS between the runs; nbspec calls
        # LAPACK only through numpy, so the second run neither re-reads the
        # maps nor prints other bytes
        script = f"""
import contextlib, io, sys
from pathlib import Path
maps_opened = []
sys.addaudithook(lambda event, args: event == "open" and args[0] == "/proc/self/maps"
                 and maps_opened.append(args[0]))
from nbspec.cli import main

def run(out):
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = main(["bound", "--pair", "K", "--n", "100", "--p", "0.28", "--q", "0.1",
                     "--out", out])
    return code, stdout.getvalue().replace(out, "OUT"), Path(out, "bound_K.json").read_bytes()

first = run({str(tmp_path / "first")!r})
import scipy.linalg
second = run({str(tmp_path / "second")!r})
print(first[0], first == second, len(maps_opened))
"""
        code, same, opened = _run_python(script).split()
        assert code == "0"
        assert same == "True"
        assert int(opened) <= 1


def _run_python(script: str) -> str:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                          text=True, check=True)
    return proc.stdout
