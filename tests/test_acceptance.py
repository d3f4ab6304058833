"""End-to-end acceptance criteria, one test per criterion.

Each test prints a single PASS/FAIL line; run with `pytest -v -s
tests/test_acceptance.py` to see them all.
"""

import math
import time

import numpy as np
import pytest
from scipy.sparse.csgraph import connected_components

from nbspec.analysis import (
    check_det_identity,
    check_eigenvalue_one,
    check_ihara_bass,
    check_qep_trials,
    classify_spectrum,
    recover_communities,
    semicircle_ks,
)
from nbspec.eig import eigs_general, eigs_symmetric, match_spectra
from nbspec.graphgen import complete_graph, er_pool, expected_stats, fig1_params, sample_sbm
from nbspec.operators import build_B, build_H, build_H0, build_K, build_K0
from nbspec.qep import qep_bound, spectral_norm


def _report(num, desc, ok):
    print(f"ACCEPTANCE {num:2d} [{'PASS' if ok else 'FAIL'}] {desc}")
    assert ok, f"criterion {num}: {desc}"


@pytest.fixture(scope="module")
def er50():
    # 50 seeded ER graphs, n <= 24, p = 0.4, min degree >= 1
    pool = []
    for i, n in enumerate((16, 20, 24)):
        need = 17 if i < 2 else 16
        pool.extend(er_pool(need, n=n, p=0.4, start_seed=100 * i))
    return pool


@pytest.fixture(scope="module")
def fig1_runs(fig1_instance):
    # seed 1 is the session's fig1_instance, whose spectra fig1_spectra holds
    runs = [fig1_instance]
    for seed in range(2, 6):
        params = fig1_params("right", seed=seed)
        g = sample_sbm(params)
        stats = expected_stats(params)
        runs.append((g, stats))
    return runs


def _connected(g):
    return g.n > 0 and connected_components(g.adjacency(), directed=False)[0] == 1


def test_criterion_1_closed_form_spectra():
    t0 = time.time()
    w3 = complex(math.cos(2 * math.pi / 3), math.sin(2 * math.pi / 3))
    expected3 = [1, 1, w3, w3, w3.conjugate(), w3.conjugate()]
    ok3, gap3 = match_spectra(
        eigs_general(build_B(complete_graph(3))), expected3, 1e-8
    )
    expected4 = [2, 1, 1, 1, -1, -1]
    expected4 += [complex(-0.5, s * math.sqrt(7) / 2) for s in (1, -1)] * 3
    ok4, gap4 = match_spectra(
        eigs_general(build_B(complete_graph(4))), expected4, 1e-8
    )
    elapsed = time.time() - t0
    _report(
        1,
        f"K3/K4 closed-form B spectra (gaps {gap3:.2e}, {gap4:.2e}; {elapsed:.2f}s)",
        ok3 and ok4 and elapsed < 1.0,
    )


def test_criterion_2_ihara_bass(er50):
    t0 = time.time()
    result = check_ihara_bass(er50)
    elapsed = time.time() - t0
    _report(
        2,
        f"Ihara-Bass on 50 ER graphs (max gap {result['max_gap']:.2e}; {elapsed:.1f}s)",
        result["status"] == "pass" and elapsed < 30.0,
    )


def test_criterion_3_determinant_identity(er50):
    result = check_det_identity(er50)
    _report(
        3,
        f"det(H) = prod(d_i - 1) in log-space (worst rel {result['max_rel']:.2e})",
        result["status"] == "pass",
    )


def test_criterion_4_eigenvalue_one(er50):
    connected = [g for g in er50 if _connected(g)]
    result = check_eigenvalue_one(connected)
    _report(
        4,
        f"eigenvalue 1 of H on {len(connected)} connected graphs "
        f"(worst gap {result['max_gap']:.2e})",
        len(connected) >= 40 and result["status"] == "pass",
    )


def test_criterion_5_figure1_reproduction(fig1_runs, fig1_spectra):
    t0 = time.time()
    good = 0
    details = []
    for i, (g, stats) in enumerate(fig1_runs):
        spec = fig1_spectra[0] if i == 0 else eigs_general(build_H(g).matrix)
        rep = classify_spectrum(spec, stats)
        scale = 2 * stats.alpha**0.75
        cond = (
            not rep.ambiguous
            and len(rep.outliers) == 2
            and len(rep.insiders) == 2
        )
        if cond:
            by_target = {round(t, 6): gap for _, t, gap in rep.outliers}
            cond = (
                by_target.get(round(stats.alpha, 6), math.inf) <= scale
                and by_target.get(round(stats.beta, 6), math.inf) <= scale
            )
            ins = {round(t, 6): gap for _, t, gap in rep.insiders}
            cond = cond and ins.get(1.0, math.inf) <= 1e-8
            cond = cond and ins.get(round(stats.alpha / stats.beta, 6), math.inf) <= 0.3
            cond = cond and rep.bulk_fraction_within(0.2 * math.sqrt(stats.alpha)) >= 0.99
        details.append(cond)
        good += bool(cond)
    elapsed = time.time() - t0
    _report(
        5,
        f"Fig-1 classification on seeds 1-5: {good}/5 fully conform ({elapsed:.0f}s)",
        good >= 4,
    )


def test_criterion_6_qep_property_suite():
    t0 = time.time()
    result = check_qep_trials(np.random.default_rng(2024), 200)
    elapsed = time.time() - t0
    _report(
        6,
        f"QEP Bauer-Fike, 200 random trials, {result['violations']} violations "
        f"({elapsed:.1f}s)",
        result["status"] == "pass" and elapsed < 60.0,
    )


def test_criterion_7_square_root_improvement():
    params = fig1_params("right", n=400)
    g = sample_sbm(params)
    stats = expected_stats(params)
    h0 = build_H0(g, stats)
    h = build_H(g)
    norm = spectral_norm(h0.x_block - h.x_block)
    eps_qep = math.sqrt(norm)  # the shared-A radius of every mu
    _, q = np.linalg.eig(h0.matrix)
    eps_classical = np.linalg.cond(q) * norm
    _report(
        7,
        f"QEP radius {eps_qep:.3f} < classical Bauer-Fike {eps_classical:.3f} at n=400",
        eps_qep < eps_classical,
    )


def test_criterion_8_semicircle():
    params = fig1_params("right", n=2000)
    g = sample_sbm(params)
    stats = expected_stats(params)
    spec_a = eigs_symmetric(g.adjacency())
    ks_a = semicircle_ks(spec_a, "A-spectrum", stats)
    spec_h0 = build_H0(g, stats).spectrum()
    ks_h = semicircle_ks(spec_h0, "H-real-parts", stats)
    _report(
        8,
        f"semicircle KS at n=2000: A {ks_a:.4f}, Re H0 {ks_h:.4f} (limit 0.05)",
        ks_a <= 0.05 and ks_h <= 0.05,
    )


def test_criterion_9_insider_existence(fig1_runs, fig1_spectra):
    g, stats = fig1_runs[0]
    k0 = build_K0(g, stats)
    k = build_K(g)
    spec0 = k0.spectrum()
    _, spec = fig1_spectra
    report = qep_bound(k0, k, spec0=spec0, spec=spec)
    eps = report.epsilon_global
    # the eigenvalues of K within eps of the K0 eigenvalue nearest 1 and nearest beta/alpha
    counts = [np.count_nonzero(np.abs(spec - spec0[np.argmin(np.abs(spec0 - target))]) <= eps)
              for target in (1.0, stats.beta / stats.alpha)]
    ok = report.all_within_bound() and counts == [1, 1]
    _report(
        9,
        f"K0/K insiders: one eigenvalue each near 1 and beta/alpha~"
        f"{stats.beta / stats.alpha:.3f} (eps {eps:.3f}, within eps: {counts[0]}/{counts[1]})",
        ok,
    )


def test_criterion_10_community_recovery(fig1_runs):
    accs = []
    for g, stats in fig1_runs:
        accs.append(recover_communities(g, stats).accuracy)
    _report(
        10,
        f"Bethe-Hessian recovery, 5 seeds, min accuracy {min(accs):.4f}",
        all(a >= 0.99 for a in accs),
    )
