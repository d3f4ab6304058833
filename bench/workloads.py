"""The four benchmark workloads: how each builds an op's argv and checks its output.

An op is one call of ``nbspec.cli.main(argv)``.  Every op of a run draws its
inputs from the run seed and the op's index, so the same seed gives the same
sequence of inputs.  Each workload also has a warm-up op: a small instance of
the same command, run first in every process so that one-off costs (lazy
imports, thread start-up) are paid, and timed for ``setup_s``.  Each check
returns a failure reason, or None when the op's output is correct.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, List, Optional

# Distinct runs draw graphs from disjoint seed ranges (each run uses far
# fewer than this many seeds).
SEED_STRIDE = 100_000

# warm-up graphs: dense enough (mean degree 14) that every vertex has degree >= 2
WARMUP_GRAPH = ["--n", "40", "--p", "0.5", "--q", "0.2"]


def _fig1_right(n: int) -> List[str]:
    """--n/--p/--q of the fig1-right family (p = 3 (log n)^2 / n, q = (log n)^2 / n)."""
    logsq = math.log(n) ** 2 / n
    return ["--n", str(n), "--p", repr(3 * logsq), "--q", repr(logsq)]


@dataclass(frozen=True)
class Op:
    """One CLI call and what its output must satisfy."""

    argv: List[str]
    check: Callable[[int, str, Path], Optional[str]]
    # classify ops: graphs classified, and how many of them show the full
    # (2 outliers, 2 insiders) picture
    graphs: int = 0
    conforming: Optional[Callable[[str], int]] = None


# --- classify-sweep -------------------------------------------------------

CLASSIFY_N = 350
CLASSIFY_SEEDS = 4


def _classify(graph: List[str], n: int, seed: int, seeds: int) -> Op:
    argv = ["classify", *graph, "--seed", str(seed), "--seeds", str(seeds)]
    expected_seeds = list(range(seed, seed + seeds))

    def check(rc: int, stdout: str, out: Path) -> Optional[str]:
        if rc != 0:
            return f"exit {rc}"
        runs = json.loads(stdout)["runs"]
        if [r["config"]["seed"] for r in runs] != expected_seeds:
            return "not one run per seed"
        for r in runs:
            c = r["classification"]
            total = len(c["outliers"]) + len(c["insiders"]) + c["bulk_count"]
            if total != 2 * n:
                return f"seed {r['config']['seed']}: {total} eigenvalues, expected {2 * n}"
            if not any(abs(i["value"] - 1.0) <= 1e-8 for i in c["insiders"]):
                return f"seed {r['config']['seed']}: no insider within 1e-8 of 1"
        return None

    return Op(argv, check, graphs=seeds, conforming=_conforming)


def _conforming(stdout: str) -> int:
    pictures = [(len(r["classification"]["outliers"]), len(r["classification"]["insiders"]))
                for r in json.loads(stdout)["runs"]]
    return pictures.count((2, 2))


def classify_op(seed: int) -> Op:
    return _classify(_fig1_right(CLASSIFY_N), CLASSIFY_N, seed, CLASSIFY_SEEDS)


def classify_warmup(seed: int) -> Op:
    return _classify(WARMUP_GRAPH, 40, seed, 2)


# --- certify-H / certify-K --------------------------------------------------

CERTIFY_H_N = 400
CERTIFY_K_N = 100
CERTIFY_K_GRAPH = ["--n", str(CERTIFY_K_N), "--p", "0.28", "--q", "0.1"]


def _bound(pair: str, graph: List[str], n: int, seed: int) -> Op:
    argv = ["bound", "--pair", pair, *graph, "--seed", str(seed)]

    def check(rc: int, stdout: str, out: Path) -> Optional[str]:
        if rc != 0:
            return f"exit {rc} (all_within_bound false)" if rc == 1 else f"exit {rc}"
        summary = json.loads(stdout)
        if summary["all_within_bound"] is not True:
            return "all_within_bound false"
        if summary["kappa"] != 1.0:
            return f"kappa {summary['kappa']!r}, expected 1.0"
        report = json.loads((out / f"bound_{pair}.json").read_text())
        if len(report["per_mu"]) != 2 * n:
            return f"{len(report['per_mu'])} per_mu rows, expected {2 * n}"
        return None

    return Op(argv, check)


def certify_h_op(seed: int) -> Op:
    return _bound("H", _fig1_right(CERTIFY_H_N), CERTIFY_H_N, seed)


def certify_k_op(seed: int) -> Op:
    return _bound("K", CERTIFY_K_GRAPH, CERTIFY_K_N, seed)


# --- verify-suite -------------------------------------------------------------


def _verify_check(rc: int, stdout: str, out: Path) -> Optional[str]:
    if rc != 0:
        return f"exit {rc}"
    if json.loads(stdout)["pass"] is not True:
        return "pass is not true"
    return None


def verify_op(seed: int, fault_inject: bool = False) -> Op:
    argv = ["verify", "--seed", str(seed)] + (["--fault-inject"] if fault_inject else [])
    return Op(argv, _verify_check)


@dataclass(frozen=True)
class Workload:
    name: str
    make_op: Callable[[int], Op]
    make_warmup: Callable[[int], Op]
    seeds_per_op: int  # graph seeds one op consumes
    nominal_op_s: float  # untraced op time on the 2-core reference machine
    # calibration kernel matching the work that dominates an op (calibration.py);
    # None when no kernel tracked the op times, which are then reported as measured
    kernel: Optional[str] = "dense"

    def trace_ops(self, seconds: float) -> int:
        """Ops per process of a traced run: about seconds / 2 of untraced work."""
        return max(1, round(seconds / 2 / self.nominal_op_s))

    def op(self, run_seed: int, index: int) -> Op:
        """The op at position ``index`` of a run with seed ``run_seed``."""
        return self.make_op(run_seed * SEED_STRIDE + index * self.seeds_per_op)

    def warmup(self, run_seed: int) -> Op:
        # seeds from the far end of the run's range, which its ops never reach
        return self.make_warmup(run_seed * SEED_STRIDE + SEED_STRIDE // 2)


WORKLOADS = {
    w.name: w
    for w in (
        # oversubscribed: the dense kernel timed between ops spread 3x more than
        # the ops themselves, so the ops are not scaled
        Workload("classify-sweep", classify_op, classify_warmup, CLASSIFY_SEEDS, 4.0,
                 kernel=None),
        Workload("certify-H", certify_h_op, lambda s: _bound("H", WARMUP_GRAPH, 40, s), 1, 1.0),
        # per-mu power iterations on 100x100 matrices: Python-bound, one core
        Workload("certify-K", certify_k_op, lambda s: _bound("K", WARMUP_GRAPH, 40, s), 1, 0.25,
                 kernel="python"),
        # verify has no size option: its warm-up is an op of its own
        Workload("verify-suite", verify_op, verify_op, 1, 0.2),
    )
}
