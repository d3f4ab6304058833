"""nbspec benchmark: one workload, timed end to end or traced layer by layer.

Usage, from the root of a checkout::

    python3 bench/run.py --workload classify-sweep --seed 1 --seconds 20 --trace 0

Every workload process is a fresh interpreter (``worker.py``) that imports
``nbspec.cli`` and calls ``nbspec.cli.main(argv)`` from one thread in a
closed loop, checking every op's output.  ``--trace 0`` starts a few
``setup`` processes (import plus a small warm-up op, twice) for ``setup_s``
and one ``measure`` process for the per-op metrics, and prints the end-to-end
metrics.  ``--trace 1`` runs one untraced and one traced ``measure`` process
on the same ops and prints the per-layer metrics; for classify-sweep it adds
an informational single-threaded reference.  The thread environment is passed
through as found.  The last line of stdout is the JSON result; the lines
before it are the run record (environment manifest, sample counts, failures)
and a readable table.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Optional

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
sys.path.insert(0, str(HERE))

from calibration import at_ref  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_PROCESSES = 5
TIME_LIMIT_S = 170  # every run ends within this, workers included
THREAD_ENV = ("NBSPEC_THREADS", "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS",
              "MKL_NUM_THREADS", "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")
SINGLE_THREADED = {"NBSPEC_THREADS": "1", "OPENBLAS_NUM_THREADS": "1"}


class Deadline:
    def __init__(self, seconds: float):
        self.end = time.monotonic() + seconds

    def left(self) -> float:
        remaining = self.end - time.monotonic()
        if remaining <= 0:
            raise TimeoutError("benchmark time limit reached")
        return remaining


def run_worker(args: list, workload: str, seed: int, tmp: Path, deadline: Deadline,
               env_extra=None) -> dict:
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", workload,
           "--seed", str(seed), "--tmp", str(tmp), *args]
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    env["TMPDIR"] = str(tmp)
    env.update(env_extra or {})
    # subprocess.run kills and reaps the worker when the deadline passes
    proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                          timeout=deadline.left())
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited {proc.returncode}: {proc.stderr.strip()[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def measure(workload, seed, tmp, deadline, seconds=None, count=None, trace=False,
            env_extra=None) -> dict:
    budget = ["--seconds", repr(seconds)] if count is None else ["--ops", str(count)]
    args = ["measure", *budget] + (["--trace"] if trace else [])
    return run_worker(args, workload, seed, tmp, deadline, env_extra)


def tail(values):
    """(value, percentile) of the highest percentile with >= 10 samples beyond it."""
    n = len(values)
    if n < 20:
        return None
    k = n - 10  # ten samples lie beyond the k-th smallest
    return sorted(values)[k - 1], 100.0 * k / n


def end_to_end(setups: list, worker: dict, kernel: Optional[str]) -> tuple:
    """(gated metrics at reference speed, the same as measured on this machine)."""
    ops = worker["ops"]
    setup = [s["import_s"] + s["ops"][0]["wall"] - s["ops"][1]["wall"] for s in setups]
    measured = {
        "op_s": statistics.median(o["wall"] for o in ops),
        "cpu_s": statistics.median(o["cpu"] for o in ops),
        "setup_s": statistics.median(setup),
    }
    if kernel:
        measured["cal_s"] = statistics.median(o["cal"] for o in ops)
    metrics = {
        "op_s": statistics.median(at_ref(o["wall"], kernel, o["cal"]) for o in ops),
        "cpu_s": statistics.median(at_ref(o["cpu"], kernel, o["cal"]) for o in ops),
        "peak_rss_mb": worker["peak_rss_mb"],
        # import, plus the warm-up op's first-call excess over its second call
        "setup_s": statistics.median(
            at_ref(t, "python", s["cal"]) for t, s in zip(setup, setups)),
    }
    return metrics, measured


def per_layer(traced: dict, untraced: dict) -> dict:
    ops = traced["layers"]
    metrics = {}
    for fn in traced["functions"]:
        metrics[f"{fn}.s"] = statistics.median(o["self_s"].get(fn, 0.0) for o in ops)
        metrics[f"{fn}.share"] = 100.0 * statistics.median(
            o["self_s"].get(fn, 0.0) / o["wall"] for o in ops)
        metrics[f"{fn}.calls"] = statistics.median(o["calls"].get(fn, 0) for o in ops)
    eig_s = sum(o["self_s"].get("eig.eigs_general", 0.0) for o in ops)
    dims = [d for o in ops for d in o["eig_dims"]]
    metrics["eig.eigs_general.per_call_s"] = eig_s / len(dims) if dims else 0.0
    # computed, not counted: 10 d^3 flops per dense nonsymmetric eigensolve
    metrics["eig.eigs_general.gflops_computed"] = (
        sum(10.0 * d ** 3 for d in dims) / eig_s / 1e9 if eig_s > 0 else 0.0)
    metrics["cli.self_s"] = statistics.median(o["cli_self_s"] for o in ops)
    metrics["cli.parallelism"] = statistics.median(o["busy_s"] / o["wall"] for o in ops)
    metrics["trace.overhead_s"] = (statistics.median(o["wall"] for o in traced["ops"])
                                   - statistics.median(o["wall"] for o in untraced["ops"]))
    return metrics


def manifest(seed: int) -> dict:
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    commit = None  # a checkout that is not a git repository has none
    if (ROOT / ".git").exists():
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                    text=True, timeout=10).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": {k: blas.get(k) for k in ("name", "version", "openblas configuration")},
        "thread_env": {k: os.environ.get(k) for k in THREAD_ENV},
        "git_commit": commit,
        "seed": seed,
    }


def main() -> int:
    ap = argparse.ArgumentParser(description="nbspec benchmark (see bench/README.md)")
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if args.seed < 0 or args.seconds <= 0:
        ap.error("--seed must be >= 0 and --seconds > 0")
    if not (SRC / "nbspec" / "cli.py").is_file():
        print(f"error: no nbspec sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())

    w, seed = args.workload, args.seed
    deadline = Deadline(TIME_LIMIT_S)
    tmp = ROOT / ".bench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    record = {"workload": w, "manifest": manifest(seed)}
    try:
        if args.trace == 0:
            setups = [run_worker(["setup"], w, seed, tmp, deadline)
                      for _ in range(SETUP_PROCESSES)]
            worker = measure(w, seed, tmp, deadline, seconds=args.seconds)
            kernel = WORKLOADS[w].kernel
            metrics, record["as_measured"] = end_to_end(setups, worker, kernel)
            record["kernel"] = kernel
            measured = worker["ops"]
            ops = [o for s in setups for o in s["ops"]] + [worker["warmup"]] + measured
            record["samples"] = {"op_s": len(worker["ops"]), "cpu_s": len(worker["ops"]),
                                 "peak_rss_mb": 1, "setup_s": len(setups)}
            if w == "verify-suite":
                record["op_s_tail"] = tail(
                    [at_ref(o["wall"], kernel, o["cal"]) for o in worker["ops"]])
            listed = spec["end_to_end"]
        else:
            # a fixed number of ops, the same in each process, so that call
            # counts repeat exactly and the traced and untraced ops are the same
            count = WORKLOADS[w].trace_ops(args.seconds)
            untraced = measure(w, seed, tmp, deadline, count=count)
            traced = measure(w, seed, tmp, deadline, count=count, trace=True)
            metrics = per_layer(traced, untraced)
            measured = untraced["ops"] + traced["ops"]
            ops = [untraced["warmup"], traced["warmup"]] + measured
            record["samples"] = {"ops": count}
            spans = ROOT / ".bench_out" / f"spans-{w}-seed{seed}.jsonl"
            spans.parent.mkdir(exist_ok=True)
            spans.write_text("".join(json.dumps(s) + "\n" for s in traced["spans"]))
            record["spans"] = str(spans.relative_to(ROOT))
            if w == "classify-sweep":
                # informational, no gate: the same ops without oversubscription
                single = measure(w, seed, tmp, deadline, count=count, env_extra=SINGLE_THREADED)
                ops += [single["warmup"], *single["ops"]]
                record["single_threaded_reference"] = {
                    "env": SINGLE_THREADED,
                    "op_s": statistics.median(o["wall"] for o in single["ops"]),
                    "cpu_s": statistics.median(o["cpu"] for o in single["ops"]),
                    "ops": count,
                }
            listed = spec["per_layer"]
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    failures = [o["failure"] for o in ops if o["failure"]]
    record["fail_ratio"] = len(failures) / len(ops)
    record["first_failures"] = failures[:3]
    graphs = sum(o["graphs"] for o in measured)
    if graphs:
        record["conform_ratio"] = sum(o["conforming"] for o in measured) / graphs
    print(json.dumps(record))
    for m in listed:
        print(f"{w:15s} {m['name']:36s} {metrics[m['name']]:.6g} {m['unit']}")
    for name, value in record.get("as_measured", {}).items():
        print(f"{w:15s} {name + ' (as measured)':36s} {value:.6g} s")
    print(json.dumps({
        "correct": not failures,
        "attempted": len(ops),
        "failed": len(failures),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in listed},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
