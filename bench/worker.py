"""One workload process: import nbspec.cli, then run ops from a single thread.

Run by ``run.py`` in a fresh interpreter, so the import and the first op pay
their one-off costs here.  Usage::

    python3 bench/worker.py --workload NAME --seed N --tmp DIR setup
    python3 bench/worker.py --workload NAME --seed N --tmp DIR \
        measure (--seconds T | --ops K) [--trace]

``setup`` times the import and runs the workload's warm-up op twice: the
first call pays the one-off costs, the second does not.  ``measure`` runs the
warm-up op once, then ops 0, 1, 2, ... in a closed loop: for about T seconds,
starting no op that would end past T, or exactly K ops.  Between ops it runs
the workload's calibration kernel every CAL_EVERY_S.  Either prints one JSON
line with the timings, the kernel time paired with each op, the checked
outcome of every op and (traced) the per-op layer totals and spans.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import resource
import shutil
import statistics
import sys
import tempfile
import time
from dataclasses import asdict, dataclass
from pathlib import Path
from typing import Optional

sys.path.insert(0, str(Path(__file__).resolve().parent))

from calibration import kernel_seconds  # noqa: E402
from workloads import WORKLOADS, Op  # noqa: E402


@dataclass
class OpRun:
    wall: float
    cpu: float
    failure: Optional[str]
    conforming: int  # graphs with the full (2, 2) picture, classify ops only
    graphs: int
    cal: Optional[float] = None  # calibration kernel seconds paired with the op


CAL_EVERY_S = 0.5  # run the kernel before an op when this long has passed since the last run


def run_op(main, op: Op, tmp: Path, tracer=None, op_id: int = 0) -> OpRun:
    """Call ``main(argv + --out dir)`` with stdout captured, then check its output."""
    out = Path(tempfile.mkdtemp(dir=tmp))
    argv = op.argv + ["--out", str(out)]
    stdout, stderr = io.StringIO(), io.StringIO()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            cpu0, t0 = time.process_time(), time.perf_counter()
            rc = main(argv) if tracer is None else tracer.op(op_id, main, argv)
            wall, cpu = time.perf_counter() - t0, time.process_time() - cpu0
        try:
            failure = op.check(rc, stdout.getvalue(), out)
            conforming = 0
            if op.conforming and failure is None:
                conforming = op.conforming(stdout.getvalue())
        except (ValueError, KeyError, TypeError, OSError) as exc:
            failure = f"output unreadable: {exc!r}"
            conforming = 0
        if failure and stderr.getvalue():
            failure += f"; stderr: {stderr.getvalue().strip()[:200]}"
        return OpRun(wall, cpu, failure, conforming, op.graphs)
    finally:
        shutil.rmtree(out, ignore_errors=True)


def setup(workload, seed: int, tmp: Path) -> dict:
    t0 = time.perf_counter()
    import nbspec.cli

    import_s = time.perf_counter() - t0
    op = workload.warmup(seed)
    runs = [run_op(nbspec.cli.main, op, tmp) for _ in range(2)]
    # import and first-call costs are Python work: pair them with the python kernel
    cal = statistics.median(kernel_seconds("python") for _ in range(3))
    return {"import_s": import_s, "cal": cal, "ops": [asdict(r) for r in runs]}


def measure(workload, seed: int, tmp: Path, seconds: Optional[float], count: Optional[int],
            trace: bool) -> dict:
    import nbspec.cli

    warmup = run_op(nbspec.cli.main, workload.warmup(seed), tmp)
    if workload.kernel:
        kernel_seconds(workload.kernel)  # pays the kernel's own first-call cost
    tracer = None
    if trace:
        from tracer import Tracer, install

        tracer = Tracer()
        functions = install(tracer)

    def more(runs) -> bool:
        if count is not None:
            return len(runs) < count
        elapsed = time.perf_counter() - start
        return not runs or elapsed + elapsed / len(runs) <= seconds

    runs, cals = [], []
    start = last_cal = time.perf_counter()
    while more(runs):
        if workload.kernel and (not cals or time.perf_counter() - last_cal >= CAL_EVERY_S):
            cals.append(kernel_seconds(workload.kernel))
            last_cal = time.perf_counter()
        op = workload.op(seed, len(runs))
        run = run_op(nbspec.cli.main, op, tmp, tracer, op_id=len(runs))
        if cals:
            run.cal = statistics.median(cals[-3:])  # smooths the kernel's own jitter
        runs.append(run)

    doc = {
        "warmup": asdict(warmup),
        "ops": [asdict(r) for r in runs],
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    if tracer is not None:
        from tracer import op_layers

        by_op = {}
        for s in tracer.spans:
            by_op.setdefault(s.op, []).append(s)
        doc["functions"] = functions
        doc["layers"] = [asdict(op_layers(by_op[i])) for i in sorted(by_op)]
        doc["spans"] = [asdict(s) for s in tracer.spans]
    return doc


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--tmp", required=True)
    sub = ap.add_subparsers(dest="mode", required=True)
    sub.add_parser("setup")
    m = sub.add_parser("measure")
    budget = m.add_mutually_exclusive_group(required=True)
    budget.add_argument("--seconds", type=float)
    budget.add_argument("--ops", type=int)
    m.add_argument("--trace", action="store_true")
    args = ap.parse_args()
    workload, tmp = WORKLOADS[args.workload], Path(args.tmp)
    if args.mode == "setup":
        doc = setup(workload, args.seed, tmp)
    else:
        doc = measure(workload, args.seed, tmp, args.seconds, args.ops, args.trace)
    print(json.dumps(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
