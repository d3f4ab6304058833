"""Self-test of the benchmark's output checks.

Usage, from the root of a checkout::

    python3 bench/selftest.py

Runs one clean ``verify`` op and one ``verify --fault-inject`` op through the
same code path as a benchmark run.  Exits 0 when the clean op counts as
correct and the fault-injected one counts as failed, 1 otherwise.
"""

from __future__ import annotations

import shutil
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

from worker import run_op  # noqa: E402
from workloads import verify_op  # noqa: E402


def main() -> int:
    import nbspec.cli

    tmp = ROOT / ".bench_tmp"
    tmp.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(dir=tmp))
    try:
        clean = run_op(nbspec.cli.main, verify_op(1), work)
        fault = run_op(nbspec.cli.main, verify_op(1, fault_inject=True), work)
    finally:
        shutil.rmtree(work, ignore_errors=True)
    print(f"clean op: {clean.failure or 'ok'}")
    print(f"fault-injected op: {fault.failure or 'ok'}")
    ok = clean.failure is None and fault.failure is not None
    print("selftest", "passed" if ok else "FAILED")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
