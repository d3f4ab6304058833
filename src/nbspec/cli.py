"""Command-line driver: sampling, spectra, classification, verification, bounds.

Exit codes: 0 success, 1 verification failure, 2 bad input, 3 numeric failure,
4 internal error.
"""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from typing import Optional, TextIO, Tuple

import numpy as np

from . import analysis, operators, qep
from .eig import EigenSolveError, eigs_general, eigs_symmetric, single_blas_thread
from .graphgen import (
    DegreeStats,
    Graph,
    InvalidParameters,
    SbmParams,
    circulant,
    degree_concentration,
    er_pool,
    expected_stats,
    fig1_params,
    sample_sbm,
    write_edge_list,
    read_edge_list,
)

EXIT_OK = 0
EXIT_VERIFY_FAIL = 1
EXIT_BAD_INPUT = 2
EXIT_NUMERIC = 3
EXIT_INTERNAL = 4


def _thread_cap() -> Optional[int]:
    """The worker cap set by ``NBSPEC_THREADS``, or None when it is unset."""
    raw = os.environ.get("NBSPEC_THREADS")
    if raw is None:
        return None
    try:
        cap = int(raw)
        if cap >= 1:
            return cap
    except ValueError:
        pass
    raise InvalidParameters(f"NBSPEC_THREADS must be a positive integer, got {raw!r}")


def _workers(tasks: int, pinned: bool) -> int:
    """Pool size for ``tasks`` independent tasks, the one rule of every pool.

    One worker per task, capped by the usable cores and ``NBSPEC_THREADS``,
    when every OpenBLAS runs on one thread (``pinned``).  Workers on a BLAS
    that cannot be limited would oversubscribe the cores: it gets one.
    """
    if not pinned:
        return 1
    cap = _thread_cap()
    return min(tasks, len(os.sched_getaffinity(0)), tasks if cap is None else cap)


def _check_args(args) -> None:
    """Reject out-of-range options before any work starts."""
    if getattr(args, "seeds", 1) < 1:
        raise InvalidParameters(f"--seeds must be at least 1, got {args.seeds}")
    if not 0 <= getattr(args, "tau", 0) < 1:
        raise InvalidParameters(f"--tau must lie in [0, 1), got {args.tau}")
    if args.command in ("classify", "verify"):
        _thread_cap()  # raises on a malformed NBSPEC_THREADS
    if hasattr(args, "preset") and sum((args.preset is not None, args.input is not None,
                                        (args.n, args.p, args.q) != (None,) * 3)) > 1:
        raise InvalidParameters("give only one graph source: --preset, --input or --n/--p/--q")


def _regular_graph(d: int, n: int) -> Graph:
    """Circulant d-regular graph on n vertices (offsets 1..d//2, plus n/2 if d odd)."""
    if d >= n or d < 1 or (d % 2 == 1 and n % 2 == 1):
        raise InvalidParameters(f"no circulant {d}-regular graph on {n} vertices")
    return circulant(n, list(range(1, d // 2 + 1)) + [n // 2] * (d % 2))


def resolve_graph(args) -> Tuple[Graph, DegreeStats, Optional[SbmParams]]:
    """Graph + stats from --preset, --input, or raw --n/--p/--q/--seed."""
    preset = {"k3": "regular:2,3", "k4": "regular:3,4"}.get(args.preset, args.preset)
    if preset:
        if preset.startswith("regular:"):
            try:
                d, n = map(int, preset.split(":", 1)[1].split(","))
            except ValueError:
                raise InvalidParameters(
                    f"bad preset {preset!r}, expected regular:d,n with integers d and n"
                ) from None
            g = _regular_graph(d, n)
            return g, DegreeStats(alpha=float(d), beta=None), None
        if preset in ("fig1-left", "fig1-right"):
            params = fig1_params(preset.split("-")[1], seed=args.seed)
            g = sample_sbm(params)
            return g, expected_stats(params), params
        raise InvalidParameters(f"unknown preset {preset!r}")
    if args.input:
        try:
            with open(args.input) as fh:
                g = read_edge_list(fh)
        except OSError as exc:
            raise InvalidParameters(f"cannot read {args.input}: {exc.strerror}") from None
        if 2 * g.num_edges <= g.n:  # mean degree 2m/n <= 1, or no vertices
            raise InvalidParameters("graph too sparse for analysis (mean degree <= 1)")
        return g, DegreeStats(alpha=float(g.degrees.mean()), beta=None), None
    if args.n is None or args.p is None or args.q is None:
        raise InvalidParameters("provide --preset, --input, or all of --n --p --q")
    params = SbmParams(n=args.n, p=args.p, q=args.q, seed=args.seed)
    return sample_sbm(params), expected_stats(params), params


def _outdir(args) -> Path:
    out = Path(args.out)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as exc:
        raise InvalidParameters(f"cannot create --out {args.out}: {exc.strerror}") from None
    return out


def _config_dict(args, params: Optional[SbmParams]) -> dict:
    """The seed, the graph's source, and whichever of --tau/--estimate/--fault-inject it takes."""
    doc = {"command": args.command, "seed": args.seed}
    doc.update({k: v for k, v in vars(args).items() if k in ("tau", "estimate", "fault_inject")})
    if params is not None:
        doc.update({"n": params.n, "p": params.p, "q": params.q, "seed": params.seed})
    doc.update({k: v for k, v in vars(args).items() if k in ("preset", "input") and v})
    return doc


def cmd_sample(args) -> int:
    graph, stats, params = resolve_graph(args)
    out = _outdir(args)
    path = out / "graph.edgelist"
    with open(path, "w") as fh:
        write_edge_list(graph, fh, params)
    max_deviation, relative_deviation, concentrated = degree_concentration(graph, stats)
    summary = {
        "config": _config_dict(args, params),
        "n": graph.n,
        "edges": graph.num_edges,
        "alpha": stats.alpha,
        "beta": stats.beta,
        "max_deviation": max_deviation,
        "relative_deviation": relative_deviation,
        "concentrated": concentrated,
        "edge_list": str(path),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK


def _write_csv(values: np.ndarray, fh: TextIO) -> None:
    """A spectrum as `re,im` rows, ascending by (real, imag), floats to 17 digits."""
    fh.write("re,im\n")
    for z in sorted(values, key=lambda z: (z.real, z.imag)):
        fh.write(f"{z.real:.17g},{z.imag:.17g}\n")


def cmd_spectrum(args) -> int:
    graph, stats, params = resolve_graph(args)
    out = _outdir(args)
    spec_h = operators.build_H(graph).spectrum()
    with open(out / "spectrum_H.csv", "w") as fh:
        _write_csv(spec_h, fh)
    doc = {
        "config": _config_dict(args, params),
        "n": graph.n,
        "edges": graph.num_edges,
        "alpha": stats.alpha,
        "beta": stats.beta,
        "spectrum_H_csv": str(out / "spectrum_H.csv"),
        "dim_H": len(spec_h),
    }
    try:
        b = operators.build_B(graph)
    except operators.TooLargeError:
        pass  # past operators.DENSE_CAP rows only Spec(H) is written
    else:
        spec_b = eigs_general(b)
        with open(out / "spectrum_B.csv", "w") as fh:
            _write_csv(spec_b, fh)
        doc["spectrum_B_csv"] = str(out / "spectrum_B.csv")
        doc["dim_B"] = len(spec_b)
        doc["trivial_multiplicity"] = graph.num_edges - graph.n
    print(json.dumps(doc, indent=2))
    return EXIT_OK


def cmd_classify(args) -> int:
    def one(seed: int) -> dict:
        local = argparse.Namespace(**vars(args))
        local.seed = seed
        graph, stats, params = resolve_graph(local)
        if args.estimate:
            stats = analysis.estimate_stats(graph)
        analysis.check_classifiable(stats)
        out = _outdir(args)
        spec = operators.build_H(graph).spectrum()
        report = analysis.classify_spectrum(spec, stats, tau=args.tau)
        if args.svg:
            with open(out / f"spectrum_seed{seed}.svg", "w") as fh:
                analysis.write_spectrum_svg(spec, math.sqrt(stats.gamma), fh)
        return {
            "config": _config_dict(local, params),
            "classification": report.to_dict(),
        }

    seeds = list(range(args.seed, args.seed + args.seeds))
    with ThreadPoolExecutor(max_workers=_workers(len(seeds), args.pinned)) as pool:
        results = list(pool.map(one, seeds))
    doc = results[0] if len(results) == 1 else {"runs": results}
    text = json.dumps(doc, indent=2)
    (_outdir(args) / "classification.json").write_text(text + "\n")
    print(text)
    return EXIT_OK


def cmd_bound(args) -> int:
    graph, stats, params = resolve_graph(args)
    if stats.gamma <= 0:  # build_H0's check, made before the solve that precedes it
        raise InvalidParameters(f"requires alpha > 1, got alpha = {stats.alpha}")
    build, build0 = {"H": (operators.build_H, operators.build_H0),
                     "K": (operators.build_K, operators.build_K0)}[args.pair]
    l = build(graph)
    out = _outdir(args)
    spec = l.spectrum()  # before L0 exists, so L0's blocks stay out of this dense solve's peak
    report = qep.qep_bound(build0(graph, stats), l, spec=spec)
    text = report.to_json()
    (out / f"bound_{args.pair}.json").write_text(text + "\n")
    summary = {
        "config": _config_dict(args, params),
        "pair": args.pair,
        "kappa": report.kappa,
        "epsilon_global": report.epsilon_global,
        "all_within_bound": report.all_within_bound(),
        "report": str(out / f"bound_{args.pair}.json"),
    }
    print(json.dumps(summary, indent=2))
    return EXIT_OK if report.all_within_bound() else EXIT_VERIFY_FAIL


def _er_checks(args) -> dict:
    """The four pool checks on ten seeded ER graphs, and the QEP trials."""
    pool = er_pool(10, n=16, p=0.4, start_seed=args.seed)
    ihara = analysis.check_ihara_bass(pool)
    if args.fault_inject:
        ihara = {"status": "fail", "max_gap": ihara["max_gap"] + 1.0}
    return {
        "ihara-bass": ihara,
        "det-identity": analysis.check_det_identity(pool),
        "eigenvalue-one": analysis.check_eigenvalue_one(pool),
        "reciprocity": analysis.check_reciprocity(pool),
        "qep-random-trials": analysis.check_qep_trials(np.random.default_rng(args.seed), 50),
    }


def _verify_suite(args) -> dict:
    """The ER checks, and the KS distance of Spec(A) to the semicircle on a fig1-right graph, n=800.

    The n=800 graph is sampled and its adjacency built first, and only then
    do the ER checks start on the pool worker.  So they run while the
    calling thread is inside ``eigvalsh``, which releases the interpreter
    lock, and not beside the sampling, whose many short numpy calls each
    take it.  The eigvalsh stays on the calling thread, whose OpenBLAS
    buffer is already allocated: on the pool worker it raised peak RSS 12 %.
    """
    params = fig1_params("right", n=800, seed=args.seed)
    a = sample_sbm(params).adjacency()
    if _workers(2, args.pinned) > 1:
        with ThreadPoolExecutor(max_workers=1) as pool:
            er = pool.submit(_er_checks, args)
            spec_a = eigs_symmetric(a)
            results = er.result()
    else:
        results = _er_checks(args)
        spec_a = eigs_symmetric(a)
    ks = analysis.semicircle_ks(spec_a, "A-spectrum", expected_stats(params))
    return {**results, "semicircle-ks": {"status": "pass" if ks <= 0.06 else "fail",
                                         "ks_distance": ks}}


def cmd_verify(args) -> int:
    results = _verify_suite(args)
    all_pass = all(v["status"] == "pass" for v in results.values())
    doc = {"config": _config_dict(args, None), "results": results, "pass": all_pass}
    print(json.dumps(doc, indent=2))
    return EXIT_OK if all_pass else EXIT_VERIFY_FAIL


class _Parser(argparse.ArgumentParser):
    """Reports a bad command line as one `error:` line, without the usage."""

    def error(self, message):
        self.exit(EXIT_BAD_INPUT, f"error: {message}\n")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built once per process: every ``main`` call shares it."""
    parser = _Parser(
        prog="nbspec",
        description="Non-backtracking spectra of SBM graphs: operators, bounds, classification",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, help, graph=True, out_help="output directory"):
        """A subcommand with the graph-source options (or just --seed) and --out."""
        p = sub.add_parser(name, help=help)
        if graph:
            p.add_argument("--n", type=int, default=None)
            p.add_argument("--p", type=float, default=None)
            p.add_argument("--q", type=float, default=None)
            p.add_argument("--preset", default=None,
                           help="fig1-left | fig1-right | k3 | k4 | regular:d,n")
            p.add_argument("--input", default=None, help="edge-list file to load")
        p.add_argument("--seed", type=int, default=1)
        p.add_argument("--out", default=".", help=out_help)
        return p

    command("sample", "sample an SBM and write its edge list")
    command("spectrum", f"compute Spec(H), and Spec(B) up to {operators.DENSE_CAP} rows")

    p = command("classify", "classify the non-backtracking spectrum")
    p.add_argument("--tau", type=float, default=0.25,
                   help="annulus half-width for classification")
    p.add_argument("--seeds", type=int, default=1, help="number of consecutive seeds")
    p.add_argument("--svg", action="store_true", help="emit the spectrum scatter SVG")
    p.add_argument("--estimate", action="store_true",
                   help="estimate alpha/beta from the graph instead of the parameters")

    p = command("bound", "QEP Bauer-Fike report for (H0,H) or (K0,K)")
    p.add_argument("--pair", choices=("H", "K"), default="H")

    p = command("verify", "run the invariant verification suite", graph=False,
                out_help="ignored: verify writes no files, but takes --out like every command "
                "because the benchmark harness (bench/worker.py) appends it to each call")
    p.add_argument("--fault-inject", action="store_true",
                   help="force an ihara-bass failure (harness self-test)")
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_BAD_INPUT if exc.code not in (0, None) else EXIT_OK
    handlers = {
        "sample": cmd_sample,
        "spectrum": cmd_spectrum,
        "classify": cmd_classify,
        "bound": cmd_bound,
        "verify": cmd_verify,
    }
    try:
        _check_args(args)
        # one OpenBLAS thread per task: pools, not BLAS threads, use the cores
        with single_blas_thread() as args.pinned:
            return handlers[args.command](args)
    except InvalidParameters as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except (EigenSolveError, np.linalg.LinAlgError) as exc:
        print(f"numeric failure: {exc}", file=sys.stderr)
        return EXIT_NUMERIC
    except Exception as exc:  # a fault of nbspec, not of its input: one line, no traceback
        print(" ".join(f"internal error: {type(exc).__name__}: {exc}".split()), file=sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
