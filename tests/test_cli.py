import ast
import contextlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
import subprocess
import sys
import tempfile
import threading
from pathlib import Path

import pytest
from hypothesis import example, given, settings, strategies as st

from nbspec import analysis, cli, eig, operators
from nbspec.cli import main
from nbspec.graphgen import Graph, write_edge_list

from conftest import edge_sets


def _load_bench_workloads():
    """bench/workloads.py, which builds the command lines the benchmark sends."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench_workloads()


def _src_env():
    """The environment with this checkout's ``src`` first on PYTHONPATH, for subprocesses."""
    src = str(Path(__file__).resolve().parents[1] / "src")
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr().out
    return code, out


class TestSample:
    def test_k4_preset(self, tmp_path, capsys):
        code, out = run(capsys, "sample", "--preset", "k4", "--out", str(tmp_path))
        assert code == 0
        lines = (tmp_path / "graph.edgelist").read_text().splitlines()
        assert lines[0].split()[:2] == ["4", "6"]
        assert len(lines) == 8  # header + labels + 6 edges

    def test_fig1_preset_header(self, tmp_path, capsys):
        code, out = run(capsys, "sample", "--preset", "fig1-right", "--out", str(tmp_path))
        assert code == 0
        header = (tmp_path / "graph.edgelist").read_text().splitlines()[0].split()
        assert header[0] == "1000"
        assert float(header[3]) == pytest.approx(3 * math.log(1000) ** 2 / 1000)

    def test_odd_n_rejected(self, tmp_path, capsys):
        code, _ = run(capsys, "sample", "--n", "5", "--p", "0.5", "--q", "0.2",
                      "--out", str(tmp_path))
        assert code == 2

    def test_missing_parameters_rejected(self, tmp_path, capsys):
        code, _ = run(capsys, "sample", "--out", str(tmp_path))
        assert code == 2


class TestSpectrum:
    def test_k4_closed_form_csv(self, tmp_path, capsys):
        code, out = run(capsys, "spectrum", "--preset", "k4", "--out", str(tmp_path))
        assert code == 0
        rows = (tmp_path / "spectrum_H.csv").read_text().strip().splitlines()
        assert rows[0] == "re,im"
        assert len(rows) == 9  # header + 8 eigenvalues
        values = sorted(
            (complex(*map(float, r.split(","))) for r in rows[1:]),
            key=lambda z: (z.real, z.imag),
        )
        assert abs(values[-1] - 2.0) <= 1e-8
        assert abs(values[-2] - 1.0) <= 1e-8
        assert abs(values[0] - complex(-0.5, -math.sqrt(7) / 2)) <= 1e-8
        doc = json.loads(out)
        assert doc["trivial_multiplicity"] == 2

    def test_b_spectrum_emitted_under_cap(self, tmp_path, capsys):
        code, out = run(capsys, "spectrum", "--preset", "k3", "--out", str(tmp_path))
        assert code == 0
        assert (tmp_path / "spectrum_B.csv").exists()
        assert json.loads(out)["dim_B"] == 6

    @pytest.mark.parametrize("preset", ["k3", "regular:2,10"])
    def test_same_spec_h_as_bound(self, tmp_path, capsys, preset):
        # both commands take Spec(H) from QepPair.spectrum: the values agree exactly
        assert main(["spectrum", "--preset", preset, "--out", str(tmp_path)]) == 0
        assert main(["bound", "--pair", "H", "--preset", preset, "--out", str(tmp_path)]) == 0
        capsys.readouterr()
        rows = (tmp_path / "spectrum_H.csv").read_text().splitlines()[1:]
        spectrum = sorted(tuple(map(float, row.split(","))) for row in rows)
        report = json.loads((tmp_path / "bound_H.json").read_text())
        assert spectrum == sorted(tuple(row["mu"]) for row in report["per_mu"])

    def test_input_roundtrip(self, tmp_path, capsys):
        code, _ = run(capsys, "sample", "--n", "20", "--p", "0.6", "--q", "0.4",
                      "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        code, out = run(capsys, "spectrum", "--input",
                        str(tmp_path / "graph.edgelist"), "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["n"] == 20


class TestClassify:
    def test_regular_preset(self, tmp_path, capsys):
        code, out = run(capsys, "classify", "--preset", "regular:4,12",
                        "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        cls = doc["classification"]
        assert len(cls["outliers"]) == 1
        assert len(cls["insiders"]) == 1
        assert not cls["ambiguous"]

    def test_deterministic_output(self, tmp_path, capsys):
        args = ("classify", "--n", "60", "--p", "0.5", "--q", "0.2", "--seed", "9",
                "--out", str(tmp_path))
        _, out1 = run(capsys, *args)
        _, out2 = run(capsys, *args)
        assert out1 == out2

    def test_svg_emitted(self, tmp_path, capsys):
        code, _ = run(capsys, "classify", "--preset", "regular:4,12", "--svg",
                      "--out", str(tmp_path))
        assert code == 0
        svg = (tmp_path / "spectrum_seed1.svg").read_text()
        assert svg.startswith("<svg") and "circle" in svg

    def test_config_records_input_and_estimate(self, tmp_path, capsys):
        run(capsys, "sample", "--preset", "k4", "--out", str(tmp_path))
        graph = str(tmp_path / "graph.edgelist")
        code, out = run(capsys, "classify", "--input", graph, "--estimate", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["config"] == {
            "command": "classify", "seed": 1, "tau": 0.25, "estimate": True, "input": graph,
        }
        code, out = run(capsys, "classify", "--preset", "k4", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["config"] == {
            "command": "classify", "seed": 1, "tau": 0.25, "estimate": False, "preset": "k4",
        }

    def test_seed_sweep(self, tmp_path, capsys):
        code, out = run(capsys, "classify", "--n", "40", "--p", "0.6", "--q", "0.3",
                        "--seed", "1", "--seeds", "3", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert len(doc["runs"]) == 3
        seeds = [r["config"]["seed"] for r in doc["runs"]]
        assert seeds == [1, 2, 3]  # merged deterministically by seed order

    # n=200 makes 400x400 eigensolves, large enough for OpenBLAS to thread
    SWEEP_GRAPH = ("--n", "200", "--p", "0.12", "--q", "0.04")

    def test_sweep_runs_match_single_seed_runs(self, tmp_path, capsys):
        out = ("--out", str(tmp_path))
        code, sweep = run(capsys, "classify", *self.SWEEP_GRAPH, "--seed", "5",
                          "--seeds", "3", *out)
        assert code == 0
        for i, r in enumerate(json.loads(sweep)["runs"]):
            code, single = run(capsys, "classify", *self.SWEEP_GRAPH, "--seed", str(5 + i),
                               *out)
            assert code == 0
            assert json.dumps(r["classification"]) == json.dumps(
                json.loads(single)["classification"])

    # NBSPEC_THREADS=1 runs the sweep's seeds, and verify's two halves, one after the other
    @pytest.mark.parametrize("argv", [
        ("classify", *SWEEP_GRAPH, "--seed", "5", "--seeds", "3"),
        ("verify", "--seed", "5"),
    ], ids=["classify", "verify"])
    def test_output_independent_of_thread_cap(self, tmp_path, capsys, monkeypatch, argv):
        args = (*argv, "--out", str(tmp_path))
        monkeypatch.delenv("NBSPEC_THREADS", raising=False)
        _, unset = run(capsys, *args)
        monkeypatch.setenv("NBSPEC_THREADS", "1")
        _, capped = run(capsys, *args)
        assert capped == unset

    def test_classify_and_regular_spectrum_load_no_numpy_ma(self, tmp_path):
        # np.quantile and a bare np.unique(..., axis=0) import numpy.ma: memory and import time
        script = (
            "import sys; from nbspec.cli import main; "
            f"rcs = [main(['classify', '--n', '40', '--p', '0.5', '--q', '0.2', '--out', {str(tmp_path)!r}]), "
            f"main(['spectrum', '--preset', 'regular:4,10', '--out', {str(tmp_path)!r}])]; "
            "print(rcs, 'numpy.ma' in sys.modules, file=sys.stderr)"
        )
        proc = subprocess.run([sys.executable, "-c", script], env=_src_env(), capture_output=True,
                              text=True, check=True)
        assert proc.stderr.strip() == "[0, 0] False"


def test_calls_in_one_process_print_what_fresh_processes_print(tmp_path, capsys):
    # main builds its parser once per process and shares it between calls
    assert cli.build_parser() is cli.build_parser()
    calls = [
        ["bound", "--pair", "K", "--n", "40", "--p", "0.5", "--q", "0.2", "--seed", "4"],
        ["verify", "--seed", "3"],
        ["classify", "--seeds", "abc"],
        ["classify", "--preset", "regular:4,12", "--tau", "0.3"],
    ]
    for argv in calls:
        code = main([*argv, "--out", str(tmp_path)])
        shared = capsys.readouterr()
        proc = subprocess.run([sys.executable, "-m", "nbspec.cli", *argv, "--out", str(tmp_path)],
                              env=_src_env(), capture_output=True, text=True)
        assert (code, shared.out, shared.err) == (proc.returncode, proc.stdout, proc.stderr)


class TestBadInput:
    @pytest.mark.parametrize("argv, threads", [
        (["classify", "--seeds", "0"], None),
        (["classify", "--seeds", "-2"], None),
        (["classify", "--tau", "-1"], None),
        (["classify", "--tau", "1"], None),
        (["classify", "--tau", "5"], None),
        (["classify", "--tau", "nan"], None),
        (["classify"], "abc"),
        (["classify"], "0"),
        (["classify", "--seeds", "abc"], None),
        (["bound", "--pair", "X"], None),
    ])
    def test_rejected_before_any_work(self, tmp_path, capsys, monkeypatch, argv, threads):
        if threads is not None:
            monkeypatch.setenv("NBSPEC_THREADS", threads)
        out = tmp_path / "out"
        code = main([*argv, "--preset", "k4", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("threads", ["0", "abc"])
    def test_verify_rejects_bad_thread_cap(self, tmp_path, capsys, monkeypatch, threads):
        monkeypatch.setenv("NBSPEC_THREADS", threads)
        code = main(["verify", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: NBSPEC_THREADS") and err.count("\n") == 1

    @pytest.mark.parametrize("argv", [
        ["verify", "--tau", "0.5"],
        ["verify", "--preset", "k4"],
        ["bound", "--preset", "k4", "--dense-cap", "10"],
        ["verify", "--dense-cap", "10"],
        ["spectrum", "--dense-cap", "-5"],
        ["sample", "--preset", "k4", "--tau", "0.5"],
    ], ids=["verify-tau", "verify-preset", "bound-dense-cap", "verify-dense-cap",
            "spectrum-dense-cap", "sample-tau"])
    def test_option_the_command_does_not_take(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("command", ["sample", "spectrum", "classify", "bound"])
    @pytest.mark.parametrize("sources", [
        ["--preset", "k4", "--n", "40", "--p", "0.5", "--q", "0.2"],
        ["--preset", "k4", "--q", "0.2"],
        ["--input", "{graph}", "--n", "40", "--p", "0.5", "--q", "0.2"],
        ["--preset", "k4", "--input", "{graph}"],
    ], ids=["preset-npq", "preset-q", "input-npq", "preset-input"])
    def test_conflicting_graph_sources(self, tmp_path, capsys, command, sources):
        assert main(["sample", "--preset", "k4", "--out", str(tmp_path)]) == 0
        graph = str(tmp_path / "graph.edgelist")
        out = tmp_path / "out"
        code = main([command, *(a.format(graph=graph) for a in sources), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: give only one graph source: --preset, --input or --n/--p/--q\n"
        assert not out.exists()

    @pytest.mark.parametrize("preset", ["regular:x", "regular:4"])
    def test_bad_regular_preset(self, tmp_path, capsys, preset):
        out = tmp_path / "out"
        code = main(["classify", "--preset", preset, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
        assert "regular:d,n" in err
        assert not out.exists()

    @pytest.mark.filterwarnings("error")
    @pytest.mark.parametrize("command", ["sample", "spectrum", "classify", "bound"])
    @pytest.mark.parametrize("text", [
        "0 0 0 nan nan\n\n",  # no vertices
        "4 2 0 nan nan\n0011\n0 1\n2 3\n",  # mean degree exactly 1
    ], ids=["empty", "mean-degree-1"])
    def test_sparse_input_graph(self, tmp_path, capsys, command, text):
        path = tmp_path / "graph.edgelist"
        path.write_text(text)
        out = tmp_path / "out"
        code = main([command, "--input", str(path), "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err == "error: graph too sparse for analysis (mean degree <= 1)\n"
        assert not out.exists()

    @pytest.mark.parametrize("name", ["missing.el", "."], ids=["missing", "directory"])
    def test_unreadable_input(self, tmp_path, capsys, name):
        path = tmp_path / name
        code = main(["spectrum", "--input", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot read {path}") and err.count("\n") == 1

    @pytest.mark.parametrize("under", [True, False], ids=["under-a-file", "a-file"])
    def test_unwritable_out(self, tmp_path, capsys, under):
        blocker = tmp_path / "file"
        blocker.write_text("")
        out = blocker / "sub" if under else blocker
        code = main(["sample", "--n", "20", "--p", "0.5", "--q", "0.2", "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(f"error: cannot create --out {out}: ") and err.count("\n") == 1

    @pytest.mark.parametrize("text, expected", [
        ("4 3 0 nan nan\n0011\n0 1\n", "error: line 4: "),  # fewer edge lines than m
        ("4 1 0 nan nan\n0011\n0 x\n", "error: line 3: "),  # non-integer vertex
        ("4 two 0 nan nan\n0011\n", "error: line 1: "),  # non-integer m
        ("4 2 0 nan nan\n0011\n0 1\n2 3\n0 2\n1 3\n", "error: line 5: "),  # more lines than m
        ("4 -1 0 nan nan\n0011\n", "error: line 1: "),  # negative m
        ("4 2 0 nan nan\n0011\n0 1\n1 0\n", "error: line 4: duplicate edge (0, 1)\n"),
    ], ids=["short", "bad-vertex", "bad-header", "extra-lines", "negative-m", "duplicate"])
    def test_malformed_edge_list(self, tmp_path, capsys, text, expected):
        path = tmp_path / "graph.edgelist"
        path.write_text(text)
        code = main(["spectrum", "--input", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith(expected) and err.count("\n") == 1


class TestExitCodes:
    """2 only for bad input; a fault of nbspec itself exits 4 with one line."""

    def test_internal_value_error_is_not_bad_input(self, tmp_path, capsys, monkeypatch):
        def broken(*args, **kwargs):
            raise ValueError("spectra sizes differ: 1 vs 2")

        monkeypatch.setattr(analysis, "build_K", broken)
        code = main(["verify", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "internal error: ValueError: spectra sizes differ: 1 vs 2\n"

    def test_runtime_error_is_one_line_without_traceback(self, tmp_path, capsys, monkeypatch):
        def broken(pool):
            raise RuntimeError("injected\nsecond line")

        monkeypatch.setattr(analysis, "check_eigenvalue_one", broken)
        code = main(["verify", "--out", str(tmp_path)])
        captured = capsys.readouterr()
        assert code == 4 and captured.out == ""
        assert captured.err == "internal error: RuntimeError: injected second line\n"

    @pytest.mark.parametrize("argv", [
        ["classify"], ["bound", "--pair", "H"], ["bound", "--pair", "K"],
    ], ids=["classify", "bound-H", "bound-K"])
    def test_alpha_at_most_one_is_bad_input(self, tmp_path, capsys, argv):
        # regular:1,4 is a perfect matching: alpha = 1
        code = main([*argv, "--preset", "regular:1,4", "--out", str(tmp_path)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "alpha > 1" in err and err.count("\n") == 1

    # beta = n(p - q)/2 - p is 0 at q = 0.3 and -0.4 at q = 0.5: no insider target alpha/beta
    @pytest.mark.parametrize("q", ["0.3", "0.5"], ids=["beta-zero", "beta-negative"])
    def test_classify_beta_at_most_zero_is_bad_input(self, tmp_path, capsys, q):
        out = tmp_path / "out"
        code = main(["classify", "--n", "4", "--p", "0.6", "--q", q, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and "beta > 0" in err and err.count("\n") == 1
        assert not out.exists()

    @staticmethod
    def _assert_exit_code_meaning(argv, out=None):
        """Exit 0, 1 or 2, never 3 or 4; exit 2 prints exactly one `error:` line.

        Writes to ``out``, or to a temporary directory; returns the exit code.
        """
        stdout, stderr = io.StringIO(), io.StringIO()
        with tempfile.TemporaryDirectory() as tmp, \
                contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([*argv, "--out", str(out or tmp)])
        err = stderr.getvalue()
        assert code in (0, 1, 2), (argv, code, err)
        if code == 2:
            assert err.startswith("error: ") and err.count("\n") == 1, (argv, err)
        return code

    PROPERTY_COMMANDS = (["sample"], ["spectrum"], ["classify"],
                         ["bound", "--pair", "H"], ["bound", "--pair", "K"])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(edge_sets())
    def test_input_graph_exit_codes(self, graph):
        # disconnected graphs and isolated or degree-1 vertices included
        with tempfile.TemporaryDirectory() as tmp:
            path = Path(tmp) / "graph.edgelist"
            with open(path, "w") as fh:
                write_edge_list(graph, fh)
            for command in self.PROPERTY_COMMANDS:
                self._assert_exit_code_meaning([*command, "--input", str(path)])

    @settings(derandomize=True, max_examples=40, deadline=None)
    @given(n=st.integers(4, 20), p=st.floats(0, 1), q=st.floats(0, 1), seed=st.integers(0, 99))
    @example(n=4, p=0.6, q=0.3, seed=1)  # beta = 0
    def test_sbm_parameter_exit_codes(self, n, p, q, seed):
        for command in self.PROPERTY_COMMANDS:
            self._assert_exit_code_meaning(
                [*command, "--n", str(n), "--p", repr(p), "--q", repr(q), "--seed", str(seed)])


    @settings(derandomize=True, max_examples=25, deadline=None)
    @given(st.integers(2, 24).flatmap(lambda n: st.tuples(st.integers(0, n), st.just(n))))
    def test_regular_preset_exit_codes(self, d_n):
        # a regular graph's pencil is its own reference (H = H0, K = K0), so
        # where bound passes every distance is exactly 0
        preset = "regular:{},{}".format(*d_n)
        with tempfile.TemporaryDirectory() as tmp:
            for command in self.PROPERTY_COMMANDS:
                out = Path(tmp) / "-".join(command)
                code = self._assert_exit_code_meaning([*command, "--preset", preset], out)
                if command[0] == "bound" and code == 0:
                    report = json.loads((out / f"bound_{command[-1]}.json").read_text())
                    distances = {row["distance"] for row in report["per_mu"]}
                    assert distances <= {0.0}, (preset, command)


class TestBound:
    def test_regular_graph_zero_radius(self, tmp_path, capsys):
        code, out = run(capsys, "bound", "--preset", "regular:4,12", "--pair", "H",
                        "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon_global"] == pytest.approx(0.0, abs=1e-12)
        assert doc["all_within_bound"]

    @pytest.mark.parametrize("pair", ["H", "K"])
    @pytest.mark.parametrize("preset", ["k4", "regular:4,10", "regular:2,10"])
    def test_regular_graph_matches_its_reference_exactly(self, tmp_path, capsys, preset, pair):
        # on a regular graph the pencil equals its reference (H = H0, K = K0),
        # so both spectra must come from the same solver: two solvers disagree
        # by up to 2e-8 at the double roots of regular:2,10, past a zero radius
        code, _ = run(capsys, "bound", "--preset", preset, "--pair", pair, "--out", str(tmp_path))
        assert code == 0
        report = json.loads((tmp_path / f"bound_{pair}.json").read_text())
        assert [row["distance"] for row in report["per_mu"]] == [0.0] * len(report["per_mu"])

    def test_h_pair_on_sbm(self, tmp_path, capsys):
        code, out = run(capsys, "bound", "--n", "60", "--p", "0.6", "--q", "0.3",
                        "--seed", "2", "--pair", "H", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 1.0
        assert doc["all_within_bound"]
        report = json.loads((tmp_path / "bound_H.json").read_text())
        assert len(report["per_mu"]) == 120
        assert {row["norm_method"] for row in report["per_mu"]} == {"diagonal"}

    def test_k_pair_on_sbm(self, tmp_path, capsys):
        code, out = run(capsys, "bound", "--n", "60", "--p", "0.6", "--q", "0.3",
                        "--seed", "2", "--pair", "K", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["all_within_bound"]
        report = json.loads((tmp_path / "bound_K.json").read_text())
        assert {row["norm_method"] for row in report["per_mu"]} == {"gram", "envelope"}

    @pytest.mark.xfail(strict=True, raises=AssertionError, reason="ROADMAP item 4")
    def test_cycle_c4_within_bound(self, tmp_path, capsys):
        # seed 8 samples the cycle C4: the theorem holds with equality at H's
        # double eigenvalue -1, and the radius carries no rounding allowance
        code, out = run(capsys, "bound", "--n", "4", "--p", "0.01", "--q", "0.99",
                        "--seed", "8", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["all_within_bound"] is True

    def test_degree_too_small_is_bad_input(self, tmp_path, capsys):
        # near-empty graph: K undefined
        code, _ = run(capsys, "bound", "--n", "10", "--p", "0.05", "--q", "0.02",
                      "--seed", "1", "--pair", "K", "--out", str(tmp_path))
        assert code == 2


class TestVerify:
    @settings(derandomize=True, max_examples=6, deadline=None)
    @given(st.integers(0, 2**40))
    @example(2**31 - 1)
    def test_drawn_seeds_pass(self, seed):
        stdout = io.StringIO()
        with tempfile.TemporaryDirectory() as out, contextlib.redirect_stdout(stdout):
            code = main(["verify", "--seed", str(seed), "--out", out])
        assert code == 0 and json.loads(stdout.getvalue())["pass"], seed

    def test_default_suite_passes(self, tmp_path, capsys):
        code, out = run(capsys, "verify", "--out", str(tmp_path))
        doc = json.loads(out)
        assert doc["pass"], doc
        assert code == 0
        assert doc["config"] == {"command": "verify", "seed": 1, "fault_inject": False}
        names = set(doc["results"])
        assert names == {
            "ihara-bass",
            "det-identity",
            "eigenvalue-one",
            "reciprocity",
            "qep-random-trials",
            "semicircle-ks",
        }

    def test_fault_injection_fails(self, tmp_path, capsys):
        code, out = run(capsys, "verify", "--fault-inject", "--out", str(tmp_path))
        assert code == 1
        assert not json.loads(out)["pass"]
        assert json.loads(out)["config"] == {"command": "verify", "seed": 1, "fault_inject": True}

    def test_eigensolve_budget(self, tmp_path, capsys, monkeypatch):
        # the pool checks are identities of the built operators: only the
        # 50 QEP trials solve a general eigenproblem, and no spectra are matched
        calls = {"eigs_general": 0, "match_spectra": 0}
        modules = [m for k, m in sys.modules.items() if k == "nbspec" or k.startswith("nbspec.")]
        for name in calls:
            original = getattr(eig, name)

            def counted(*args, _name=name, _original=original, **kwargs):
                calls[_name] += 1
                return _original(*args, **kwargs)

            for module in modules:
                if getattr(module, name, None) is original:
                    monkeypatch.setattr(module, name, counted)
        code, _ = run(capsys, "verify", "--out", str(tmp_path))
        assert code == 0
        assert calls == {"eigs_general": 50, "match_spectra": 0}

    @pytest.mark.parametrize("threads", [None, "1"], ids=["pool", "in-turn"])
    def test_er_half_starts_once_the_n800_matrix_exists(self, tmp_path, capsys, monkeypatch,
                                                        threads):
        # the sampling and adjacency hold the interpreter lock: the ER half
        # starts after them, and runs beside the eigensolve on the pool worker
        events = []
        sample, adjacency, er_checks = cli.sample_sbm, Graph.adjacency, cli._er_checks

        def sample_logged(params):
            graph = sample(params)
            events.append(("sampled", params.n))
            return graph

        def adjacency_logged(graph):
            a = adjacency(graph)
            events.append(("adjacency", graph.n))
            return a

        def er_logged(args):
            events.append(("er", threading.get_ident()))
            return er_checks(args)

        if threads is None:
            monkeypatch.delenv("NBSPEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("NBSPEC_THREADS", threads)
        monkeypatch.setattr(cli, "sample_sbm", sample_logged)
        monkeypatch.setattr(Graph, "adjacency", adjacency_logged)
        monkeypatch.setattr(cli, "_er_checks", er_logged)
        code, _ = run(capsys, "verify", "--seed", "3", "--out", str(tmp_path))
        assert code == 0
        er = [i for i, event in enumerate(events) if event[0] == "er"]
        assert len(er) == 1
        assert events[:er[0]] == [("sampled", 800), ("adjacency", 800)]
        with eig.single_blas_thread() as pinned:
            pooled = cli._workers(2, pinned) > 1
        assert (events[er[0]][1] != threading.get_ident()) == pooled


@pytest.mark.parametrize("argv", [
    [],
    ["sample", *BENCH.WARMUP_GRAPH],
    ["spectrum", *BENCH.WARMUP_GRAPH],
    ["classify", *BENCH.WARMUP_GRAPH],
    ["bound", "--pair", "H", *BENCH.WARMUP_GRAPH],
    ["bound", "--pair", "K", *BENCH.WARMUP_GRAPH],
    # this seed's pool has a graph whose H has a defective eigenvalue 0
    ["verify", "--seed", "700111"],
], ids=["import", "sample", "spectrum", "classify", "bound-H", "bound-K", "verify"])
def test_loads_no_scipy(tmp_path, argv):
    # on the benchmark's warm-up graph: numpy is nbspec's one runtime dependency,
    # and scipy would cost import time and memory
    script = (
        "import sys, nbspec\n"
        "if sys.argv[1:]:\n"
        "    from nbspec.cli import main\n"
        "    print(main(sys.argv[1:]), file=sys.stderr)\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'), file=sys.stderr)\n"
    )
    if argv:
        argv = [*argv, "--out", str(tmp_path)]
    proc = subprocess.run([sys.executable, "-c", script, *argv], env=_src_env(),
                          capture_output=True, text=True, check=True)
    assert proc.stderr.splitlines() == (["0"] if argv else []) + ["[]"]
    if argv[:1] == ["verify"]:
        doc = json.loads(proc.stdout)
        assert doc["pass"] and doc["results"]["ihara-bass"]["status"] == "pass"


def test_imports_are_the_declared_dependencies():
    """Every package ``src/nbspec`` imports, stdlib aside, is a runtime dependency, and back."""
    tomllib = pytest.importorskip("tomllib")  # Python >= 3.11
    root = Path(__file__).resolve().parents[1]
    imported = set()
    for path in (root / "src" / "nbspec").glob("*.py"):
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Import):
                imported.update(alias.name.split(".")[0] for alias in node.names)
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                imported.add(node.module.split(".")[0])
    imported -= set(sys.stdlib_module_names) | {"nbspec"}
    project = tomllib.loads((root / "pyproject.toml").read_text())["project"]
    declared = {re.match(r"[A-Za-z0-9_.-]+", dep).group() for dep in project["dependencies"]}
    assert imported == declared


def test_src_imports_are_all_used():
    """Every name a module of ``src/nbspec`` imports is used in it, or listed in its ``__all__``.

    ``__init__.py`` is left out: it imports only to re-export.
    """
    unused = []
    for path in sorted((Path(__file__).resolve().parents[1] / "src" / "nbspec").glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported, used = {}, set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import) or (
                    isinstance(node, ast.ImportFrom) and node.module != "__future__"):
                for alias in node.names:
                    imported[alias.asname or alias.name.split(".")[0]] = node.lineno
            elif isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Assign) and ast.unparse(node.targets) == "__all__":
                used.update(ast.literal_eval(node.value))
        unused += [f"{path.name}:{line} {name}"
                   for name, line in imported.items() if name not in used]
    assert not unused, unused


class TestBlasThreads:
    """Every command runs LAPACK on one OpenBLAS thread and restores the count after."""

    @pytest.fixture
    def setters(self):
        """Each loaded OpenBLAS's setter, with every count set to 2 for the test."""
        setters = eig._openblas_setters()
        if not setters:
            pytest.skip("no loaded OpenBLAS exports openblas_set_num_threads_local")
        original = [set_threads(2) for set_threads in setters]
        yield setters
        for set_threads, count in zip(setters, original):
            set_threads(count)

    @staticmethod
    def _counts(setters):
        """The counts in force, read by setting 2: each setter returns the count it replaces."""
        return [set_threads(2) for set_threads in setters]

    @staticmethod
    def _numeric_failure(pair):
        raise eig.EigenSolveError("injected")

    @pytest.mark.parametrize("argv, expected", [
        (["bound", "--preset", "k4"], 0),
        (["bound", "--pair", "K", "--n", "10", "--p", "0.05", "--q", "0.02"], 2),
        (["spectrum", "--preset", "k4"], 3),
    ], ids=["exit-0", "exit-2", "exit-3"])
    def test_count_restored_on_exit(self, tmp_path, capsys, monkeypatch, setters, argv, expected):
        if expected == 3:
            monkeypatch.setattr(operators.QepPair, "spectrum", self._numeric_failure)
        assert main([*argv, "--out", str(tmp_path)]) == expected
        assert self._counts(setters) == [2] * len(setters)

    @pytest.mark.parametrize("threads", [None, "1", "64"])
    def test_unlimited_blas_gets_one_worker(self, monkeypatch, threads):
        if threads is None:
            monkeypatch.delenv("NBSPEC_THREADS", raising=False)
        else:
            monkeypatch.setenv("NBSPEC_THREADS", threads)
        assert cli._workers(4, False) == 1

    def test_verify_on_unlimited_blas_matches_pinned_run(self, tmp_path, capsys, monkeypatch):
        # a BLAS nbspec cannot limit: verify runs its two halves in turn, same bytes
        monkeypatch.delenv("NBSPEC_THREADS", raising=False)
        args = ("verify", "--seed", "5", "--out", str(tmp_path))
        _, pinned = run(capsys, *args)

        @contextlib.contextmanager
        def unlimited():
            # such output is byte-stable only at a fixed BLAS thread count, so
            # the BLAS runs one thread, as OPENBLAS_NUM_THREADS=1 would set
            with eig.single_blas_thread():
                yield False

        monkeypatch.setattr(cli, "single_blas_thread", unlimited)
        _, unpinned = run(capsys, *args)
        assert unpinned == pinned

    def test_count_restored_after_error_on_verify_worker(self, tmp_path, capsys, monkeypatch,
                                                         setters):
        inside = []

        def broken(pool):
            inside.append([set_threads(1) for set_threads in setters])  # reads, leaves 1
            raise RuntimeError("injected")

        monkeypatch.delenv("NBSPEC_THREADS", raising=False)
        monkeypatch.setattr(analysis, "check_det_identity", broken)
        assert main(["verify", "--out", str(tmp_path)]) == 4
        assert capsys.readouterr().err == "internal error: RuntimeError: injected\n"
        assert inside == [[1] * len(setters)]
        assert self._counts(setters) == [2] * len(setters)

    @pytest.mark.parametrize("argv", [
        ("bound", "--pair", "K", "--n", "100", "--p", "0.2", "--q", "0.05"),
        ("bound", "--pair", "H", "--n", "200", "--p", "0.12", "--q", "0.04"),
        ("verify", "--seed", "2"),
        ("spectrum", "--n", "100", "--p", "0.2", "--q", "0.05"),
    ], ids=["bound-K", "bound-H", "verify", "spectrum"])
    def test_output_independent_of_blas_threads(self, tmp_path, argv):
        # on two cores these runs differed in the last bits when OpenBLAS ran two threads
        runs = []
        for threads in ("1", None):
            env = _src_env()
            env.pop("OMP_NUM_THREADS", None)
            env.pop("OPENBLAS_NUM_THREADS", None)
            if threads is not None:
                env["OPENBLAS_NUM_THREADS"] = threads
            cwd = tmp_path / f"threads-{threads}"
            cwd.mkdir()
            proc = subprocess.run([sys.executable, "-m", "nbspec.cli", *argv, "--out", "."],
                                  cwd=cwd, env=env, capture_output=True, check=True)
            files = {path.name: path.read_bytes() for path in cwd.iterdir()}
            runs.append((proc.stdout, files))
        assert runs[0] == runs[1]


def test_bench_per_layer_names_are_public_functions():
    """Every ``<module>.<function>`` a traced bench run reports is a public function."""
    doc = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
    checked = 0
    for entry in doc["per_layer"]:
        name = entry["name"]
        if name.startswith(("cli.", "trace.", "graphgen.Graph.adjacency.")):
            continue
        module_name, function, _metric = name.split(".")
        module = importlib.import_module(f"nbspec.{module_name}")
        assert function in module.__all__, name
        assert inspect.isfunction(getattr(module, function)), name
        checked += 1
    assert checked > 0


class TestBenchCommandLines:
    """The command lines of the benchmark's ops: the warm-up ops and each workload's first op."""

    @pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
    def test_warmup_op_passes_its_check(self, tmp_path, capsys, workload):
        op = BENCH.WORKLOADS[workload].warmup(1)
        code, out = run(capsys, *op.argv, "--out", str(tmp_path))
        assert code == 0
        assert op.check(code, out, tmp_path) is None

    @pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
    def test_first_op_passes_its_check(self, tmp_path, capsys, workload):
        op = BENCH.WORKLOADS[workload].op(1, 0)
        code, out = run(capsys, *op.argv, "--out", str(tmp_path))
        assert op.check(code, out, tmp_path) is None

    def test_fault_injected_verify(self, tmp_path, capsys):
        op = BENCH.verify_op(1, fault_inject=True)
        code, out = run(capsys, *op.argv, "--out", str(tmp_path))
        assert code == 1
        assert not json.loads(out)["pass"]
