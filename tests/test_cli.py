import importlib.util
import json
import math
import sys
from pathlib import Path

import pytest

from nbspec.cli import main


def _load_bench_workloads():
    """bench/workloads.py, which builds the command lines the benchmark sends."""
    path = Path(__file__).resolve().parents[1] / "bench" / "workloads.py"
    spec = importlib.util.spec_from_file_location("bench_workloads", path)
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses resolve annotations through it
    spec.loader.exec_module(module)
    return module


BENCH = _load_bench_workloads()


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

    def test_output_independent_of_thread_cap(self, tmp_path, capsys, monkeypatch):
        args = ("classify", *self.SWEEP_GRAPH, "--seed", "5", "--seeds", "3",
                "--out", str(tmp_path))
        monkeypatch.delenv("NBSPEC_THREADS", raising=False)
        _, unset = run(capsys, *args)
        monkeypatch.setenv("NBSPEC_THREADS", "1")
        _, capped = run(capsys, *args)
        assert capped == unset


class TestBadInput:
    @pytest.mark.parametrize("argv, threads", [
        (["classify", "--seeds", "0"], None),
        (["classify", "--seeds", "-2"], None),
        (["classify", "--tau", "-1"], None),
        (["classify", "--tau", "1"], None),
        (["classify", "--tau", "5"], None),
        (["spectrum", "--dense-cap", "-5"], None),
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

    @pytest.mark.parametrize("argv", [
        ["verify", "--tau", "0.5"],
        ["verify", "--preset", "k4"],
        ["bound", "--preset", "k4", "--dense-cap", "10"],
        ["sample", "--preset", "k4", "--tau", "0.5"],
    ], ids=["verify-tau", "verify-preset", "bound-dense-cap", "sample-tau"])
    def test_option_the_command_does_not_take(self, tmp_path, capsys, argv):
        out = tmp_path / "out"
        code = main([*argv, "--out", str(out)])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: ") and err.count("\n") == 1
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

    @pytest.mark.parametrize("text", [
        "4 3 0 nan nan\n0011\n0 1\n",  # fewer edge lines than the header's m
        "4 1 0 nan nan\n0011\n0 x\n",  # non-integer vertex
        "4 two 0 nan nan\n0011\n",  # non-integer m
        "4 2 0 nan nan\n0011\n0 1\n2 3\n0 2\n1 3\n",  # more edge lines than the header's m
        "4 -1 0 nan nan\n0011\n",  # negative m
    ], ids=["short", "bad-vertex", "bad-header", "extra-lines", "negative-m"])
    def test_malformed_edge_list(self, tmp_path, capsys, text):
        path = tmp_path / "graph.edgelist"
        path.write_text(text)
        code = main(["spectrum", "--input", str(path), "--out", str(tmp_path / "out")])
        err = capsys.readouterr().err
        assert code == 2
        assert err.startswith("error: line ") and err.count("\n") == 1


class TestBound:
    def test_regular_graph_zero_radius(self, tmp_path, capsys):
        code, out = run(capsys, "bound", "--preset", "regular:4,12", "--pair", "H",
                        "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["epsilon_global"] == pytest.approx(0.0, abs=1e-12)
        assert doc["all_within_bound"]

    def test_h_pair_on_sbm(self, tmp_path, capsys):
        code, out = run(capsys, "bound", "--n", "60", "--p", "0.6", "--q", "0.3",
                        "--seed", "2", "--pair", "H", "--out", str(tmp_path))
        assert code == 0
        doc = json.loads(out)
        assert doc["kappa"] == 1.0
        assert doc["all_within_bound"]
        report = json.loads((tmp_path / "bound_H.json").read_text())
        assert len(report["per_mu"]) == 120

    def test_k_pair_on_sbm(self, tmp_path, capsys):
        code, out = run(capsys, "bound", "--n", "60", "--p", "0.6", "--q", "0.3",
                        "--seed", "2", "--pair", "K", "--out", str(tmp_path))
        assert code == 0
        assert json.loads(out)["all_within_bound"]

    def test_degree_too_small_is_bad_input(self, tmp_path, capsys):
        # near-empty graph: K undefined
        code, _ = run(capsys, "bound", "--n", "10", "--p", "0.05", "--q", "0.02",
                      "--seed", "1", "--pair", "K", "--out", str(tmp_path))
        assert code == 2


class TestVerify:
    def test_default_suite_passes(self, tmp_path, capsys):
        code, out = run(capsys, "verify", "--out", str(tmp_path))
        doc = json.loads(out)
        assert doc["pass"], doc
        assert code == 0
        names = set(doc["results"])
        assert names == {
            "ihara-bass",
            "det-identity",
            "eigenvalue-one",
            "reciprocity",
            "qep-random-trials",
            "semicircle-ks",
        }

    def test_low_cap_skips_ihara_bass(self, tmp_path, capsys):
        code, out = run(capsys, "verify", "--dense-cap", "10", "--out", str(tmp_path))
        doc = json.loads(out)
        assert doc["results"]["ihara-bass"]["status"] == "skipped"
        assert "reason" in doc["results"]["ihara-bass"]
        assert code == 0

    def test_fault_injection_fails(self, tmp_path, capsys):
        code, out = run(capsys, "verify", "--fault-inject", "--out", str(tmp_path))
        assert code == 1
        assert not json.loads(out)["pass"]


class TestBenchCommandLines:
    """The command lines of the benchmark's ops, on its small warm-up graphs."""

    @pytest.mark.parametrize("workload", sorted(BENCH.WORKLOADS))
    def test_warmup_op_passes_its_check(self, tmp_path, capsys, workload):
        op = BENCH.WORKLOADS[workload].warmup(1)
        code, out = run(capsys, *op.argv, "--out", str(tmp_path))
        assert code == 0
        assert op.check(code, out, tmp_path) is None

    def test_fault_injected_verify(self, tmp_path, capsys):
        op = BENCH.verify_op(1, fault_inject=True)
        code, out = run(capsys, *op.argv, "--out", str(tmp_path))
        assert code == 1
        assert not json.loads(out)["pass"]
