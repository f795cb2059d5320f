import csv
import json
from pathlib import Path

import numpy as np
import pytest

from preimage import cli, evaluation
from preimage.cli import build_parser, main
from preimage.dataset import PointCloud, load_cloud, save_cloud
from preimage.evaluation import TABLE_SCALE_MULTIPLES, ConditioningConfig, SphereConfig
from preimage.inverse import _TAILS, TAIL_LINEAR, NeighborhoodPolicy, eval_rbf, fit_rbf
from preimage.kernels import GAUSSIAN, KernelSpec


@pytest.fixture
def sphere_args(tmp_path):
    out = tmp_path / "run"
    return ["sphere", "--n", "10,14,18", "--seed-list", "0", "--cubic-only", "--out", str(out)], out


class TestSphereCommand:
    def test_writes_expected_files(self, sphere_args):
        args, out = sphere_args
        assert main(args) == 0
        assert (out / "rows.csv").exists()
        assert (out / "medians.csv").exists()
        summary = json.loads((out / "summary.json").read_text())
        assert "slope" in summary  # three n values
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["seeds"] == [0]
        assert manifest["command"] == "sphere"
        assert "numpy" in manifest["versions"]

    def test_manifest_machine_block(self, sphere_args, monkeypatch):
        args, out = sphere_args
        monkeypatch.delenv("GOTO_NUM_THREADS", raising=False)
        monkeypatch.setenv("OPENBLAS_NUM_THREADS", "1")
        monkeypatch.setenv("OMP_NUM_THREADS", "abc")
        assert main(args) == 0
        machine = json.loads((out / "manifest.json").read_text())["machine"]
        assert machine["nproc"] == evaluation._cpu_count() >= 1
        assert machine["fold_workers"] == evaluation._fold_workers() == machine["nproc"]
        assert machine["blas"]["threads"] == {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "abc"}
        assert set(machine["blas"]) == {"blas", "lapack", "threads"}
        assert set(machine["blas"]["blas"]) == {"name", "version"}

    def test_medians_csv_reads_back(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sphere", "--n", "10,14", "--seed-list", "0,1", "--gaussian-scales", "0.5", "--shepard-scales", "",
                     "--out", str(out)]) == 0
        with open(out / "medians.csv", newline="") as f:
            medians = list(csv.DictReader(f))
        with open(out / "rows.csv", newline="") as f:
            rows = list(csv.DictReader(f))
        assert [(m["n"], m["method"], m["scale_multiple"]) for m in medians] == [
            ("10", "cubic", ""), ("10", "gaussian", "0.5"), ("14", "cubic", ""), ("14", "gaussian", "0.5")]
        for m in medians:
            group = [float(r["e_avg"]) for r in rows if all(r[c] == m[c] for c in ("n", "method", "scale_multiple"))]
            assert m["seeds"] == "2" and len(group) == 2
            assert float(m["median_e_avg"]) == float(np.median(group))

    def test_missing_out_is_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["sphere", "--n", "10"])
        assert exc.value.code == 2

    def test_no_slope_below_three_n(self, tmp_path):
        out = tmp_path / "r"
        assert main(["sphere", "--n", "10,14", "--seed-list", "0", "--cubic-only", "--out", str(out)]) == 0
        assert "slope" not in json.loads((out / "summary.json").read_text())

    def test_reproducible_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        base = ["sphere", "--n", "10,14", "--seed-list", "0,1", "--cubic-only"]
        assert main(base + ["--out", str(a)]) == 0
        assert main(base + ["--out", str(b)]) == 0
        assert (a / "rows.csv").read_bytes() == (b / "rows.csv").read_bytes()
        assert (a / "medians.csv").read_bytes() == (b / "medians.csv").read_bytes()

    def test_computation_failure_cleans_outputs(self, tmp_path):
        out = tmp_path / "r"
        # n below the embed_dim+3 floor -> computation error, exit 1, no files
        assert main(["sphere", "--n", "6", "--seed-list", "0", "--cubic-only", "--out", str(out)]) == 1
        assert not (out / "rows.csv").exists()
        assert not (out / "manifest.json").exists()


    def test_defaults_meet_convergence_criterion(self, tmp_path):
        out = tmp_path / "run"
        assert main(["sphere", "--cubic-only", "--n", "10,30,100", "--seed-list", "0,1", "--out", str(out)]) == 0
        slope = json.loads((out / "summary.json").read_text())["slope"]
        assert 1.5 <= slope <= 2.5


class TestParserDefaults:
    def test_defaults_are_config_fields(self):
        parser = build_parser()
        sphere, cond = SphereConfig(), ConditioningConfig()
        args = vars(parser.parse_args(["sphere", "--out", "o"]))
        for flag, field in [("sphere_dim", "sphere_dim"), ("ambient_dim", "ambient_dim"), ("embed_dim", "embed_dim"),
                            ("affinity_multiple", "affinity_multiple"), ("gaussian_scales", "gaussian_multiples"),
                            ("shepard_scales", "shepard_multiples"), ("max_neighbors", "max_neighbors")]:
            value = getattr(sphere, field)
            assert args[flag] == (list(value) if isinstance(value, tuple) else value), flag
        assert "tail" not in args  # the cubic takes only the linear tail
        assert args["seed_list"] == [0, 1, 2, 3, 4]
        args = vars(parser.parse_args(["loo-table", "--values", "v", "--embed-dim", "2", "--out", "o"]))
        assert args["affinity_multiple"] == sphere.affinity_multiple
        assert args["gaussian_scales"] == args["shepard_scales"] == list(TABLE_SCALE_MULTIPLES)
        assert "tail" not in args
        assert args["max_neighbors"] == NeighborhoodPolicy().max_neighbors == sphere.max_neighbors
        args = vars(parser.parse_args(["conditioning", "--mode", "vs_fill", "--out", "o"]))
        for flag, field in [("dim", "ambient_dim"), ("n_values", "n_values"), ("epsilon", "epsilon"), ("n", "n"),
                            ("epsilon_values", "epsilon_values"), ("seed", "seed")]:
            value = getattr(cond, field)
            assert args[flag] == (list(value) if isinstance(value, tuple) else value), flag
        assert args["full_sphere"] == (not cond.quadrant_only)
        args = vars(parser.parse_args(["fit", "--nodes", "n", "--values", "v", "--out", "o"]))
        assert {k: args[k] for k in ("kernel", "epsilon", "rho", "tail")} == {
            "kernel": "cubic", "epsilon": None, "rho": None, "tail": TAIL_LINEAR}

    @pytest.mark.parametrize(
        "argv,options",
        [(["invert", "--model", "m", "--queries", "q"], {"model", "queries", "out"}),
         (["nystrom-scan", "--knn", "5"], {"out", "cloud", "n", "dim", "seed", "embed_dim", "epsilon_multiple", "threshold", "knn",
                             "eigvec", "start", "stop", "steps"}),
         (["sphere"], {"n", "seed_list", "out", "sphere_dim", "ambient_dim", "embed_dim", "affinity_multiple",
                       "gaussian_scales", "shepard_scales", "cubic_only", "max_neighbors"})],
    )
    def test_option_sets(self, argv, options):
        args = vars(build_parser().parse_args(argv + ["--out", "o"]))
        assert set(args) - {"command", "func"} == options

    @pytest.mark.parametrize(
        "argv,removed",
        [(["invert", "--model", "m", "--queries", "q"], ["--nodes", "n"]),
         (["invert", "--model", "m", "--queries", "q"], ["--values", "v"]),
         (["nystrom-scan", "--knn", "5", "--steps", "20"], ["--embed-on", "full"]),
         (["sphere", "--n", "10,14", "--cubic-only"], ["--seeds", "1"])],
    )
    def test_removed_flags_are_usage_errors(self, tmp_path, capsys, argv, removed):
        out = tmp_path / "out"
        with pytest.raises(SystemExit) as exc:
            main(argv + removed + ["--out", str(out)])
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(removed)}" in capsys.readouterr().err
        assert not out.exists()


class TestConditioningCommand:
    def test_vs_epsilon_single_flat_cubic_row(self, tmp_path):
        out = tmp_path / "cond"
        code = main(
            ["conditioning", "--mode", "vs_epsilon", "--n", "40", "--dim", "3",
             "--epsilon-values", "0.01,0.1,1,10", "--out", str(out)]
        )
        assert code == 0
        lines = (out / "conditioning.csv").read_text().strip().splitlines()
        cubic_rows = [l for l in lines[1:] if ",cubic," in l]
        assert len(cubic_rows) == 1
        assert (out / "manifest.json").exists()

    def test_vs_fill(self, tmp_path):
        out = tmp_path / "cond"
        assert main(["conditioning", "--mode", "vs_fill", "--n-values", "10,30", "--dim", "3", "--out", str(out)]) == 0
        lines = (out / "conditioning.csv").read_text().strip().splitlines()
        assert len(lines) == 5  # header + 2 n-values x 2 kernels

    @pytest.mark.parametrize("argv", [["--mode", "vs_fill", "--n-values", ","],
                                      ["--mode", "vs_epsilon", "--epsilon-values", ","]])
    def test_empty_sweep_exits_1_and_writes_nothing(self, tmp_path, capsys, argv):
        out = tmp_path / "cond"
        assert main(["conditioning"] + argv + ["--out", str(out)]) == 1
        assert "empty vs_" in capsys.readouterr().err
        assert not (out / "conditioning.csv").exists() and not (out / "manifest.json").exists()


class TestFitInvertCommands:
    def make_data(self, tmp_path, rng):
        nodes = PointCloud(rng.normal(size=(15, 2)))
        values = PointCloud(rng.normal(size=(15, 3)))
        save_cloud(nodes, tmp_path / "nodes.pcld")
        save_cloud(values, tmp_path / "values.pcld")
        return nodes, values

    def test_fit_then_invert_reproduces_training_values(self, tmp_path, rng):
        nodes, values = self.make_data(tmp_path, rng)
        model_dir = tmp_path / "model"
        assert main(["fit", "--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld"),
                     "--out", str(model_dir)]) == 0
        pred_path = tmp_path / "pred.pcld"
        assert main(["invert", "--model", str(model_dir), "--queries", str(tmp_path / "nodes.pcld"),
                     "--out", str(pred_path)]) == 0
        pred = load_cloud(pred_path)
        rel = np.abs(pred.points - values.points).max() / np.abs(values.points).max()
        assert rel < 1e-6

    def test_fit_then_invert_equals_library_bitwise(self, tmp_path, rng):
        nodes, values = self.make_data(tmp_path, rng)
        queries = PointCloud(rng.normal(size=(9, 2)))
        save_cloud(queries, tmp_path / "queries.pcld")
        data = ["--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld")]
        for (family, rho), tails in _TAILS.items():
            spec = KernelSpec(family, epsilon=0.7 if family == GAUSSIAN else None, rho=rho)
            if family == GAUSSIAN:
                flags = ["--kernel", "gaussian", "--epsilon", "0.7"]
            else:  # radial_power and thin_plate are --kernel radial-power and thin-plate
                flags = ["--kernel", family.replace("_", "-"), "--rho", str(rho)]
            for tail in tails:
                model_dir, pred = tmp_path / f"{family}-{rho}-{tail}", tmp_path / f"{family}-{rho}-{tail}.pcld"
                assert main(["fit"] + data + flags + ["--tail", tail, "--out", str(model_dir)]) == 0
                assert main(["invert", "--model", str(model_dir), "--queries", str(tmp_path / "queries.pcld"),
                             "--out", str(pred)]) == 0
                expected = eval_rbf(fit_rbf(nodes, values, spec, tail=tail), queries.points)
                assert load_cloud(pred).points.tobytes() == expected.tobytes(), (family, rho, tail)

    def test_invert_requires_model(self, tmp_path, rng):
        self.make_data(tmp_path, rng)
        with pytest.raises(SystemExit) as exc:
            main(["invert", "--queries", str(tmp_path / "nodes.pcld"), "--out", str(tmp_path / "p.pcld")])
        assert exc.value.code == 2
        assert not (tmp_path / "p.pcld").exists()

    def test_failure_after_save_leaves_no_file(self, tmp_path, rng, monkeypatch):
        self.make_data(tmp_path, rng)

        def fail(*args, **kwargs):
            raise OSError("disk full")

        monkeypatch.setattr(cli, "_write_manifest", fail)
        out = tmp_path / "model"
        assert main(["fit", "--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld"),
                     "--out", str(out)]) == 1
        assert [p for p in out.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize(
        "flags,reason",
        [(["--kernel", "cubic", "--epsilon", "0.5"], "epsilon not allowed"),
         (["--kernel", "cubic", "--rho", "5"], "--rho is not a cubic parameter"),
         (["--kernel", "gaussian", "--epsilon", "1", "--rho", "3"], "rho is not a gaussian parameter"),
         (["--kernel", "thin-plate", "--tail", "none"], "does not take tail 'none'")],
    )
    def test_refused_kernel_flags_leave_no_file(self, tmp_path, rng, capsys, flags, reason):
        self.make_data(tmp_path, rng)
        data = ["--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld")]
        out = tmp_path / "out"
        assert main(["fit"] + data + flags + ["--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists() or [p for p in out.rglob("*") if p.is_file()] == []

    def test_invert_refuses_edited_sidecar_tail(self, tmp_path, rng, capsys):
        self.make_data(tmp_path, rng)
        model_dir = tmp_path / "model"
        assert main(["fit", "--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld"),
                     "--out", str(model_dir)]) == 0
        meta = json.loads((model_dir / "model.json").read_text())
        meta["tail"] = "quadratic"
        (model_dir / "model.json").write_text(json.dumps(meta))
        pred = tmp_path / "pred.pcld"
        assert main(["invert", "--model", str(model_dir), "--queries", str(tmp_path / "nodes.pcld"),
                     "--out", str(pred)]) == 1
        assert "tail 'quadratic'" in capsys.readouterr().err
        assert not pred.exists()

    @pytest.mark.parametrize(
        "flags", [["--kernel", "gaussian", "--epsilon", "3", "--tail", "none"], ["--kernel", "cubic"], ["--tail", "linear"],
                  ["--rho", "3"], ["--epsilon", "1"]]
    )
    def test_invert_model_refuses_kernel_flags(self, tmp_path, rng, capsys, flags):
        self.make_data(tmp_path, rng)
        model_dir = tmp_path / "model"
        assert main(["fit", "--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld"),
                     "--out", str(model_dir)]) == 0
        pred = tmp_path / "pred.pcld"
        # the model fixes its kernel and tail, so invert has no kernel flag to give
        with pytest.raises(SystemExit) as exc:
            main(["invert", "--model", str(model_dir), "--queries", str(tmp_path / "nodes.pcld"),
                  "--out", str(pred)] + flags)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {flags[0]}" in capsys.readouterr().err
        assert not pred.exists()
        assert not Path(str(pred) + ".manifest.json").exists()

    def test_invert_manifest_records_the_model(self, tmp_path, rng):
        self.make_data(tmp_path, rng)
        model_dir = tmp_path / "model"
        assert main(["fit", "--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld"),
                     "--kernel", "gaussian", "--epsilon", "0.5", "--tail", "none", "--out", str(model_dir)]) == 0
        pred = tmp_path / "pred.pcld"
        assert main(["invert", "--model", str(model_dir), "--queries", str(tmp_path / "nodes.pcld"),
                     "--out", str(pred)]) == 0
        manifest = json.loads(Path(str(pred) + ".manifest.json").read_text())
        assert manifest["model"] == {"spec": {"family": "gaussian", "epsilon": 0.5}, "tail": "none"}
        assert manifest["config"] == {"command": "invert", "model": str(model_dir),
                                      "queries": str(tmp_path / "nodes.pcld"), "out": str(pred)}

    def test_gaussian_needs_epsilon(self, tmp_path, rng):
        self.make_data(tmp_path, rng)
        code = main(["fit", "--nodes", str(tmp_path / "nodes.pcld"), "--values", str(tmp_path / "values.pcld"),
                     "--kernel", "gaussian", "--out", str(tmp_path / "m")])
        assert code == 1


class TestNystromScanCommand:
    def test_scan_csv_and_summary(self, tmp_path):
        out = tmp_path / "scan"
        code = main(["nystrom-scan", "--n", "60", "--seed", "3", "--threshold", "0.4",
                     "--epsilon-multiple", "0.5", "--steps", "50", "--out", str(out)])
        assert code == 0
        lines = (out / "scan.csv").read_text().strip().splitlines()
        assert lines[0] == "step,t,value_full,value_sparse"
        assert len(lines) == 51
        summary = json.loads((out / "scan_summary.json").read_text())
        assert summary["delta_max_sparse"] >= summary["delta_max_full"]
        assert json.loads((out / "manifest.json").read_text())["seeds"] == [3]

    def test_eigval_gap_zero_on_two_far_apart_clusters(self, tmp_path, rng):
        # the kernel between clusters 100 apart underflows to 0, so eigenvalue 1
        # has multiplicity 2 and eigenvector 1 is not determined by the inputs
        one = rng.uniform(0.0, 1.0, size=(30, 2))
        gaps, solvers = {}, {}
        for name, points in [("one", one), ("two", np.vstack([one, one + 100.0]))]:
            save_cloud(PointCloud(points), tmp_path / f"{name}.pcld")
            assert main(["nystrom-scan", "--cloud", str(tmp_path / f"{name}.pcld"), "--knn", "5",
                         "--epsilon-multiple", "0.25", "--steps", "20", "--out", str(tmp_path / name)]) == 0
            summary = json.loads((tmp_path / name / "scan_summary.json").read_text())
            gaps[name], solvers[name] = summary["eigval_gap"], summary["solver"]
        assert gaps["two"] < 1e-12
        assert gaps["one"] > 1e-2
        # the repeated eigenvalue is refused by the Lanczos guard
        assert solvers == {"one": "lanczos", "two": "eigh"}

    def test_summary_is_strict_json_when_no_jump_is_defined(self, tmp_path):
        # a segment across two clusters 100 apart leaves the thresholded query vector
        # all zero at most steps, so no two consecutive steps of the sparse profile extend
        rng = np.random.default_rng(0)
        points = np.vstack([rng.uniform(0.0, 1.0, size=(75, 2)), rng.uniform(0.0, 1.0, size=(75, 2)) + 100.0])
        save_cloud(PointCloud(points), tmp_path / "two.pcld")
        assert main(["nystrom-scan", "--cloud", str(tmp_path / "two.pcld"), "--threshold", "0.4",
                     "--epsilon-multiple", "0.25", "--steps", "20", "--out", str(tmp_path / "scan")]) == 0

        def reject(constant):
            raise ValueError(f"non-standard JSON constant {constant}")

        summary = json.loads((tmp_path / "scan" / "scan_summary.json").read_text(), parse_constant=reject)
        assert summary["failures"] > 0
        assert summary["delta_max_sparse"] is None
        assert summary["delta_max_full"] > 0.0
        # a loaded cloud draws no random numbers
        assert json.loads((tmp_path / "scan" / "manifest.json").read_text())["seeds"] == []

    @pytest.mark.parametrize(
        "flags,reason",
        [(["--start", "0.5", "--stop", "0.9,0.9"], r"points in R^2"),
         (["--start", "0.1,0.1,0.1"], r"points in R^2"),
         (["--eigvec", "-1"], r"outside [0, 2]"),
         (["--eigvec", "3"], r"outside [0, 2]")],
    )
    @pytest.mark.parametrize("sparsify", [["--threshold", "0.4"], ["--knn", "5"]])
    def test_refused_segment_or_eigvec_leaves_no_file(self, tmp_path, capsys, sparsify, flags, reason):
        out = tmp_path / "scan"
        assert main(["nystrom-scan", "--n", "60", "--steps", "20"] + sparsify + flags + ["--out", str(out)]) == 1
        assert reason in capsys.readouterr().err
        assert not out.exists() or [p for p in out.rglob("*") if p.is_file()] == []

    @pytest.mark.parametrize("sparsify", [[], ["--threshold", "0.4", "--knn", "5"]])
    def test_sparsifier_is_a_usage_rule(self, tmp_path, capsys, sparsify):
        out = tmp_path / "scan"
        with pytest.raises(SystemExit) as exc:
            main(["nystrom-scan", "--n", "60", "--steps", "20"] + sparsify + ["--out", str(out)])
        assert exc.value.code == 2
        assert "--threshold" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("sparsify", [["--threshold", "0.4"], ["--knn", "5"]])
    def test_eigvec_refused_before_embedding(self, tmp_path, capsys, monkeypatch, sparsify):
        def never(*args, **kwargs):
            pytest.fail("embedded before refusing --eigvec")  # not an Exception, so main does not catch it

        monkeypatch.setattr(cli, "laplacian_eigenmaps", never)
        monkeypatch.setattr(cli, "embedding_from_kernel", never)
        out = tmp_path / "scan"
        argv = ["nystrom-scan", "--n", "60", "--embed-dim", "3", "--eigvec", "4"] + sparsify + ["--out", str(out)]
        assert main(argv) == 1
        assert "outside [0, 3]" in capsys.readouterr().err
        assert not out.exists()


def _twinned_cloud(path):
    """4 points each repeated twice: every point's nearest other point is its twin, so h_local = 0."""
    save_cloud(PointCloud(np.repeat(np.random.default_rng(1).uniform(size=(4, 2)), 2, axis=0)), path)


@pytest.mark.filterwarnings("ignore:duplicate points")
@pytest.mark.parametrize("command", [["nystrom-scan", "--knn", "5", "--cloud"], ["loo-table", "--embed-dim", "1", "--values"]])
def test_zero_spacing_names_duplicates(tmp_path, capsys, command):
    _twinned_cloud(tmp_path / "twins.pcld")
    assert main(command + [str(tmp_path / "twins.pcld"), "--out", str(tmp_path / "out")]) == 1
    err = capsys.readouterr().err
    assert "duplicate" in err and "division" not in err


class TestLooTableCommand:
    def test_table_marks_cubic_minimum(self, tmp_path):
        from preimage.evaluation import SphereConfig, sphere_pipeline

        ambient, emb = sphere_pipeline(40, SphereConfig(), seed=1)
        save_cloud(ambient, tmp_path / "values.pcld")
        save_cloud(PointCloud(emb.coords), tmp_path / "coords.pcld")
        out = tmp_path / "table"
        code = main(["loo-table", "--values", str(tmp_path / "values.pcld"), "--coords", str(tmp_path / "coords.pcld"),
                     "--gaussian-scales", "0.5,1", "--shepard-scales", "1", "--out", str(out)])
        assert code == 0
        lines = (out / "table.csv").read_text().strip().splitlines()
        marked = [l for l in lines[1:] if l.endswith(",1")]
        assert len(marked) == 1
        assert ",cubic," in marked[0]

    def test_embed_dim_path(self, tmp_path):
        from preimage.dataset import sample_sphere

        save_cloud(sample_sphere(30, 2, seed=0), tmp_path / "values.pcld")
        out = tmp_path / "table"
        code = main(["loo-table", "--values", str(tmp_path / "values.pcld"), "--embed-dim", "2",
                     "--gaussian-scales", "1", "--shepard-scales", "1", "--out", str(out)])
        assert code == 0
        assert (out / "table.csv").exists()

    def test_requires_coords_or_embed_dim(self, tmp_path, capsys):
        from preimage.dataset import sample_sphere

        save_cloud(sample_sphere(30, 2, seed=0), tmp_path / "values.pcld")
        save_cloud(sample_sphere(30, 2, seed=1), tmp_path / "coords.pcld")
        base = ["loo-table", "--values", str(tmp_path / "values.pcld"), "--out", str(tmp_path / "t")]
        for flags, reason in [([], "one of the arguments --coords --embed-dim is required"),
                              (["--coords", str(tmp_path / "coords.pcld"), "--embed-dim", "2"], "not allowed with")]:
            with pytest.raises(SystemExit) as exc:
                main(base + flags)
            assert exc.value.code == 2
            assert reason in capsys.readouterr().err
            assert not (tmp_path / "t").exists()
