import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import geomrel.cli as cli
from geomrel.data import FailureDataset, to_cumulative_csv
from geomrel.estimation import FitResult
from geomrel.model import GeometricModelParams

REPO_DATA = Path(__file__).resolve().parent.parent / "data"


@pytest.fixture()
def cumulative_file(tmp_path):
    ds = FailureDataset(
        tuple((float(t), int(round(c))) for t, c in [(5, 2), (10, 4), (20, 7), (40, 11), (80, 16)]),
        label="hist",
    )
    path = tmp_path / "hist.csv"
    path.write_text(to_cumulative_csv(ds))
    return path


def read_tree(root: Path) -> dict:
    return {p.name: p.read_bytes() for p in sorted(root.iterdir()) if p.is_file()}


class TestFitCommand:
    def test_fit_emits_contracted_json(self, capsys, cumulative_file):
        code = cli.main(["fit", str(cumulative_file), "--format", "cumulative"])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert 0.0 < payload["p1"] < 1.0
        assert 0.0 < payload["d"] < 1.0
        assert payload["converged"] is True
        assert set(payload) == {
            "p1", "d", "truncation", "objective", "iterations", "converged", "skipped_points",
            "boundary",
        }
        assert payload["boundary"] is None

    def test_fit_tbf_format(self, capsys):
        code = cli.main(["fit", str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf"])
        assert code == 0
        assert json.loads(capsys.readouterr().out)["converged"] is True

    def test_missing_file_exits_one(self, capsys):
        assert cli.main(["fit", "does-not-exist.csv"]) == 1
        assert "error" in capsys.readouterr().err

    def test_malformed_file_exits_one(self, tmp_path, capsys):
        bad = tmp_path / "bad.csv"
        bad.write_text("time,cumulative_failures\n10,4\n5,6\n")
        assert cli.main(["fit", str(bad)]) == 1
        assert "non-monotone" in capsys.readouterr().err

    def test_non_convergence_exits_two(self, monkeypatch, capsys, cumulative_file):
        stub = FitResult(
            params=GeometricModelParams(0.1, 0.9),
            objective_value=1.0,
            iterations=2000,
            converged=False,
            simplex_spread=1.0,
            skipped_points=0,
        )
        monkeypatch.setattr(cli, "fit", lambda ds, config=None: stub)
        assert cli.main(["fit", str(cumulative_file)]) == 2
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_usage_error_exits_one(self):
        assert cli.main([]) == 1
        assert cli.main(["fit"]) == 1


class TestPredictCommand:
    def predict(self, capsys, *extra):
        args = ["predict", *extra]
        code = cli.main(args)
        out = capsys.readouterr()
        return code, out

    def test_objective_equal_to_current_gives_zero(self, tmp_path, capsys):
        history = tmp_path / "one.csv"
        history.write_text("time,cumulative_failures\n1.0,1\n")
        # p1=0.5, d=0.5, two faults: intensity at t=1 is exactly 0.75.
        code, out = self.predict(
            capsys,
            str(history),
            "--p1", "0.5", "--d", "0.5", "--truncation", "2",
            "--objective", "0.75",
        )
        payload = json.loads(out.out)
        assert code == 0
        assert payload["delta_t_raw"] == 0.0
        assert payload["delta_t_abs"] == 0.0

    def test_contract_fields_present(self, cumulative_file, capsys):
        code, out = self.predict(
            capsys, str(cumulative_file), "--p1", "0.05", "--d", "0.9", "--objective", "0.01"
        )
        payload = json.loads(out.out)
        assert code == 0
        for key in ("t", "mu", "lambda", "delta_t_raw", "delta_t_abs"):
            assert key in payload
        assert payload["delta_t_raw"] <= 0
        assert payload["delta_t_abs"] == abs(payload["delta_t_raw"])

    def test_profile_converts_to_calendar_days(self, tmp_path, cumulative_file, capsys):
        profile = tmp_path / "profile.json"
        profile.write_text(
            json.dumps({"incidents_per_client_per_day": 2.0, "client_count": 10})
        )
        code, out = self.predict(
            capsys,
            str(cumulative_file),
            "--p1", "0.05", "--d", "0.9",
            "--objective", "0.01",
            "--profile", str(profile),
        )
        payload = json.loads(out.out)
        assert code == 0
        # 10 clients x 2 incidents/client/day: 20 incidents per day.
        assert payload["delta_t_abs_calendar_days"] == pytest.approx(
            payload["delta_t_abs"] / 20.0
        )

    def test_huge_population_runs_in_bounded_memory(self):
        # 10^9 fault terms: one float per fault would take 8 GB.  The child
        # gets a 1 GiB address-space limit so that a regression fails fast
        # with a MemoryError instead of exhausting the host.
        resource = pytest.importorskip("resource")
        limit = 1 << 30

        def cap_memory():
            resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

        src = str(Path(cli.__file__).resolve().parent.parent)
        env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run(
            [
                sys.executable, "-m", "geomrel.cli", "predict",
                str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf",
                "--p1", "0.05", "--d", "0.9", "--truncation", "1000000000",
                "--objective", "0.01",
            ],
            capture_output=True,
            text=True,
            env=env,
            preexec_fn=cap_memory,
            timeout=120,
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        for key in ("mu", "lambda", "delta_t_raw", "delta_t_abs"):
            assert math.isfinite(payload[key])

    def test_objective_above_current_exits_two(self, cumulative_file, capsys):
        code, out = self.predict(
            capsys, str(cumulative_file), "--p1", "0.05", "--d", "0.9", "--objective", "100.0"
        )
        assert code == 2
        assert "exceeds the current intensity" in out.err

    def test_params_file_roundtrip(self, tmp_path, cumulative_file, capsys):
        assert cli.main(["fit", str(cumulative_file)]) == 0
        fitted = capsys.readouterr().out
        params_path = tmp_path / "params.json"
        params_path.write_text(fitted)
        code, out = self.predict(
            capsys, str(cumulative_file), "--params", str(params_path), "--objective", "1e-6"
        )
        assert code == 0
        assert json.loads(out.out)["lambda"] > 0

    def test_missing_params_exits_one(self, cumulative_file, capsys):
        code, out = self.predict(capsys, str(cumulative_file), "--objective", "0.1")
        assert code == 1

    @pytest.mark.parametrize(
        "payload",
        [
            [1, 2],
            {"p1": "0.1", "d": 0.9, "truncation": 100},
            {"p1": 0.1, "d": 0.9, "truncation": None},
        ],
        ids=["list", "string-p1", "null-truncation"],
    )
    def test_malformed_params_file_exits_one(self, tmp_path, cumulative_file, capsys, payload):
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(payload))
        code, out = self.predict(
            capsys, str(cumulative_file), "--params", str(params_path), "--objective", "1e-6"
        )
        assert code == 1
        assert out.err.startswith("geomrel: error:")
        assert "Traceback" not in out.err


class TestEvaluateCommand:
    def test_unknown_model_listed(self, cumulative_file, tmp_path, capsys):
        code = cli.main(
            ["evaluate", str(cumulative_file), "--models", "duane", "--out", str(tmp_path / "o")]
        )
        assert code == 1
        err = capsys.readouterr().err
        for name in ("geometric", "musa-basic", "musa-okumoto", "littlewood-verrall", "nhpp"):
            assert name in err

    def test_single_dataset_single_model(self, cumulative_file, tmp_path):
        out = tmp_path / "out"
        code = cli.main(
            [
                "evaluate", str(cumulative_file),
                "--models", "geometric", "--cuts", "5", "--bins", "5",
                "--out", str(out),
            ]
        )
        assert code == 0
        files = read_tree(out)
        assert "curve_hist_geometric.csv" in files
        assert "aggregate_geometric.csv" in files
        assert "manifest.json" in files
        header = files["curve_hist_geometric.csv"].decode().splitlines()[0]
        assert header == "normalized_time,relative_error,model,dataset"

    def test_models_all_runs_five(self, tmp_path):
        out = tmp_path / "o"
        code = cli.main(
            [
                "evaluate", str(REPO_DATA / "ntds_tbf.csv"),
                "--format", "tbf", "--models", "all", "--cuts", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        names = {"geometric", "musa-basic", "musa-okumoto", "littlewood-verrall", "nhpp"}
        for name in names:
            assert (out / f"aggregate_{name}.csv").exists()

    def test_rerun_is_byte_identical(self, cumulative_file, tmp_path):
        args = ["--models", "geometric,nhpp", "--cuts", "6", "--bins", "4"]
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main(["evaluate", str(cumulative_file), *args, "--out", str(out_a)]) == 0
        assert cli.main(["evaluate", str(cumulative_file), *args, "--out", str(out_b)]) == 0
        tree_a, tree_b = read_tree(out_a), read_tree(out_b)
        # The manifests differ only in the requested output path.
        manifest_a = tree_a.pop("manifest.json").replace(str(out_a).encode(), b"OUT")
        manifest_b = tree_b.pop("manifest.json").replace(str(out_b).encode(), b"OUT")
        assert manifest_a == manifest_b
        assert tree_a == tree_b

    def test_single_model_flag_repeatable(self, cumulative_file, tmp_path):
        out = tmp_path / "o"
        code = cli.main(
            [
                "evaluate", str(cumulative_file),
                "--model", "geometric", "--model", "nhpp", "--cuts", "4",
                "--out", str(out),
            ]
        )
        assert code == 0
        assert (out / "aggregate_geometric.csv").exists()
        assert (out / "aggregate_nhpp.csv").exists()
        assert not (out / "aggregate_musa-basic.csv").exists()
        manifest = json.loads((out / "manifest.json").read_text())
        assert manifest["config"]["models"] == ["geometric", "nhpp"]

    @pytest.mark.parametrize(
        "flag",
        [["--cuts", "0"], ["--bins", "0"], ["--threshold", "0"], ["--threshold", "nan"]],
        ids=["cuts-0", "bins-0", "threshold-0", "threshold-nan"],
    )
    def test_invalid_setting_fails_before_any_output(self, flag, tmp_path, capsys):
        out = tmp_path / "o"
        code = cli.main(
            ["evaluate", str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf", *flag,
             "--out", str(out)]
        )
        assert code == 1
        assert flag[0] in capsys.readouterr().err
        assert not out.exists()

    def test_threshold_prints_report(self, cumulative_file, tmp_path, capsys):
        code = cli.main(
            [
                "evaluate", str(cumulative_file),
                "--models", "geometric", "--cuts", "5",
                "--threshold", "1000.0",
                "--out", str(tmp_path / "o"),
            ]
        )
        assert code == 0
        assert "none above" in capsys.readouterr().out


class TestSimulateCommand:
    BASE = ["simulate", "--p1", "0.1", "--d", "0.9", "--horizon", "120", "--seed", "7"]

    def test_replication_files_and_manifest(self, tmp_path):
        out = tmp_path / "sim"
        code = cli.main([*self.BASE, "--replications", "3", "--out", str(out)])
        assert code == 0
        files = read_tree(out)
        assert sorted(files) == [
            "manifest.json",
            "replication_000.csv",
            "replication_001.csv",
            "replication_002.csv",
        ]
        manifest = json.loads(files["manifest.json"])
        assert manifest["seed"] == 7
        assert manifest["config"]["truncation"] > 0

    def test_repeat_seed_identical_files(self, tmp_path):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert cli.main([*self.BASE, "--out", str(out_a)]) == 0
        assert cli.main([*self.BASE, "--out", str(out_b)]) == 0
        a, b = read_tree(out_a), read_tree(out_b)
        manifest_a = a.pop("manifest.json").replace(str(out_a).encode(), b"OUT")
        manifest_b = b.pop("manifest.json").replace(str(out_b).encode(), b"OUT")
        assert manifest_a == manifest_b
        assert a == b

    def test_invalid_parameters_exit_one(self, tmp_path, capsys):
        code = cli.main(
            ["simulate", "--p1", "1.5", "--d", "0.9", "--horizon", "10", "--seed", "1",
             "--out", str(tmp_path / "x")]
        )
        assert code == 1
        assert "p1" in capsys.readouterr().err

    def test_simulated_output_refits(self, tmp_path, capsys):
        out = tmp_path / "sim"
        assert cli.main(
            ["simulate", "--p1", "0.05", "--d", "0.95", "--horizon", "400",
             "--seed", "42", "--out", str(out)]
        ) == 0
        code = cli.main(["fit", str(out / "replication_000.csv")])
        payload = json.loads(capsys.readouterr().out)
        assert code == 0
        assert payload["d"] == pytest.approx(0.95, abs=0.02)


class TestVersionAndHelp:
    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0
        assert cli.main(["fit", "--help"]) == 0

    def test_version_exits_zero(self):
        assert cli.main(["--version"]) == 0
