import io
import json
import math
import os
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import geomrel.cli as cli
import geomrel.evaluation as evaluation
from geomrel.data import FailureDataset, parse_dataset, to_cumulative_csv
from geomrel.estimation import FitResult, OptimizerResult, least_squares_objective
from geomrel.model import GeometricModelParams, failure_intensity

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


def run_cli_in_one_gib(*args):
    """``python -m geomrel.cli`` in a child limited to 1 GiB of address
    space, so that a run needing one float per fault fails fast with a
    ``MemoryError`` instead of exhausting the host."""
    resource = pytest.importorskip("resource")
    limit = 1 << 30

    def cap_memory():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return subprocess.run(
        [sys.executable, "-m", "geomrel.cli", *args],
        capture_output=True,
        text=True,
        env=env,
        preexec_fn=cap_memory,
        timeout=120,
    )


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
            diagnostics=OptimizerResult(
                optimizer="levenberg-marquardt",
                x=(0.0, 0.0),
                value=1.0,
                iterations=200,
                converged=False,
                nonfinite_evaluations=0,
                evaluations=201,
                jacobian_evaluations=100,
            ),
            skipped_points=0,
        )
        monkeypatch.setattr(cli, "fit", lambda ds: stub)
        assert cli.main(["fit", str(cumulative_file)]) == 2
        assert json.loads(capsys.readouterr().out)["converged"] is False

    def test_usage_error_exits_one(self):
        assert cli.main([]) == 1
        assert cli.main(["fit"]) == 1

    @pytest.mark.parametrize(
        "fmt, text",
        [
            ("cumulative", "time,cumulative_failures\n1,1\n2,999999999999999999999999999999\n"),
            ("tbf", "tbf\n1e308\n1e308\n"),
        ],
        ids=["count-beyond-int64", "tbf-sum-overflows"],
    )
    @pytest.mark.parametrize("command", ["fit", "evaluate"])
    def test_out_of_range_input_is_an_error_line(self, tmp_path, capsys, fmt, text, command):
        path = tmp_path / "history.csv"
        path.write_text(text)
        extra = ["--out", str(tmp_path / "o")] if command == "evaluate" else []
        assert cli.main([command, str(path), "--format", fmt, *extra]) == 1
        assert capsys.readouterr().err.startswith("geomrel: error: line 3: ")
        assert not (tmp_path / "o").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["evaluate", "{history}", "--out", "{file}"],
        ["simulate", "--p1", "0.05", "--d", "0.95", "--horizon", "50", "--seed", "1",
         "--out", "{file}"],
        ["evaluate", "{history}", "--out", "{file}/sub"],
        ["fit", "{file}/x"],
        ["fit", "{long_name}"],
    ],
    ids=["evaluate-out-is-a-file", "simulate-out-is-a-file", "out-under-a-file",
         "input-under-a-file", "input-name-too-long"],
)
def test_file_system_errors_are_an_error_line(tmp_path, capsys, cumulative_file, argv):
    # FileExistsError, NotADirectoryError and a bare OSError (errno 36,
    # file name too long) end like any other input error.
    file = tmp_path / "taken"
    file.write_text("")
    names = {"history": cumulative_file, "file": file, "long_name": tmp_path / ("a" * 5000)}
    assert cli.main([arg.format(**names) for arg in argv]) == 1
    err = capsys.readouterr().err
    assert err.startswith("geomrel: error: ")
    assert err.count("\n") == 1
    assert "Traceback" not in err


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
        # 10^9 fault terms: one float per fault would take 8 GB.
        proc = run_cli_in_one_gib(
            "predict", str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf",
            "--p1", "0.05", "--d", "0.9", "--truncation", "1000000000",
            "--objective", "0.01",
        )
        assert proc.returncode == 0, proc.stderr
        payload = json.loads(proc.stdout)
        for key in ("mu", "lambda", "delta_t_raw", "delta_t_abs"):
            assert math.isfinite(payload[key])

    @pytest.mark.parametrize("objective", ["nan", "inf"])
    def test_non_finite_objective_exits_one(self, cumulative_file, capsys, objective):
        code, out = self.predict(
            capsys, str(cumulative_file), "--p1", "0.05", "--d", "0.9", "--objective", objective
        )
        assert code == 1
        assert out.out == ""
        assert out.err.startswith("geomrel: error: --objective must be finite and positive")

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
            '[1, 2]',
            '{"p1": "0.1", "d": 0.9, "truncation": 100}',
            '{"p1": 0.1, "d": 0.9, "truncation": null}',
            # A truncation must be a JSON integer: none of these is coerced.
            '{"p1": 0.05, "d": 0.95, "truncation": Infinity}',
            '{"p1": 0.05, "d": 0.95, "truncation": 1e400}',
            '{"p1": 0.05, "d": 0.95, "truncation": 2.5}',
            '{"p1": 0.05, "d": 0.95, "truncation": "5"}',
        ],
        ids=[
            "list", "string-p1", "null-truncation", "infinite-truncation",
            "overflowing-truncation", "fractional-truncation", "string-truncation",
        ],
    )
    def test_malformed_params_file_exits_one(self, tmp_path, cumulative_file, capsys, payload):
        params_path = tmp_path / "params.json"
        params_path.write_text(payload)
        code, out = self.predict(
            capsys, str(cumulative_file), "--params", str(params_path), "--objective", "1e-6"
        )
        assert code == 1
        assert out.err.startswith("geomrel: error:")
        assert "Traceback" not in out.err

    @pytest.mark.parametrize("field", ["p1", "d", "truncation"])
    def test_params_file_without_a_field_names_it(self, tmp_path, cumulative_file, capsys, field):
        payload = {"p1": 0.05, "d": 0.95, "truncation": 270}
        del payload[field]
        params_path = tmp_path / "params.json"
        params_path.write_text(json.dumps(payload))
        code, out = self.predict(
            capsys, str(cumulative_file), "--params", str(params_path), "--objective", "1e-6"
        )
        assert code == 1
        assert out.err == f"geomrel: error: params file is missing '{field}'\n"

    @pytest.mark.parametrize(
        "payload",
        [
            '{"incidents_per_client_per_day": Infinity, "client_count": 1}',
            '{"incidents_per_client_per_day": 1e308, "client_count": 10}',
            '{"incidents_per_client_per_day": 2.0, "client_count": 1%s}' % ("0" * 400),
        ],
        ids=["infinite-rate", "overflowing-product", "count-beyond-the-float-range"],
    )
    def test_profile_with_an_infinite_day_exits_one(
        self, tmp_path, cumulative_file, capsys, payload
    ):
        profile = tmp_path / "profile.json"
        profile.write_text(payload)
        code, out = self.predict(
            capsys, str(cumulative_file), "--p1", "0.05", "--d", "0.9", "--objective", "0.01",
            "--profile", str(profile),
        )
        assert code == 1
        assert out.out == ""
        assert out.err == (
            "geomrel: error: one calendar_day must be a finite positive number of incidents, "
            "got inf\n"
        )

    def test_calendar_days_beyond_the_float_range_exit_one(
        self, tmp_path, cumulative_file, capsys
    ):
        # A valid profile, 1e-308 incidents a day: the release time of a
        # few incidents overflows in days.
        profile = tmp_path / "profile.json"
        profile.write_text('{"incidents_per_client_per_day": 1e-308, "client_count": 1}')
        code, out = self.predict(
            capsys, str(cumulative_file), "--p1", "0.05", "--d", "0.9", "--objective", "0.01",
            "--profile", str(profile),
        )
        assert code == 1
        assert out.out == ""
        assert out.err == (
            "geomrel: error: the release time in calendar days is beyond the float range\n"
        )

    @pytest.mark.parametrize("source", ["inline", "params"])
    def test_truncation_beyond_the_float_range_exits_one(self, tmp_path, capsys, source):
        huge = "1" + "0" * 400
        if source == "inline":
            given_params = ["--p1", "0.05", "--d", "0.95", "--truncation", huge]
        else:
            params_path = tmp_path / "params.json"
            params_path.write_text(f'{{"p1": 0.05, "d": 0.95, "truncation": {huge}}}')
            given_params = ["--params", str(params_path)]
        code, out = self.predict(
            capsys, str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf", *given_params,
            "--objective", "0.01",
        )
        assert code == 1
        assert out.err.startswith("geomrel: error:")
        assert "float range" in out.err
        assert "Traceback" not in out.err


def bad_text(out_of_range):
    """A value no option accepts: a number out of range, a huge integer,
    nan, an infinity or text that is no number at all."""
    return st.one_of(
        out_of_range.map(repr),
        st.integers(-(10**400), 10**400).map(str),
        st.sampled_from(["nan", "inf", "-inf", "1e400", "-0", "0x10", "", "abc", "9" * 5000]),
        st.text(max_size=6),
    )


OUT_OF_UNIT = st.floats(-1.0, 0.0) | st.floats(1.0, 2.0)
# (values that make a run, values out of range) per option.  Decay ratios
# stop short of 1: at d = 1 - 1e-9 the directly summed head alone would
# hold billions of faults (memory limits are tested with
# run_cli_in_one_gib).
PREDICT_OPTIONS = {
    "--p1": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), OUT_OF_UNIT),
    "--d": (st.floats(0.0, 0.99999, exclude_min=True), OUT_OF_UNIT),
    "--truncation": (st.none() | st.integers(1, 10**6), st.integers(-5, 0)),
    "--objective": (st.floats(0.0, 1.0, exclude_min=True), st.floats(-1.0, 0.0)),
}


@given(broken=st.sampled_from([None, *PREDICT_OPTIONS]), data=st.data())
@settings(max_examples=300, deadline=None)
def test_predict_fuzz_ends_with_an_exit_code(broken, data):
    """With any one option given a bad value, or none, predict ends in exit
    code 0, 1 or 2, never a traceback."""
    argv = ["predict", str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf"]
    for option, (good, out_of_range) in PREDICT_OPTIONS.items():
        value = data.draw(bad_text(out_of_range) if option == broken else good, label=option)
        if value is not None:
            argv += [option, value if isinstance(value, str) else repr(value)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# One bad JSON value each: not a number, infinite, beyond the float range
# as a float and as an integer, and of the wrong type.
BAD_JSON_VALUES = ["NaN", "Infinity", "1e400", "1" + "0" * 400, '"0.5"', "null", "[1]", "true"]


@st.composite
def predict_json_inputs(draw):
    """A params object and a profile object, valid as drawn, then one of
    them with one field dropped or replaced by a bad JSON value; the name of
    that object, its field, the bad value (None for a dropped field) and an
    objective at half the valid params' current intensity on NTDS."""
    params = {
        "p1": draw(st.floats(1e-3, 0.5)),
        "d": draw(st.floats(0.5, 0.99)),
        "truncation": draw(st.integers(1, 2000)),
    }
    profile = {
        "incidents_per_client_per_day": draw(st.floats(0.01, 100.0)),
        "client_count": draw(st.integers(1, 10_000)),
        "test_case_incident_equivalent": draw(st.floats(0.01, 100.0)),
        "avg_test_case_duration": draw(st.floats(0.01, 100.0)),
    }
    valid = GeometricModelParams(params["p1"], params["d"], params["truncation"])
    objective = 0.5 * failure_intensity(valid, NTDS_FINAL_TIME)
    name = draw(st.sampled_from(["params", "profile"]))
    texts = {
        "params": {key: json.dumps(value) for key, value in params.items()},
        "profile": {key: json.dumps(value) for key, value in profile.items()},
    }
    field = draw(st.sampled_from(sorted(texts[name])))
    bad = draw(st.sampled_from([None, *BAD_JSON_VALUES]))
    if bad is None:
        del texts[name][field]
    else:
        texts[name][field] = bad
    objects = {
        key: "{" + ", ".join(f'"{k}": {v}' for k, v in fields.items()) + "}"
        for key, fields in texts.items()
    }
    return objects, name, field, bad, objective


NTDS_FINAL_TIME = parse_dataset((REPO_DATA / "ntds_tbf.csv").read_bytes(), "tbf_csv").final_time


@given(case=predict_json_inputs())
@settings(max_examples=300, deadline=None)
def test_predict_json_fuzz_ends_with_an_exit_code(tmp_path_factory, case):
    """With one field of the params or profile file dropped or given a bad
    JSON value, predict ends in exit code 0, 1 or 2, never a traceback; a
    dropped params field is named in the error, and a run that succeeds
    prints finite, nonzero calendar days for its nonzero release time."""
    objects, name, field, bad, objective = case
    tmp = tmp_path_factory.mktemp("json")
    for key, text in objects.items():
        (tmp / f"{key}.json").write_text(text)
    argv = [
        "predict", str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf",
        "--params", str(tmp / "params.json"), "--profile", str(tmp / "profile.json"),
        "--objective", repr(objective),
    ]
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    if name == "params" and bad is None:
        assert code == 1
        assert err.getvalue() == f"geomrel: error: params file is missing '{field}'\n"
    if code == 0:
        payload = json.loads(out.getvalue())
        days = payload["delta_t_raw_calendar_days"]
        assert payload["delta_t_raw"] != 0.0
        assert math.isfinite(days) and days != 0.0, objects


@st.composite
def cumulative_histories(draw):
    """A valid cumulative CSV of 1 to 40 rows: strictly increasing times
    from 1e-6 to 1e12 and non-decreasing counts from 0 to 2**63 - 1."""
    times = sorted(draw(st.lists(st.floats(1e-6, 1e12), min_size=1, max_size=40, unique=True)))
    counts = sorted(draw(st.lists(
        st.integers(0, 2**63 - 1), min_size=len(times), max_size=len(times))))
    rows = "".join(f"{t!r},{c}\n" for t, c in zip(times, counts))
    return "time,cumulative_failures\n" + rows


@given(text=cumulative_histories())
@settings(max_examples=200, deadline=None)
def test_fit_fuzz_ends_with_an_exit_code(tmp_path_factory, text):
    """Any valid history ends fit in exit code 0, 1 or 2, never an
    exception; a printed fit's objective is the objective at its printed
    parameters."""
    path = tmp_path_factory.getbasetemp() / "fit_fuzz.csv"
    path.write_text(text)
    with redirect_stdout(io.StringIO()) as out, redirect_stderr(io.StringIO()):
        code = cli.main(["fit", str(path)])
    assert code in (0, 1, 2)
    if code in (0, 2):
        payload = json.loads(out.getvalue())
        params = GeometricModelParams(payload["p1"], payload["d"], payload["truncation"])
        ds = parse_dataset(text.encode(), "cumulative_csv")
        assert payload["objective"] == least_squares_objective(params, ds)


def refused_count(text: str) -> bool:
    """Whether ``int`` refuses ``text`` or reads a count below 1: bad text
    for an integer option must not ask for a large run."""
    try:
        return int(text) < 1
    except ValueError:
        return True


def bad_count_text(out_of_range):
    return st.one_of(
        out_of_range.map(str),
        st.sampled_from(["nan", "1e3", "-0", "0x10", "", "abc", "9" * 5000]),
        st.text(max_size=6).filter(refused_count),
    )


MODEL_NAMES = ["geometric", "musa-basic", "musa-okumoto", "littlewood-verrall", "nhpp"]
NOT_A_COUNT = st.integers(-(10**400), 0)
BEYOND_FLOATS = st.integers(10**309, 10**400)
# (values that make a small run, bad text) per evaluate option, on the
# NTDS history given as tbf.
EVALUATE_OPTIONS = {
    "--cuts": (st.none() | st.integers(1, 50), bad_count_text(NOT_A_COUNT)),
    "--bins": (st.none() | st.integers(1, 50), bad_count_text(NOT_A_COUNT | BEYOND_FLOATS)),
    "--threshold": (
        st.none() | st.floats(0.0, exclude_min=True),
        bad_text(st.floats(max_value=0.0) | st.just(math.nan)),
    ),
    "--models": (
        st.none() | st.just("all") | st.lists(st.sampled_from(MODEL_NAMES), min_size=1, max_size=3)
        .map(", ".join),
        st.sampled_from(["", ",", "duane", "geometric,duane", "ALL"]) | st.text(max_size=6),
    ),
    "--format": (st.none() | st.just("tbf"), st.just("cumulative") | st.text(max_size=6)),
}


@given(broken=st.sampled_from([None, *EVALUATE_OPTIONS]), data=st.data())
@settings(max_examples=60, deadline=None)
def test_evaluate_fuzz_ends_with_an_exit_code(tmp_path_factory, broken, data):
    """With any one option given a bad value, or none, evaluate ends in exit
    code 0, 1 or 2, never a traceback; a ``--models`` list given before
    the options, which a drawn ``--models`` replaces, may name any model."""
    out = tmp_path_factory.mktemp("evaluate_fuzz")
    argv = ["evaluate", str(REPO_DATA / "ntds_tbf.csv"), "--out", str(out)]
    if broken != "--format":
        argv += ["--format", "tbf"]
    names = data.draw(st.lists(st.sampled_from([*MODEL_NAMES, "duane"]), max_size=2))
    if names:
        argv += ["--models", ",".join(names)]
    for option, (good, bad) in EVALUATE_OPTIONS.items():
        value = data.draw(bad if option == broken else good, label=option)
        if value is not None:
            argv += [option, value if isinstance(value, str) else repr(value)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()


# (values that make a small run, bad text) per simulate option.  The
# default truncation at d = 0.99998 is about 690,000 faults.
SIMULATE_OPTIONS = {
    "--p1": (st.floats(0.0, 1.0, exclude_min=True, exclude_max=True), bad_text(OUT_OF_UNIT)),
    "--d": (st.floats(0.0, 0.99998, exclude_min=True), bad_text(OUT_OF_UNIT)),
    "--truncation": (st.none() | st.integers(1, 10**6), bad_count_text(NOT_A_COUNT | BEYOND_FLOATS)),
    "--horizon": (st.integers(1, 10**4), bad_count_text(NOT_A_COUNT | st.integers(2**62, 10**400))),
    "--seed": (st.integers(0, 10**400), bad_count_text(st.integers(-(10**400), -1))),
    "--replications": (st.none() | st.integers(1, 3), bad_count_text(NOT_A_COUNT)),
}


@given(broken=st.sampled_from([None, *SIMULATE_OPTIONS]), data=st.data())
@settings(max_examples=150, deadline=None)
def test_simulate_fuzz_ends_with_an_exit_code(tmp_path_factory, broken, data):
    """With any one option given a bad value, or none, simulate ends in exit
    code 0, 1 or 2, never a traceback, and writes its directory only when
    it succeeds."""
    out = tmp_path_factory.mktemp("simulate_fuzz") / "sim"
    argv = ["simulate", "--out", str(out)]
    for option, (good, bad) in SIMULATE_OPTIONS.items():
        value = data.draw(bad if option == broken else good, label=option)
        if value is not None:
            argv += [option, value if isinstance(value, str) else repr(value)]
    with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()) as err:
        code = cli.main(argv)
    assert code in (0, 1, 2)
    assert "Traceback" not in err.getvalue()
    assert out.exists() == (code == 0)


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

    def test_models_flag_names_a_subset_once(self, cumulative_file, tmp_path):
        out = tmp_path / "o"
        argv = ["evaluate", str(cumulative_file), "--cuts", "4", "--out", str(out)]
        assert cli.main([*argv, "--model", "nhpp"]) == 1  # the option is gone
        assert not out.exists()
        code = cli.main([*argv, "--models", "geometric, nhpp,geometric"])
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

    def test_history_without_failures_fails_before_any_output(
        self, cumulative_file, tmp_path, capsys
    ):
        zero = tmp_path / "zero.csv"
        zero.write_text("time,cumulative_failures\n1,0\n2,0\n")
        out = tmp_path / "o"
        code = cli.main(
            ["evaluate", str(cumulative_file), str(zero), "--format", "cumulative",
             "--models", "geometric", "--out", str(out)]
        )
        assert code == 1
        err = capsys.readouterr().err
        assert "the history records no failures; relative errors are undefined" in err
        assert not out.exists()

    def test_shared_fit_is_evaluated_once(self, monkeypatch, tmp_path, capsys):
        fitted = []
        original = evaluation.fit_model

        def counting_fit_model(model_name, ds):
            fitted.append(model_name)
            return original(model_name, ds)

        monkeypatch.setattr(evaluation, "fit_model", counting_fit_model)
        out = tmp_path / "o"
        source = REPO_DATA / "ntds_tbf.csv"
        code = cli.main(
            ["evaluate", str(source), "--format", "tbf", "--models", "nhpp,geometric,musa-basic",
             "--cuts", "6", "--threshold", "1e-9", "--out", str(out)]
        )
        assert code == 0
        assert sorted(set(fitted)) == ["geometric", "nhpp"]
        printed = capsys.readouterr().out.splitlines()
        assert [line.split("]")[0] for line in printed] == [
            "outlier [nhpp", "outlier [geometric", "outlier [musa-basic"
        ]
        with open(source, "rb") as handle:
            ds = parse_dataset(handle, "tbf_csv", label="ntds_tbf")
        for name in ("nhpp", "musa-basic"):
            direct = evaluation.number_of_failures_eval(
                name, ds, evaluation.default_cut_points(ds, 6)
            )
            assert (out / f"curve_ntds_tbf_{name}.csv").read_text() == evaluation.curve_to_csv(
                direct
            )
            assert (out / f"aggregate_{name}.csv").read_text() == evaluation.aggregate_to_csv(
                evaluation.aggregate_median([direct])
            )

    def test_cut_points_beyond_memory_leave_no_output(self, tmp_path):
        # 2 * 10^8 cut points take 1.6 GB as one array of floats.
        out = tmp_path / "eval"
        proc = run_cli_in_one_gib(
            "evaluate", str(REPO_DATA / "ntds_tbf.csv"), "--format", "tbf",
            "--cuts", "200000000", "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("geomrel: error: out of memory"), proc.stderr
        assert "Traceback" not in proc.stderr
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

    def test_population_beyond_memory_is_an_error_line(self, tmp_path):
        # The draw takes one uniform per fault: 8 GB at 10^9 faults.
        out = tmp_path / "sim"
        proc = run_cli_in_one_gib(
            "simulate", "--p1", "0.05", "--d", "0.9", "--truncation", "1000000000",
            "--horizon", "100", "--seed", "1", "--out", str(out),
        )
        assert proc.returncode == 1
        assert proc.stderr.startswith("geomrel: error: out of memory"), proc.stderr
        assert "Traceback" not in proc.stderr
        assert not out.exists()

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


@pytest.mark.parametrize(
    "args",
    [
        ["fit", "ntds_tbf.csv", "--format", "tbf"],
        ["predict", "ntds_tbf.csv", "--format", "tbf", "--p1", "0.05", "--d", "0.95",
         "--objective", "0.01"],
    ],
    ids=["fit", "predict"],
)
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
def test_closed_stdout_exits_one_without_traceback(args, unbuffered):
    # The read end of the child's stdout is closed before it starts, so
    # its first write meets a broken pipe: in print when unbuffered, else
    # when the buffer is flushed.
    read_end, write_end = os.pipe()
    os.close(read_end)
    src = str(Path(cli.__file__).resolve().parent.parent)
    env = dict(os.environ, OPENBLAS_NUM_THREADS="1")
    env.pop("PYTHONUNBUFFERED", None)
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "geomrel.cli", *args],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=env,
            cwd=Path(src).parent / "data",
            timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert "Traceback" not in proc.stderr
    assert "Exception ignored" not in proc.stderr


class TestVersionAndHelp:
    def test_help_exits_zero(self):
        assert cli.main(["--help"]) == 0
        assert cli.main(["fit", "--help"]) == 0

    def test_version_exits_zero(self):
        assert cli.main(["--version"]) == 0


class TestParserReuse:
    def test_main_builds_its_parser_once(self, monkeypatch):
        cli._parser.cache_clear()
        built = []
        real = cli.build_parser

        def counting():
            built.append(1)
            return real()

        monkeypatch.setattr(cli, "build_parser", counting)
        try:
            assert cli.main(["--version"]) == 0
            assert cli.main(["fit"]) == 1
            assert cli.main(["--help"]) == 0
            assert len(built) == 1
        finally:
            cli._parser.cache_clear()

    def test_build_parser_returns_a_fresh_parser(self):
        assert cli.build_parser() is not cli.build_parser()

    def test_a_parse_leaves_no_state_for_the_next(self):
        parser = cli._parser()
        first = parser.parse_args(["evaluate", "a.csv", "--models", "nhpp", "--out", "o"])
        second = parser.parse_args(["evaluate", "b.csv", "--out", "o"])
        assert first.models == "nhpp" and second.models == "all"
        assert second.inputs == ["b.csv"] and second.cuts == 20
