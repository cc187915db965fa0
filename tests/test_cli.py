import json
import os
import re
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest

import recurtest as rt
from recurtest import cli, inference
from recurtest.cli import main
from recurtest.fileio import read_dataset, read_power_config, write_dataset
from recurtest.simulate import SCENARIO_PARAMETERS


def run(argv):
    return main(argv)


@pytest.fixture
def gauss_csv(tmp_path):
    rng = np.random.default_rng(40)
    x = rng.standard_normal((30, 3))
    y = rng.standard_normal((30, 3))
    xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
    write_dataset(str(xp), x)
    write_dataset(str(yp), y)
    return xp, yp


class TestDatasetFiles:
    def test_roundtrip_exact(self, tmp_path):
        rng = np.random.default_rng(41)
        data = rng.standard_normal((5, 4)) * 1e-7
        p = tmp_path / "d.csv"
        write_dataset(str(p), data)
        assert np.array_equal(read_dataset(str(p)), data)

    def test_header_autodetected(self, tmp_path):
        p = tmp_path / "h.csv"
        p.write_text("a,b\n1,2\n3,4\n")
        assert read_dataset(str(p)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_crlf_accepted(self, tmp_path):
        p = tmp_path / "c.csv"
        p.write_bytes(b"1,2\r\n3,4\r\n")
        assert read_dataset(str(p)).tolist() == [[1.0, 2.0], [3.0, 4.0]]

    def test_parse_error_names_row_and_column(self, tmp_path):
        p = tmp_path / "bad.csv"
        p.write_text("1,2\n3,oops\n")
        with pytest.raises(rt.InvalidInputError, match="row 2, column 2"):
            read_dataset(str(p))

    def test_ragged_rejected(self, tmp_path):
        p = tmp_path / "r.csv"
        p.write_text("1,2\n3\n")
        with pytest.raises(rt.InvalidInputError, match="row 2"):
            read_dataset(str(p))

    def test_too_few_rows(self, tmp_path):
        p = tmp_path / "one.csv"
        p.write_text("1,2\n")
        with pytest.raises(rt.InvalidInputError):
            read_dataset(str(p))


class TestCmdTest:
    def test_report_fields_and_perfect_dependence(self, tmp_path):
        rng = np.random.default_rng(42)
        x = rng.standard_normal((30, 3))
        xp, yp = tmp_path / "x.csv", tmp_path / "y.csv"
        write_dataset(str(xp), x)
        write_dataset(str(yp), x)  # copied file: perfect dependence
        out = tmp_path / "report.json"
        code = run(
            ["test", "--x", str(xp), "--y", str(yp), "--functional", "l2",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "99",
             "--seed", "7", "--out", str(out)]
        )
        assert code == 0
        doc = json.loads(out.read_text())
        assert doc["p_value"] == pytest.approx(0.01)
        assert doc["statistic"] == {"functional": "l2", "metric_x": "l2", "metric_y": "l2"}
        assert doc["n"] == 30 and doc["m"] == 99 and doc["seed"] == 7
        assert doc["alpha_decisions"] == {"0.05": True, "0.1": True}
        assert doc["tool_version"] == rt.__version__
        assert doc["elapsed_ms"] > 0

    def test_deterministic_content(self, gauss_csv, tmp_path):
        xp, yp = gauss_csv
        outs = []
        for name in ("r1.json", "r2.json"):
            out = tmp_path / name
            assert run(
                ["test", "--x", str(xp), "--y", str(yp), "--functional", "sup",
                 "--metric-x", "l1", "--metric-y", "linf", "--perms", "49",
                 "--seed", "3", "--out", str(out)]
            ) == 0
            outs.append(json.loads(out.read_text()))
        # identical apart from wall-clock timing
        for doc in outs:
            doc.pop("elapsed_ms")
        assert outs[0] == outs[1]

    def test_report_same_for_every_jobs(self, gauss_csv, tmp_path):
        # 30 rows, so the 100 rows of the test make 3 blocks, which the
        # default jobs shares with a worker.
        xp, yp = gauss_csv
        texts = []
        for jobs in (["--jobs", "1"], []):
            out = tmp_path / "r.json"
            assert run(
                ["test", "--x", str(xp), "--y", str(yp), "--functional", "l1",
                 "--metric-x", "l1", "--metric-y", "l2", "--perms", "99",
                 "--seed", "5", "--out", str(out), *jobs]
            ) == 0
            texts.append(re.sub(r'\n  "elapsed_ms": [^\n]*', "", out.read_text()))
        assert "elapsed_ms" not in texts[0]
        assert texts[0] == texts[1]

    def test_zero_perms_exit2(self, gauss_csv):
        xp, yp = gauss_csv
        assert run(
            ["test", "--x", str(xp), "--y", str(yp), "--functional", "l2",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "0", "--seed", "1"]
        ) == 2

    def test_missing_file_exit2(self, tmp_path, gauss_csv):
        xp, _ = gauss_csv
        assert run(
            ["test", "--x", str(xp), "--y", str(tmp_path / "absent.csv"),
             "--functional", "l2", "--metric-x", "l2", "--metric-y", "l2",
             "--perms", "19", "--seed", "1"]
        ) == 2

    def test_mismatched_rows_exit2(self, tmp_path, gauss_csv):
        xp, _ = gauss_csv
        short = tmp_path / "short.csv"
        write_dataset(str(short), np.zeros((5, 3)))
        assert run(
            ["test", "--x", str(xp), "--y", str(short), "--functional", "l2",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "19", "--seed", "1"]
        ) == 2

    def test_degenerate_weight_exit2(self, tmp_path, gauss_csv, capsys):
        xp, _ = gauss_csv
        const = tmp_path / "const.csv"
        write_dataset(str(const), np.ones((30, 3)))
        assert run(
            ["test", "--x", str(xp), "--y", str(const), "--functional", "l2",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "19", "--seed", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_infeasible_level_exit2(self, gauss_csv, capsys):
        # 99 permutations cannot resolve level 0.001, which needs 999
        xp, yp = gauss_csv
        assert run(
            ["test", "--x", str(xp), "--y", str(yp), "--functional", "l2",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "99",
             "--levels", "0.05,0.001", "--seed", "1"]
        ) == 2
        err = capsys.readouterr().err
        assert err.count("\n") == 1
        assert err.startswith("error: level 0.001 needs at least m = 999 permutations")

    @pytest.mark.parametrize("levels", ["0.1,0.1", "0.05,0.1,0.10"])
    def test_repeated_level_exit2(self, gauss_csv, capsys, levels):
        xp, yp = gauss_csv
        assert run(
            ["test", "--x", str(xp), "--y", str(yp), "--functional", "l2",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "19",
             "--levels", levels, "--seed", "1"]
        ) == 2
        assert capsys.readouterr().err == "error: level 0.1 is repeated\n"

    def test_sup_constant_side_is_zero(self, tmp_path):
        # Every numerator of a constant side is zero: no round-off is reported.
        xp, yp, out = tmp_path / "x.csv", tmp_path / "y.csv", tmp_path / "r.json"
        write_dataset(str(xp), np.random.default_rng(47).standard_normal((10, 2)))
        write_dataset(str(yp), np.ones((10, 2)))
        assert run(
            ["test", "--x", str(xp), "--y", str(yp), "--functional", "sup",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "19", "--seed", "1",
             "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())
        assert doc["observed"] == 0.0 and doc["p_value"] == 1.0

    def test_bad_flag_exit2(self, gauss_csv):
        xp, yp = gauss_csv
        assert run(
            ["test", "--x", str(xp), "--y", str(yp), "--functional", "cubic",
             "--metric-x", "l2", "--metric-y", "l2", "--perms", "19", "--seed", "1"]
        ) == 2


class TestCmdSimulate:
    def test_shapes_and_byte_identical_reruns(self, tmp_path):
        args = ["simulate", "--scenario", "null", "--n", "30", "--len", "100",
                "--seed", "5", "--out-x", str(tmp_path / "x.csv"),
                "--out-y", str(tmp_path / "y.csv")]
        assert run(args) == 0
        x1 = (tmp_path / "x.csv").read_bytes()
        y1 = (tmp_path / "y.csv").read_bytes()
        assert read_dataset(str(tmp_path / "x.csv")).shape == (30, 100)
        assert run(args) == 0
        assert (tmp_path / "x.csv").read_bytes() == x1
        assert (tmp_path / "y.csv").read_bytes() == y1

    def test_flags_set_the_documented_fields(self, tmp_path):
        flags = ["--hurst", "0.6", "--lambda", "9", "--lambda1", "2", "--lambda2", "4",
                 "--sigma", "2", "--phi", "0.2,0.5", "--theta", "0.2"]
        xs_path, ys_path = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
        assert run(["simulate", "--scenario", "C7", "--n", "3", "--len", "20", "--seed", "4",
                    "--out-x", xs_path, "--out-y", ys_path, *flags]) == 0
        cfg = rt.ScenarioConfig(scenario="C7", n=3, length=20, seed=4, hurst=0.6, lam=9.0,
                                lam1=2.0, lam2=4.0, sigma=2.0, phi=(0.2, 0.5), theta=0.2)
        xs, ys = rt.gen_scenario(cfg)
        assert np.array_equal(read_dataset(xs_path), xs)
        assert np.array_equal(read_dataset(ys_path), ys)

    def test_two_rate_scenario_uses_default_rates(self, tmp_path):
        ys_path = str(tmp_path / "y.csv")
        assert run(["simulate", "--scenario", "X-OU-Y-OU", "--n", "3", "--len", "20",
                    "--seed", "4", "--out-x", str(tmp_path / "x.csv"), "--out-y", ys_path]) == 0
        cfg = rt.ScenarioConfig(scenario="X-OU-Y-OU", n=3, length=20, seed=4)
        assert np.array_equal(read_dataset(ys_path), rt.gen_scenario(cfg)[1])

    @pytest.mark.parametrize(
        "scenario, flags",
        [
            ("C7", ["--lambda1", "0", "--lambda2", "0.8"]),
            ("C7", ["--lambda1", "-0.3", "--lambda2", "0.8"]),
            ("X-FOU-Y-FOU", ["--lambda1", "2.0", "--lambda2", "4.0", "--sigma", "-1"]),
        ],
    )
    def test_long_memory_bad_rate_or_scale_exit2(self, tmp_path, capsys, scenario, flags):
        assert run(
            ["simulate", "--scenario", scenario, "--n", "2", "--len", "20", "--seed", "1",
             "--out-x", str(tmp_path / "x.csv"), "--out-y", str(tmp_path / "y.csv"), *flags]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: ") and err.count("\n") == 1

    def test_bad_scenario_exit2(self, tmp_path):
        assert run(
            ["simulate", "--scenario", "Z9", "--n", "4", "--len", "10", "--seed", "1",
             "--out-x", str(tmp_path / "x.csv"), "--out-y", str(tmp_path / "y.csv")]
        ) == 2

    def test_roundtrip_reproduces_in_memory_pvalue(self, tmp_path):
        xs_path, ys_path = str(tmp_path / "x.csv"), str(tmp_path / "y.csv")
        assert run(
            ["simulate", "--scenario", "D3", "--n", "20", "--len", "30",
             "--seed", "11", "--out-x", xs_path, "--out-y", ys_path]
        ) == 0
        out = tmp_path / "rep.json"
        assert run(
            ["test", "--x", xs_path, "--y", ys_path, "--functional", "l2",
             "--metric-x", "l1", "--metric-y", "l1", "--perms", "99",
             "--seed", "13", "--out", str(out)]
        ) == 0
        doc = json.loads(out.read_text())

        cfg = rt.ScenarioConfig(scenario="D3", n=20, length=30, seed=11)
        xs, ys = rt.gen_scenario(cfg)
        spec = rt.StatisticSpec(rt.Functional.L2, rt.Metric.L1, rt.Metric.L1)
        rep = rt.permutation_test(xs, ys, spec, m=99, seed=13)
        assert doc["p_value"] == rep.p_value
        assert doc["observed"] == pytest.approx(rep.observed, rel=0, abs=0)


class TestCmdPower:
    def make_config(self, tmp_path, **overrides):
        doc = {
            "schema_version": 1,
            "scenario": {"id": "null", "n": 8, "len": 3},
            "specs": [{"functional": "l2", "metric_x": "l2", "metric_y": "l2"}],
            "reps": 6,
            "m": 19,
            "alpha": 0.05,
            "seed": 3,
        }
        doc.update(overrides)
        p = tmp_path / "cfg.json"
        p.write_text(json.dumps(doc))
        return p

    def test_csv_output_deterministic(self, tmp_path):
        cfg = self.make_config(tmp_path)
        o1, o2 = tmp_path / "p1.csv", tmp_path / "p2.csv"
        assert run(["power", "--config", str(cfg), "--out", str(o1)]) == 0
        assert run(["power", "--config", str(cfg), "--out", str(o2)]) == 0
        lines = o1.read_text().splitlines()
        assert lines[0] == "scenario,functional,metric_x,metric_y,rate,se,reps,m,alpha,seconds"
        assert len(lines) == 2
        # identical apart from the timing column
        strip = lambda text: [",".join(l.split(",")[:-1]) for l in text.splitlines()]
        assert strip(o1.read_text()) == strip(o2.read_text())

    def test_missing_key_exit2(self, tmp_path, capsys):
        cfg = self.make_config(tmp_path)
        doc = json.loads(cfg.read_text())
        del doc["reps"]
        cfg.write_text(json.dumps(doc))
        assert run(["power", "--config", str(cfg)]) == 2
        assert "reps" in capsys.readouterr().err

    def test_bad_schema_version_exit2(self, tmp_path):
        cfg = self.make_config(tmp_path, schema_version=99)
        assert run(["power", "--config", str(cfg)]) == 2

    def test_scenario_keys_set_the_documented_fields(self, tmp_path):
        keys = {"len": 20, "phi": [0.2, 0.5], "theta": 0.2, "hurst": 0.6, "lambda": 9,
                "lambda1": 2.0, "lambda2": 4.0, "sigma": 2.0}
        cfg = self.make_config(tmp_path, scenario={"id": "C7", "n": 3, **keys})
        assert read_power_config(str(cfg)).scenario == rt.ScenarioConfig(
            scenario="C7", n=3, length=20, hurst=0.6, lam=9.0, lam1=2.0, lam2=4.0,
            sigma=2.0, phi=(0.2, 0.5), theta=0.2)


def _simulate(*flags):
    def argv(tmp_path):
        return ["simulate", "--n", "2", "--len", "20", "--seed", "1",
                "--out-x", str(tmp_path / "x.csv"), "--out-y", str(tmp_path / "y.csv"), *flags]
    return argv


def _power(scenario=(), **top):
    def argv(tmp_path):
        doc = {"schema_version": 1, "scenario": {"id": "null", "n": 8, "len": 3, **dict(scenario)},
               "specs": [{"functional": "l2", "metric_x": "l2", "metric_y": "l2"}],
               "reps": 2, "m": 19, "alpha": 0.05, "seed": 3, **top}
        path = tmp_path / "cfg.json"
        path.write_text(json.dumps(doc))
        return ["power", "--config", str(path)]
    return argv


def _test_argv(tmp_path):
    for name in ("x.csv", "y.csv"):
        write_dataset(str(tmp_path / name), np.random.default_rng(46).standard_normal((10, 2)))
    return ["test", "--x", str(tmp_path / "x.csv"), "--y", str(tmp_path / "y.csv"),
            "--functional", "l2", "--metric-x", "l2", "--metric-y", "l2", "--perms", "19",
            "--seed", "1"]


def _test_on(text, *flags):
    """``recurtest test`` with ``text`` as both samples' file."""
    def argv(tmp_path):
        args = _test_argv(tmp_path)
        for name in ("x.csv", "y.csv"):
            (tmp_path / name).write_bytes(text if isinstance(text, bytes) else text.encode())
        return args + list(flags)
    return argv


def _dependogram(groups):
    def argv(tmp_path):
        write_dataset(str(tmp_path / "d.csv"), np.random.default_rng(47).standard_normal((8, 4)))
        return ["dependogram", "--data", str(tmp_path / "d.csv"), "--groups", groups,
                "--functional", "l2", "--metric", "l2", "--perms", "19", "--seed", "1"]
    return argv


def _config_text(text):
    def argv(tmp_path):
        (tmp_path / "cfg.json").write_bytes(text if isinstance(text, bytes) else text.encode())
        return ["power", "--config", str(tmp_path / "cfg.json")]
    return argv


_OVERFLOW_308 = "1e308,0\n-1e308,0\n0,1\n"
_OVERFLOW_200 = "1e200,0\n-1e200,0\n0,1\n3,3\n"


@pytest.mark.parametrize(
    "argv, named",
    [
        pytest.param(_simulate("--scenario", "D1", "--theta", "nan"), "theta", id="theta-nan"),
        pytest.param(_simulate("--scenario", "D1", "--theta", "inf"), "theta", id="theta-inf"),
        pytest.param(_simulate("--scenario", "D1", "--phi", "nan"), "phi", id="phi-nan"),
        pytest.param(_simulate("--scenario", "D1", "--phi", "0.1,x"), "phi", id="phi-text"),
        pytest.param(_simulate("--scenario", "C5", "--lambda", "inf"), "lambda", id="lambda-inf"),
        pytest.param(_simulate("--scenario", "C4", "--lambda", "1e-310"), "lambda",
                     id="variance-overflow-rate"),
        pytest.param(_simulate("--scenario", "C6", "--sigma", "1e200"), "sigma",
                     id="variance-overflow-scale"),
        pytest.param(_simulate("--scenario", "C4", "--hurst", "5"), "hurst", id="C4-hurst"),
        pytest.param(_simulate("--scenario", "X-OU-Y-OU", "--hurst", "0.7"), "hurst",
                     id="X-OU-Y-OU-hurst"),
        # about 80 GB of burn-in without the cap: never run this case on older code
        pytest.param(_simulate("--scenario", "C5", "--lambda", "1e-7"), "len 20", id="burn-in-cap"),
        pytest.param(lambda tmp_path: _simulate("--scenario", "null")(tmp_path / "missing"),
                     "cannot write", id="simulate-out-missing-dir"),
        pytest.param(
            lambda tmp_path: _test_argv(tmp_path) + ["--out", str(tmp_path / "missing" / "r.json")],
            "cannot write",
            id="test-out-missing-dir",
        ),
        pytest.param(lambda tmp_path: _test_argv(tmp_path) + ["--jobs", "0"], "jobs must be >= 1, got 0",
                     id="test-jobs-zero"),
        # the count is named, not the first level it cannot resolve
        pytest.param(lambda tmp_path: _test_argv(tmp_path) + ["--perms", "0"],
                     "permutation count must be >= 1, got 0", id="test-perms-zero"),
        pytest.param(_power(scenario={"lamda": 5.0}), "lamda", id="config-unknown-scenario-key"),
        # scenario values are checked when the config is read, before any draw
        pytest.param(_power(scenario={"id": "C4", "hurst": 0.9}),
                     "cfg.json: scenario: scenario C4 has a Brownian driver: hurst",
                     id="config-C4-hurst"),
        pytest.param(_power(scenario={"id": "C4", "lambda": 0}),
                     "cfg.json: scenario: mean-reversion rate lambda", id="config-lambda-zero"),
        pytest.param(_power(rep=500), "rep", id="config-unknown-key"),
        pytest.param(_simulate("--scenario", "C5", "--n", "1000000000", "--len", "1000000000"),
                     "cap of 16777216", id="size-cap"),
        # n = 2 fails fast in the test if a version without the cap draws it
        pytest.param(_power(scenario={"n": 2, "len": 2**23 + 1}),
                     "cfg.json: scenario: n 2 and len 8388609 need 16777218 values",
                     id="config-size-cap"),
        pytest.param(lambda tmp_path: _power()(tmp_path) + ["--jobs", "0"], "jobs must be >= 1, got 0",
                     id="power-jobs-zero"),
        pytest.param(_power(scenario={"id": "D1", "phi": ["x"]}), "phi", id="config-phi-text"),
        pytest.param(_power(scenario={"id": "D1", "phi": [[0.1]]}), "phi", id="config-phi-nested"),
        pytest.param(_power(scenario={"id": "D1", "theta": 10**400}), "theta",
                     id="config-theta-overflow"),
        pytest.param(_power(scenario={"n": True}), "'n'", id="config-n-bool"),
        pytest.param(_power(reps=True), "reps", id="config-reps-bool"),
        pytest.param(_power(alpha=10**400), "alpha", id="config-alpha-overflow"),
        pytest.param(lambda tmp_path: _test_argv(tmp_path) + ["--levels", "0.05,x"],
                     "levels must be a comma-separated float list, got '0.05,x'", id="levels-text"),
        pytest.param(lambda tmp_path: _test_argv(tmp_path) + ["--levels", ","],
                     "at least one level is required", id="levels-empty"),
        pytest.param(_test_on(""), "x.csv: file is empty", id="dataset-empty"),
        pytest.param(_test_on("1,2\n3,nan\n4,5\n"),
                     "x.csv: row 2, column 2: non-finite value 'nan'", id="dataset-non-finite"),
        pytest.param(_test_on("a,b\n"), "x.csv: no data rows after the header",
                     id="dataset-header-only"),
        pytest.param(_dependogram("a0:2;b=2:4"), "group 'a0:2' is not of the form name=start:stop",
                     id="groups-no-equals"),
        pytest.param(_dependogram("a=02;b=2:4"), "group 'a=02' is not of the form name=start:stop",
                     id="groups-no-colon"),
        pytest.param(_dependogram("a=0:x;b=2:4"), "group 'a=0:x': column bounds must be integers",
                     id="groups-bounds-text"),
        pytest.param(_dependogram("a=0:4"), "need at least 2 groups", id="groups-one"),
        pytest.param(lambda tmp_path: ["power", "--config", str(tmp_path / "missing.json")],
                     "cannot read", id="config-missing"),
        pytest.param(_config_text("{"), "cfg.json: invalid JSON", id="config-invalid-json"),
        pytest.param(_config_text(b'{"seed": "\xff"}'), "cfg.json: not UTF-8 text (invalid start byte)",
                     id="config-not-utf8"),
        pytest.param(_test_on(b"1,2\n3,\xff\n4,5\n"), "x.csv: not UTF-8 text (invalid start byte)",
                     id="dataset-not-utf8"),
        pytest.param(_config_text("[]"), "cfg.json: the config must be a JSON object",
                     id="config-not-object"),
        pytest.param(_power(specs=[]), "cfg.json: key 'specs' must be a non-empty list",
                     id="config-specs-empty"),
        pytest.param(_power(specs=["l2"]), "cfg.json: specs[0] must be an object",
                     id="config-spec-not-object"),
        pytest.param(_test_on(_OVERFLOW_308, "--functional", "l2"),
                     "pairwise distances contain non-finite values", id="distance-overflow"),
        pytest.param(_test_on(_OVERFLOW_200, "--functional", "l1", "--metric-x", "l1",
                              "--metric-y", "linf"),
                     "pairwise distance spread overflowed to infinity", id="spread-overflow-l1"),
        pytest.param(_test_on(_OVERFLOW_200, "--functional", "l2", "--metric-x", "l1",
                              "--metric-y", "linf"),
                     "pairwise distance spread overflowed to infinity", id="spread-overflow-l2"),
    ],
)
def test_invalid_input_exit2_one_line(tmp_path, capsys, argv, named):
    assert run(argv(tmp_path)) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1
    assert named in err


def test_report_to_stdout_without_out(tmp_path, capsys):
    assert run(_test_argv(tmp_path)) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["m"] == 19 and doc["statistic"]["functional"] == "l2"


def test_unexpected_exception_exits1(tmp_path, capsys, monkeypatch):
    def fail(*args, **kwargs):
        raise RuntimeError("boom")

    monkeypatch.setattr(inference, "permutation_test", fail)
    assert run(_test_argv(tmp_path)) == 1
    assert capsys.readouterr().err == "internal error: RuntimeError: boom\n"


# A value of each scenario parameter: its flag text and its config value.
_SCENARIO_VALUES = {
    "len": ("30", 30),
    "phi": ("0.2,0.5", [0.2, 0.5]),
    "theta": ("0.2", 0.2),
    "hurst": ("0.6", 0.6),
    "lambda": ("9", 9),
    "lambda1": ("2", 2.0),
    "lambda2": ("4", 4.0),
    "sigma": ("2", 2.0),
}


@pytest.mark.parametrize("key", list(SCENARIO_PARAMETERS))
def test_simulate_flag_and_config_key_agree(tmp_path, monkeypatch, key):
    text, value = _SCENARIO_VALUES[key]
    seen = []

    def capture(cfg):
        seen.append(cfg)
        return np.zeros((cfg.n, 2)), np.zeros((cfg.n, 2))

    monkeypatch.setattr(cli, "gen_scenario", capture)
    flags = {"len": "20", key: text}
    assert run(["simulate", "--scenario", "C7", "--n", "3", "--seed", "0",
                "--out-x", str(tmp_path / "x.csv"), "--out-y", str(tmp_path / "y.csv"),
                *(part for name, v in flags.items() for part in (f"--{name}", v))]) == 0
    doc = {"schema_version": 1, "scenario": {"id": "C7", "n": 3, "len": 20, key: value},
           "specs": [{"functional": "l2", "metric_x": "l2", "metric_y": "l2"}],
           "reps": 2, "m": 19, "alpha": 0.05, "seed": 3}
    (tmp_path / "cfg.json").write_text(json.dumps(doc))
    assert seen == [read_power_config(str(tmp_path / "cfg.json")).scenario]


def test_simulate_help_lists_the_schema_flags(capsys):
    assert run(["simulate", "--help"]) == 0
    flags = set(re.findall(r"--[\w-]+", capsys.readouterr().out))
    fixed = {"--help", "--scenario", "--n", "--seed", "--out-x", "--out-y"}
    assert flags - fixed == {f"--{key}" for key in SCENARIO_PARAMETERS}


def _modules_after_simulate(tmp_path) -> list[str]:
    """Every module loaded in a fresh interpreter that imports the package
    and runs a long-memory simulation."""
    code = (
        "import sys, recurtest, recurtest.cli\n"
        "code = recurtest.cli.main(sys.argv[1:])\n"
        "print(*sorted(sys.modules))\n"
        "sys.exit(code)\n"
    )
    src = str(Path(rt.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])}
    argv = _simulate("--scenario", "C5")(tmp_path)
    argv[argv.index("--len") + 1] = "10"
    proc = subprocess.run([sys.executable, "-c", code, *argv], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    assert read_dataset(str(tmp_path / "x.csv")).shape == (2, 10)
    return proc.stdout.split()


def test_cli_loads_no_scipy(tmp_path):
    # numpy is the only runtime dependency, and the worker-pool modules are
    # imported only when a pool starts.
    loaded = [m for m in _modules_after_simulate(tmp_path)
              if m.split(".")[0] in ("scipy", "multiprocessing")
              or m == "concurrent.futures" or m.startswith("concurrent.futures.")]
    assert loaded == []


def test_simulate_loads_no_test_machinery(tmp_path):
    # The package, the command line and the file readers import the modules
    # of tests and power studies only when a command runs them.
    modules = set(_modules_after_simulate(tmp_path))
    assert "recurtest.simulate" in modules
    unused = ("inference", "harness", "_workers", "stats_core", "weights", "metrics")
    assert modules.isdisjoint(f"recurtest.{name}" for name in unused)


def test_size_cap_allocates_nothing(tmp_path, capsys):
    argv = _simulate("--scenario", "D1", "--n", "1000000000", "--len", "1000000000")(tmp_path)
    tracemalloc.start()
    try:
        assert run(argv) == 2
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20
    assert "cap of 16777216" in capsys.readouterr().err
    assert not (tmp_path / "x.csv").exists()

class TestCmdDependogram:
    def write_groups(self, tmp_path, n_groups=5, n=12, width=2, seed=44):
        rng = np.random.default_rng(seed)
        data = rng.standard_normal((n, n_groups * width))
        p = tmp_path / "data.csv"
        write_dataset(str(p), data)
        groups = ";".join(f"g{i}={i*width}:{(i+1)*width}" for i in range(n_groups))
        return p, groups

    def test_pair_rows(self, tmp_path):
        p, groups = self.write_groups(tmp_path, n_groups=5)
        out = tmp_path / "dep.csv"
        assert run(
            ["dependogram", "--data", str(p), "--groups", groups, "--functional", "l2",
             "--metric", "l2", "--perms", "39", "--levels", "0.05,0.1",
             "--seed", "2", "--out", str(out)]
        ) == 0
        lines = out.read_text().splitlines()
        assert lines[0] == "pair,observed,critical@0.05,critical@0.1,reject@0.05,reject@0.1"
        assert len(lines) == 1 + 10

    def test_duplicated_group_rejects(self, tmp_path):
        rng = np.random.default_rng(45)
        block = rng.standard_normal((30, 2))
        other = rng.standard_normal((30, 2))
        data = np.hstack([block, block, other])
        p = tmp_path / "dup.csv"
        write_dataset(str(p), data)
        out = tmp_path / "dep.csv"
        assert run(
            ["dependogram", "--data", str(p), "--groups", "a=0:2;b=2:4;c=4:6",
             "--functional", "l2", "--metric", "l2", "--perms", "199",
             "--levels", "0.05", "--seed", "2", "--out", str(out)]
        ) == 0
        first = out.read_text().splitlines()[1].split(",")
        assert first[0] == "a:b" and first[-1] == "true"

    def test_overlapping_groups_exit2(self, tmp_path):
        p, _ = self.write_groups(tmp_path)
        assert run(
            ["dependogram", "--data", str(p), "--groups", "a=0:3;b=2:4",
             "--functional", "l2", "--metric", "l2", "--perms", "39",
             "--seed", "1"]
        ) == 2

    def test_out_of_range_groups_exit2(self, tmp_path):
        p, _ = self.write_groups(tmp_path)
        assert run(
            ["dependogram", "--data", str(p), "--groups", "a=0:2;b=2:99",
             "--functional", "l2", "--metric", "l2", "--perms", "39",
             "--seed", "1"]
        ) == 2

    @pytest.mark.parametrize(
        "spec",
        ["x,y=0:2;z=2:4", "a:b=0:2;z=2:4", "a=0:2;a=2:4", "=0:2;b=2:4"],
        ids=["comma", "colon", "repeated", "empty"],
    )
    def test_bad_group_name_exit2(self, tmp_path, capsys, spec):
        # Each of these names would break the pair column of the CSV.
        p, _ = self.write_groups(tmp_path)
        out = tmp_path / "dep.csv"
        assert run(
            ["dependogram", "--data", str(p), "--groups", spec, "--functional", "l2",
             "--metric", "l2", "--perms", "19", "--seed", "1", "--out", str(out)]
        ) == 2
        err = capsys.readouterr().err
        assert err.startswith("error: group ") and err.count("\n") == 1
        assert "name must be nonempty, unique and free of ',' and ':'" in err
        assert not out.exists()

    def test_repeated_level_exit2(self, tmp_path, capsys):
        p, groups = self.write_groups(tmp_path, n_groups=2)
        assert run(
            ["dependogram", "--data", str(p), "--groups", groups, "--functional", "l2",
             "--metric", "l2", "--perms", "19", "--levels", "0.1,0.10", "--seed", "1"]
        ) == 2
        assert capsys.readouterr().err == "error: level 0.1 is repeated\n"

    def test_infeasible_level_exit2(self, tmp_path):
        p, groups = self.write_groups(tmp_path, n_groups=2)
        assert run(
            ["dependogram", "--data", str(p), "--groups", groups, "--functional", "l2",
             "--metric", "l2", "--perms", "10", "--levels", "0.05", "--seed", "1"]
        ) == 2
