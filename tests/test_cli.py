import csv
import json
import warnings

import pytest

from radialphi import cli


def write_config(tmp_path, cfg, name="config.json"):
    path = tmp_path / name
    path.write_text(json.dumps(cfg, indent=2), encoding="utf-8")
    return path


def manufactured_config(tmp_path, **overrides):
    cfg = {
        "problem": {
            "N": 3, "alpha": 1.0, "beta": 1.0,
            "operator1": {"family": "laplacian"},
            "operator2": {"family": "laplacian"},
            "weight1": "6/(1+r^2)",
            "weight2": "6/(1+r^2)",
            "f1": {"family": "power", "gamma": 1.0},
            "f2": {"family": "power", "gamma": 1.0},
        },
        "numerics": {"r_max": 2.0, "step": 1e-3},
        "outputs": {
            "solution_csv": str(tmp_path / "solution.csv"),
            "report_json": str(tmp_path / "report.json"),
        },
    }
    cfg.update(overrides)
    return cfg


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


class TestSolveCommand:
    def test_manufactured_run(self, tmp_path, capsys):
        cfg = manufactured_config(tmp_path)
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", str(path)]) == 0
        rows = read_csv(tmp_path / "solution.csv")
        assert list(rows[0].keys()) == ["r", "u", "v", "u_prime", "v_prime"]
        at_one = min(rows, key=lambda r: abs(float(r["r"]) - 1.0))
        assert float(at_one["u"]) == pytest.approx(2.0, abs=1e-4)
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["solution"]["converged"] is True

    def test_malformed_expression_exits_1(self, tmp_path, capsys):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["weight1"] = "6/(1+r^2"
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", str(path)]) == 1
        assert "offset" in capsys.readouterr().err

    def test_zero_weight_constant_solution(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["weight1"] = "0"
        cfg["problem"]["weight2"] = "0"
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", str(path)]) == 0
        rows = read_csv(tmp_path / "solution.csv")
        assert all(float(r["u"]) == 1.0 for r in rows)

    def test_unreadable_config_exits_1(self, tmp_path, capsys):
        assert cli.main(["solve", "--config", str(tmp_path / "nope.json")]) == 1

    def test_numeric_failure_exits_2(self, tmp_path, capsys):
        # blow-up inside the grid: superlinear coupling with big weights
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["weight1"] = "10"
        cfg["problem"]["weight2"] = "10"
        cfg["problem"]["f1"] = {"family": "power", "gamma": 3.0}
        cfg["problem"]["f2"] = {"family": "power", "gamma": 3.0}
        cfg["numerics"] = {"r_max": 50.0, "step": 0.01, "max_iter": 60}
        path = write_config(tmp_path, cfg)
        assert cli.main(["solve", "--config", str(path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert "error" in report


class TestClassifyCommand:
    def classify(self, tmp_path, w1, w2, extra=None):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["weight1"] = w1
        cfg["problem"]["weight2"] = w2
        cfg["numerics"]["tail_tol"] = 1e-2
        if extra:
            cfg.update(extra)
        path = write_config(tmp_path, cfg)
        assert cli.main(["classify", "--config", str(path)]) == 0
        return json.loads((tmp_path / "report.json").read_text())

    def test_linear_instance_both_large(self, tmp_path):
        report = self.classify(tmp_path, "1", "1")
        assert report["classification"]["verdict"] == "both_large"
        assert report["classification"]["matched_rule"] == "large_both"

    def test_decaying_weights_both_bounded(self, tmp_path):
        report = self.classify(tmp_path, "(1+r)^(-4)", "(1+r)^(-4)")
        assert report["classification"]["verdict"] == "both_bounded"

    def test_indeterminate_is_exit_zero(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["weight1"] = "1"
        cfg["problem"]["weight2"] = "1"
        cfg["problem"]["f1"] = {"family": "exp_minus_one"}
        path = write_config(tmp_path, cfg)
        assert cli.main(["classify", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["verdict"] == "indeterminate"

    def test_with_solve_cross_check(self, tmp_path):
        report = self.classify(tmp_path, "(1+r)^(-4)", "(1+r)^(-4)",
                               extra={"classify": {"with_solve": True},
                                      "numerics": {"r_max": 8.0, "step": 2e-3,
                                                   "tail_tol": 1e-2}})
        assert report["consistency"]["u_consistent"] is True
        assert report["consistency"]["v_consistent"] is True


class TestNumericsValidation:
    """Degenerate probe settings are config errors, never a verdict."""

    def run_classify(self, tmp_path, numerics):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["weight1"] = "1"
        cfg["problem"]["weight2"] = "1"
        cfg["numerics"].update(numerics)
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = cli.main(["classify", "--config", str(path)])
        return code, (tmp_path / "report.json").exists()

    def test_zero_probe_count_exits_1(self, tmp_path, capsys):
        # used to escape as an IndexError traceback
        assert self.run_classify(tmp_path, {"probe": {"count": 0}}) == (1, False)
        assert "probe.count" in capsys.readouterr().err

    def test_zero_segment_nodes_exits_1(self, tmp_path, capsys):
        # used to collapse the probe grid to one node and call the linear
        # instance both_bounded with exit 0 (the defaults give both_large)
        assert self.run_classify(tmp_path, {"probe": {"segment_nodes": 0}}) == (1, False)
        assert "probe.segment_nodes" in capsys.readouterr().err

    def test_unit_probe_factor_exits_1(self, tmp_path, capsys):
        # used to divide 0/0 in the panel moments and still exit 0
        assert self.run_classify(tmp_path, {"probe": {"factor": 1.0}}) == (1, False)
        assert "probe.factor" in capsys.readouterr().err

    @pytest.mark.parametrize("numerics", [
        {"probe": {"r0": 0.0}},
        {"probe": {"r0": -1.0}},
        {"probe": {"factor": 0.5}},
        {"probe": {"segment_nodes": 1}},
        {"conv_tol": 0.0},
        {"tail_tol": -1e-6},
        {"blowup_threshold": 0.0},
    ])
    def test_other_degenerate_settings_exit_1(self, tmp_path, numerics):
        assert self.run_classify(tmp_path, numerics) == (1, False)

    def test_smallest_accepted_settings_run(self, tmp_path):
        probe = {"count": 1, "segment_nodes": 2, "factor": 1.5}
        assert self.run_classify(tmp_path, {"probe": probe}) == (0, True)


class TestValidateCommand:
    def test_catalog_config_all_pass(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["operator1"] = {"family": "plasma", "p": 2, "q": 3}
        cfg["numerics"]["tail_tol"] = 1e-2
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_ok"] is True
        assert report["validation"]["envelopes"]["operator1"]["worst_violation"] == 0.0

    def test_decreasing_nonlinearity_reported(self, tmp_path, capsys):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["f1"] = {"family": "custom", "expr": "exp(-t)"}
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["all_ok"] is False
        assert "monotonicity" in report["validation"]["assembly_error"]

    def test_power_law_oracle_included(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["numerics"]["tail_tol"] = 1e-2
        path = write_config(tmp_path, cfg)
        cli.main(["validate", "--config", str(path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert "power_law" in report["validation"]
        assert report["validation"]["single_equation"]["1"]["solvable"]


class TestSweepCommand:
    def test_decay_exponent_sweep(self, tmp_path):
        cfg = {
            "problem": {
                "N": 3, "alpha": 1.0, "beta": 1.0,
                "operator1": {"family": "laplacian"},
                "operator2": {"family": "laplacian"},
                "weight1": {"expr": "(1+r)^(-sigma)", "params": {"sigma": 0}},
                "weight2": {"expr": "(1+r)^(-sigma)", "params": {"sigma": 0}},
                "f1": {"family": "power", "gamma": 1.0},
                "f2": {"family": "power", "gamma": 1.0},
            },
            "numerics": {"tail_tol": 1e-2},
            "sweep": {
                "axes": [{
                    "name": "sigma",
                    "paths": ["problem.weight1.params.sigma",
                              "problem.weight2.params.sigma"],
                    "values": [0, 1, 2, 3, 4, 5],
                }],
                "csv": str(tmp_path / "sweep.csv"),
            },
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        rows = read_csv(tmp_path / "sweep.csv")
        verdicts = {int(r["sigma"]): r["verdict"] for r in rows}
        assert all(verdicts[s] == "both_large" for s in (0, 1, 2))
        assert all(verdicts[s] == "both_bounded" for s in (3, 4, 5))

    def test_empty_axes_empty_csv(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["sweep"] = {"axes": [], "csv": str(tmp_path / "sweep.csv")}
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0] == "verdict,matched_rule"
        assert len(text.splitlines()) == 1

    def test_thread_cap_respected(self, tmp_path, monkeypatch):
        monkeypatch.setenv("RPS_THREADS", "1")
        self.test_decay_exponent_sweep(tmp_path)

    def test_exponent_pair_sweep_all_large(self, tmp_path):
        # unit weights keep both couplings divergent for any exponent pair
        # with product at most 1
        cfg = {
            "problem": {
                "N": 3, "alpha": 1.0, "beta": 1.0,
                "operator1": {"family": "laplacian"},
                "operator2": {"family": "laplacian"},
                "weight1": "1", "weight2": "1",
                "f1": {"family": "power", "gamma": 1.0},
                "f2": {"family": "power", "gamma": 1.0},
            },
            "numerics": {"tail_tol": 1e-2},
            "sweep": {
                "axes": [
                    {"name": "gamma1", "paths": ["problem.f1.gamma"],
                     "values": [0.5, 1.0]},
                    {"name": "gamma2", "paths": ["problem.f2.gamma"],
                     "values": [0.5, 1.0]},
                ],
                "csv": str(tmp_path / "pairs.csv"),
            },
        }
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        rows = read_csv(tmp_path / "pairs.csv")
        assert len(rows) == 4
        assert all(r["verdict"] == "both_large" for r in rows)


class TestDeterminism:
    def test_classify_byte_identical(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["weight1"] = "(1+r)^(-3)"
        cfg["numerics"]["tail_tol"] = 1e-2
        path = write_config(tmp_path, cfg)
        cli.main(["classify", "--config", str(path)])
        first = (tmp_path / "report.json").read_bytes()
        cli.main(["classify", "--config", str(path)])
        second = (tmp_path / "report.json").read_bytes()
        assert first == second

    def test_solve_csv_byte_identical(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        path = write_config(tmp_path, cfg)
        cli.main(["solve", "--config", str(path)])
        first = (tmp_path / "solution.csv").read_bytes()
        cli.main(["solve", "--config", str(path)])
        assert first == (tmp_path / "solution.csv").read_bytes()
