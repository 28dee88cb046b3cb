import copy
import csv
import itertools
import json
import re
import threading
import warnings
from pathlib import Path
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from radialphi import cli, criteria, iteration, model, quadrature
from radialphi._memo import BoundedCache
from radialphi.quadrature import RadialGrid, central_diff


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


def assert_same_report(got, want, path="report"):
    """Equal JSON documents, floats to 1e-12 relative: the last bits of a
    libm or numpy function may differ between machines."""
    assert type(got) is type(want), path
    if isinstance(want, dict):
        assert list(got) == list(want), path
        for key in want:
            assert_same_report(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            assert_same_report(g, w, f"{path}[{i}]")
    elif isinstance(want, float):
        assert got == pytest.approx(want, rel=1e-12, abs=0.0), path
    else:
        assert got == want, path


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

    def test_kernel_overflow_exits_2(self, tmp_path, capsys):
        # the radial kernel overflows in high dimension: a numeric failure,
        # which used to be reported as a config error with exit 1; the
        # rescaled kernel still overflows once 2^N leaves the float range
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["N"] = 1100
        path = write_config(tmp_path, cfg)
        with np.errstate(all="ignore"):
            assert cli.main(["solve", "--config", str(path)]) == 2
            report = json.loads((tmp_path / "report.json").read_text())
            assert report["error"]["kind"] == "NumericsError"
            assert "overflowed" in report["error"]["message"]
            assert cli.main(["classify", "--config", str(path)]) == 0
        # the probes run on panels, which store no power above 1 and do not
        # overflow: classify decides N = 1100 as it does N = 3 to 1000
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["classification"]["verdict"] == "both_large"

    def test_kernel_overflow_warns_nothing(self, tmp_path, capsys):
        # the overflow used to flood stderr with numpy RuntimeWarnings
        # before the single numeric failure
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["N"] = 1100
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["solve", "--config", str(path)]) == 2
        assert "overflowed" in capsys.readouterr().err


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

    @pytest.mark.parametrize("with_solve", [False, True])
    def test_only_a_solve_builds_the_grid(self, tmp_path, monkeypatch, with_solve):
        # classify used to build the solver's 2,001-node grid and its
        # trapezoid layout at every call, solve or not
        built = []
        layout = quadrature.LinearPanels
        for module in (quadrature, criteria):
            monkeypatch.setattr(module, "LinearPanels",
                                lambda nodes: built.append(len(nodes)) or layout(nodes))
        cfg = manufactured_config(tmp_path, classify={"with_solve": with_solve})
        assert cli.run_config("classify", cfg) == 0
        assert (2001 in built) if with_solve else built == []

    def test_with_solve_builds_the_kernel_weights_once(self, tmp_path, monkeypatch):
        # the cross-check's bounds run on the solve grid's own layout; they
        # used to build a second layout of the same nodes, and its weights
        built, solved = [], []
        weights = quadrature.LinearPanels._kernel_weights
        monkeypatch.setattr(quadrature.LinearPanels, "_kernel_weights",
                            lambda self, dim: built.append(self.nodes.size) or weights(self, dim))
        solve = iteration.solve
        monkeypatch.setattr(iteration, "solve", lambda spec, grid, *args: (
            solved.append((spec, grid)) or solve(spec, grid, *args)))
        cfg = manufactured_config(tmp_path, classify={"with_solve": True})
        assert cli.run_config("classify", cfg) == 0
        assert built == [2001]
        [(spec, grid)] = solved
        held = criteria.solution_bounds(spec, grid.panels)
        fresh = criteria.solution_bounds(spec, quadrature.LinearPanels(grid.nodes))
        assert held.keys() == fresh.keys()
        for key, want in fresh.items():
            assert want is not None and held[key].tobytes() == want.tobytes(), key

    @pytest.mark.parametrize("alpha,verdict,rule,budget_note", [
        (1e-300, "both_large", "large_both", "increments not decaying"),
        (1e300, "indeterminate", "none", "increments vanished"),
        # the budget nodes of an anchor within a decade of the float range
        # overflow, and the budget fails instead of warning
        (1e308, "indeterminate", "none",
         "evaluation failed: nodes must be finite and strictly increasing"),
    ])
    def test_extreme_anchor_writes_no_warning(self, tmp_path, capsys, alpha, verdict,
                                              rule, budget_note):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["alpha"] = alpha
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert cli.run_config("classify", cfg) == 0
        assert [str(w.message) for w in caught] == []
        assert capsys.readouterr().err == ""
        report = json.loads((tmp_path / "report.json").read_text())
        assert (report["classification"]["verdict"],
                report["classification"]["matched_rule"]) == (verdict, rule)
        assert report["criteria"]["growth_budget_12"]["note"].startswith(budget_note)

    def test_subnormal_anchor_is_a_config_error(self, tmp_path, capsys):
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["alpha"] = 5e-324
        assert cli.run_config("classify", cfg) == 1
        assert capsys.readouterr().err == (
            "config error: f1: enveloped coupling value is not positive\n")

    @pytest.mark.parametrize("value", ["false", "true", 0.0, 1, None, {}])
    def test_with_solve_must_be_a_boolean(self, tmp_path, capsys, value):
        # "false" used to run the solve and exit 0, while 0.0 skipped it
        cfg = manufactured_config(tmp_path, classify={"with_solve": value})
        assert cli.run_config("classify", cfg) == 1
        assert capsys.readouterr().err == (
            f"config error: classify.with_solve must be true or false, got {value!r}\n")
        assert not (tmp_path / "report.json").exists()


CLASSIFY_REPORTS = Path(__file__).parent / "data" / "classify_reports.json"


def classify_reports(golden: dict, work_dir) -> dict:
    """The report of every problem in ``golden`` (entry -> {"problem",
    "report"}), classified with the default numerics."""
    out = {}
    for entry, case in golden.items():
        path = Path(work_dir) / "report.json"
        cfg = {"problem": case["problem"], "outputs": {"report_json": str(path)}}
        assert cli.run_config("classify", cfg) == 0, entry
        out[entry] = {"problem": case["problem"],
                      "report": json.loads(path.read_text(encoding="utf-8"))}
    return out


class TestGoldenReports:
    def test_classify_reports_match_the_recorded_ones(self, tmp_path):
        # whole reports of three benchmark classify entries with operators
        # that have no closed-form inverse; a refactor that keeps the
        # behaviour keeps every string and every float to 1e-12.  A change
        # that moves floats by design re-records the file by running this
        # module as a script
        golden = json.loads(CLASSIFY_REPORTS.read_text(encoding="utf-8"))
        assert len(golden) == 3
        assert_same_report(classify_reports(golden, tmp_path), golden)


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
        {"max_iter": -3},
        {"max_iter": 1.5},
        {"probe": {"count": 1.5}},
        {"probe": {"count": 15.7}},
        {"probe": {"segment_nodes": 2.5}},
    ])
    def test_other_degenerate_settings_exit_1(self, tmp_path, numerics):
        assert self.run_classify(tmp_path, numerics) == (1, False)

    @pytest.mark.parametrize("command", ["classify", "solve"])
    @pytest.mark.parametrize("numerics", [
        # these two used to end in an OverflowError traceback
        {"r_max": float("inf")},
        {"r_max": 1e300, "step": 1e-300},
        # used to turn an indeterminate verdict into a confident one
        {"tail_tol": float("inf")},
        # used to overflow the probe radii with a RuntimeWarning
        {"probe": {"factor": 1e30}},
        # solve used to report converged=True after one sweep with a
        # residual of 1.4e2
        {"conv_tol": float("inf")},
    ])
    def test_non_finite_settings_exit_1(self, tmp_path, capsys, command, numerics):
        cfg = manufactured_config(tmp_path)
        cfg["numerics"].update(numerics)
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr().err.startswith("config error: numerics: ")
        assert not (tmp_path / "report.json").exists()

    def test_smallest_accepted_settings_run(self, tmp_path):
        probe = {"count": 1, "segment_nodes": 2, "factor": 1.5}
        assert self.run_classify(tmp_path, {"probe": probe}) == (0, True)


# one sweep point, so that a sweep assembles the problem
ALPHA_SWEEP = {"axes": [{"name": "alpha", "paths": ["problem.alpha"], "values": [1.0]}]}


class TestConfigErrors:
    """Config mistakes exit 1 as config errors; programming errors do not."""

    @pytest.mark.parametrize("command", ["solve", "classify", "validate", "sweep"])
    def test_missing_problem_exits_1(self, tmp_path, capsys, command):
        cfg = manufactured_config(tmp_path, sweep=ALPHA_SWEEP)
        del cfg["problem"]
        assert cli.run_config(command, cfg) == 1
        # a sweep point creates the problem it sets a value in
        assert "config error: missing config key: " in capsys.readouterr().err

    @pytest.mark.parametrize("command,key,value", [
        ("classify", "numerics", [1.0]),
        ("classify", "outputs", "report.json"),
        ("classify", "classify", True),
        # an integer path used to be taken as a file descriptor: the report
        # went to stderr, which was then closed
        ("classify", "outputs", {"report_json": 2}),
        ("solve", "outputs", {"solution_csv": 2}),
        ("sweep", "sweep", {"axes": [], "csv": 2}),
        ("sweep", "sweep", 3),
        ("sweep", "sweep", {"axes": 3}),
        ("sweep", "sweep", {"axes": [{"name": "sigma"}]}),
        ("sweep", "sweep", {"axes": [{"name": "s", "values": [1.0], "paths": [7]}]}),
    ])
    def test_mistyped_sections_exit_1(self, tmp_path, capsys, command, key, value):
        # these used to escape as AttributeError tracebacks or print bare
        # KeyError text
        cfg = manufactured_config(tmp_path, **{key: value})
        assert cli.run_config(command, cfg) == 1
        assert capsys.readouterr().err.startswith("config error: ")

    @pytest.mark.parametrize("paths,name", [
        # the string weight used to be replaced by an object, which then
        # lacked its expression
        (["problem.weight1.params.sigma"], "'problem.weight1.params.sigma' runs through "
                                           "problem.weight1, which is not an object"),
        # these two used to exit 0 with the value under a key nothing reads
        (["problem..N"], "'problem..N' has an empty segment"),
        (["problem.N", ""], "path '' has an empty segment"),
    ])
    def test_bad_sweep_path_names_it(self, tmp_path, capsys, monkeypatch, paths, name):
        monkeypatch.setattr(cli, "_classification",
                            lambda cfg: pytest.fail("a sweep point ran"))
        cfg = manufactured_config(tmp_path, sweep={
            "axes": [{"name": "sigma", "paths": paths, "values": [3]}]})
        assert cli.run_config("sweep", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: sweep axis 'sigma': ") and name in err

    @pytest.mark.parametrize("numerics,name", [
        ({"probe": 3}, "numerics.probe"),
        ({"probe": {"count": "many"}}, "numerics.probe.count"),
        ({"probe": {"r0": None}}, "numerics.probe.r0"),
        ({"tail_tol": {}}, "numerics.tail_tol"),
        ({"r_max": "far"}, "numerics.r_max"),
        ({"max_iter": [3]}, "numerics.max_iter"),
        # these three used to be read as 1.0
        ({"max_iter": True}, "numerics.max_iter must be a number, got True"),
        ({"conv_tol": True}, "numerics.conv_tol must be a number, got True"),
        ({"probe": {"count": True}}, "numerics.probe.count must be a number, got True"),
    ])
    def test_mistyped_numerics_name_the_key(self, tmp_path, capsys, numerics, name):
        cfg = manufactured_config(tmp_path)
        cfg["numerics"].update(numerics)
        assert cli.run_config("classify", cfg) == 1
        assert name in capsys.readouterr().err

    @pytest.mark.parametrize("key,value,name", [
        ("N", "three", "problem.N"),
        # int() would have run it as N = 3
        ("N", 3.7, "problem.N must be an integer"),
        ("N", float("inf"), "problem.N"),
        ("alpha", None, "problem.alpha"),
        ("M1", "big", "problem.M1"),
        ("operator1", {"family": "plasma", "p": 2.0}, "'q'"),
        ("operator1", {"family": "plasma", "p": "two", "q": 3.0}, "plasma"),
        ("operator2", 7, "problem.operator2"),
        ("weight1", {"expr": 6}, "problem.weight1.expr"),
        ("weight2", {"expr": "(1+r)^(-s)", "params": {"s": "x"}}, "problem.weight2.params.s"),
        ("weight2", {"expr": "(1+r)^(-s)", "params": [2]}, "problem.weight2.params"),
        ("f1", {"family": "power"}, "missing config key: problem.f1.gamma"),
        ("f1", {"family": "power_combination", "coeffs": 1, "exponents": [1]},
         "problem.f1.coeffs"),
        ("f2", {"expr": "t", "envelopes": {"c_bar": "one", "g": "t", "xi_bar": "t"}},
         "problem.f2.envelopes.c_bar"),
        ("f2", 2.0, "problem.f2"),
        ("envelope1", {"theta_under": "t"}, "missing config key: problem.envelope1.theta_bar"),
        # these four used to be read as numbers
        ("alpha", "1", "problem.alpha must be a number, got '1'"),
        ("beta", True, "problem.beta must be a number, got True"),
        ("operator1", {"family": "p_laplacian", "p": "3"},
         "p_laplacian: parameters must be numbers, got p='3'"),
        ("operator2", {"family": "plasma", "p": 2.0, "q": True},
         "plasma: parameters must be numbers, got q=True"),
    ])
    def test_mistyped_problem_value_names_the_key(self, tmp_path, capsys, key, value, name):
        cfg = manufactured_config(tmp_path)
        cfg["problem"][key] = value
        assert cli.run_config("solve", cfg) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err

    @pytest.mark.parametrize("text,line", [
        (None, "cannot read config: [Errno 2] No such file or directory: {path!r}"),
        ("nope", "config is not valid JSON: Expecting value: line 1 column 1 (char 0)"),
        ("[1.0]", "config must be a JSON object"),
    ], ids=["unreadable", "invalid-json", "non-object"])
    def test_config_file_error_line(self, tmp_path, capsys, text, line):
        path = tmp_path / "config.json"
        if text is not None:
            path.write_text(text, encoding="utf-8")
        assert cli.main(["solve", "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {line.format(path=str(path))}\n")

    @pytest.mark.parametrize("command,key,value,line", [
        pytest.param("solve", "problem", None, "missing config key: config.problem",
                     id="missing-problem"),
        pytest.param("solve", "numerics", [1.0], "numerics must be an object", id="numerics"),
        pytest.param("solve", "outputs", [1.0], "outputs must be an object", id="outputs"),
        pytest.param("classify", "classify", [1.0], "classify must be an object", id="classify"),
        pytest.param("sweep", "sweep", [1.0], "sweep must be an object", id="sweep"),
        pytest.param("classify", "outputs.report_json", 2,
                     "outputs.report_json must be a string, got 2", id="report-path"),
        pytest.param("sweep", "sweep.csv", 2, "sweep.csv must be a string, got 2", id="sweep-path"),
        pytest.param("solve", "numerics.max_iter", 1.5,
                     "numerics.max_iter must be an integer, got 1.5", id="max-iter-1.5"),
        pytest.param("solve", "numerics.max_iter", -3,
                     "numerics: max_iter must be an integer of at least 1", id="max-iter-negative"),
        pytest.param("solve", "numerics.conv_tol", 0.0,
                     "numerics: conv_tol must be positive and finite",
                     id="conv-tol-zero"),
        pytest.param("solve", "numerics.r_max", float("inf"),
                     "numerics: r_max and step must be positive and finite", id="r-max-inf"),
        pytest.param("classify", "classify.with_solve", "false",
                     "classify.with_solve must be true or false, got 'false'", id="with-solve"),
    ])
    def test_config_error_line(self, tmp_path, capsys, command, key, value, line):
        # the whole stderr line of each config mistake; None deletes the key
        cfg = manufactured_config(tmp_path)
        if value is None:
            del cfg[key]
        else:
            cli._set_path(cfg, key, value, key)
        path = write_config(tmp_path, cfg)
        assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {line}\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("command", ["solve", "classify"])
    @pytest.mark.parametrize("key,value,line", [
        # used to exit 0 with RuntimeWarnings from the hypothesis sampling
        # and the probe quadrature
        ("alpha", float("inf"), "central values alpha, beta must be positive and finite"),
        ("beta", float("inf"), "central values alpha, beta must be positive and finite"),
        # these two used to exit 0 and write NaN or Infinity, which is not
        # JSON, into report.json
        ("M1", float("nan"), "scaling constants M1, M2 must be finite"),
        ("M2", float("inf"), "scaling constants M1, M2 must be finite"),
    ])
    def test_non_finite_problem_scalar_exits_1(self, tmp_path, capsys, command, key, value,
                                               line):
        cfg = manufactured_config(tmp_path)
        cfg["problem"][key] = value
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main([command, "--config", str(path)]) == 1
        assert capsys.readouterr() == ("", f"config error: {line}\n")
        assert not (tmp_path / "report.json").exists()

    @pytest.mark.parametrize("old,new,line", [
        ('"alpha": 1.0', '"alpha": 1' + "0" * 400, "problem.alpha is too large for a float"),
        ('"gamma": 1.0', '"gamma": 1' + "0" * 400, "problem.f1.gamma is too large for a float"),
        ('"step": 0.001', '"step": 0.001, "probe": {"count": 1' + "0" * 400 + "}",
         "numerics.probe.count is too large for a float"),
        ('"operator1": {"family": "laplacian"}',
         '"operator1": {"family": "p_laplacian", "p": 1' + "0" * 400 + "}",
         "p_laplacian: parameter p is too large for a float"),
        # json.load's own message follows, worded by the interpreter
        ('"alpha": 1.0', '"alpha": 1' + "0" * 5000,
         "config cannot be read as JSON: Exceeds the limit (4300 digits)"),
    ], ids=["alpha-400-digits", "gamma-400-digits", "probe-count-400-digits",
            "operator-p-400-digits", "alpha-5001-digits"])
    def test_integer_beyond_float_range_exits_1(self, tmp_path, capsys, old, new, line):
        # each used to end in a traceback: float() raised OverflowError, and
        # json.load a ValueError that is not a JSONDecodeError
        text = json.dumps(manufactured_config(tmp_path))
        assert old in text
        path = tmp_path / "config.json"
        path.write_text(text.replace(old, new, 1), encoding="utf-8")
        assert cli.main(["classify", "--config", str(path)]) == 1
        out, err = capsys.readouterr()
        assert out == "" and err.startswith(f"config error: {line}")
        assert err.endswith("\n") and err.count("\n") == 1
        assert not (tmp_path / "report.json").exists()

    def test_config_not_utf8_exits_1(self, tmp_path, capsys):
        # a UnicodeDecodeError used to escape from json.load as a traceback
        path = tmp_path / "config.json"
        path.write_bytes(json.dumps(manufactured_config(tmp_path)).encode().replace(
            b'"6/(1+r^2)"', b'"6/(1+r^2)\xff"', 1))
        assert cli.main(["classify", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: config cannot be read as JSON: 'utf-8' codec")

    @pytest.mark.parametrize("command", ["classify", "sweep"])
    @pytest.mark.parametrize("module,name", [
        ("criteria", "build_report"),
        # inside problem assembly, after the config values are read
        ("model", "derive_envelopes"),
        ("model", "build_problem"),
    ])
    def test_programming_error_is_not_a_config_error(self, tmp_path, capsys, monkeypatch,
                                                     command, module, name):
        def broken(*args, **kwargs):
            raise TypeError("planted")

        monkeypatch.setattr(getattr(cli, module), name, broken)
        # cold operator and envelope caches, so that assembly derives the envelopes
        monkeypatch.setattr(model, "_OPERATORS", BoundedCache(8))
        monkeypatch.setattr(model, "_ENVELOPES", BoundedCache(2))
        cfg = manufactured_config(tmp_path, sweep=ALPHA_SWEEP)
        with pytest.raises(TypeError, match="planted"):
            cli.run_config(command, cfg)
        assert "config error" not in capsys.readouterr().err


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

    @pytest.mark.parametrize("key,value,name", [
        ("N", None, "missing config key: problem.N"),
        ("N", "three", "problem.N must be a number"),
        ("f1", {"family": "nope"}, "unknown nonlinearity family 'nope'"),
        ("weight1", 3, "problem.weight1 must be an object"),
    ])
    def test_malformed_problem_exits_1(self, tmp_path, capsys, key, value, name):
        # these used to exit 0 with all_ok false, as if an instance
        # hypothesis had failed, while classify exited 1
        cfg = manufactured_config(tmp_path)
        if value is None:
            del cfg["problem"][key]
        else:
            cfg["problem"][key] = value
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", "--config", str(path)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("config error: ") and name in err
        assert not (tmp_path / "report.json").exists()

    def test_power_law_oracle_included(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["numerics"]["tail_tol"] = 1e-2
        path = write_config(tmp_path, cfg)
        cli.main(["validate", "--config", str(path)])
        report = json.loads((tmp_path / "report.json").read_text())
        assert "power_law" in report["validation"]
        assert report["validation"]["single_equation"]["1"]["solvable"]

    def test_power_law_oracle_reads_exact_exponents(self, tmp_path):
        # the product is 1.00000035; the exponents printed with %g read
        # 1 and 1 and used to give product_le_one true
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["f1"] = {"family": "power", "gamma": 1.0000004}
        cfg["problem"]["f2"] = {"family": "power", "gamma": 0.99999995}
        cfg["numerics"]["tail_tol"] = 1e-2
        path = write_config(tmp_path, cfg)
        assert cli.main(["validate", "--config", str(path)]) == 0
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["validation"]["power_law"]["product_le_one"] is False

    def test_readme_report_independent_of_segment_nodes(self, tmp_path):
        # the oracles keep their own trapezoid grid of 1024 panels per
        # segment: the README config writes the same report JSON for any
        # segment_nodes, and the report written when 1024 was the default
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        cfg["outputs"] = {"report_json": str(tmp_path / "report.json")}
        texts = []
        for nodes in (cfg["numerics"]["probe"]["segment_nodes"], 1024, None):
            local = copy.deepcopy(cfg)
            if nodes is None:
                del local["numerics"]["probe"]["segment_nodes"]
            else:
                local["numerics"]["probe"]["segment_nodes"] = nodes
            assert cli.run_config("validate", local) == 0
            texts.append((tmp_path / "report.json").read_text(encoding="utf-8"))
        assert texts[1] == texts[0] and texts[2] == texts[0]
        golden = Path(__file__).parent / "data" / "readme_validate.json"
        assert_same_report(json.loads(texts[0]), json.loads(golden.read_text(encoding="utf-8")))

    def test_numeric_failure_writes_error_json(self, tmp_path, capsys):
        # validate used to exit 2 without writing its report
        cfg = manufactured_config(tmp_path)
        cfg["problem"]["N"] = 1100
        path = write_config(tmp_path, cfg)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            assert cli.main(["validate", "--config", str(path)]) == 2
        report = json.loads((tmp_path / "report.json").read_text())
        assert report["instance"]["N"] == 1100
        assert report["error"]["kind"] == "NumericsError"
        assert "overflowed" in report["error"]["message"]
        assert "numeric failure" in capsys.readouterr().err


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

    def test_overflowing_point_writes_no_warning(self, tmp_path, capsys):
        # the c = 1e300 point overflows in the analytic inverse flux and in
        # a coupling's inner weight; its report already says so in notes,
        # but the RuntimeWarnings used to escape, and under an error filter
        # (the suite's) they ended the sweep
        weight = {"expr": "c*(1+r)^(-3)", "params": {"c": 1}}
        cfg = manufactured_config(tmp_path, sweep={
            "axes": [{"name": "c", "values": [1, 1e300, 2],
                      "paths": ["problem.weight1.params.c", "problem.weight2.params.c"]}],
            "csv": str(tmp_path / "sweep.csv")})
        cfg["problem"].update(operator1={"family": "p_laplacian", "p": 1.5},
                              weight1=weight, weight2=weight,
                              f2={"family": "power", "gamma": 0.5})
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert cli.main(["sweep", "--config", str(write_config(tmp_path, cfg))]) == 0
        assert capsys.readouterr() == ("sweep: 3 points\n", "")
        assert (tmp_path / "sweep.csv").read_text().splitlines()[1:] == [
            "1,indeterminate,bounded_both",
            "1.000000000000e+300,indeterminate,large_both",
            "2,indeterminate,bounded_both"]

    def test_empty_axes_empty_csv(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        cfg["sweep"] = {"axes": [], "csv": str(tmp_path / "sweep.csv")}
        path = write_config(tmp_path, cfg)
        assert cli.main(["sweep", "--config", str(path)]) == 0
        text = (tmp_path / "sweep.csv").read_text()
        assert text.splitlines()[0] == "verdict,matched_rule"
        assert len(text.splitlines()) == 1

    def test_points_run_in_order_on_calling_thread(self, tmp_path, monkeypatch):
        # a thread count in the environment is not read
        monkeypatch.setenv("RPS_THREADS", "2")
        calls = []

        def record(cfg):
            calls.append((threading.get_ident(),
                          cfg["problem"]["f1"]["gamma"], cfg["problem"]["f2"]["gamma"]))
            cls = SimpleNamespace(verdict="both_large", matched_rule="large_both")
            return None, None, None, None, cls

        monkeypatch.setattr(cli, "_classification", record)
        cfg = manufactured_config(tmp_path, sweep={"axes": [
            {"name": "gamma1", "paths": ["problem.f1.gamma"], "values": [0.5, 1.0]},
            {"name": "gamma2", "paths": ["problem.f2.gamma"], "values": [0.5, 1.0, 2.0]},
        ], "csv": str(tmp_path / "sweep.csv")})
        assert cli.run_config("sweep", cfg) == 0
        assert calls == [(threading.get_ident(), g1, g2)
                         for g1 in (0.5, 1.0) for g2 in (0.5, 1.0, 2.0)]

    def test_points_leave_the_callers_config_alone(self, tmp_path, monkeypatch):
        # points used to run on a deep copy of the whole config; now only
        # the objects on the axis paths are copied, so each point must
        # still see its own combination and nothing of the point before
        seen = []

        def record(cfg):
            seen.append(copy.deepcopy(cfg))
            cls = SimpleNamespace(verdict="both_large", matched_rule="large_both")
            return None, None, None, None, cls

        monkeypatch.setattr(cli, "_classification", record)
        cfg = manufactured_config(tmp_path, sweep={"axes": [
            {"name": "sigma", "values": [3.0, 4.0],
             "paths": ["problem.weight1.params.sigma", "problem.weight2.params.sigma"]},
            # through objects the config does not have
            {"name": "tag", "values": ["a", {"deep": 1}, "c"],
             "paths": ["extra.inner.tag", "problem.weight1.params.tag"]},
        ], "csv": str(tmp_path / "sweep.csv")})
        for key in ("weight1", "weight2"):
            cfg["problem"][key] = {"expr": "(1+r)^(-sigma)", "params": {"sigma": 0.0}}
        before = copy.deepcopy(cfg)
        assert cli.run_config("sweep", cfg) == 0
        assert cfg == before

        expected = []
        for sigma in (3.0, 4.0):
            for tag in ("a", {"deep": 1}, "c"):
                point = copy.deepcopy(before)
                for key in ("weight1", "weight2"):
                    point["problem"][key]["params"]["sigma"] = sigma
                point["problem"]["weight1"]["params"]["tag"] = tag
                point["extra"] = {"inner": {"tag": tag}}
                expected.append(point)
        assert seen == expected

    @pytest.mark.parametrize("to_file", [False, True])
    def test_stdout_holds_only_the_csv(self, tmp_path, capsys, monkeypatch, to_file):
        # the summary line used to follow the rows on stdout
        cls = SimpleNamespace(verdict="both_large", matched_rule="large_both")
        monkeypatch.setattr(cli, "_classification",
                            lambda cfg: (None, None, None, None, cls))
        sweep = {"axes": [{"name": "alpha", "paths": ["problem.alpha"],
                           "values": [1.0, 2.0, 3.0]}]}
        if to_file:
            sweep["csv"] = str(tmp_path / "sweep.csv")
        assert cli.run_config("sweep", manufactured_config(tmp_path, sweep=sweep)) == 0
        out, err = capsys.readouterr()
        if to_file:
            assert (out, err) == ("sweep: 3 points\n", "")
            out = (tmp_path / "sweep.csv").read_text()
        else:
            assert err == "sweep: 3 points\n"
        rows = list(csv.reader(out.splitlines()))
        assert rows == [["alpha", "verdict", "matched_rule"]] + [
            [cli._CSV_FLOAT % a, "both_large", "large_both"] for a in (1.0, 2.0, 3.0)]

    def test_cells_round_trip_through_csv_reader(self, tmp_path):
        # both values used to be written unquoted, so their rows split into
        # more fields than the header has
        weights = ["min(1,(1+r)^(-3))", {"params": {"sigma": 3}, "expr": "(1+r)^(-sigma)"}]
        cfg = manufactured_config(tmp_path, sweep={
            "axes": [{"name": "weight", "paths": ["problem.weight1"], "values": weights}],
            "csv": str(tmp_path / "sweep.csv")})
        cfg["numerics"]["probe"] = {"count": 3, "segment_nodes": 16}
        assert cli.run_config("sweep", cfg) == 0
        with open(tmp_path / "sweep.csv", newline="") as fh:
            rows = list(csv.reader(fh))
        assert rows[0] == ["weight", "verdict", "matched_rule"]
        assert [len(row) for row in rows] == [3, 3, 3]
        assert rows[1][0] == weights[0]
        # objects are compact JSON with sorted keys
        assert rows[2][0] == '{"expr":"(1+r)^(-sigma)","params":{"sigma":3}}'

    def test_readme_config_sweeps(self):
        # every point of the README's example sweep assembles; the probes
        # are not run
        readme = (Path(__file__).parents[1] / "README.md").read_text(encoding="utf-8")
        cfg = json.loads(re.search(r"```json\n(.*?)```", readme, re.S).group(1))
        axes = cli._sweep_axes(cfg["sweep"])
        for combo in itertools.product(*(ax["values"] for ax in axes)):
            local = copy.deepcopy(cfg)
            for ax, value in zip(axes, combo):
                for path in ax["paths"]:
                    cli._set_path(local, path, value, ax["name"])
            model.assemble(local["problem"])

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
        # the last axis varies fastest
        assert [(float(r["gamma1"]), float(r["gamma2"])) for r in rows] == [
            (0.5, 0.5), (0.5, 1.0), (1.0, 0.5), (1.0, 1.0)]


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


def reference_rows(table) -> bytes:
    """Every float formatted on its own, the writer's contract."""
    return "".join(",".join("%.12e" % x for x in row) + "\n"
                   for row in table).encode()


def reference_csv(cols) -> bytes:
    return b"r,u,v,u_prime,v_prime\n" + reference_rows(zip(*cols))


# 13-digit mantissas ending in exactly one half, and their neighbours
_TIES = st.builds(lambda m, k, side: np.nextafter((m + 0.5) * 10.0 ** k, side),
                  st.integers(10**12, 10**13 - 1), st.integers(-40, 30),
                  st.sampled_from([-np.inf, 0.0, np.inf]))
_EDGES = [0.0, -0.0, 5e-324, -5e-324, 2.2250738585072014e-308, 1e22, 1e23,
          9.9999999999995e-1, 1e-100, 9.999999999999e99, 1e100, -1e300,
          1.7976931348623157e308, 0.5e-3, 0.5e-7, 0.5e-12, 2.5e-13,
          float("nan"), float("inf"), float("-inf")]
# mantissas 0.0022 to 0.01 from a tie before the product rounds: most lie
# just outside the 0.497 band and take the digit path
_NEAR_TIES = st.builds(lambda m, delta, k, sign: sign * (m + 0.5 + delta) * 10.0 ** k,
                       st.integers(10**12, 10**13 - 1),
                       st.one_of(st.floats(0.0022, 0.01), st.floats(-0.01, -0.0022)),
                       st.integers(-40, 30), st.sampled_from([-1.0, 1.0]))
# exact ties at the 13th digit, rounded half to even; the last one carries
_EXACT_TIES = [1234567890123.5, 1234567890122.5, 12345678901235.0,
               12345678901225.0, -1000000000000.5, 9999999999999.5]


class TestSolutionCsv:
    """The bulk writer is byte-identical to %.12e on every float."""

    @given(st.lists(st.lists(st.floats(), min_size=5, max_size=5), min_size=1, max_size=20))
    @settings(max_examples=100, deadline=None)
    def test_rows_match_per_float_format(self, rows):
        table = np.array(rows, dtype=float)
        assert cli._csv_rows(table) == reference_rows(table)

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 5)),
                  elements=st.one_of(st.floats(), _TIES, st.sampled_from(_EDGES))))
    @settings(max_examples=100, deadline=None)
    def test_mixed_blocks_match_per_float_format(self, table):
        assert cli._csv_rows(table) == reference_rows(table)

    @pytest.mark.parametrize(
        "x", _EDGES + _EXACT_TIES + [0.5 * 10.0 ** -k for k in (1, 2, 5, 9, 13)])
    def test_edge_values(self, x):
        for row in ([x], [x, 1.0, -x], [1.0, 2.0, x]):
            table = np.array([row])
            assert cli._csv_rows(table) == reference_rows(table)

    def test_edge_values_in_one_block(self):
        table = np.array(_EDGES + _EXACT_TIES[:4]).reshape(-1, 4)
        assert cli._csv_rows(table) == reference_rows(table)

    @given(arrays(np.float64, st.tuples(st.integers(1, 12), st.integers(1, 5)),
                  elements=_NEAR_TIES))
    @settings(max_examples=50, deadline=None)
    def test_values_next_to_the_band_match_per_float_format(self, table):
        assert cli._csv_rows(table) == reference_rows(table)

    def test_few_values_take_the_fallback(self, monkeypatch):
        # uniform mantissas meet the 0.497 band about 0.6% of the time
        class CountingFormat(str):
            calls = 0

            def __mod__(self, value):
                CountingFormat.calls += 1
                return str.__mod__(self, value)

        monkeypatch.setattr(cli, "_CSV_FLOAT", CountingFormat("%.12e"))
        rng = np.random.default_rng(15)
        table = rng.uniform(1.0, 10.0, (1024, 5)) * 10.0 ** rng.integers(-30, 30, (1024, 5))
        assert cli._csv_rows(table) == reference_rows(table)
        assert CountingFormat.calls <= 0.01 * table.size

    @pytest.mark.parametrize("bad", [[0], [2, 3], [5], [0, 1, 2, 3, 4, 5]],
                             ids=["first", "adjacent", "last", "all"])
    def test_non_finite_rows_leave_empty_slices(self, bad):
        table = np.linspace(1.0, 2.0, 30).reshape(6, 5)
        table[bad, 1] = np.nan
        table[bad, 4] = -np.inf
        assert cli._finite_csv_rows(table[:0]) == b""
        assert cli._csv_rows(table) == reference_rows(table)
        assert cli._csv_rows(-1e200 * table) == reference_rows(-1e200 * table)

    def test_narrow_then_wide_block(self, tmp_path):
        # the first block has no negative value and no |e| >= 100, so it is
        # written as 19-byte cells; the second is not
        rows = 2 * cli._CSV_BLOCK
        grid = RadialGrid(0.5 * (rows - 1), 0.5)
        u = 1.0 + grid.nodes ** 2
        v = np.where(np.arange(rows) < cli._CSV_BLOCK + 100, u, -1e150 * u)
        cols = (grid.nodes, u, v, central_diff(u, 0.5), central_diff(v, 0.5))
        table = np.column_stack(cols)
        head, tail = table[:cli._CSV_BLOCK], table[cli._CSV_BLOCK:]
        assert not np.signbit(head).any() and head.max() < 1e99
        assert np.signbit(tail).any()
        path = tmp_path / "solution.csv"
        cli._write_solution_csv(str(path), SimpleNamespace(grid=grid, u=u, v=v))
        assert path.read_bytes() == reference_csv(cols)

    @pytest.mark.parametrize("offset", [-0.5, 0.5])
    def test_exact_when_log10_misjudges_exponent(self, monkeypatch, offset):
        # every value whose exponent guess is off must take the fallback
        log10 = np.log10
        monkeypatch.setattr(np, "log10", lambda x: log10(x) + offset)
        rng = np.random.default_rng(7)
        table = rng.uniform(0.0, 1.0, (200, 5)) * 10.0 ** np.arange(-6, 9, 3)
        assert cli._csv_rows(table) == reference_rows(table)

    def test_manufactured_solve_golden(self, tmp_path):
        cfg = manufactured_config(tmp_path)
        assert cli.run_config("solve", cfg) == 0
        num = cli._numerics(cfg)
        sol = iteration.solve(model.assemble(cfg["problem"]), num["grid"],
                              num["conv_tol"], num["max_iter"])
        cols = (sol.grid.nodes, sol.u, sol.v,
                central_diff(sol.u, sol.grid.step), central_diff(sol.v, sol.grid.step))
        assert (tmp_path / "solution.csv").read_bytes() == reference_csv(cols)

    @pytest.mark.parametrize("rows", [2, cli._CSV_BLOCK - 1, cli._CSV_BLOCK,
                                      cli._CSV_BLOCK + 1, 20_001])
    def test_block_boundaries(self, tmp_path, rows):
        # a solution grid has at least two nodes; one row is test_single_row
        rng = np.random.default_rng(rows)
        grid = RadialGrid(0.5 * (rows - 1), 0.5)
        u = rng.standard_normal(rows) * 10.0 ** rng.integers(-5, 5, rows)
        v = np.exp(rng.uniform(-50, 50, rows))
        path = tmp_path / "solution.csv"
        cli._write_solution_csv(str(path), SimpleNamespace(grid=grid, u=u, v=v))
        cols = (grid.nodes, u, v, central_diff(u, 0.5), central_diff(v, 0.5))
        text = path.read_bytes()
        assert text == reference_csv(cols)
        assert text.count(b"\n") == rows + 1

    def test_single_row(self):
        table = np.array([[0.0, 1.0, 1.0, -0.0, 2.5e-13]])
        assert cli._csv_rows(table) == b"0.000000000000e+00,1.000000000000e+00," \
            b"1.000000000000e+00,-0.000000000000e+00,2.500000000000e-13\n"


if __name__ == "__main__":
    # re-record tests/data/classify_reports.json from the problems it holds:
    # PYTHONPATH=src python tests/test_cli.py
    import tempfile
    with tempfile.TemporaryDirectory() as work_dir:
        recorded = classify_reports(
            json.loads(CLASSIFY_REPORTS.read_text(encoding="utf-8")), work_dir)
    CLASSIFY_REPORTS.write_text(json.dumps(recorded, indent=2) + "\n", encoding="utf-8")
