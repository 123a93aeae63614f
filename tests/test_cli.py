import json
import subprocess
import sys

import pytest

from extconv.cli import main
from extconv.exterior import KForm, wedge
from extconv.shapespace import tensor


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_json(tmp_path, name, obj):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


NEG_NORM_SQ = {"n": 4, "k": 2, "expr": {"op": "neg", "arg": {"op": "norm_sq", "arg": "xi"}}}
NORM_SQ = {"n": 4, "k": 2, "expr": {"op": "norm_sq", "arg": "xi"}}
TOP_POWER = {"n": 4, "k": 2,
             "expr": {"op": "inner", "form": "e1234",
                      "arg": {"op": "wedge_pow", "s": 2, "arg": "xi"}}}


class TestPi:
    def test_identity_projects_to_zero(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          {"n": 2, "k": 2, "rows": ["1", "2"], "data": [[1, 0], [0, 1]]})
        code, out, _ = run_cli(capsys, "pi", "--input", path)
        assert code == 0
        assert json.loads(out) == {"n": 2, "k": 2, "coeffs": {}}

    def test_antisymmetrization_value(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          {"n": 2, "k": 2, "rows": ["1", "2"], "data": [[0, 5], [3, 0]]})
        code, out, _ = run_cli(capsys, "pi", "--input", path)
        assert code == 0
        assert json.loads(out)["coeffs"] == {"1,2": "2"}

    def test_tensor_input_matches_wedge(self, capsys, tmp_path):
        a = KForm.from_dict(4, 1, {(1,): 2, (3,): -1})
        b = KForm.from_dict(4, 1, {(2,): 3, (4,): 1})
        path = write_json(tmp_path, "m.json", tensor(a, b).to_json())
        code, out, _ = run_cli(capsys, "pi", "--input", path)
        assert code == 0
        assert json.loads(out) == wedge(a, b).to_json()

    def test_malformed_input_exits_2(self, capsys, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text("{not json")
        code, _, err = run_cli(capsys, "pi", "--input", str(path))
        assert code == 2 and "extconv:" in err

    def test_missing_file_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "pi", "--input", "/no/such/file.json")
        assert code == 2 and err


class TestAlgebraCommands:
    def test_adjugate_cell(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          {"n": 3, "k": 2, "rows": ["1", "2", "3"],
                           "data": [[1, 2, 3], [4, 5, 6], [7, 8, 9]]})
        code, out, _ = run_cli(capsys, "adjugate", "--input", path, "--s", "2")
        assert code == 0
        blob = json.loads(out)
        cell = blob["rows"].index(["1", "2"]), blob["cols"].index([1, 2])
        assert blob["values"][cell[0]][cell[1]] == "-3"

    def test_wedge_power(self, capsys, tmp_path):
        form = {"n": 4, "k": 2, "coeffs": {"1,2": "1", "3,4": "1"}}
        path = write_json(tmp_path, "f.json", form)
        code, out, _ = run_cli(capsys, "wedge-power", "--input", path, "--s", "2")
        assert code == 0
        assert json.loads(out)["coeffs"] == {"1,2,3,4": "2"}

    @pytest.mark.parametrize("s", [3, 100000000])
    def test_wedge_power_above_dimension_is_the_zero_form(self, capsys, tmp_path, s):
        path = write_json(tmp_path, "f.json", {"n": 4, "k": 2, "coeffs": {"1,2": "1"}})
        code, out, _ = run_cli(capsys, "wedge-power", "--input", path, "--s", str(s))
        assert code == 0
        assert out == '{"coeffs":{},"k":%d,"n":4}\n' % (2 * s)

    def test_output_file_matches_stdout(self, capsys, tmp_path):
        form = {"n": 4, "k": 2, "coeffs": {"1,2": "1"}}
        path = write_json(tmp_path, "f.json", form)
        out_path = tmp_path / "out.json"
        code, out, _ = run_cli(capsys, "wedge-power", "--input", path, "--s", "2",
                               "--output", str(out_path))
        assert code == 0
        assert out_path.read_text() == out

    def test_float_backend_override(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          {"n": 2, "k": 2, "rows": ["1", "2"], "data": [[0, 5], [3, 0]]})
        code, out, _ = run_cli(capsys, "pi", "--input", path, "--backend", "float")
        assert code == 0
        assert json.loads(out)["coeffs"] == {"1,2": 2.0}

    def test_exact_backend_rejects_float_data(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json",
                          {"n": 2, "k": 2, "rows": ["1", "2"], "data": [[0, 0.5], [0, 0]]})
        code, _, err = run_cli(capsys, "pi", "--input", path, "--backend", "exact")
        assert code == 2 and err


class TestVerifyFormula:
    def test_even_k_campaign_passes(self, capsys):
        code, out, _ = run_cli(capsys, "verify-formula", "--n", "4", "--k", "2",
                               "--s", "2", "--trials", "25")
        blob = json.loads(out)
        assert code == 0
        assert blob["status"] == "pass"
        assert blob["max_residual"] == "0"
        assert blob["config"] == {"n": 4, "k": 2, "s": 2}

    def test_odd_k_zero_path(self, capsys):
        code, out, _ = run_cli(capsys, "verify-formula", "--n", "6", "--k", "3",
                               "--s", "2", "--trials", "25")
        assert code == 0
        assert json.loads(out)["max_residual"] == "0"

    def test_injected_fault_detected(self, capsys, sign_fault):
        code, out, _ = run_cli(capsys, "verify-formula", "--n", "4", "--k", "2",
                               "--s", "2", "--trials", "5")
        blob = json.loads(out)
        assert code == 1
        assert blob["status"] == "fail"
        assert blob["failure"]["trial"] == 0
        assert blob["failure"]["seed"] == 0

    @pytest.mark.parametrize("trials", ["0", "-3"])
    def test_nonpositive_trials_exit_2(self, capsys, trials):
        code, out, err = run_cli(capsys, "verify-formula", "--n", "4", "--k", "2",
                                 "--s", "2", "--trials", trials)
        assert code == 2 and out == ""
        assert err.startswith("extconv:") and err.count("\n") == 1

    def test_empty_entry_range_exits_2(self, capsys):
        code, out, err = run_cli(capsys, "verify-formula", "--n", "4", "--k", "2",
                                 "--s", "2", "--low", "5", "--high", "-5")
        assert code == 2 and out == ""
        assert err.startswith("extconv:") and err.count("\n") == 1

    def test_single_value_entry_range_allowed(self, capsys):
        code, out, _ = run_cli(capsys, "verify-formula", "--n", "4", "--k", "2",
                               "--s", "2", "--trials", "2", "--low", "3", "--high", "3")
        assert code == 0 and json.loads(out)["status"] == "pass"

    def test_bad_order_exits_2(self, capsys):
        code, _, err = run_cli(capsys, "verify-formula", "--n", "4", "--k", "2",
                               "--s", "9", "--trials", "2")
        assert code == 2 and err


class TestCheckConvexity:
    def test_corpus_exit_codes(self, capsys, tmp_path):
        norm_path = write_json(tmp_path, "norm.json", NORM_SQ)
        neg_path = write_json(tmp_path, "neg.json", NEG_NORM_SQ)
        top_path = write_json(tmp_path, "top.json", TOP_POWER)
        assert run_cli(capsys, "check-convexity", "--mode", "one-convex",
                       "--input", norm_path)[0] == 0
        assert run_cli(capsys, "check-convexity", "--mode", "one-convex",
                       "--input", neg_path)[0] == 1
        assert run_cli(capsys, "check-convexity", "--mode", "one-affine",
                       "--input", top_path)[0] == 0
        assert run_cli(capsys, "check-convexity", "--mode", "one-affine",
                       "--input", norm_path)[0] == 1

    def test_fail_report_carries_witness(self, capsys, tmp_path):
        neg_path = write_json(tmp_path, "neg.json", NEG_NORM_SQ)
        code, out, _ = run_cli(capsys, "check-convexity", "--mode", "one-convex",
                               "--input", neg_path, "--seed", "3")
        blob = json.loads(out)
        assert code == 1
        assert blob["witness"]["h"] == 1e-3
        assert blob["seed"] == 3

    def test_quasiaffine_fit_modes(self, capsys, tmp_path):
        top_path = write_json(tmp_path, "top.json", TOP_POWER)
        norm_path = write_json(tmp_path, "norm.json", NORM_SQ)
        code, out, _ = run_cli(capsys, "fit-quasiaffine", "--input", top_path)
        assert code == 0
        assert json.loads(out)["validation_residual"] < 1e-8
        code, out, _ = run_cli(capsys, "check-convexity", "--mode", "quasiaffine-fit",
                               "--input", norm_path, "--range", "1.0")
        assert code == 1
        assert json.loads(out)["status"] == "rejected"

    def test_fit_tolerance_default_in_fit_mode(self, capsys, tmp_path):
        top_path = write_json(tmp_path, "top.json", TOP_POWER)
        for command in (["fit-quasiaffine"], ["check-convexity", "--mode", "quasiaffine-fit"]):
            code, out, _ = run_cli(capsys, *command, "--input", top_path, "--trials", "40")
            assert code == 0
            assert json.loads(out)["fit_tolerance"] == 1e-8

    def test_poly_lp_modes(self, capsys, tmp_path):
        top_path = write_json(tmp_path, "top.json", TOP_POWER)
        neg_path = write_json(tmp_path, "neg.json", NEG_NORM_SQ)
        code, out, _ = run_cli(capsys, "support-lp", "--input", top_path,
                               "--trials", "200")
        assert code == 0
        assert json.loads(out)["status"] == "certified"
        code, out, _ = run_cli(capsys, "support-lp", "--input", neg_path,
                               "--trials", "150")
        assert code == 1
        assert json.loads(out)["status"] == "refuted"

    def test_poly_lp_with_base_point(self, capsys, tmp_path):
        top_path = write_json(tmp_path, "top.json", TOP_POWER)
        base_path = write_json(tmp_path, "base.json",
                               {"n": 4, "k": 2, "coeffs": {"1,2": 0.5}})
        code, out, _ = run_cli(capsys, "support-lp", "--input", top_path,
                               "--base", base_path, "--trials", "200")
        assert code == 0
        assert json.loads(out)["base"]["coeffs"] == {"1,2": 0.5}

    def test_malformed_expression_exits_2(self, capsys, tmp_path):
        bad = write_json(tmp_path, "bad.json",
                         {"n": 4, "k": 2, "expr": {"op": "nope", "arg": "xi"}})
        code, _, err = run_cli(capsys, "check-convexity", "--mode", "one-convex",
                               "--input", bad)
        assert code == 2 and err


class TestBadInputExits2:
    """Errors that are not verdicts exit 2 with one line on stderr and no report."""

    def assert_usage_error(self, capsys, *argv):
        code, out, err = run_cli(capsys, *argv)
        assert code == 2
        assert out == ""
        assert err.startswith("extconv: ") and err.count("\n") == 1, err

    def test_float_overflow_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "pow.json",
                          {"n": 4, "k": 2, "expr": {"op": "pow", "exp": 400,
                                                    "base": {"op": "norm_sq", "arg": "xi"}}})
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-convex",
                                "--input", path)

    def test_function_file_as_base_exits_2(self, capsys, tmp_path):
        top_path = write_json(tmp_path, "top.json", TOP_POWER)
        self.assert_usage_error(capsys, "support-lp", "--input", top_path,
                                "--base", top_path, "--trials", "20")
        self.assert_usage_error(capsys, "check-convexity", "--mode", "poly-lp",
                                "--input", top_path, "--base", top_path, "--trials", "20")

    @pytest.mark.parametrize("form", [
        {"n": 4, "k": 2},
        {"k": 2, "coeffs": {}},
        {"n": 4, "coeffs": {}},
        {"n": 4, "k": 2, "coeffs": {}, "expr": "xi"},
        {"n": "4", "k": 2, "coeffs": {}},
        {"n": 4, "k": 2, "coeffs": ["1,2"]},
    ])
    def test_malformed_base_form_exits_2(self, capsys, tmp_path, form):
        top_path = write_json(tmp_path, "top.json", TOP_POWER)
        base_path = write_json(tmp_path, "base.json", form)
        self.assert_usage_error(capsys, "support-lp", "--input", top_path,
                                "--base", base_path, "--trials", "20")

    @pytest.mark.parametrize("function", [
        {"n": 4, "k": 2},
        {"k": 2, "expr": {"op": "norm_sq", "arg": "xi"}},
        {"n": 4, "expr": {"op": "norm_sq", "arg": "xi"}},
        {**NORM_SQ, "coeffs": {}},
        {**NORM_SQ, "n": 4.0},
    ])
    def test_malformed_function_file_exits_2(self, capsys, tmp_path, function):
        path = write_json(tmp_path, "fn.json", function)
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-convex",
                                "--input", path, "--trials", "5")

    @pytest.mark.parametrize("n,k", [("4", "0"), ("4", "-1"), ("-3", "2"), ("4", "1"),
                                     ("0", "2")])
    def test_degree_outside_shape_space_exits_2(self, capsys, n, k):
        self.assert_usage_error(capsys, "verify-formula", "--n", n, "--k", k, "--s", "1")

    @pytest.mark.parametrize("n,k", [(4, 0), (4, -1), (-2, 2), (0, 1), (4, 5)])
    @pytest.mark.parametrize("command", [
        ("support-lp", "--trials", "20"),
        ("fit-quasiaffine", "--trials", "20"),
        ("check-convexity", "--mode", "one-convex", "--trials", "5"),
        ("check-convexity", "--mode", "one-affine", "--trials", "5"),
    ])
    def test_function_degree_outside_1_to_n_exits_2(self, capsys, tmp_path, command, n, k):
        path = write_json(tmp_path, "fn.json",
                          {"n": n, "k": k, "expr": {"op": "norm_sq", "arg": "xi"}})
        self.assert_usage_error(capsys, command[0], "--input", path, *command[1:])

    def test_malformed_wedge_power_input_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json", {"n": 4, "k": 2})
        self.assert_usage_error(capsys, "wedge-power", "--input", path, "--s", "2")

    @pytest.mark.parametrize("n,k", [(4, -1), (-1, 1)])
    def test_negative_form_dimension_or_degree_exits_2(self, capsys, tmp_path, n, k):
        path = write_json(tmp_path, "f.json", {"n": n, "k": k, "coeffs": {}})
        self.assert_usage_error(capsys, "wedge-power", "--input", path, "--s", "2")

    @pytest.mark.parametrize("flag,value", [("--step", "1e-200"), ("--step", "nan"),
                                            ("--tolerance", "nan"), ("--tolerance", "inf"),
                                            ("--range", "0"), ("--range", "nan")])
    def test_unusable_sampler_setting_exits_2(self, capsys, tmp_path, flag, value):
        path = write_json(tmp_path, "neg.json", NEG_NORM_SQ)
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-convex",
                                "--input", path, "--trials", "5", flag, value)

    @pytest.mark.parametrize("value", ["nan", "-1", "inf"])
    def test_unusable_fit_tolerance_exits_2(self, capsys, tmp_path, value):
        path = write_json(tmp_path, "norm.json", NORM_SQ)
        self.assert_usage_error(capsys, "fit-quasiaffine", "--input", path,
                                "--trials", "40", "--fit-tolerance", value)
        self.assert_usage_error(capsys, "check-convexity", "--mode", "quasiaffine-fit",
                                "--input", path, "--trials", "40", "--fit-tolerance", value)

    def test_flags_of_other_modes_exit_2(self, capsys, tmp_path):
        # --base is read only by poly-lp and --fit-tolerance only by quasiaffine-fit
        path = write_json(tmp_path, "fn.json", NORM_SQ)
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-convex",
                                "--input", path, "--base", "/nonexistent/base.json",
                                "--fit-tolerance", "nan", "--trials", "5")

    @pytest.mark.parametrize("mode", ["one-convex", "one-affine", "quasiaffine-fit"])
    def test_base_outside_poly_lp_exits_2(self, capsys, tmp_path, mode):
        path = write_json(tmp_path, "fn.json", NORM_SQ)
        base = write_json(tmp_path, "base.json", {"n": 4, "k": 2, "coeffs": {}})
        self.assert_usage_error(capsys, "check-convexity", "--mode", mode, "--input", path,
                                "--base", base, "--trials", "40")

    @pytest.mark.parametrize("mode", ["one-convex", "one-affine", "poly-lp"])
    def test_fit_tolerance_outside_fit_mode_exits_2(self, capsys, tmp_path, mode):
        path = write_json(tmp_path, "fn.json", NORM_SQ)
        self.assert_usage_error(capsys, "check-convexity", "--mode", mode, "--input", path,
                                "--fit-tolerance", "1e-8", "--trials", "20")

    def test_empty_base_path_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "fn.json", NORM_SQ)
        self.assert_usage_error(capsys, "support-lp", "--input", path, "--base", "",
                                "--trials", "20")

    @pytest.mark.parametrize("matrix", [
        {"n": 2, "k": 2, "rows": ["1", "2"], "data": [[1, 0], [0, 1]], "extra": 1},
        {"n": 2.7, "k": 2, "rows": ["1", "2"], "data": [[1, 0], [0, 1]]},
        {"n": "abc", "k": 2, "rows": ["1", "2"], "data": [[1, 0], [0, 1]]},
        {"n": 2, "k": 2, "data": [[1, 0], [0, 1]]},
    ])
    def test_malformed_shape_matrix_exits_2(self, capsys, tmp_path, matrix):
        path = write_json(tmp_path, "m.json", matrix)
        self.assert_usage_error(capsys, "pi", "--input", path)
        self.assert_usage_error(capsys, "adjugate", "--input", path, "--s", "1")

    def test_degenerate_direction_range_exits_2(self, capsys, tmp_path):
        # every wedge of two draws at range 1e-200 underflows to zero
        path = write_json(tmp_path, "norm.json", NORM_SQ)
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-affine",
                                "--input", path, "--trials", "5", "--range", "1e-200")

    @pytest.mark.parametrize("scalar", ["abc", "1/0"])
    def test_bad_rational_scalar_exits_2(self, capsys, tmp_path, scalar):
        matrix = write_json(tmp_path, "m.json", {"n": 2, "k": 2, "rows": ["1", "2"],
                                                 "data": [[scalar, "0"], ["0", "1"]]})
        self.assert_usage_error(capsys, "pi", "--input", matrix)
        form = write_json(tmp_path, "f.json", {"n": 4, "k": 2, "coeffs": {"12": scalar}})
        self.assert_usage_error(capsys, "wedge-power", "--input", form, "--s", "2")

    def test_directory_input_exits_2(self, capsys, tmp_path):
        self.assert_usage_error(capsys, "pi", "--input", str(tmp_path))

    @pytest.mark.parametrize("cell", ["NaN", "Infinity", "-Infinity", "1e400"])
    def test_non_finite_float_entry_exits_2(self, capsys, tmp_path, cell):
        path = tmp_path / "m.json"
        path.write_text('{"n":2,"k":2,"rows":["1","2"],"data":[[0,%s],[0,0]]}' % cell)
        self.assert_usage_error(capsys, "pi", "--input", str(path))
        self.assert_usage_error(capsys, "adjugate", "--input", str(path), "--s", "2")

    def test_float_wedge_power_overflow_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json",
                          {"n": 4, "k": 2, "coeffs": {"1,2": 1e200, "3,4": 1e200}})
        self.assert_usage_error(capsys, "wedge-power", "--input", path, "--s", "2")

    def test_integer_string_beyond_float_range_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "m.json", {"n": 2, "k": 2, "rows": ["1", "2"],
                                               "data": [["1" + "0" * 400, "0"], ["0", "1"]]})
        self.assert_usage_error(capsys, "pi", "--input", path, "--backend", "float")

    @pytest.mark.parametrize("backend", ["float", "exact"])
    def test_bool_scalar_exits_2(self, capsys, tmp_path, backend):
        matrix = write_json(tmp_path, "m.json", {"n": 2, "k": 2, "rows": ["1", "2"],
                                                 "data": [[0, True], [0, 0]]})
        self.assert_usage_error(capsys, "pi", "--input", matrix, "--backend", backend)
        form = write_json(tmp_path, "f.json", {"n": 4, "k": 2, "coeffs": {"1,2": True}})
        self.assert_usage_error(capsys, "wedge-power", "--input", form, "--s", "2",
                                "--backend", backend)

    @pytest.mark.parametrize("key", ["a,b", "1,,2", "x", "1;2"])
    def test_malformed_multiindex_key_exits_2(self, capsys, tmp_path, key):
        form = {"n": 4, "k": 2, "coeffs": {key: "1"}}
        path = write_json(tmp_path, "f.json", form)
        self.assert_usage_error(capsys, "wedge-power", "--input", path, "--s", "2")
        fn = write_json(tmp_path, "fn.json", {"n": 4, "k": 2, "expr": {
            "op": "inner", "form": form, "arg": "xi"}})
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-convex",
                                "--input", fn, "--trials", "5")

    def test_unprintable_exact_power_exits_2(self, capsys, tmp_path):
        path = write_json(tmp_path, "f.json", {"n": 4, "k": 0, "coeffs": {"": "3"}})
        self.assert_usage_error(capsys, "wedge-power", "--input", path, "--s", "10000")


class TestZeroFormPowers:
    """A 0-form's power is one scalar power: it ends at once, or exits 2 at once."""

    def run_power(self, tmp_path, coeff, s):
        path = write_json(tmp_path, "f.json", {"n": 4, "k": 0, "coeffs": {"": coeff}})
        return subprocess.run([sys.executable, "-m", "extconv", "wedge-power",
                               "--input", path, "--s", str(s)],
                              capture_output=True, text=True, timeout=60)

    @pytest.mark.parametrize("coeff,expected", [("1", {"": "1"}), ("-1", {"": "1"}),
                                                ("0", {})])
    def test_unit_and_zero_bases_print_at_once(self, tmp_path, coeff, expected):
        proc = self.run_power(tmp_path, coeff, 100000000)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == {"n": 4, "k": 0, "coeffs": expected}

    @pytest.mark.parametrize("coeff", ["3", "1/3", "-2"])
    def test_unprintable_power_exits_2_at_once(self, tmp_path, coeff):
        proc = self.run_power(tmp_path, coeff, 100000000)
        assert proc.returncode == 2 and proc.stdout == ""
        assert proc.stderr.startswith("extconv: ") and proc.stderr.count("\n") == 1


class TestStepIndependence:
    @pytest.mark.parametrize("step", ["1e-3", "1e-6"])
    def test_concave_function_fails_at_every_step(self, capsys, tmp_path, step):
        path = write_json(tmp_path, "neg.json",
                          {"n": 8, "k": 2, "expr": {"op": "neg", "arg": {"op": "norm_sq",
                                                                         "arg": "xi"}}})
        code, out, _ = run_cli(capsys, "check-convexity", "--mode", "one-convex",
                               "--input", path, "--step", step)
        blob = json.loads(out)
        assert code == 1 and blob["status"] == "fail"
        witness = blob["witness"]
        assert witness["curvature"] < -(blob["tolerance"] + witness["floor"])
        assert 0 < witness["floor"] <= blob["floor"]


class TestDeterminism:
    def test_verify_formula_byte_identical(self, capsys):
        _, first, _ = run_cli(capsys, "verify-formula", "--n", "6", "--k", "2",
                              "--s", "3", "--trials", "10")
        _, second, _ = run_cli(capsys, "verify-formula", "--n", "6", "--k", "2",
                               "--s", "3", "--trials", "10")
        assert first == second

    def test_check_convexity_byte_identical(self, capsys, tmp_path):
        neg_path = write_json(tmp_path, "neg.json", NEG_NORM_SQ)
        _, first, _ = run_cli(capsys, "check-convexity", "--mode", "one-convex",
                              "--input", neg_path)
        _, second, _ = run_cli(capsys, "check-convexity", "--mode", "one-convex",
                               "--input", neg_path)
        assert first == second


class TestConsoleEntryPoint:
    def test_module_invocation(self, tmp_path):
        path = tmp_path / "m.json"
        path.write_text(json.dumps({"n": 2, "k": 2, "rows": ["1", "2"],
                                    "data": [[0, 1], [0, 0]]}))
        proc = subprocess.run([sys.executable, "-m", "extconv.cli", "pi",
                               "--input", str(path)],
                              capture_output=True, text=True)
        assert proc.returncode == 0
        assert json.loads(proc.stdout)["coeffs"] == {"1,2": "1"}
