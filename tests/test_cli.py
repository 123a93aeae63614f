import functools
import json
import math
import subprocess
import sys

import numpy as np
import pytest

from extconv import cli, exterior, projection, sampling, shapespace
from extconv.cli import build_parser, main
from extconv.convexity import SamplerConfig
from extconv.errors import DomainError
from extconv.exterior import KForm, _wedge_table, wedge
from extconv.functions import FormFunction
from extconv.projection import map_plan, minor_power_map
from extconv.shapespace import ShapeMatrix, tensor

from oracles import reference_scan, reference_verify_report


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

    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 3), (8, 4, 2)])
    def test_minor_plan_fault_detected(self, capsys, minor_plan_fault, n, k, s):
        # the direct route never runs a minor plan, so a plan expanding onto
        # the wrong sub-minors fails the campaign
        code, out, _ = run_cli(capsys, "verify-formula", "--n", str(n), "--k", str(k),
                               "--s", str(s), "--trials", "3")
        blob = json.loads(out)
        assert code == 1 and blob["status"] == "fail" and blob["max_residual"] != "0"

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


def verify(capsys, n, k, s, trials, seed=0, low=-5, high=5):
    """``verify-formula``'s (exit code, stdout), next to the per-trial oracle's."""
    code, out, _ = run_cli(capsys, "verify-formula", "--n", str(n), "--k", str(k), "--s", str(s),
                           "--trials", str(trials), "--seed", str(seed),
                           "--low", str(low), "--high", str(high))
    return (code, out), reference_verify_report(n, k, s, trials, seed, low, high)


class TestStackedTrials:
    """The stacked campaign reports byte for byte what the per-trial loop does."""

    @pytest.mark.parametrize("n,k,s,low,high", [
        (6, 2, 3, -5, 5), (8, 4, 2, -5, 5), (8, 2, 4, -5, 5),    # even k
        (6, 3, 2, -5, 5), (9, 3, 3, -5, 5),                      # odd k: both sides zero
        (4, 2, 3, -5, 5), (6, 3, 3, -5, 5), (8, 4, 3, -5, 5),    # s > n/k
        (6, 2, 3, 3, 3), (4, 2, 2, -2, -2),                      # --low == --high
    ])
    def test_report_matches_the_per_trial_oracle(self, capsys, n, k, s, low, high):
        got, want = verify(capsys, n, k, s, 7, 4, low, high)
        assert got == want and got[0] == 0

    def test_entries_beyond_int64_take_the_object_path(self, capsys, monkeypatch):
        # at ±10^6 the minor route's bounds fail (4!·(10^6)^4 for the minors
        # alone), so it takes its minors in Python ints; the direct route
        # projects in int64 (2·10^6), takes its first wedge step there
        # (6·(2·10^6)^2) and widens at the second (15·max|acc|·2·10^6)
        seen = {}
        for module, name in [(exterior, "_step_fits"), (exterior, "wedge_rows"),
                             (projection, "minors_at")]:
            def recording(*args, real=getattr(module, name), out=seen.setdefault(name, [])):
                out.append(real(*args))
                return out[-1]

            monkeypatch.setattr(module, name, recording)
        got = run_cli(capsys, "verify-formula", "--n", "8", "--k", "2", "--s", "4", "--trials",
                      "3", "--seed", "1", "--low", str(-10 ** 6), "--high", str(10 ** 6))[:2]
        assert seen["_step_fits"] == [True, False]
        assert [step.dtype for step in seen["wedge_rows"]] == [np.int64, object, object]
        assert [minors.dtype for minors in seen["minors_at"]] == [object]
        monkeypatch.undo()
        assert got == reference_verify_report(8, 2, 4, 3, 1, -10 ** 6, 10 ** 6)
        assert got[0] == 0

    def test_step_bound_fault_detected(self, capsys, step_bound_fault):
        # ±10^5 at (10,2,5): the minor route's bounds fail and it stays exact in
        # Python ints, so a direct chain kept in int64 past its bound wraps,
        # and the two routes disagree
        code, out, _ = run_cli(capsys, "verify-formula", "--n", "10", "--k", "2", "--s", "5",
                               "--low", "-100000", "--high", "100000", "--trials", "1")
        report = json.loads(out)
        assert code == 1 and report["status"] == "fail"
        assert report["max_residual"] == "4083360273896878414824996864"

    def draws(self, monkeypatch, entries=None):
        """The trials of each draw the campaign makes, with ``entries`` (if
        given) the most entries of a stack and of a draw's matrices."""
        if entries is not None:
            monkeypatch.setattr(cli, "_TRIAL_ENTRIES", entries)
        draws = []
        real = cli.random_integer_rows
        monkeypatch.setattr(cli, "random_integer_rows",
                            lambda n, k, seed, trials, *bounds:
                            draws.append(list(trials)) or real(n, k, seed, trials, *bounds))
        return draws

    def test_trials_spanning_stacks_match(self, capsys, monkeypatch):
        # (4,2,2) trials hold 16 entries at most, their matrix among them, so
        # 40 entries hold 2 trials a stack and one stack a draw
        draws = self.draws(monkeypatch, 40)
        got, want = verify(capsys, 4, 2, 2, 9, 6)
        assert draws == [[0, 1], [2, 3], [4, 5], [6, 7], [8]]
        assert got == want

    def test_consecutive_stacks_share_a_draw(self, capsys, monkeypatch):
        # at (9,3,3) a stack holds 4 trials (the largest wedge table of one
        # has 1 680 entries) and a matrix 324 entries, so a draw of 8 192
        # entries holds 6 stacks: 20 trials take one draw, 30 take two
        draws = self.draws(monkeypatch)
        assert run_cli(capsys, "verify-formula", "--n", "9", "--k", "3", "--s", "3",
                       "--trials", "20")[0] == 0
        assert draws == [list(range(20))]
        got, want = verify(capsys, 9, 3, 3, 30, 5)
        assert draws[1:] == [list(range(24)), list(range(24, 30))]
        assert got == want and got[0] == 0

    def test_fault_names_the_first_failing_trial(self, capsys, monkeypatch, sign_fault):
        # 0/1 entries leave many flipped minors zero, so a seed whose first
        # failing trial lies in the second stack exists and pins its index
        seed, want = next((seed, want) for seed in range(500)
                          for want in [reference_verify_report(4, 2, 2, 8, seed, 0, 1)]
                          if json.loads(want[1]).get("failure", {}).get("trial", 0) >= 3)
        draws = self.draws(monkeypatch, 48)
        got, _ = verify(capsys, 4, 2, 2, 8, seed, 0, 1)
        assert got == want and got[0] == 1 and len(draws) == 3

    @pytest.mark.parametrize("n,k,s", [(4, 2, 2), (6, 2, 3), (8, 2, 4), (8, 4, 2), (9, 3, 3),
                                       (6, 3, 2), (10, 2, 5), (12, 2, 3), (12, 4, 3), (4, 2, 3)])
    def test_trial_size_is_the_largest_table(self, n, k, s):
        # the matrix, the minors the expansion reads and every level of
        # sub-minors below them, and the direct route's wedge tables
        tables = [math.comb(n, k - 1) * n, minor_power_map(n, k, s).cells.size]
        tables += [len(entries) for entries, *_ in map_plan(n, k, s).levels]
        tables += [_wedge_table(n, k * i, k)[0].size for i in range(1, s) if k * (i + 1) <= n]
        assert cli._trial_entries(n, k, s) == max(tables)

    def test_stacks_do_not_grow_with_trials(self, monkeypatch):
        # a billion trials: the first draw is made and its first stack taken,
        # then the run stops
        class Stop(Exception):
            pass

        def first_stack(X, *args):
            stacked.append(len(X))
            raise Stop

        draws, stacked = self.draws(monkeypatch), []
        monkeypatch.setattr(cli, "wedge_power_from_minors_rows", first_stack)
        for n, k, s in [(8, 2, 4), (12, 2, 3), (6, 2, 3)]:
            with pytest.raises(Stop):
                main(["verify-formula", "--n", str(n), "--k", str(k), "--s", str(s),
                      "--trials", str(10 ** 9)])
            entries, width = cli._trial_entries(n, k, s), math.comb(n, k - 1) * n
            assert stacked[-1] == max(1, cli._TRIAL_ENTRIES // entries)
            assert stacked[-1] * entries <= max(cli._TRIAL_ENTRIES, entries)
            # a draw holds whole stacks, as many as fit the matrix entries
            assert len(draws[-1]) % stacked[-1] == 0
            assert len(draws[-1]) * width <= max(cli._TRIAL_ENTRIES, stacked[-1] * width)
            assert (len(draws[-1]) + stacked[-1]) * width > cli._TRIAL_ENTRIES


class TestParserCache:
    """One parser serves every call of a process, as a fresh one would."""

    def test_calls_in_one_process_equal_fresh_processes(self, capsys, tmp_path):
        fn = write_json(tmp_path, "fn.json", NEG_NORM_SQ)
        base = write_json(tmp_path, "base.json", {"n": 4, "k": 2, "coeffs": {"1,2": 0.5}})
        calls = [["support-lp", "--input", fn, "--base", base, "--trials", "60"],
                 ["check-convexity", "--mode", "one-convex", "--input", fn, "--trials", "20"]]
        in_process = [run_cli(capsys, *argv)[:2] for argv in calls]
        fresh = []
        for argv in calls:
            proc = subprocess.run([sys.executable, "-m", "extconv", *argv],
                                  capture_output=True, text=True, timeout=120)
            fresh.append((proc.returncode, proc.stdout))
        assert in_process == fresh
        assert [code for code, _ in fresh] == [1, 1]

    def test_no_attribute_leaks_between_namespaces(self):
        assert build_parser() is build_parser()
        argvs = [["support-lp", "--input", "f.json", "--base", "b.json"],
                 ["fit-quasiaffine", "--input", "f.json", "--fit-tolerance", "1e-6"],
                 ["check-convexity", "--mode", "one-convex", "--input", "f.json"],
                 ["verify-formula", "--n", "4", "--k", "2", "--s", "2"]]
        for argv in argvs:
            build_parser().parse_args(argv)
        for argv in argvs:
            assert vars(build_parser().parse_args(argv)) == \
                vars(build_parser.__wrapped__().parse_args(argv))

    def test_bad_flags_after_a_good_call(self, capsys):
        assert run_cli(capsys, "verify-formula", "--n", "4", "--k", "2", "--s", "2",
                       "--trials", "2")[0] == 0
        code, out, err = run_cli(capsys, "verify-formula", "--n", "4", "--k", "2", "--s", "2",
                                 "--trials", "0")
        assert code == 2 and out == "" and err.startswith("extconv: ") and err.count("\n") == 1
        with pytest.raises(SystemExit) as cached:
            main(["verify-formula", "--n", "4", "--k", "2", "--s", "2", "--bogus"])
        cached_err = capsys.readouterr().err
        with pytest.raises(SystemExit) as fresh:
            build_parser.__wrapped__().parse_args(["verify-formula", "--n", "4", "--k", "2",
                                                   "--s", "2", "--bogus"])
        assert cached.value.code == fresh.value.code == 2
        assert cached_err == capsys.readouterr().err and "--bogus" in cached_err

    @pytest.mark.parametrize("argv", [["--help"], ["verify-formula", "--help"],
                                      ["support-lp", "--help"]])
    def test_help_unchanged(self, capsys, argv):
        for _ in range(2):
            with pytest.raises(SystemExit) as cached:
                main(argv)
            assert cached.value.code == 0
            text = capsys.readouterr().out
            with pytest.raises(SystemExit):
                build_parser.__wrapped__().parse_args(argv)
            assert text == capsys.readouterr().out and text.startswith("usage: extconv")


class TestCheckConvexity:
    FUNCTIONS = {"norm_sq": NORM_SQ, "neg_norm_sq": NEG_NORM_SQ, "top_power": TOP_POWER}

    @pytest.mark.parametrize("argv", [[], ["--step", "1e-6", "--tolerance", "0"],
                                      ["--range", "1e308"], ["--range", "1e200"],
                                      ["--range", "1e-200"]],
                             ids=["defaults", "fine-step", "1e308", "1e200", "1e-200"])
    @pytest.mark.parametrize("name", sorted(FUNCTIONS))
    @pytest.mark.parametrize("mode", ["one-convex", "one-affine"])
    def test_line_reports_equal_the_per_trial_loop(self, capsys, tmp_path, mode, name, argv):
        # stdout and exit code, or the one exit-2 line, of the one-trial draws
        path = write_json(tmp_path, "f.json", self.FUNCTIONS[name])
        got = run_cli(capsys, "check-convexity", "--mode", mode, "--input", path,
                      "--trials", "40", "--seed", "3", *argv)
        flags = dict(zip(argv[::2], map(float, argv[1::2])))
        cfg = SamplerConfig(seed=3, trials=40, coeff_range=flags.get("--range", 2.0),
                            step=flags.get("--step", 1e-3),
                            tolerance=flags.get("--tolerance", 1e-9))
        try:
            verdict = reference_scan(FormFunction.from_json(self.FUNCTIONS[name]), 4, 2, cfg,
                                     mode)
        except DomainError as exc:
            assert got == (2, "", f"extconv: {exc}\n")
        else:
            report = json.dumps(verdict.to_json(), sort_keys=True, separators=(",", ":"))
            assert got == (0 if verdict.status == "pass" else 1, report + "\n", "")

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
        return err

    def test_adjugate_over_the_size_budget_exits_2(self, capsys, tmp_path, monkeypatch):
        # C(16,8)² = 165.6 M cells at (16,2,8): refused before any layout is listed
        def forbidden(*args, **kwargs):
            raise AssertionError("the size check ran after the layout was listed")

        monkeypatch.setattr(shapespace, "minor_layout", forbidden)
        path = write_json(tmp_path, "m16.json", ShapeMatrix(16, 2).to_json())
        err = self.assert_usage_error(capsys, "adjugate", "--input", path, "--s", "8")
        assert "cells" in err

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
        {**NORM_SQ, "expr": {"op": "pow", "exp": True, "base": {"op": "norm_sq", "arg": "xi"}}},
        {**NORM_SQ, "expr": {"op": "inner", "form": "e12",
                             "arg": {"op": "wedge_pow", "s": True, "arg": "xi"}}},
        {**NORM_SQ, "expr": functools.reduce(lambda e, _: {"op": "neg", "arg": e}, range(600),
                                             NORM_SQ["expr"])},
    ])
    def test_malformed_function_file_exits_2(self, capsys, tmp_path, function):
        path = write_json(tmp_path, "fn.json", function)
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-convex",
                                "--input", path, "--trials", "5")

    @pytest.mark.parametrize("content", [
        b'\xff\xfe{"n": 4, "k": 2}',
        b"[" * 100_000 + b"]" * 100_000,
        b'{"n": 4, "k": 2, "coeffs": {"1,2": ' + b"7" * 5000 + b"}}",
    ], ids=["not-utf8", "nested-100000-deep", "int-of-5000-digits"])
    @pytest.mark.parametrize("command", [
        ("pi",),
        ("wedge-power", "--s", "2"),
        ("check-convexity", "--mode", "one-convex", "--trials", "5"),
    ])
    def test_unreadable_json_exits_2(self, capsys, tmp_path, command, content):
        path = tmp_path / "input.json"
        path.write_bytes(content)
        err = self.assert_usage_error(capsys, command[0], "--input", str(path), *command[1:])
        assert f"cannot read JSON from {path}" in err

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

    @pytest.mark.parametrize("argv", [
        ["check-convexity", "--mode", "one-convex"], ["check-convexity", "--mode", "one-affine"],
        ["check-convexity", "--mode", "quasiaffine-fit"], ["fit-quasiaffine"], ["support-lp"]],
        ids=["one-convex", "one-affine", "quasiaffine-fit", "fit-quasiaffine", "support-lp"])
    def test_negative_seed_exits_2(self, capsys, tmp_path, argv):
        # a seed is the key of the sampling streams, two 32-bit words
        path = write_json(tmp_path, "neg.json", NEG_NORM_SQ)
        err = self.assert_usage_error(capsys, *argv, "--input", path, "--seed", "-1")
        assert "seed must lie in [0, 2^64), got -1" in err

    def test_negative_seed_verify_formula_exits_2(self, capsys):
        err = self.assert_usage_error(capsys, "verify-formula", "--n", "4", "--k", "2",
                                      "--s", "2", "--seed", "-1")
        assert "seed must lie in [0, 2^64), got -1" in err

    @pytest.mark.parametrize("argv,message", [
        (["--seed", str(2 ** 64)], "seed must lie in [0, 2^64)"),
        (["--trials", str(2 ** 32 + 1)], "trial indices must lie below 2^32"),
    ], ids=["seed-2^64", "index-2^32"])
    @pytest.mark.parametrize("command", [
        ["check-convexity", "--mode", "one-convex", "--input", "FN"],
        ["check-convexity", "--mode", "one-affine", "--input", "FN"],
        ["fit-quasiaffine", "--input", "FN"], ["support-lp", "--input", "FN"],
        ["verify-formula", "--n", "4", "--k", "2", "--s", "2"]],
        ids=["one-convex", "one-affine", "fit-quasiaffine", "support-lp", "verify-formula"])
    def test_stream_bounds_exit_2_before_any_draw(self, capsys, tmp_path, monkeypatch, command,
                                                   argv, message):
        # the streams' key holds a seed below 2^64 and a counter word an index
        # below 2^32; both are refused by arithmetic, before a word is drawn
        def forbidden(*args):
            raise AssertionError("a word was drawn before the check")

        monkeypatch.setattr(sampling, "_philox", forbidden)
        path = write_json(tmp_path, "fn.json", NORM_SQ)
        argv = [path if arg == "FN" else arg for arg in command] + argv
        assert message in self.assert_usage_error(capsys, *argv)

    def test_stream_past_2_32_blocks_exits_2(self, capsys, monkeypatch):
        # a (140 000, 2) matrix holds 1.96·10^10 entries, one word each: its
        # stream would need block indices past 2^32
        monkeypatch.setattr(sampling, "_philox", None)
        err = self.assert_usage_error(capsys, "verify-formula", "--n", "140000", "--k", "2",
                                      "--s", "1", "--trials", "1")
        assert "block indices past 2^32" in err

    def test_degenerate_direction_range_exits_2(self, capsys, tmp_path):
        # every wedge of two draws at range 1e-200 underflows to zero
        path = write_json(tmp_path, "norm.json", NORM_SQ)
        self.assert_usage_error(capsys, "check-convexity", "--mode", "one-affine",
                                "--input", path, "--trials", "5", "--range", "1e-200")

    @pytest.mark.parametrize("command", ["support-lp", "fit-quasiaffine"])
    def test_draws_beyond_the_float_range_exit_2(self, capsys, tmp_path, command):
        # 2·1e308 overflows, so random.uniform's formula draws ±inf
        path = write_json(tmp_path, "neg.json", NEG_NORM_SQ)
        assert run_cli(capsys, command, "--input", path, "--range", "1e308") == \
            (2, "", "extconv: (4,2) coefficients is not finite\n")

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

    def test_support_lp_byte_identical(self, capsys, tmp_path):
        # (8,2) at the default 500 samples pivots 307 times, over several
        # blocks of delayed updates, each applied by one BLAS product
        neg_path = write_json(tmp_path, "neg.json", dict(NEG_NORM_SQ, n=8))
        runs = [run_cli(capsys, "support-lp", "--input", neg_path, "--seed", "3")
                for _ in range(2)]
        assert runs[0] == runs[1]
        assert runs[0][0] == 1 and json.loads(runs[0][1])["status"] == "refuted"


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


class TestImportFootprint:
    """The sampling streams run on numpy's core: a process that ran every
    subcommand has imported neither ``numpy.random`` nor ``numpy.ma`` (each
    costs resident memory and import time) beyond what ``import numpy`` loads."""

    SCRIPT = """
import contextlib, io, json, sys
import numpy
heavy = ("numpy.random", "numpy.ma")
before = {name for name in heavy if name in sys.modules}
from extconv.cli import main
fn, matrix, form = sys.argv[1:4]
runs = [["pi", "--input", matrix], ["adjugate", "--input", matrix, "--s", "2"],
        ["wedge-power", "--input", form, "--s", "2"],
        ["verify-formula", "--n", "6", "--k", "2", "--s", "3", "--trials", "3"],
        ["check-convexity", "--mode", "one-convex", "--input", fn, "--trials", "20"],
        ["check-convexity", "--mode", "one-affine", "--input", fn, "--trials", "20"],
        ["fit-quasiaffine", "--input", fn, "--trials", "20"],
        ["support-lp", "--input", fn, "--trials", "40"]]
codes = []
for argv in runs:
    with contextlib.redirect_stdout(io.StringIO()):
        codes.append(main(argv))
print(json.dumps([codes, sorted({name for name in heavy if name in sys.modules} - before)]))
"""

    def test_campaigns_import_neither_numpy_random_nor_numpy_ma(self, tmp_path):
        paths = [write_json(tmp_path, "fn.json", NORM_SQ),
                 write_json(tmp_path, "m.json", ShapeMatrix(4, 2, np.eye(4, dtype=int).tolist())
                            .to_json()),
                 write_json(tmp_path, "form.json", {"n": 4, "k": 2, "coeffs": {"1,2": "1",
                                                                                "3,4": "2"}})]
        proc = subprocess.run([sys.executable, "-c", self.SCRIPT, *paths],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        codes, imported = json.loads(proc.stdout.splitlines()[-1])
        assert codes == [0, 0, 0, 0, 0, 1, 1, 0] and imported == []

    PAIRING = """
import json, math, sys
from fractions import Fraction
import numpy
before = "numpy.ma" in sys.modules
from extconv import KForm, MinorTable, minor_power_map, pullback_support, scalar_product, table_inner
forms = [KForm(8, 2 * s, [Fraction(i % 7 - 3, i % 4 + 1) for i in range(math.comb(8, 2 * s))])
         for s in range(1, 5)]
equal = []
for s, D, d in zip(range(1, 5), forms, pullback_support(forms)):
    M = MinorTable(8, 2, s, [[Fraction(3 * r - c + 1, r + 2 * c + 1) for c in range(math.comb(8, s))]
                             for r in range(math.comb(8, s))])
    left = table_inner(d, M)
    equal.append(left != 0 and left == scalar_product(D, minor_power_map(8, 2, s).apply(M)))
print(json.dumps([equal, before, "numpy.ma" in sys.modules]))
"""

    def test_pairing_does_not_import_numpy_ma(self):
        # the rank intersection of table_inner must not reach numpy's
        # set routines (np.unique, a plain np.intersect1d), which import numpy.ma
        proc = subprocess.run([sys.executable, "-c", self.PAIRING],
                              capture_output=True, text=True, timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout.splitlines()[-1]) == [[True] * 4, False, False]
