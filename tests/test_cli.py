import argparse
import contextlib
import csv
import errno
import hashlib
import io
import json
import math
import os
import stat
import subprocess
import sys
import threading
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilemma import cli
from qdilemma.cli import MAX_GRID, build_parser, emit, main
from qdilemma.game import DEFAULT_GAMMA, PayoffTable

from helpers import subprocess_env


#: A file that exists and is neither JSON nor a matrix file.
PLAIN_TEXT = str(Path(__file__).with_name("conftest.py"))

#: JSON files whose ``results.tensor`` is not numeric, or ragged; numeric but
#: a scalar; and 4x4x4 with t[0,0,0] = 2 (trace 2).
DATA = Path(__file__).with_name("data")
NOT_NUMERIC_TENSOR = str(DATA / "tensor_not_numeric.json")
RAGGED_TENSOR = str(DATA / "tensor_ragged.json")
SCALAR_TENSOR = str(DATA / "tensor_scalar.json")
TRACE_TWO_TENSOR = str(DATA / "tensor_trace_two.json")
#: Matrix files that parse but fail the density-matrix check: Hermitian but
#: for one off-diagonal entry, and the identity over 4 (trace 2).
NOT_HERMITIAN_MATRIX = str(DATA / "matrix_not_hermitian.txt")
TRACE_TWO_MATRIX = str(DATA / "matrix_trace_two.txt")


#: A fidelity whose raw STATE has a negative eigenvalue, which the clamp rule clamps.
CLAMPING_FIDELITY = ("tomo", "fidelity", "class7_appendix", "HHH", "--x", "0.3")
CLAMP_LINE = "warning: clamped negative eigenvalue of magnitude 5.983e-02 to zero\n"

README = Path(__file__).resolve().parents[1] / "README.md"


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    assert err == ""
    return json.loads(out)


def assert_one_error(code, out, err, match):
    assert code != 0
    assert out == ""
    assert err.startswith("error:")
    assert err.count("\n") == 1
    assert match in err


def write_matrix_with_entry(path, entry="nan", at=(0, 1)):
    """The maximally mixed state in the text format, with one real part replaced by ``entry``."""
    real = [["0"] * 8 for _ in range(8)]
    for k in range(8):
        real[k][k] = "0.125"
    real[at[0]][at[1]] = entry
    lines = [" ".join(row) for row in real] + [""] + [" ".join(["0"] * 8)] * 8
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return str(path)


class TestPlay:
    def test_biased_best_response_defaults(self, capsys):
        doc = run_json(capsys, "play", "XIX")
        assert doc["params"]["p"] == 1.0
        assert doc["params"]["q"] == 2.0
        assert doc["params"]["n"] == 9.0
        assert doc["params"]["seed"] == 0
        assert doc["results"]["probabilities"]["101"] == pytest.approx(1.0, abs=1e-12)
        assert doc["results"]["payoffs"]["mean"] == pytest.approx(19 / 3, abs=1e-12)

    def test_all_identity_mean_zero(self, capsys):
        doc = run_json(capsys, "play", "III")
        assert doc["results"]["payoffs"]["mean"] == pytest.approx(0.0, abs=1e-12)

    def test_all_flip_under_corruption(self, capsys):
        doc = run_json(capsys, "play", "XXX", "--x", "0.5")
        assert doc["results"]["payoffs"]["mean"] == pytest.approx(1.0, abs=1e-12)

    def test_malformed_profile_fails(self, capsys):
        code, out, err = run(capsys, "play", "XYZ")
        assert code != 0
        assert out == ""
        assert err.startswith("error:")
        assert err.count("\n") == 1

    def test_lower_case_unknown_letter_gets_the_profile_rule(self, capsys):
        code, out, err = run(capsys, "play", "xqx")
        assert_one_error(code, out, err,
                         "error: profile must be three letters from I/H/X, got 'xqx'\n")

    def test_invalid_table_fails(self, capsys):
        code, _, err = run(capsys, "play", "XXX", "--p", "5")
        assert code != 0
        assert "0 < p < q < n" in err


class TestClasses:
    def test_default_table_payoffs(self, capsys):
        doc = run_json(capsys, "classes")
        by_label = {row["label"]: row for row in doc["results"]}
        assert len(by_label) == 10
        assert by_label["VIII"]["mean_payoff"] == pytest.approx(6.333, abs=5e-3)
        assert by_label["VI"]["mean_payoff"] == pytest.approx(-5.667, abs=5e-3)
        assert by_label["VIII"]["size"] == 6

    def test_fully_corrupt_source(self, capsys):
        doc = run_json(capsys, "classes", "--x", "1")
        by_label = {row["label"]: row for row in doc["results"]}
        assert by_label["V"]["mean_payoff"] == pytest.approx(2.0, abs=1e-12)


class TestSweep:
    def test_corruption_sweep_defaults(self, capsys):
        doc = run_json(capsys, "sweep", "x")
        rows = doc["results"]
        assert len(rows) == 101
        assert rows[0]["quantum_ne_mean"] == pytest.approx(19 / 3, abs=1e-12)
        assert rows[-1]["quantum_ne_mean"] == pytest.approx(-17 / 3, abs=1e-12)
        assert rows[0]["x_c"] == pytest.approx(13 / 30, abs=1e-12)

    def test_stake_sweep_crossing_increases(self, capsys):
        doc = run_json(capsys, "sweep", "n", "--from", "3", "--to", "100", "--grid", "98")
        values = [row["x_c"] for row in doc["results"]]
        assert all(a < b for a, b in zip(values, values[1:]))

    def test_q_sweep_classical_line(self, capsys):
        doc = run_json(capsys, "sweep", "q", "--from", "1.1", "--to", "8.9", "--grid", "9")
        for row in doc["results"]:
            assert row["classical_ne_mean"] == pytest.approx(row["value"], abs=1e-12)

    @pytest.mark.parametrize("argv, held", [
        (("n", "--from", "20", "--to", "100", "--q", "10"), {"p": 1.0, "q": 10.0}),
        (("q", "--from", "6", "--to", "8", "--p", "5", "--n", "20"), {"p": 5.0, "n": 20.0}),
    ])
    def test_stake_sweep_does_not_read_its_swept_flag(self, capsys, argv, held):
        # the default --n 9 is below --q 10, and the default --q 2 below --p 5
        rows = run_json(capsys, "sweep", *argv, "--grid", "5")["results"]
        assert [row["value"] for row in rows] == [row[argv[0]] for row in rows]
        for row in rows:
            assert row["valid"] is True and row["error"] is None
            assert {key: row[key] for key in held} == held

    @pytest.mark.parametrize("argv, start, stop", [
        (("x", "--x", "0.7"), 0.0, 1.0),
        (("n", "--from", "20", "--to", "100", "--q", "10"), 20.0, 100.0),
        (("q", "--from", "6", "--to", "8", "--p", "5", "--n", "20"), 6.0, 8.0),
    ])
    def test_json_params_write_null_for_the_swept_flag(self, capsys, argv, start, stop):
        params = run_json(capsys, "sweep", *argv, "--grid", "3")["params"]
        assert params[argv[0]] is None
        assert (params["swept"], params["start"], params["stop"]) == (argv[0], start, stop)

    @pytest.mark.parametrize("argv, values", [
        (("n", "--q", "nan"), "p=1.0, q=nan, n=9.0"),
        (("n", "--p", "3", "--q", "2"), "p=3.0, q=2.0, n=9.0"),
        (("q", "--p", "2", "--n", "1"), "p=2.0, q=2.0, n=1.0"),
    ])
    def test_stake_sweep_checks_its_held_pair(self, capsys, argv, values):
        # the message names the flags' values, not the swept stake the table holds
        code, out, err = run(capsys, "sweep", *argv, "--from", "3", "--to", "9")
        assert_one_error(code, out, err, "error: --p/--q/--n: ")
        assert err.endswith(f"got {values}\n")

    def test_missing_range_fails(self, capsys):
        code, _, err = run(capsys, "sweep", "n")
        assert code != 0
        assert "--from" in err

    def test_inverted_range_fails(self, capsys):
        code, _, err = run(capsys, "sweep", "x", "--from", "1", "--to", "0")
        assert code != 0
        assert "inverted" in err

    def test_negative_exponent_value_is_read_after_a_space(self, capsys):
        spaced = run(capsys, "sweep", "x", "--from", "-1e-3", "--to", "1", "--grid", "3")
        assert spaced == run(capsys, "sweep", "x", "--from=-1e-3", "--to=1", "--grid=3")
        assert spaced[0] == 0 and json.loads(spaced[1])["params"]["start"] == -0.001

    @pytest.mark.parametrize("argv", [("n", "--from", "3", "--to", "4"),
                                      ("x", "--from", "2", "--to", "3"),
                                      ("x",)])
    def test_out_of_range_gamma_fails(self, capsys, argv):
        code, out, err = run(capsys, "sweep", *argv, "--gamma", "5")
        assert code == 2
        assert_one_error(code, out, err, "gamma")


class TestXc:
    def test_defaults(self, capsys):
        doc = run_json(capsys, "xc")
        assert doc["results"]["x_c"] == pytest.approx(13 / 30, abs=1e-12)
        assert doc["results"]["no_advantage"] is False
        assert doc["results"]["report"]["dominant"] == "quantum"

    def test_queried_below_crossing(self, capsys):
        doc = run_json(capsys, "xc", "--x", "0.363")
        assert doc["results"]["report"]["dominant"] == "quantum"

    def test_queried_above_crossing(self, capsys):
        doc = run_json(capsys, "xc", "--x", "0.6")
        assert doc["results"]["report"]["dominant"] == "classical"

    def test_no_advantage_regime(self, capsys):
        doc = run_json(capsys, "xc", "--q", "7")
        assert doc["results"]["x_c"] is None
        assert doc["results"]["no_advantage"] is True

    @pytest.mark.parametrize("x, verdict", [("0", "quantum"), ("0.9", "classical")])
    def test_verdict_at_small_stakes(self, capsys, x, verdict):
        # the means differ threefold at x = 0, by far more than 1e-12 of the larger
        doc = run_json(capsys, "xc", "--p", "1e-13", "--q", "2e-13", "--n", "9e-13", "--x", x)
        assert doc["results"]["report"]["dominant"] == verdict

    def test_no_advantage_csv_cell_is_empty(self, capsys):
        code, out, _ = run(capsys, "xc", "--q", "7", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert rows[0]["x_c"] == ""
        assert rows[0]["no_advantage"] == "true"


class TestTomo:
    def test_reference_fidelity(self, capsys):
        doc = run_json(capsys, "tomo", "fidelity", "class7_appendix", "101")
        assert doc["results"]["fidelity"] == pytest.approx(0.843, abs=1e-3)

    def test_forward_on_played_profile(self, capsys):
        doc = run_json(capsys, "tomo", "forward", "XIX")
        tensor = doc["results"]["tensor"]
        assert tensor[0][0][0] == pytest.approx(1.0, abs=1e-12)
        assert tensor[3][0][3] == pytest.approx(1.0, abs=1e-12)

    def test_estimate_is_deterministic(self, capsys):
        first = run(capsys, "tomo", "estimate", "XIX", "--seed", "42")
        second = run(capsys, "tomo", "estimate", "XIX", "--seed", "42")
        assert first == second
        assert first[0] == 0

    def test_negative_seed_is_quiet_and_distinct(self):
        # a subprocess, so that stderr holds whatever a user would see
        outputs = [subprocess.run([sys.executable, "-m", "qdilemma.cli", "tomo", "estimate",
                                   "HIX", "--seed", seed], capture_output=True, text=True,
                                  env=subprocess_env(), check=False)
                   for seed in ("-1", "0")]
        for proc in outputs:
            assert (proc.returncode, proc.stderr) == (0, "")
        assert json.loads(outputs[0].stdout)["results"] != json.loads(outputs[1].stdout)["results"]

    def test_reconstruct_pipeline(self, capsys, tmp_path):
        tensor_file = tmp_path / "tensor.json"
        code, _, err = run(capsys, "tomo", "forward", "XIX", "--output", str(tensor_file))
        assert code == 0, err
        doc = run_json(capsys, "tomo", "reconstruct", str(tensor_file))
        real = np.array(doc["results"]["real"])
        imag = np.array(doc["results"]["imag"])
        assert real[5, 5] == pytest.approx(1.0, abs=1e-12)
        assert np.max(np.abs(imag)) == pytest.approx(0.0, abs=1e-12)

    def test_unresolvable_state_fails(self, capsys):
        code, _, err = run(capsys, "tomo", "forward", "no_such_thing")
        assert code != 0
        assert "cannot resolve" in err

    @pytest.mark.parametrize("path, message", [
        pytest.param(NOT_HERMITIAN_MATRIX, "density matrix is not Hermitian", id="not-hermitian"),
        pytest.param(TRACE_TWO_MATRIX, "density matrix trace 2 is not 1", id="trace-two"),
    ])
    def test_state_file_that_fails_its_check_is_named(self, path, message):
        # a subprocess, so that stderr holds whatever a user would see
        proc = subprocess.run([sys.executable, "-m", "qdilemma.cli", "tomo", "forward", path],
                              capture_output=True, text=True, env=subprocess_env(), check=False)
        assert (proc.returncode, proc.stdout, proc.stderr) == (2, "", f"error: STATE {path}: {message}\n")

    def test_clamp_is_reported_on_one_line(self, capsys):
        # in process, where the suite's filters turn a UserWarning into an error
        code, out, err = run(capsys, *CLAMPING_FIDELITY)
        assert (code, err) == (0, CLAMP_LINE)
        assert json.loads(out)["results"]["fidelity"] == pytest.approx(0.394, abs=1e-3)

    def test_clamp_is_reported_on_one_line_in_a_subprocess(self):
        # a subprocess, so that stderr holds whatever a user would see
        proc = subprocess.run([sys.executable, "-m", "qdilemma.cli", *CLAMPING_FIDELITY],
                              capture_output=True, text=True, env=subprocess_env(), check=False)
        assert (proc.returncode, proc.stderr) == (0, CLAMP_LINE)
        assert json.loads(proc.stdout)["results"]["fidelity"] == pytest.approx(0.394, abs=1e-3)

    def test_failing_command_prints_only_its_error(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f"
        code, out, err = run(capsys, *CLAMPING_FIDELITY, "--output", str(target))
        assert (code, out, err) == (2, "", f"error: {target}: No such file or directory\n")

    def test_other_warnings_keep_their_filters(self, monkeypatch):
        def cmd_xc(args):
            warnings.warn("overflow encountered", RuntimeWarning)

        monkeypatch.setattr(cli, "cmd_xc", cmd_xc)
        with pytest.raises(RuntimeWarning, match="overflow encountered"):
            main(["xc"])

    def test_fidelity_needs_two_inputs(self, capsys):
        code, _, err = run(capsys, "tomo", "fidelity", "class7_appendix")
        assert code != 0
        assert "two inputs" in err

    def test_forward_takes_one_input(self, capsys):
        code, out, err = run(capsys, "tomo", "forward", "XIX", "HIX")
        assert (code, out, err) == (2, "", "error: tomo forward takes exactly one input\n")


@pytest.fixture(scope="module")
def empty_dir(tmp_path_factory):
    """A directory with no file in it, so that no token names a file."""
    return tmp_path_factory.mktemp("empty")


class TestOneProfileRule:
    @given(token=st.text(alphabet="IHXihx01ıİ", min_size=3, max_size=3))
    def test_play_and_tomo_accept_the_same_profiles(self, empty_dir, token):
        # "ı" (U+0131) upper-cases to "I"; "İ" (U+0130) stays itself
        outcomes = []
        with pytest.MonkeyPatch.context() as patch:
            patch.chdir(empty_dir)
            for argv in (["play", token], ["tomo", "forward", token]):
                with contextlib.redirect_stdout(io.StringIO()) as out, \
                        contextlib.redirect_stderr(io.StringIO()) as err:
                    code = main(argv)
                outcomes.append((code, out.getvalue(), err.getvalue()))
        assert outcomes[0][0] == outcomes[1][0]
        for code, out, err in outcomes:
            if code:
                assert_one_error(code, out, err, "error: ")


class TestDefaults:
    def test_stakes_and_gamma_come_from_game(self):
        args = build_parser().parse_args(["xc"])
        table = PayoffTable()
        assert (args.p, args.q, args.n, args.gamma) == (table.p, table.q, table.n, DEFAULT_GAMMA)

    def test_help_prints_the_stake_defaults(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["xc", "--help"])
        assert info.value.code == 0
        text = capsys.readouterr().out
        for stake in ("payoff (default 1.0)", "payoff (default 2.0)", "magnitude (default 9.0)"):
            assert stake in text


def readme_commands() -> list:
    """The commands of the README's ``sh`` block under "Command line", as argv lists."""
    section = README.read_text(encoding="utf-8").split("\n## Command line\n", 1)[1]
    block = section.split("```sh\n", 1)[1].split("```", 1)[0]
    return [line.split("#", 1)[0].split() for line in block.splitlines()]


class TestReadmeCommands:
    def test_every_command_exits_0_and_its_comment_holds(self, capsys, tmp_path, monkeypatch):
        # in a fresh directory, where ``tomo reconstruct t.json`` reads what
        # ``tomo forward`` wrote
        monkeypatch.chdir(tmp_path)
        commands = readme_commands()
        assert len(commands) == 9
        outputs = {}
        for argv in commands:
            assert argv[0] == "qdilemma"
            code, out, err = run(capsys, *argv[1:])
            assert (code, err) == (0, ""), argv
            outputs[" ".join(argv[1:3])] = out
        played = json.loads(outputs["play XIX"])["results"]
        assert played["probabilities"] == {outcome: (1.0 if outcome == "101" else 0.0)
                                           for outcome in played["probabilities"]}
        assert played["payoffs"]["mean"] == pytest.approx(19 / 3, abs=1e-12)
        fidelity = json.loads(outputs["tomo fidelity"])["results"]["fidelity"]
        assert fidelity == pytest.approx(0.843, abs=1e-3)
        assert (tmp_path / "t.json").is_file()


class TestOsErrors:
    def test_missing_output_directory_is_named(self, capsys, tmp_path):
        target = tmp_path / "missing" / "f"
        code, out, err = run(capsys, "play", "XIX", "--output", str(target))
        assert (code, out, err) == (2, "", f"error: {target}: No such file or directory\n")

    def test_directory_as_state_is_named(self, capsys, tmp_path):
        code, out, err = run(capsys, "tomo", "fidelity", str(tmp_path), "101")
        assert (code, out, err) == (2, "", f"error: {tmp_path}: Is a directory\n")


class TestNonFiniteInputs:
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_overflowing_stake_is_answered(self, capsys, fmt):
        # 4n overflows unscaled; the closed forms scale the stakes first
        code, out, err = run(capsys, "xc", "--n", "1e308", "--format", fmt)
        assert code == 0, err
        if fmt == "json":
            results = json.loads(out)["results"]
            x_c, quantum = results["x_c"], results["report"]["quantum_ne_mean"]
        else:
            (row,) = csv.DictReader(io.StringIO(out))
            x_c, quantum = float(row["x_c"]), float(row["quantum_ne_mean"])
        assert x_c == 0.5
        assert quantum == pytest.approx(6.67e307, rel=1e-3)

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    @pytest.mark.parametrize("argv", [("play", "HIX"), ("classes",), ("sweep", "x", "--grid", "3")])
    def test_huge_stakes_are_answered_on_simulated_paths(self, capsys, argv, fmt):
        # the mean of three payoffs near 1e308 overflows unscaled
        code, out, err = run(capsys, *argv, "--n", "1e308", "--q", "3", "--format", fmt)
        assert code == 0, err
        assert err == ""
        if fmt == "json":
            text = json.dumps(json.loads(out)["results"])
        else:
            text = out
        assert "6.66666666667e+307" in text or "6.666666666666666e+307" in text

    def test_infinite_stake_fails(self, capsys):
        code, out, err = run(capsys, "play", "XXX", "--n", "inf")
        assert code == 2
        assert_one_error(code, out, err, "finite")

    def test_nan_sweep_start_fails(self, capsys):
        code, out, err = run(capsys, "sweep", "x", "--from", "nan")
        assert_one_error(code, out, err, "finite")

    def test_infinite_sweep_stop_fails(self, capsys):
        code, out, err = run(capsys, "sweep", "n", "--from", "3", "--to", "inf")
        assert_one_error(code, out, err, "finite")

    def test_forward_of_nan_matrix_fails(self, capsys, tmp_path):
        path = write_matrix_with_entry(tmp_path / "nan.txt")
        code, out, err = run(capsys, "tomo", "forward", path)
        assert_one_error(code, out, err, "non-finite")

    def test_fidelity_of_nan_matrix_fails(self, capsys, tmp_path):
        path = write_matrix_with_entry(tmp_path / "nan.txt")
        code, out, err = run(capsys, "tomo", "fidelity", path, "101")
        assert_one_error(code, out, err, "non-finite")

    @pytest.mark.parametrize("entry", ["inf", "-inf"])
    def test_forward_of_infinite_diagonal_fails_without_a_warning(self, capsys, tmp_path, entry):
        # an infinite diagonal entry makes the Hermiticity residual inf - inf
        path = write_matrix_with_entry(tmp_path / "inf.txt", entry, at=(0, 0))
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "tomo", "forward", path)
        assert_one_error(code, out, err, "density matrix has non-finite entries")

    def test_forward_of_a_diagonal_whose_trace_is_nan_fails(self, capsys, tmp_path):
        # finite entries, whose pairwise sum is inf + -inf
        diagonal = ["1e308", "1e308", "-1e308", "-1e308"] * 2
        real = [" ".join(entry if j == k else "0" for j in range(8)) for k, entry in enumerate(diagonal)]
        path = tmp_path / "huge.txt"
        path.write_text("\n".join(real + [""] + [" ".join(["0"] * 8)] * 8) + "\n", encoding="utf-8")
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code, out, err = run(capsys, "tomo", "forward", str(path))
        assert_one_error(code, out, err, f"STATE {path}: density matrix trace nan is not 1")

    def test_reconstruct_of_nan_tensor_fails(self, capsys, tmp_path):
        t = np.zeros((4, 4, 4))
        t[0, 0, 0] = 1.0
        t[3, 0, 3] = np.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"results": {"tensor": t.tolist()}}), encoding="utf-8")
        code, out, err = run(capsys, "tomo", "reconstruct", str(path))
        assert_one_error(code, out, err, f"error: {path}: expectation tensor has non-finite entries")


class TestEmitBackstop:
    PAYLOAD = {
        "params": {"p": 1.0, "q": 2.0, "n": 9.0, "x": 0.0, "gamma": 1.0, "seed": 0},
        "results": {"x_c": 0.4, "report": {"x": 0.0, "quantum_ne_mean": float("nan")}},
        "columns": {"x_c": [0.4], "quantum_ne_mean": [float("nan")]},
    }

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_nested_nan_is_refused(self, capsys, fmt):
        with pytest.raises(ValueError, match="non-finite value nan") as info:
            emit(self.PAYLOAD, argparse.Namespace(fmt=fmt, output=None))
        assert capsys.readouterr().out == ""
        if fmt == "json":
            assert str(info.value).endswith("at results.report.quantum_ne_mean")
        else:
            assert str(info.value).endswith("at rows[0].quantum_ne_mean")

    def test_csv_echo_cell_is_named(self, capsys):
        # the CLI refuses a non-finite stake up front, so the echo backstop is
        # reached only through emit
        payload = dict(self.PAYLOAD, params=dict(self.PAYLOAD["params"], p=float("nan")),
                       columns={"x_c": [0.4]})
        with pytest.raises(ValueError, match=r"non-finite value nan at params\.p$"):
            emit(payload, argparse.Namespace(fmt="csv", output=None))
        assert capsys.readouterr().out == ""

    def test_list_entries_are_indexed(self, capsys):
        payload = dict(self.PAYLOAD, results={"tensor": [[0.0, float("-inf")]]})
        with pytest.raises(ValueError, match=r"at results\.tensor\[0\]\[1\]$"):
            emit(payload, argparse.Namespace(fmt="json", output=None))


class TestSharedFlags:
    @pytest.mark.parametrize("argv, flag", [
        (["xc", "--gamma", "5"], "--gamma"),
        (["xc", "--gamma", "nan"], "--gamma"),
        (["tomo", "forward", "class7_appendix", "--x", "7"], "--x"),
        (["sweep", "n", "--from", "3", "--to", "9", "--x", "nan"], "--x"),
        (["tomo", "forward", "class7_appendix", "--p", "nan"], "--p/--q/--n"),
        (["tomo", "estimate", "HIX", "--q", "0.5"], "--p/--q/--n"),
        (["tomo", "fidelity", "class7_appendix", "101", "--n", "inf"], "--p/--q/--n"),
        (["xc", "--p", "3"], "--p/--q/--n"),
        (["sweep", "x", "--grid", "100000000000000000000"], "--grid"),
        (["tomo", "estimate", "HIX", "--shots", str(2**63)], "--shots"),
        pytest.param(["tomo", "reconstruct", PLAIN_TEXT], PLAIN_TEXT, id="not-json"),
        pytest.param(["tomo", "reconstruct", NOT_NUMERIC_TENSOR], NOT_NUMERIC_TENSOR,
                     id="tensor-not-numeric"),
        pytest.param(["tomo", "reconstruct", RAGGED_TENSOR], RAGGED_TENSOR, id="tensor-ragged"),
        pytest.param(["tomo", "reconstruct", SCALAR_TENSOR], SCALAR_TENSOR, id="tensor-wrong-shape"),
        pytest.param(["tomo", "reconstruct", TRACE_TWO_TENSOR], TRACE_TWO_TENSOR,
                     id="tensor-bad-trace"),
        pytest.param(["tomo", "forward", PLAIN_TEXT], PLAIN_TEXT, id="not-a-matrix"),
        pytest.param(["sweep", "x", "--grid", str(MAX_GRID + 1)], "--grid", id="grid-above-cap"),
        pytest.param(["sweep", "x", "--grid", "0"], "--grid", id="empty-grid"),
        # checked whatever the command, like --gamma, --x and the stakes
        pytest.param(["xc", "--grid", "-5"], "--grid", id="grid-on-xc"),
        pytest.param(["play", "XIX", "--shots", "-3"], "--shots", id="shots-on-play"),
        pytest.param(["classes", "--shots", str(2**63)], "--shots", id="huge-shots-on-classes"),
        # values argparse cannot convert leave through the same line
        pytest.param(["sweep", "x", "--grid", "abc"], "--grid", id="grid-not-an-int"),
        pytest.param(["xc", "--shots", "1.5"], "--shots", id="shots-not-an-int"),
        pytest.param(["play", "XIX", "--format", "xml"], "--format", id="unknown-format"),
        # a state that fails its check is named by its role and token
        pytest.param(["tomo", "fidelity", "XIX", "class7_appendix"], "TARGET class7_appendix",
                     id="unphysical-target"),
        pytest.param(["tomo", "estimate", "class7_appendix"], "STATE class7_appendix",
                     id="unphysical-estimate-state"),
        pytest.param(["play", "XIX", "--output", ""], "--output", id="empty-output"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_of_range_flag_fails_up_front(self, capsys, argv, flag, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2
        assert_one_error(code, out, err, f"error: {flag}: ")

    @pytest.mark.parametrize("argv, message", [
        pytest.param(["sweep", "n", "--from=-1e308", "--to=1e308"],
                     "sweep range [-1e+308, 1e+308] is wider than the largest float",
                     id="sweep-n-wider-than-a-float"),
        pytest.param(["sweep", "q", "--from=-1e308", "--to=1e308"],
                     "sweep range [-1e+308, 1e+308] is wider than the largest float",
                     id="sweep-q-wider-than-a-float"),
        # argparse's default pattern reads "-1e-3" as a flag, not as a value
        pytest.param(["xc", "--x", "-1e-3"], "--x: corruption must lie in [0, 1], got -0.001",
                     id="negative-exponent-value"),
        pytest.param(["xc", "--shots", "0"],
                     "--shots: shots must be an integer in [1, 2**63 - 1], got 0", id="zero-shots"),
        pytest.param(["play", "XIX", "--output", ""], "--output: must name a file, got ''",
                     id="empty-output"),
        # the entry prints as a float, not as numpy's np.float64(2.0)
        pytest.param(["tomo", "reconstruct", TRACE_TWO_TENSOR],
                     f"{TRACE_TWO_TENSOR}: t[0,0,0] = 2.0 must be 1 (unit trace)",
                     id="tensor-trace-two"),
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_refusal_text(self, capsys, argv, message, fmt):
        assert run(capsys, *argv, "--format", fmt) == (2, "", f"error: {message}\n")

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as info:
            main(["--help"])
        assert info.value.code == 0
        assert capsys.readouterr().out.startswith("usage: qdilemma")


#: Huge, negative, non-finite and non-numeric values, which most flags refuse.
BAD_NUMBERS = ("-1", "1e308", "-1e308", "-1e-3", "1e400", "nan", "inf", "-inf", "-nan", "abc",
               "", "1.5", str(2**63), str(-2**63), "1" + "0" * 5000)
#: Per flag: values that fit it alone (small, so that sweeps and estimates stay
#: quick), and values that mostly do not.
FLAG_VALUES = {
    "--p": (("1", "0.5", "1.5"), BAD_NUMBERS),
    "--q": (("2", "1.5", "3"), BAD_NUMBERS),
    "--n": (("9", "20", "1e308"), BAD_NUMBERS),
    "--x": (("0", "0.25", "1"), BAD_NUMBERS),
    "--gamma": (("0", "0.7", "1.5707963267948966"), BAD_NUMBERS),
    "--from": (("0", "1", "3"), BAD_NUMBERS),
    "--to": (("1", "3", "9"), BAD_NUMBERS),
    "--seed": (("0", "-1", "42", str(2**70)), ("1.5", "abc", "", "nan")),
    "--grid": (("1", "2", "5"), ("0", "-5", "1.5", "abc", "nan", str(MAX_GRID + 1), str(2**63))),
    "--shots": (("1", "100", str(2**63 - 1)), ("0", "-3", "1.5", "abc", str(2**63))),
    "--format": (("json", "csv"), ("xml", "")),
}
#: Positionals after each subcommand, most of them fitting.
POSITIONALS = {
    "play": (["XIX"], ["hhh"], ["xhi"], ["XYZ"], ["IIII"], [], ["XIX", "XIX"]),
    "classes": ([], [], ["XIX"]),
    "sweep": (["x"], ["n"], ["q"], ["p"], [], ["x", "x"]),
    "xc": ([], [], ["XIX"]),
}
TASKS = ("forward", "estimate", "reconstruct", "fidelity", "bogus")


@st.composite
def argvs(draw, files):
    """argv for each subcommand, or none: fitting and unfitting positionals,
    and a few flags, each with a fitting or an unfitting value, mostly after
    the subcommand."""
    command = draw(st.sampled_from((*POSITIONALS, "tomo") * 3 + ("bogus", "")))
    if command == "tomo":
        inputs = st.sampled_from(("XIX", "class7_appendix", "101") * 2 + ("XYZ", *files[2:]))
        count = draw(st.sampled_from((1, 1, 2, 2, 0, 3)))
        head = [command, draw(st.sampled_from(TASKS)), *(draw(inputs) for _ in range(count))]
    else:
        head = [command, *draw(st.sampled_from(POSITIONALS.get(command, [[]])))] if command else []
    # a range for sweeps; --from and --to are unknown to the other commands
    names = sorted(FLAG_VALUES)
    if command == "sweep":
        flags = draw(st.sampled_from(([], ["--from", "3", "--to", "9"], ["--from", "0", "--to", "1"])))
    else:
        flags, names = [], [name for name in names if name not in ("--from", "--to")]
    for flag in draw(st.lists(st.sampled_from(names), unique=True, max_size=4)):
        good, bad = FLAG_VALUES[flag]
        fits = draw(st.sampled_from((True, True, True, False)))
        value = draw(st.sampled_from(good if fits else bad))
        # "--flag=value" also carries values that argparse would take for a flag
        flags += [f"{flag}={value}"] if draw(st.booleans()) else [flag, value]
    if draw(st.booleans()):
        flags += ["--output", draw(st.sampled_from((*files[:2], "")))]
    # unknown to every parser, ambiguous between --shots and --seed, unknown but to sweep
    flags += draw(st.sampled_from(([],) * 8 + (["--bogus", "1"], ["--s", "1"], ["--from", "0"])))
    return head + flags if draw(st.sampled_from((True,) * 9 + (False,))) else flags + head


@pytest.fixture(scope="module")
def argv_files(tmp_path_factory):
    """The output file, a path under a missing directory, and inputs: a tensor
    file, a bad tensor file, a plain text file, a directory, a missing file and
    two matrix files that fail the density-matrix check."""
    root = tmp_path_factory.mktemp("argv")
    tensor = str(root / "tensor.json")
    with contextlib.redirect_stdout(io.StringIO()):
        assert main(["tomo", "forward", "HIX", "--output", tensor]) == 0
    return (str(root / "out"), str(root / "missing" / "out"), tensor, RAGGED_TENSOR,
            PLAIN_TEXT, str(root), str(root / "missing.json"), NOT_HERMITIAN_MATRIX,
            TRACE_TWO_MATRIX)


def refuse(constant):
    raise ValueError(f"not strict JSON: {constant}")


class TestAnyArgv:
    @settings(max_examples=300)
    @given(data=st.data())
    def test_exit_0_is_a_document_and_exit_2_one_error_line(self, argv_files, data):
        argv = data.draw(argvs(argv_files), label="argv")
        output = argv_files[0]
        with contextlib.redirect_stdout(io.StringIO()) as out, \
                contextlib.redirect_stderr(io.StringIO()) as err:
            try:
                code = main(argv)
            except SystemExit as exc:
                pytest.fail(f"SystemExit({exc.code}) escaped main")
        if code == 2:
            assert out.getvalue() == ""
            assert err.getvalue().startswith("error: ")
            assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n")
            return
        assert code == 0
        if output in argv:
            assert out.getvalue() == ""
            text = Path(output).read_text(encoding="utf-8")
            os.unlink(output)
        else:
            text = out.getvalue()
        if "csv" in argv or "--format=csv" in argv:
            header, *rows = csv.reader(io.StringIO(text))
            assert rows and {len(row) for row in rows} == {len(header)}
            # the echo columns a row does not carry, then the row's own fields
            assert len(set(header)) == len(header)
            assert any(header[:k] == [c for c in ECHO_KEYS if c not in header[k:]]
                       for k in range(len(ECHO_KEYS) + 1))
        else:
            assert list(json.loads(text, parse_constant=refuse)) == ["params", "results"]


def json_docs():
    """Recursive JSON-able documents: dicts, lists, tuples, empty containers and
    str/int/float/bool/None leaves, numpy float64 among them."""
    finite = st.floats(allow_nan=False, allow_infinity=False)
    leaves = st.one_of(st.none(), st.booleans(), st.integers(), finite, st.text(),
                       finite.map(np.float64))
    return st.recursive(leaves, lambda children: st.one_of(
        st.lists(children), st.lists(children).map(tuple),
        st.dictionaries(st.text(), children)), max_leaves=30)


def emitted_json(doc) -> str:
    payload = {"params": {"command": "test", "gamma": 1.0}, "results": doc, "columns": {}}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit(payload, argparse.Namespace(fmt="json", output=None))
    return out.getvalue()


def plant(node, value, data, path):
    """``node`` with one leaf or empty container replaced by ``value``, and its key path."""
    if isinstance(node, dict) and node:
        key = data.draw(st.sampled_from(list(node)))
        child, child_path = plant(node[key], value, data, f"{path}.{key}")
        return {**node, key: child}, child_path
    if isinstance(node, (list, tuple)) and node:
        k = data.draw(st.integers(0, len(node) - 1))
        child, child_path = plant(node[k], value, data, f"{path}[{k}]")
        return [*node[:k], child, *node[k + 1:]], child_path
    return value, path


class TestJsonWriter:
    @given(doc=json_docs())
    def test_equals_indented_dumps(self, doc):
        want = json.dumps({"params": {"command": "test", "gamma": 1.0}, "results": doc},
                          indent=2, allow_nan=False) + "\n"
        assert emitted_json(doc) == want

    @given(doc=json_docs(), value=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
           data=st.data())
    def test_non_finite_value_is_refused_with_its_path(self, doc, value, data):
        doc, path = plant(doc, value, data, "results")
        with pytest.raises(ValueError) as info:
            emitted_json(doc)
        assert str(info.value) == f"result holds the non-finite value {float(value)!r} at {path}"


#: Scalar cells of a column table, with the JSON and CSV edge cases among them:
#: quotes, commas, newlines and non-ASCII text, subnormals, the float maximum.
CELLS = st.one_of(
    st.none(), st.booleans(), st.integers(-10**30, 10**30), st.text(),
    st.floats(allow_nan=False, allow_infinity=False),
    st.floats(allow_nan=False, allow_infinity=False).map(np.float64),
    st.sampled_from([0.0, -0.0, 5e-324, 2.2e-308, 1.7e308, -1.7e308, 'say "hi", twice',
                     "two\nlines", "\r", "naïve ☃", "100%s %%", ""]),
)
ECHO_KEYS = ("p", "q", "n", "x", "gamma", "seed")


@st.composite
def column_tables(draw, min_rows=0):
    """Column tables of scalars: held columns (one scalar cell, such as a held
    stake) and lists that repeat one object next to mixed ones, to mixes of
    0.0 and -0.0, and to one list object under two keys, as ``sweep``'s
    ``value`` and swept columns.  A table of held columns alone is one row."""
    m = draw(st.integers(min_rows, 6))
    keys = draw(st.lists(st.one_of(st.text(), st.sampled_from(ECHO_KEYS + ("%s", "100%"))),
                         min_size=1, max_size=6, unique=True))
    table = {}
    for key in keys:
        kind = draw(st.sampled_from(["held", "repeated", "mixed", "signed zeros", "aliased"]))
        if kind == "aliased" and table:
            table[key] = table[draw(st.sampled_from(list(table)))]
        elif kind == "held":
            table[key] = draw(CELLS)
        elif kind == "repeated":
            table[key] = [draw(CELLS)] * m
        elif kind == "signed zeros":
            table[key] = draw(st.lists(st.sampled_from([0.0, -0.0]), min_size=m, max_size=m))
        else:
            table[key] = draw(st.lists(CELLS, min_size=m, max_size=m))
    return table


def echo_params():
    return st.fixed_dictionaries({key: CELLS for key in ECHO_KEYS})


def emitted_table(params, table, fmt) -> str:
    payload = {"params": params, "columns": table}
    with contextlib.redirect_stdout(io.StringIO()) as out:
        emit(payload, argparse.Namespace(fmt=fmt, output=None))
    return out.getvalue()


def broadcast(table) -> dict:
    """The table with each held cell repeated down its column: as many rows as
    its lists have, or one row when it has none."""
    m = next((len(column) for column in table.values() if isinstance(column, list)), 1)
    return {key: column if isinstance(column, list) else [column] * m
            for key, column in table.items()}


def records(table) -> list:
    table = broadcast(table)
    return [dict(zip(table, row)) for row in zip(*table.values())]


def reference_csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return format(value, ".12g")
    return str(value)


def reference_csv_row(cells) -> str:
    """One CSV line from ``csv.writer``, whose CRLF terminator makes it quote a
    field holding CR as well as one holding LF; the line ends in LF."""
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\r\n").writerow(cells)
    return buf.getvalue()[:-2] + "\n"


def reference_csv(params, rows) -> str:
    """The row-by-row CSV writer that the column writer replaced."""
    echo = {c: params[c] for c in ECHO_KEYS if c not in rows[0]}
    lead = [reference_csv_cell(v) for v in echo.values()]
    lines = [reference_csv_row(list(echo) + list(rows[0]))]
    for row in rows:
        lines.append(reference_csv_row(lead + [
            format(v, ".12g") if v.__class__ is float and v - v == 0.0
            else reference_csv_cell(v) for v in row.values()]))
    return "".join(lines)


class TestColumnWriters:
    @given(params=echo_params(), table=column_tables())
    def test_records_equal_indented_dumps(self, params, table):
        want = json.dumps({"params": params, "results": records(table)},
                          indent=2, allow_nan=False) + "\n"
        assert emitted_table(params, table, "json") == want
        assert emitted_table(params, broadcast(table), "json") == want

    @given(params=echo_params(), table=column_tables(min_rows=1))
    def test_csv_equals_the_row_by_row_writer(self, params, table):
        want = reference_csv(params, records(table))
        assert emitted_table(params, table, "csv") == want
        assert emitted_table(params, broadcast(table), "csv") == want

    @given(params=echo_params(), table=column_tables(min_rows=1))
    def test_csv_reads_back_to_the_header_and_cells(self, params, table):
        rows = records(table)
        echo = {c: params[c] for c in ECHO_KEYS if c not in rows[0]}
        header, *read = csv.reader(io.StringIO(emitted_table(params, table, "csv"), newline=""))
        assert header == list(echo) + list(rows[0])
        assert read == [[reference_csv_cell(v) for v in (*echo.values(), *row.values())]
                        for row in rows]

    @given(params=echo_params(), table=column_tables(min_rows=1), fmt=st.sampled_from(["json", "csv"]),
           value=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
           data=st.data())
    def test_non_finite_cell_is_refused_with_its_path(self, params, table, fmt, value, data):
        key = data.draw(st.sampled_from(list(table)))
        column = broadcast(table)[key]
        m = len(column)
        planted = data.draw(st.sampled_from(["cell", "whole column", "held"]))
        if planted == "held":
            # reported at the first row, as the broadcast column would be
            k, table[key] = 0, value
        elif planted == "whole column":
            k, table[key] = 0, [value] * m
        else:
            k = data.draw(st.integers(0, m - 1))
            table[key] = [*column[:k], value, *column[k + 1:]]
        where = "results" if fmt == "json" else "rows"
        with pytest.raises(ValueError) as info:
            emitted_table(params, table, fmt)
        assert str(info.value) == (
            f"result holds the non-finite value {float(value)!r} at {where}[{k}].{key}")


class TestExactFloatCells:
    """A numpy float64 cell is written as the plain float text of ``float.__repr__``
    and ``.12g``, not its own ``repr``, which is ``np.float64(...)`` in numpy 2."""

    @pytest.mark.parametrize("column", [
        [np.float64(0.1), np.float64(-2.5), np.float64(1e-300)],
        [0.1, np.float64(-2.5), 1e-300],
        [np.float64(0.1), -2.5, np.float64(1e-300)],
    ], ids=["float64", "float then float64", "float64 then float"])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_float64_cells_are_plain_float_text(self, fmt, column):
        text = emitted_table(dict.fromkeys(ECHO_KEYS, 1.0), {"v": column}, fmt)
        assert "np." not in text and "float64" not in text
        if fmt == "json":
            assert [row["v"] for row in json.loads(text)["results"]] == [0.1, -2.5, 1e-300]
        else:
            assert [row["v"] for row in csv.DictReader(io.StringIO(text))] == [
                "0.1", "-2.5", "1e-300"]


#: SHA-256 of the output of ``sweep ... --grid 2001`` in each format, captured
#: before the record writer was rewritten as one join: held stakes, swept
#: stakes, invalid points (``valid`` false with an ``error``), the
#: no-advantage regime (``x_c`` null), and a table at which the two classical
#: columns of an x-sweep differ in the last bit.  A JSON ``params`` holds null
#: for the swept flag.
GOLDEN_SWEEPS = [
    (["sweep", "x"], "json", "f975392af53388d9942c1cbe69a27cbd8c47388945fa1b8975d257ad17abe0b1"),
    (["sweep", "x"], "csv", "ebf55b047479882f95763ef7abb6238e3c2a35f1d38755f4366d8eced2638c9c"),
    (["sweep", "n", "--from", "3", "--to", "30"], "json",
     "6d554eb07183fc52f6f6fe6de46fa390d5b2c7266fa7493418e552b482d352fa"),
    (["sweep", "n", "--from", "3", "--to", "30"], "csv",
     "9ff4b1050a01c814df44134bbf4c1d667c9cd748fcf648dc510ca7623bd909b7"),
    (["sweep", "q", "--from", "1.5", "--to", "8"], "json",
     "cc374783b1afd3728547133ce4031c9cdd938ff093fecb8cc6483b2526cbdf92"),
    (["sweep", "q", "--from", "1.5", "--to", "8"], "csv",
     "f22d76955a45f052a82a671dbbbfe7f2782cb76ee2e21fb02e996347fb203618"),
    (["sweep", "q", "--from", "0", "--to", "12"], "json",
     "02b4a190cfdd6765f69877661c0991bc53104d3807a7c797b219272648001578"),
    (["sweep", "q", "--from", "0", "--to", "12"], "csv",
     "dfc88edda12b1a57e2b53a24fc220e41819b5830e819f3bee4575b87c7e05906"),
    (["sweep", "x", "--q", "5", "--n", "6", "--gamma", "0.3"], "json",
     "48ef5772b322582c54722d387352c8c6ea4c553fb29788a84006cd322d040147"),
    (["sweep", "x", "--q", "5", "--n", "6", "--gamma", "0.3"], "csv",
     "6127c5b2daa3f8067a6c9e64a0283b0df2b5381325551d06466bde48bf969bdc"),
    (["sweep", "x", "--from", "-0.5", "--to", "1.5", "--gamma", "1"], "json",
     "d996a0833174a536ead960ec4d9de0a80dc3d598d0efa1d11256e44c2fda42cb"),
    (["sweep", "x", "--from", "-0.5", "--to", "1.5", "--gamma", "1"], "csv",
     "385fd2a69dffa92ca236fdf49e5ff2a0e99e4ab8eeaac99c9c42f94d58b0a788"),
    (["sweep", "x", "--p", "0.05", "--q", "0.1", "--n", "1"], "json",
     "4ef0299a84bdcee4f01a3ec3af46bcc7921682308b89c29c6e305e201a04345e"),
    (["sweep", "x", "--p", "0.05", "--q", "0.1", "--n", "1"], "csv",
     "80fc76906acba88df7c820ca2f2c3bd4d20902e86351973e60df95a016d79284"),
    # points with n <= q are invalid, so the held classical column holds a null there
    (["sweep", "n", "--from", "1", "--to", "30"], "json",
     "ae5da30259b12db846349995946b3c08271cce27aadf1cd39560512aab3d3999"),
    (["sweep", "n", "--from", "1", "--to", "30"], "csv",
     "6bd6b1e1b435268376b670eba1990c8c49569de5df4ed19b46c9b17e085eacc6"),
]

#: SHA-256 of the CSV output of the one-row commands, captured with the sweeps
#: above: one row of cells after the parameter echo.
GOLDEN_ONE_ROW_CSV = [
    (["play", "XIX", "--x", "0.3", "--gamma", "0.7"],
     "26b3c879ab1838f9f8a243ffda1c6aca1a815154b35efa23203d7032a429a89b"),
    (["xc", "--x", "0.363"], "9e53956fea0742234384552cdda55120279da163798b1fb4b71d8ea003f4af8f"),
    (["tomo", "fidelity", "class7_appendix", "101"],
     "9f48434878ee3a3917196332a1fcf1be583b9bf98f02f66bbde6a61e747fa6e4"),
]


@pytest.mark.parametrize("argv, fmt, digest", GOLDEN_SWEEPS,
                         ids=[" ".join(argv[1:]) + f" {fmt}" for argv, fmt, _ in GOLDEN_SWEEPS])
def test_sweep_output_is_byte_identical_to_the_golden_digest(capsys, argv, fmt, digest):
    code, out, err = run(capsys, *argv, "--grid", "2001", "--format", fmt)
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


@pytest.mark.parametrize("argv, digest", GOLDEN_ONE_ROW_CSV,
                         ids=[" ".join(argv) for argv, _ in GOLDEN_ONE_ROW_CSV])
def test_one_row_csv_is_byte_identical_to_the_golden_digest(capsys, argv, digest):
    code, out, err = run(capsys, *argv, "--format", "csv")
    assert code == 0, err
    assert hashlib.sha256(out.encode("utf-8")).hexdigest() == digest


ECHO = ",".join(ECHO_KEYS)
TENSOR_HEADER = ECHO + ",i1,i2,i3,value"


class TestCsvHeaders:
    @pytest.mark.parametrize("argv, header", [
        (["play", "XIX"], ECHO + ",profile," + ",".join(f"prob_{b:03b}" for b in range(8))
         + ",payoff1,payoff2,payoff3,mean"),
        (["classes"], ECHO + ",label,multiset,size,mean_payoff"),
        (["sweep", "x", "--grid", "3"],
         "gamma,seed,swept,value,p,q,n,x,quantum_ne_mean,classical_ne_mean,x_c,"
         "simulated_quantum_mean,simulated_classical_mean,valid,error"),
        (["xc"], ECHO + ",x_c,no_advantage,quantum_ne_mean,classical_ne_mean,dominant"),
        (["tomo", "fidelity", "class7_appendix", "101"], ECHO + ",fidelity"),
        (["tomo", "forward", "XIX"], TENSOR_HEADER),
        (["tomo", "estimate", "XIX", "--shots", "10"], TENSOR_HEADER),
    ])
    def test_header(self, capsys, argv, header):
        code, out, err = run(capsys, *argv, "--format", "csv")
        assert code == 0, err
        assert out.split("\n", 1)[0] == header

    def test_reconstruct_header(self, capsys, tmp_path):
        tensor_file = tmp_path / "tensor.json"
        assert run(capsys, "tomo", "forward", "XIX", "--output", str(tensor_file))[0] == 0
        code, out, err = run(capsys, "tomo", "reconstruct", str(tensor_file), "--format", "csv")
        assert code == 0, err
        lines = out.splitlines()
        assert lines[0] == ECHO + ",row,col,re,im"
        assert len(lines) == 1 + 64


class TestOutputFormats:
    def test_csv_and_json_agree(self, capsys):
        doc = run_json(capsys, "sweep", "x", "--grid", "5")
        code, out, _ = run(capsys, "sweep", "x", "--grid", "5", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        assert len(rows) == len(doc["results"])
        for csv_row, json_row in zip(rows, doc["results"]):
            for key in ("value", "quantum_ne_mean", "classical_ne_mean", "x_c",
                        "simulated_quantum_mean", "simulated_classical_mean"):
                assert float(csv_row[key]) == pytest.approx(json_row[key], rel=1e-11)

    def test_csv_rows_echo_parameters(self, capsys):
        code, out, _ = run(capsys, "play", "XXX", "--x", "0.25", "--format", "csv")
        assert code == 0
        rows = list(csv.DictReader(io.StringIO(out)))
        row = rows[0]
        assert (row["p"], row["q"], row["n"]) == ("1", "2", "9")
        assert row["x"] == "0.25"
        assert row["seed"] == "0"

    def test_output_file_is_written_atomically(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        code, out, err = run(capsys, "xc", "--output", str(target))
        assert code == 0
        assert out == ""
        doc = json.loads(target.read_text(encoding="utf-8"))
        assert doc["results"]["x_c"] == pytest.approx(13 / 30, abs=1e-12)
        leftovers = [p for p in tmp_path.iterdir() if p.name != "out.json"]
        assert leftovers == []

    def test_output_symlink_is_written_through(self, capsys, tmp_path):
        target = tmp_path / "target.json"
        target.write_text("old", encoding="utf-8")
        link = tmp_path / "link.json"
        link.symlink_to(target)
        code, out, err = run(capsys, "xc", "--output", str(link))
        assert code == 0, err
        assert link.is_symlink()
        assert json.loads(target.read_text(encoding="utf-8"))["params"]["command"] == "xc"
        assert sorted(p.name for p in tmp_path.iterdir()) == ["link.json", "target.json"]

    def test_output_fifo_is_written_in_place(self, capsys, tmp_path):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(
            target=lambda: received.append(fifo.read_text(encoding="utf-8")), daemon=True)
        reader.start()
        code, out, err = run(capsys, "xc", "--output", str(fifo))
        reader.join(timeout=10)
        assert not reader.is_alive()
        assert code == 0, err
        assert stat.S_ISFIFO(os.stat(fifo).st_mode)
        assert json.loads(received[0])["params"]["command"] == "xc"

    def test_new_output_file_mode_follows_the_umask(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        old = os.umask(0o027)
        try:
            code, out, err = run(capsys, "xc", "--output", str(target))
        finally:
            os.umask(old)
        assert code == 0, err
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o640

    def test_existing_output_file_keeps_its_mode(self, capsys, tmp_path):
        target = tmp_path / "out.json"
        target.write_text("old", encoding="utf-8")
        target.chmod(0o604)
        code, out, err = run(capsys, "xc", "--output", str(target))
        assert code == 0, err
        assert stat.S_IMODE(os.stat(target).st_mode) == 0o604
        assert json.loads(target.read_text(encoding="utf-8"))["params"]["command"] == "xc"

    def test_failed_rename_removes_the_temporary_file(self, capsys, tmp_path, monkeypatch):
        def refuse(src, dst):
            raise OSError(errno.EACCES, "Permission denied", src)

        monkeypatch.setattr(os, "replace", refuse)
        target = tmp_path / "out.json"
        code, out, err = run(capsys, "xc", "--output", str(target))
        assert (code, out, err) == (2, "", f"error: {target}: Permission denied\n")
        assert list(tmp_path.iterdir()) == []

    def test_json_echoes_gamma_and_seed(self, capsys):
        doc = run_json(capsys, "play", "HHH", "--gamma", "0.7", "--seed", "9")
        assert doc["params"]["gamma"] == 0.7
        assert doc["params"]["seed"] == 9
