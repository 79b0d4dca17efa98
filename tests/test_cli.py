import argparse
import contextlib
import csv
import io
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qdilemma.cli import emit, main


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


def write_matrix_with_nan(path):
    real = [["0"] * 8 for _ in range(8)]
    for k in range(8):
        real[k][k] = "0.125"
    real[0][1] = "nan"
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

    def test_missing_range_fails(self, capsys):
        code, _, err = run(capsys, "sweep", "n")
        assert code != 0
        assert "--from" in err

    def test_inverted_range_fails(self, capsys):
        code, _, err = run(capsys, "sweep", "x", "--from", "1", "--to", "0")
        assert code != 0
        assert "inverted" in err

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

    def test_fidelity_needs_two_inputs(self, capsys):
        code, _, err = run(capsys, "tomo", "fidelity", "class7_appendix")
        assert code != 0
        assert "two inputs" in err


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
        path = write_matrix_with_nan(tmp_path / "nan.txt")
        code, out, err = run(capsys, "tomo", "forward", path)
        assert_one_error(code, out, err, "non-finite")

    def test_fidelity_of_nan_matrix_fails(self, capsys, tmp_path):
        path = write_matrix_with_nan(tmp_path / "nan.txt")
        code, out, err = run(capsys, "tomo", "fidelity", path, "101")
        assert_one_error(code, out, err, "non-finite")

    def test_reconstruct_of_nan_tensor_fails(self, capsys, tmp_path):
        t = np.zeros((4, 4, 4))
        t[0, 0, 0] = 1.0
        t[3, 0, 3] = np.nan
        path = tmp_path / "nan.json"
        path.write_text(json.dumps({"results": {"tensor": t.tolist()}}), encoding="utf-8")
        code, out, err = run(capsys, "tomo", "reconstruct", str(path))
        assert_one_error(code, out, err, "non-finite")


class TestEmitBackstop:
    PAYLOAD = {
        "params": {"p": 1.0, "q": 2.0, "n": 9.0, "x": 0.0, "gamma": 1.0, "seed": 0},
        "results": {"x_c": 0.4, "report": {"x": 0.0, "quantum_ne_mean": float("nan")}},
        "rows": [{"x_c": 0.4, "quantum_ne_mean": float("nan")}],
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
        code, out, err = run(capsys, "tomo", "forward", "class7_appendix", "--p", "nan",
                             "--format", "csv")
        assert_one_error(code, out, err, "non-finite value nan at params.p")

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
    ])
    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_out_of_range_flag_fails_up_front(self, capsys, argv, flag, fmt):
        code, out, err = run(capsys, *argv, "--format", fmt)
        assert code == 2
        assert_one_error(code, out, err, f"error: {flag}: ")


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
    payload = {"params": {"command": "test", "gamma": 1.0}, "results": doc, "rows": []}
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
    @settings(deadline=None)
    @given(doc=json_docs())
    def test_equals_indented_dumps(self, doc):
        want = json.dumps({"params": {"command": "test", "gamma": 1.0}, "results": doc},
                          indent=2, allow_nan=False) + "\n"
        assert emitted_json(doc) == want

    @settings(deadline=None)
    @given(doc=json_docs(), value=st.sampled_from([math.nan, math.inf, -math.inf, np.float64("nan")]),
           data=st.data())
    def test_non_finite_value_is_refused_with_its_path(self, doc, value, data):
        doc, path = plant(doc, value, data, "results")
        with pytest.raises(ValueError) as info:
            emitted_json(doc)
        assert str(info.value) == f"result holds the non-finite value {float(value)!r} at {path}"


ECHO = "p,q,n,x,gamma,seed"
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

    def test_json_echoes_gamma_and_seed(self, capsys):
        doc = run_json(capsys, "play", "HHH", "--gamma", "0.7", "--seed", "9")
        assert doc["params"]["gamma"] == 0.7
        assert doc["params"]["seed"] == 9
