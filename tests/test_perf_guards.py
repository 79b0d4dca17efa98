"""Structural guards on the hot paths, counted by monkeypatching rather than timed."""

import contextlib
import io
import json
import subprocess
import sys
import threading

import numpy as np
import pytest

from qdilemma import analysis, cli, game, linalg, tomography
from qdilemma.game import PayoffTable, evolve, parse_profile
from qdilemma.noise import corrupted_input

from helpers import subprocess_env


def test_no_bit_generator_built_per_estimate_after_a_threads_first(monkeypatch):
    rho = evolve(parse_profile("HIX"))
    built, after_each = [], []
    philox = np.random.Philox

    def counting(*args, **kwargs):
        built.append(1)
        return philox(*args, **kwargs)

    def estimates():
        for seed in (7, 8, 7):
            tomography.estimate_expectations(rho, 8192, seed)
            after_each.append(len(built))

    monkeypatch.setattr(np.random, "Philox", counting)
    # a new thread, so that its first estimate is seen
    thread = threading.Thread(target=estimates)
    thread.start()
    thread.join()
    # the first estimate builds the thread's generator, and later ones re-key it
    assert after_each == [1, 1, 1]


def test_one_binomial_call_per_estimate(monkeypatch):
    draws = []

    class Counting(np.random.Generator):
        def binomial(self, *args, **kwargs):
            draws.append(1)
            return super().binomial(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    tomography.estimate_expectations(evolve(parse_profile("HIX")), 8192, 7)
    # all 63 strings in one vectorised draw, not one call per string
    assert len(draws) == 1


@pytest.mark.parametrize("call, checks", [
    (lambda rho: tomography.estimate_expectations(rho, 8192, 7), 1),
    (tomography.expectations, 1),
    (lambda rho: tomography.fidelity(rho, rho), 2),
    (tomography.project_to_physical, 1),
], ids=["estimate_expectations", "expectations", "fidelity", "project_to_physical"])
def test_each_state_checked_once_per_public_call(monkeypatch, call, checks):
    calls = []
    validate = tomography.validate_density_matrix

    def counting(*args, **kwargs):
        calls.append(1)
        return validate(*args, **kwargs)

    monkeypatch.setattr(tomography, "validate_density_matrix", counting)
    call(evolve(parse_profile("HIX")))
    assert len(calls) == checks


def test_fidelity_runs_one_eigendecomposition_of_the_target(monkeypatch):
    # a raw reconstruction, as in repeated tomography
    state = tomography.reconstruct(tomography.estimate_expectations(
        evolve(parse_profile("HIX"), corrupted_input(0.3)), 8192, 7))
    shapes = []
    for name in ("eigh", "eigvalsh"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _original=original, **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    # a rank-2 game target and a basis target: one 8x8 eigendecomposition of
    # the target, and the block on its support, of size its rank, in closed form
    for target in (evolve(parse_profile("XIX"), corrupted_input(0.3)), linalg.basis_density("101")):
        shapes.clear()
        tomography.fidelity(state, target)
        assert shapes == [(8, 8)]


def test_no_kron_for_a_profile_already_built(monkeypatch):
    game.circuit_unitary(parse_profile("HIX"), 0.7)
    calls = []
    kron = linalg.kron

    def counting(*args, **kwargs):
        calls.append(1)
        return kron(*args, **kwargs)

    monkeypatch.setattr(linalg, "kron", counting)
    for gamma in (0.0, 0.7, np.pi / 2):
        game.circuit_unitary(parse_profile("HIX"), gamma)
        game.evolve(parse_profile("HIX"), corrupted_input(0.3), gamma)
    # the strategy product is built once per profile
    assert calls == []
    # the count sees a profile built for the first time
    game._strategy_product.cache_clear()
    game.circuit_unitary(parse_profile("HIX"))
    assert len(calls) == 2


def test_no_np_kron_on_import_or_evolve():
    # a fresh interpreter, so that the module-level tables are built under the count
    script = (
        "import numpy as np\n"
        "calls = []\n"
        "kron = np.kron\n"
        "np.kron = lambda *a, **k: calls.append(1) or kron(*a, **k)\n"
        "from qdilemma import game, tomography\n"
        "game.evolve(game.parse_profile('HIX'))\n"
        "print(len(calls))\n"
    )
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=subprocess_env(), check=True)
    assert proc.stdout == "0\n"


def test_sweep_emit_encodes_columns_not_records(monkeypatch):
    labels, calls = [], []
    encode_cells, dumps = cli._ENCODE_CELLS, json.dumps

    def counting_cells(column):
        calls.append(column)
        return encode_cells(column)

    def counting_dumps(node, **kwargs):
        (labels if isinstance(node, str) else calls).append(node)
        return dumps(node, **kwargs)

    monkeypatch.setattr(cli, "_ENCODE_CELLS", counting_cells)
    monkeypatch.setattr(cli.json, "dumps", counting_dumps)
    args = cli.build_parser().parse_args(["sweep", "x", "--grid", "2001"])
    payload = cli.cmd_sweep(args)
    with contextlib.redirect_stdout(io.StringIO()) as out:
        cli.emit(payload, args)
    assert len(json.loads(out.getvalue())["results"]) == 2001
    # at most one call per column, and one for params
    assert len(calls) <= len(analysis.SWEEP_COLUMNS) + 1
    # and one per record label
    assert len(labels) == len(analysis.SWEEP_COLUMNS)


@pytest.mark.parametrize("swept, grid", [("x", [0.0, 0.5, 1.0]), ("n", [3.0, 9.0]), ("q", [1.5, 2.5])])
def test_sweep_value_is_the_swept_column(swept, grid):
    columns = analysis.sweep(PayoffTable(), swept, grid)
    assert columns["value"] is columns[swept]


@pytest.mark.parametrize("argv, lists, held", [
    # value and x are one list, and so are the two classical means; quantum,
    # classical and the simulated quantum mean vary
    (["x"], 4, 7),
    (["n", "--from", "3", "--to", "30"], 3, 9),
    (["q", "--from", "1.5", "--to", "8"], 3, 9),
], ids=["x", "n", "q"])
@pytest.mark.parametrize("fmt, tokens", [("json", "_json_tokens"), ("csv", "_csv_tokens")])
def test_sweep_emit_formats_each_distinct_column_once(monkeypatch, fmt, tokens, argv, lists, held):
    lengths = []
    original = getattr(cli, tokens)

    def counting(column):
        lengths.append(len(column))
        return original(column)

    monkeypatch.setattr(cli, tokens, counting)
    args = cli.build_parser().parse_args(["sweep", *argv, "--grid", "2001", "--format", fmt])
    payload = cli.cmd_sweep(args)
    with contextlib.redirect_stdout(io.StringIO()):
        cli.emit(payload, args)
    # each distinct list once, and each held column, the CSV's gamma and seed
    # echo too, from its one cell
    assert lengths.count(2001) == lists
    assert lengths.count(1) == held + 2 * (fmt == "csv")
    assert len(lengths) == lists + held + 2 * (fmt == "csv")


def test_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, circuits", [
    (["classes", "--x", "0.3"], 10),
    (["sweep", "x", "--grid", "2001", "--gamma", "0.7"], 2),
    (["play", "HIX", "--x", "0.3"], 1),
])
def test_one_circuit_per_profile_and_no_density_matrix(monkeypatch, tmp_path, argv, circuits):
    counts = {"circuit_unitary": 0, "validate_density_matrix": 0}
    for module, name in ((game, "circuit_unitary"), (linalg, "validate_density_matrix")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == 0
    # both outcome rows of a profile come from one circuit, and no 8x8 input is checked
    assert counts == {"circuit_unitary": circuits, "validate_density_matrix": 0}
