"""Structural guards on the hot paths, counted by monkeypatching rather than timed."""

import contextlib
import io
import json
import subprocess
import sys
import threading
from pathlib import Path

import numpy as np
import pytest

from qdilemma import analysis, cli, game, linalg, tomography
from qdilemma.game import PayoffTable, evolve, parse_profile
from qdilemma.noise import ancilla_prepare, corrupted_input

from helpers import count_full_checks, subprocess_env, tomography_request

#: The maximally mixed state plus 0.45e-12j · I⊗I⊗X, a raw state that passes the check.
NEAR_HERMITIAN_MATRIX = Path(__file__).with_name("data") / "matrix_near_hermitian.txt"


def in_a_new_thread(target):
    """Run ``target`` in a thread of its own, whose first estimate builds its generator."""
    thread = threading.Thread(target=target)
    thread.start()
    thread.join()


def test_no_bit_generator_built_per_estimate_after_a_threads_first(monkeypatch):
    rho = evolve(parse_profile("HIX"))
    built = {"Philox": [], "Generator": []}
    after_each = {name: [] for name in built}
    for name in built:
        def counting(*args, _built=built[name], _original=getattr(np.random, name), **kwargs):
            _built.append(1)
            return _original(*args, **kwargs)

        monkeypatch.setattr(np.random, name, counting)

    def estimates():
        for seed in (7, 8, 7):
            tomography.estimate_expectations(rho, 8192, seed)
            for name in built:
                after_each[name].append(len(built[name]))

    in_a_new_thread(estimates)
    # the first estimate builds the thread's Philox and its Generator, and later ones re-key it
    assert after_each == {"Philox": [1, 1, 1], "Generator": [1, 1, 1]}


def test_one_binomial_call_per_estimate(monkeypatch):
    draws = []

    class Counting(np.random.Generator):
        def binomial(self, *args, **kwargs):
            draws.append(1)
            return super().binomial(*args, **kwargs)

    monkeypatch.setattr(np.random, "Generator", Counting)
    # in a new thread, whose Generator is built from the patched class
    in_a_new_thread(lambda: tomography.estimate_expectations(evolve(parse_profile("HIX")), 8192, 7))
    # all 63 strings in one vectorised draw, not one call per string
    assert len(draws) == 1


def count_eigensolvers(monkeypatch, names=("eigh", "eigvalsh")):
    """Collect, in the returned list, the shape of each matrix handed to one of the ``np.linalg`` ``names``."""
    shapes = []
    for name in names:
        def counting(a, *args, _original=getattr(np.linalg, name), **kwargs):
            shapes.append(np.shape(a))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    return shapes


@pytest.mark.parametrize("call, takes", [
    (lambda rho: tomography.estimate_expectations(rho, 8192, 7), 1),
    (tomography.expectations, 1),
    (lambda rho: tomography.fidelity(rho, rho), 2),
    (tomography.project_to_physical, 1),
    (lambda rho: evolve(parse_profile("HIX"), rho, 0.7), 1),
], ids=["estimate_expectations", "expectations", "fidelity", "project_to_physical", "evolve"])
@pytest.mark.parametrize("made", [False, True], ids=["plain", "made"])
def test_each_state_checked_once_per_public_call(monkeypatch, call, takes, made):
    # the corrupted source's state, the one input every one of these takes: as
    # the package made it, or as a caller's plain copy of it
    rho = corrupted_input(0.3) if made else np.array(corrupted_input(0.3))
    checked = count_full_checks(monkeypatch)
    call(rho)
    # a caller's array is checked once for each argument it is, and a state the
    # package made not at all; no array else is checked, for the states these
    # functions make, evolve's included, are valid by construction
    assert sum(state is rho for state in checked) == (0 if made else takes)
    assert len(checked) == (0 if made else takes)


@pytest.mark.parametrize("argv, checks, eighs, eigvalshs", [
    (["tomo", "forward", "class7_appendix"], 1, 0, 0),
    (["tomo", "forward", str(NEAR_HERMITIAN_MATRIX)], 1, 0, 0),
    (["tomo", "fidelity", "class7_appendix", "101"], 1, 0, 0),
    (["tomo", "fidelity", "XIX", "101"], 0, 0, 0),
    (["tomo", "fidelity", str(NEAR_HERMITIAN_MATRIX), str(NEAR_HERMITIAN_MATRIX)], 2, 1, 1),
    (["tomo", "estimate", "XIX"], 0, 0, 0),
    (["tomo", "estimate", str(NEAR_HERMITIAN_MATRIX)], 1, 1, 0),
], ids=["forward-bundled", "forward-file", "fidelity-bundled", "fidelity-profile", "fidelity-files",
        "estimate-profile", "estimate-file"])
def test_cli_checks_each_state_once(monkeypatch, tmp_path, argv, checks, eighs, eigvalshs):
    checked = count_full_checks(monkeypatch)
    eigh = count_eigensolvers(monkeypatch, ["eigh"])
    eigvalsh = count_eigensolvers(monkeypatch, ["eigvalsh"])
    assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == 0
    # a bundled or file state is checked by the CLI, to name its role and token,
    # and not again by the function that reads it; a profile's state is not
    # checked at all: evolve makes it, valid by construction, from the recorded
    # source, and a basis target is recorded as it is made
    assert len(checked) == checks
    # a physical role's check is one eigh, whose eigenpairs it records for fidelity
    # to read; the rank-8 target's block goes through eigvalsh
    assert (eigh, eigvalsh) == ([(8, 8)] * eighs, [(8, 8)] * eigvalshs)


@pytest.mark.parametrize("state, checks", [
    (("HIX", 0.3, 0.7), 1),
    ("class7_appendix", 3),
], ids=["game", "raw"])
def test_a_tomography_request_checks_each_state_once(monkeypatch, state, checks):
    if state == "class7_appendix":
        state = tomography.load_reference_state(state)
    checked = count_full_checks(monkeypatch)
    shapes = count_eigensolvers(monkeypatch)
    tomography_request(state)
    # a game request checks only the raw reconstruction that project_to_physical
    # takes, for evolve's output is valid by construction; a raw request checks the
    # caller's state and the reconstruction, once for each public function that
    # takes it from the caller
    assert len(checked) == checks
    # the repair's eigendecomposition alone: fidelity reads its target's recorded eigenpairs
    assert shapes == [(8, 8)]


def test_estimate_of_an_evolved_state_runs_no_eigensolver(monkeypatch):
    rho = evolve(parse_profile("HIX"), corrupted_input(0.3), 0.7)
    shapes = count_eigensolvers(monkeypatch)
    # evolve recorded its state as physical, so the estimator's physical check is not redone
    tomography.estimate_expectations(rho, 8192, 7)
    assert shapes == []


def test_fidelity_reads_a_made_targets_eigenpairs_and_decomposes_a_plain_one(monkeypatch):
    # a raw reconstruction, as in repeated tomography
    state = tomography.reconstruct(tomography.estimate_expectations(
        evolve(parse_profile("HIX"), corrupted_input(0.3)), 8192, 7))
    shapes = count_eigensolvers(monkeypatch)
    # a rank-2 game target and a basis target: the block on the target's
    # support, of size its rank, is taken in closed form, and the target's
    # eigenpairs are the ones its maker recorded, or, for a caller's plain
    # copy, one 8x8 eigendecomposition
    for made in (evolve(parse_profile("XIX"), corrupted_input(0.3)), linalg.basis_density("101")):
        for target, decompositions in ((made, []), (np.array(made), [(8, 8)])):
            shapes.clear()
            tomography.fidelity(state, target)
            assert shapes == decompositions


def test_fidelity_reads_a_repaired_targets_eigenpairs(monkeypatch):
    raw = tomography.reconstruct(tomography.estimate_expectations(
        evolve(parse_profile("HIX"), corrupted_input(0.3)), 8192, 7))
    target = tomography.project_to_physical(raw)
    eigh = count_eigensolvers(monkeypatch, ["eigh"])
    # the repair recorded the pairs it formed its state from; a plain copy is decomposed
    tomography.fidelity(raw, target)
    assert eigh == []
    tomography.fidelity(raw, np.array(target))
    assert eigh == [(8, 8)]


def test_evolve_runs_no_eigensolver(monkeypatch):
    shapes = count_eigensolvers(monkeypatch)
    # the input's spectrum is its two weights and six zeros, so none is computed
    for rho in (None, corrupted_input(0.3), ancilla_prepare(0.3)):
        evolve(parse_profile("HIX"), rho, 0.7)
    assert shapes == []


def run_counting_kron(script):
    """Run ``script`` in a fresh interpreter whose ``np.kron`` appends the
    dimensions of its two factors to ``dims``, so that the module-level
    tables are built under the count; return what the script prints."""
    head = (
        "import numpy as np\n"
        "dims = []\n"
        "kron = np.kron\n"
        "np.kron = lambda a, b: dims.append((np.ndim(a), np.ndim(b))) or kron(a, b)\n"
    )
    proc = subprocess.run([sys.executable, "-c", head + script], capture_output=True,
                          text=True, env=subprocess_env(), check=True)
    return proc.stdout


def test_import_builds_both_tables_in_four_stacked_kron_calls():
    # two calls per table, the strategy products and the Pauli strings, each on stacks
    assert run_counting_kron("import qdilemma.cli\nprint(dims)\n") == f"{[(3, 3)] * 4}\n"


def test_no_kron_on_a_circuits_first_use():
    # game's own kron3 is counted too, in case a product is formed without np.kron
    script = (
        "from itertools import product\n"
        "from qdilemma import game\n"
        "from qdilemma.noise import corrupted_input\n"
        "dims.clear()\n"
        "kron3 = game.kron3\n"
        "game.kron3 = lambda *a: dims.append('kron3') or kron3(*a)\n"
        "for profile in product('IHX', repeat=3):\n"
        "    for gamma in (0.0, 0.7, np.pi / 2):\n"
        "        game.outcomes(profile, gamma)\n"
        "        game.amplitudes(profile, gamma)\n"
        "        game.evolve(profile, corrupted_input(0.3), gamma)\n"
        "print(dims)\n"
    )
    # each profile's product is read from the table built at import, first use included
    assert run_counting_kron(script) == "[]\n"


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


@pytest.mark.parametrize("output", [False, True], ids=["stdout", "output"])
@pytest.mark.parametrize("fmt", ["json", "csv"])
def test_sweep_document_is_one_join_written_as_it_is(monkeypatch, tmp_path, fmt, output):
    joined, written = [], []
    joined_rows, write_atomic = cli._joined_rows, cli._write_atomic

    def counting(*args, **kwargs):
        joined.append(joined_rows(*args, **kwargs))
        return joined[-1]

    def recording(path, text):
        written.append(text)
        write_atomic(path, text)

    class Stdout:
        def write(self, text):
            written.append(text)

    monkeypatch.setattr(cli, "_joined_rows", counting)
    monkeypatch.setattr(cli, "_write_atomic", recording)
    monkeypatch.setattr(sys, "stdout", Stdout())
    path = tmp_path / f"out.{fmt}"
    argv = ["sweep", "x", "--grid", "2001", "--format", fmt] + ["--output", str(path)] * output
    args = cli.build_parser().parse_args(argv)
    cli.emit(cli.cmd_sweep(args), args)
    # the whole document is the one string the row writer returned, written as it is
    assert len(joined) == 1 and len(written) == 1
    assert written[0] is joined[0]
    text = path.read_text(encoding="utf-8") if output else written[0]
    if fmt == "json":
        assert len(json.loads(text)["results"]) == 2001
    else:
        assert text.count("\n") == 2002


def test_one_parser_per_process():
    assert cli.build_parser() is cli.build_parser()


@pytest.mark.parametrize("argv, circuits", [
    (["classes", "--x", "0.3"], 10),
    (["sweep", "x", "--grid", "2001", "--gamma", "0.7"], 2),
    (["play", "HIX", "--x", "0.3"], 1),
])
def test_one_circuit_per_profile_and_no_density_matrix(monkeypatch, tmp_path, argv, circuits):
    counts = {"amplitudes": 0, "validate_density_matrix": 0}
    for module, name in ((game, "amplitudes"), (linalg, "validate_density_matrix")):
        original = getattr(module, name)

        def counting(*args, _name=name, _original=original, **kwargs):
            counts[_name] += 1
            return _original(*args, **kwargs)

        monkeypatch.setattr(module, name, counting)
    assert cli.main([*argv, "--output", str(tmp_path / "out.json")]) == 0
    # both outcome rows of a profile come from one circuit's two columns, and no 8x8 input is checked
    assert counts == {"amplitudes": circuits, "validate_density_matrix": 0}
