"""Command-line front end.

Subcommands: ``play`` a single profile, tabulate ``classes``, ``sweep`` a
parameter, query the ``xc`` crossing point, and run ``tomo`` tasks.  Results
are emitted as JSON (full precision) or CSV (12 significant digits), to
stdout or atomically to ``--output``.
"""

from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import os
import re
import stat
import sys
import tempfile
from itertools import repeat
from operator import is_

import numpy as np

from . import analysis, game, linalg, noise, tomography
from .game import PayoffTable

_PROFILE_RE = re.compile(r"[IHXihx]{3}")
_BITS_RE = re.compile(r"[01]{3}")

#: Most points a sweep may have (a 2001-point JSON sweep is about 760 KB).
MAX_GRID = 100_000


class _Parser(argparse.ArgumentParser):
    """A parser whose errors leave through ``main``'s one ``error:`` line
    instead of a usage block; its subparsers are of this class too."""

    def error(self, message):
        raise ValueError(message.removeprefix("argument "))


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--p", type=float, default=1.0, help="lone-player payoff (default 1)")
    common.add_argument("--q", type=float, default=2.0, help="all-go payoff (default 2)")
    common.add_argument("--n", type=float, default=9.0, help="win/loss magnitude (default 9)")
    common.add_argument("--x", type=float, default=0.0, help="source corruption in [0,1] (default 0)")
    common.add_argument("--gamma", type=float, default=math.pi / 2,
                        help="entanglement strength in [0, pi/2] (default pi/2)")
    common.add_argument("--shots", type=int, default=8192, help="shots for estimation (default 8192)")
    common.add_argument("--seed", type=int, default=0, help="sampling seed (default 0)")
    common.add_argument("--grid", type=int, default=101, help="sweep grid points (default 101)")
    common.add_argument("--format", choices=("json", "csv"), default="json", dest="fmt",
                        help="output format (default json)")
    common.add_argument("--output", default=None, metavar="PATH",
                        help="write to PATH (atomically) instead of stdout")

    parser = _Parser(
        prog="qdilemma",
        description="Noisy three-player quantum dilemma game: simulation and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_play = sub.add_parser("play", parents=[common], help="play one strategy profile")
    p_play.add_argument("profile", help="three letters from I/H/X, e.g. XIX (player 1 first)")

    p_classes = sub.add_parser("classes", parents=[common], help="tabulate the ten strategy classes")

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep x, n, or q")
    p_sweep.add_argument("swept", choices=analysis.SWEEPABLE)
    p_sweep.add_argument("--from", dest="start", type=float, default=None,
                         help="range start (default 0 for x)")
    p_sweep.add_argument("--to", dest="stop", type=float, default=None,
                         help="range end (default 1 for x)")

    p_xc = sub.add_parser("xc", parents=[common], help="critical corruption and dominance verdict")

    p_tomo = sub.add_parser("tomo", parents=[common], help="tomography tasks")
    p_tomo.add_argument("task", choices=("forward", "reconstruct", "fidelity", "estimate"))
    p_tomo.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="profile (XIX), bundled state name, or file path; "
                             "fidelity takes STATE TARGET, with TARGET also accepting bits like 101")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        _check_shared(args)
        # looked up per call, so that a wrapped ``cmd_*`` is the one that runs
        payload = globals()[f"cmd_{args.command}"](args)
        emit(payload, args)
    except OSError as exc:
        # args[0] of an OSError is its errno; the path and the OS message say what failed
        message = f"{exc.filename}: {exc.strerror}" if exc.filename else exc
    except (ValueError, KeyError) as exc:
        message = exc.args[0] if exc.args else exc
    else:
        return 0
    print(f"error: {message}", file=sys.stderr)
    return 2


def _check_shared(args):
    """Reject an out-of-range shared flag whatever the command."""
    for flag, check, value in (("--gamma", game._check_gamma, args.gamma),
                               ("--x", game.check_corruption, args.x),
                               ("--p/--q/--n", _table, args)):
        try:
            check(value)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None
    # the binomial draw of ``tomo estimate`` takes the shot count as a C long
    for flag, value, high, shown in (("--grid", args.grid, MAX_GRID, MAX_GRID),
                                     ("--shots", args.shots, 2**63 - 1, "2**63 - 1")):
        if not 1 <= value <= high:
            raise ValueError(f"{flag}: must be an integer in [1, {shown}], got {value}")


#: The parameter echo that leads every JSON document, in order.
_PARAMS = ("command", "p", "q", "n", "x", "gamma", "shots", "seed", "grid")

#: Parameter columns that lead every CSV row, unless the table already has them.
_ECHO_COLUMNS = ("p", "q", "n", "x", "gamma", "seed")


def _payload(args, columns, results=None, **extra) -> dict:
    """The one record form.

    ``columns`` is a column table: a dict of equal-length lists of scalars, one
    entry per row.  CSV is derived from it, with the ``params`` echo as leading
    columns.  JSON prints ``params`` and ``results``; without ``results``, the
    table's records (one dict per row) are the results.
    """
    params = {key: getattr(args, key) for key in _PARAMS}
    params.update(extra)
    payload = {"params": params, "columns": columns}
    if results is not None:
        payload["results"] = results
    return payload


def _row_table(row: dict) -> dict:
    """The column table of one row."""
    return {key: [value] for key, value in row.items()}


def _table(args) -> PayoffTable:
    return PayoffTable(args.p, args.q, args.n)


def cmd_play(args) -> dict:
    probs = game.play(game.parse_profile(args.profile), args.x, args.gamma)
    pay = game.payoff(probs, _table(args))
    name = args.profile.upper()
    results = {
        "profile": name,
        "probabilities": dict(zip(game.OUTCOMES, probs)),
        "payoffs": {
            "player1": pay.player1,
            "player2": pay.player2,
            "player3": pay.player3,
            "mean": pay.mean,
        },
    }
    row = {"profile": name}
    row.update((f"prob_{outcome}", prob) for outcome, prob in zip(game.OUTCOMES, probs))
    row.update(payoff1=pay.player1, payoff2=pay.player2, payoff3=pay.player3, mean=pay.mean)
    return _payload(args, _row_table(row), results, profile=name)


def cmd_classes(args) -> dict:
    table = _table(args)
    multisets = analysis.CLASS_MULTISETS.values()
    return _payload(args, {
        "label": list(analysis.CLASS_MULTISETS),
        "multiset": ["".join(multiset) for multiset in multisets],
        "size": [analysis.class_size(multiset) for multiset in multisets],
        "mean_payoff": [analysis.simulated_class_mean(multiset, table, args.x, args.gamma)
                        for multiset in multisets],
    })


def cmd_sweep(args) -> dict:
    start, stop = args.start, args.stop
    if args.swept == "x":
        start = 0.0 if start is None else start
        stop = 1.0 if stop is None else stop
    if start is None or stop is None:
        raise ValueError(f"sweeping {args.swept} requires --from and --to")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep range [{start}, {stop}] must be finite")
    if stop < start:
        raise ValueError(f"inverted sweep range [{start}, {stop}]")
    grid = np.linspace(start, stop, args.grid)
    columns = analysis.sweep(_table(args), args.swept, grid, x=args.x, gamma=args.gamma)
    return _payload(args, columns, swept=args.swept, start=start, stop=stop)


def cmd_xc(args) -> dict:
    table = _table(args)
    x_c = analysis.critical_corruption(table)
    report = analysis.dominance(table, args.x)
    results = {"x_c": x_c, "no_advantage": x_c is None, "report": report}
    row = {"x_c": x_c, "no_advantage": x_c is None, "quantum_ne_mean": report["quantum_ne_mean"],
           "classical_ne_mean": report["classical_ne_mean"], "dominant": report["dominant"]}
    return _payload(args, _row_table(row), results)


def _resolve_state(token: str, args, role: str = "STATE", raw: bool = True) -> np.ndarray:
    """A state argument: strategy profile, bundled reference name, or file path,
    and for a TARGET also a basis bit string.  A bundled or file state that is
    not a raw state, or unless ``raw`` a physical one, is named by role and token."""
    if role == "TARGET" and _BITS_RE.fullmatch(token):
        return linalg.basis_density(token)
    if _PROFILE_RE.fullmatch(token):
        profile = game.parse_profile(token)
        return game.evolve(profile, noise.corrupted_input(args.x), args.gamma)
    if token in tomography.REFERENCE_STATES:
        rho = tomography.load_reference_state(token)
    elif os.path.exists(token):
        rho = tomography.read_density_matrix(token)
    else:
        raise ValueError(
            f"cannot resolve state {token!r}: not a profile, bundled reference state, or file"
        )
    try:
        return linalg.validate_density_matrix(rho, raw)
    except ValueError as exc:
        raise ValueError(f"{role} {token}: {exc}") from None


def _tensor_payload(args, t: np.ndarray, token: str) -> dict:
    columns = dict(zip(("i1", "i2", "i3"), np.indices(t.shape).reshape(3, -1).tolist()))
    columns["value"] = t.ravel().tolist()
    return _payload(args, columns, {"tensor": t.tolist()}, state=token)


def cmd_tomo(args) -> dict:
    task = args.task
    if task == "fidelity":
        if len(args.inputs) != 2:
            raise ValueError("tomo fidelity takes exactly two inputs: STATE TARGET")
        state = _resolve_state(args.inputs[0], args)
        target = _resolve_state(args.inputs[1], args, "TARGET", raw=False)
        results = {"fidelity": tomography.fidelity(state, target)}
        return _payload(args, _row_table(results), results, state=args.inputs[0],
                        target=args.inputs[1])
    if len(args.inputs) != 1:
        raise ValueError(f"tomo {task} takes exactly one input")
    token = args.inputs[0]
    if task == "forward":
        t = tomography.expectations(_resolve_state(token, args))
        return _tensor_payload(args, t, token)
    if task == "estimate":
        state = _resolve_state(token, args, raw=False)
        t = tomography.estimate_expectations(state, args.shots, args.seed)
        return _tensor_payload(args, t, token)
    # reconstruct: token is a JSON file from a previous forward/estimate run
    with open(token, encoding="utf-8") as fh:
        try:
            doc = json.load(fh)
        except ValueError as exc:
            raise ValueError(f"{token}: not a JSON file: {exc}") from None
    try:
        tensor = np.array(doc["results"]["tensor"], dtype=float)
    except (KeyError, TypeError, ValueError):
        raise ValueError(f"{token}: does not contain a results.tensor block") from None
    rho = tomography.reconstruct(tensor)
    columns = dict(zip(("row", "col"), np.indices(rho.shape).reshape(2, -1).tolist()))
    columns.update(re=rho.real.ravel().tolist(), im=rho.imag.ravel().tolist())
    results = {"real": rho.real.tolist(), "imag": rho.imag.tolist()}
    return _payload(args, columns, results, tensor_file=token)


#: The ``repr`` and ``.12g`` text of the non-finite floats.
_NON_FINITE = frozenset(("nan", "inf", "-inf"))

#: Characters for which ``csv.writer`` may quote a field.
_CSV_SPECIAL = re.compile(r'[,"\r\n]')


def _csv_field(text: str) -> str:
    """``text`` as ``csv.writer`` writes a field: quoted where it needs to be."""
    if not _CSV_SPECIAL.search(text):
        return text
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerow([text])
    return buf.getvalue()[:-1]


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return format(value, ".12g")
    return _csv_field(str(value))


def _csv_tokens(column: list) -> list:
    """CSV fields of a column: ``.12g`` for floats, ``_csv_cell`` for the rest."""
    try:
        tokens = list(map(float.__format__, column, repeat(".12g")))
    except TypeError:  # a cell that is not a float
        return list(map(_csv_cell, column))
    if not _NON_FINITE.isdisjoint(tokens):
        raise ValueError("non-finite value")
    return tokens


#: The C encoder of a list of scalars, one item per line.
_ENCODE_CELLS = json.JSONEncoder(allow_nan=False, separators=(",\n", ": ")).encode


def _json_tokens(column: list) -> list:
    """JSON text of each cell of a column of scalars: ``float.__repr__`` for
    floats, as the C encoder writes them, and for the rest one C-encoder call,
    split on its item separator (no scalar's JSON text holds a newline)."""
    try:
        tokens = list(map(float.__repr__, column))
    except TypeError:  # a cell that is not a float
        return _ENCODE_CELLS(column)[1:-1].split(",\n")
    if not _NON_FINITE.isdisjoint(tokens):
        raise ValueError("non-finite value")
    return tokens


def _row_texts(columns: dict, labels, tokens, opening: str = "", closing: str = "") -> list:
    """JSON records or CSV rows: ``opening``, each column's label and cell joined
    by commas, and ``closing``, filled into one ``%`` template per row.  A
    column that repeats one object (by identity: ``0.0 == -0.0``, and a NaN
    must still reach ``tokens`` to be refused) is formatted once, into the
    template; every other column once per distinct list object."""
    m = len(next(iter(columns.values())))
    if not m:
        return []
    cells, varying, memo = [], [], {}
    for label, column in zip(labels, columns.values()):
        if id(column) not in memo:
            first = column[0]
            memo[id(column)] = (tokens([first])[0].replace("%", "%%")
                                if all(map(is_, column, repeat(first))) else tokens(column))
        cell = memo[id(column)]
        if isinstance(cell, list):
            varying.append(cell)
            cell = "%s"
        cells.append(label.replace("%", "%%") + cell)
    template = opening + ",".join(cells) + closing
    return [template % row for row in zip(*varying)] if varying else [template % ()] * m


def _csv_text(echo: dict, columns: dict) -> str:
    """CSV of a column table, led by the ``echo`` parameters as constant columns."""
    m = len(next(iter(columns.values())))
    table = {key: [value] * m for key, value in echo.items()}
    table.update(columns)
    return "".join([",".join(map(_csv_field, table)) + "\n",
                    *_row_texts(table, repeat(""), _csv_tokens, closing="\n")])


def _records_text(columns: dict, depth: int) -> str:
    """``json.dumps(..., indent=2)`` of the records (one dict per row) of a
    column table, at ``depth``."""
    pad = "\n" + "  " * (depth + 1)
    labels = [f"{pad}  {json.dumps(key)}: " for key in columns]
    records = _row_texts(columns, labels, _json_tokens, "{", pad + "}")
    return f"[{pad}{(',' + pad).join(records)}\n{'  ' * depth}]" if records else "[]"


def _nested_text(node) -> str:
    """``json.dumps(node, indent=2, allow_nan=False)`` at depth 1: JSON text
    holds no raw newline but those of its indentation."""
    return json.dumps(node, indent=2, allow_nan=False).replace("\n", "\n  ")


def _first_non_finite(node, path=""):
    """Key path and value of the first non-finite float in a JSON tree, or None."""
    if isinstance(node, float):
        return None if math.isfinite(node) else (path, node)
    if isinstance(node, dict):
        children = ((f"{path}.{key}" if path else key, value) for key, value in node.items())
    elif isinstance(node, (list, tuple)):
        children = ((f"{path}[{k}]", value) for k, value in enumerate(node))
    else:
        return None
    for child_path, value in children:
        found = _first_non_finite(value, child_path)
        if found:
            return found
    return None


def emit(payload: dict, args):
    """Write the payload as JSON or CSV; a non-finite number raises instead."""
    params, columns = payload["params"], payload["columns"]
    try:
        if args.fmt == "json":
            results = (_nested_text(payload["results"]) if "results" in payload
                       else _records_text(columns, 1))
            # an f-string copies the records once, a chain of + once per operator
            text = f'{{\n  "params": {_nested_text(params)},\n  "results": {results}\n}}\n'
        else:
            echo = {c: params[c] for c in _ECHO_COLUMNS if c not in columns}
            text = _csv_text(echo, columns)
    except ValueError:
        # walk the document only on failure: sweeps emit thousands of records
        rows = [dict(zip(columns, row)) for row in zip(*columns.values())]
        if args.fmt == "json":
            doc = {"params": params, "results": payload.get("results", rows)}
        else:
            doc = {"params": echo, "rows": rows}
        found = _first_non_finite(doc)
        if found is None:
            raise
        path, value = found
        raise ValueError(f"result holds the non-finite value {float(value)!r} at {path}") from None
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _write_atomic(path: str, text: str):
    """Write ``text`` to ``path``; a regular file is replaced whole, by renaming
    a finished temporary file over it.

    A symlink is followed: its target is replaced and the link stays.  An
    existing path that is not a regular file, such as a FIFO, is written in
    place.  A new file gets mode ``0o666 & ~umask``; a regular file keeps its
    mode.
    """
    target = os.path.realpath(path)
    try:
        try:
            existing = os.stat(target).st_mode
        except FileNotFoundError:
            # a new file is a regular file of the default mode
            umask = os.umask(0)
            os.umask(umask)
            existing = stat.S_IFREG | (0o666 & ~umask)
        if not stat.S_ISREG(existing):
            with open(target, "w", encoding="utf-8") as fh:
                fh.write(text)
            return
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".qdilemma-")
        try:
            with os.fdopen(fd, "w", encoding="utf-8") as fh:
                os.fchmod(fh.fileno(), stat.S_IMODE(existing))
                fh.write(text)
            os.replace(tmp, target)
        except BaseException:
            os.unlink(tmp)
            raise
    except OSError as exc:
        # name the requested path, not the temporary file
        raise OSError(exc.errno, exc.strerror, path) from None


if __name__ == "__main__":
    sys.exit(main())
