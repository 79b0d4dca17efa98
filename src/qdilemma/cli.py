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
import sys
import tempfile
from dataclasses import asdict
from json.encoder import encode_basestring_ascii

import numpy as np

from . import analysis, game, linalg, noise, tomography
from .game import PayoffTable

_PROFILE_RE = re.compile(r"[IHXihx]{3}")
_BITS_RE = re.compile(r"[01]{3}")


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

    parser = argparse.ArgumentParser(
        prog="qdilemma",
        description="Noisy three-player quantum dilemma game: simulation and analysis.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_play = sub.add_parser("play", parents=[common], help="play one strategy profile")
    p_play.add_argument("profile", help="three letters from I/H/X, e.g. XIX (player 1 first)")
    p_play.set_defaults(handler=cmd_play)

    p_classes = sub.add_parser("classes", parents=[common], help="tabulate the ten strategy classes")
    p_classes.set_defaults(handler=cmd_classes)

    p_sweep = sub.add_parser("sweep", parents=[common], help="sweep x, n, or q")
    p_sweep.add_argument("swept", choices=analysis.SWEEPABLE)
    p_sweep.add_argument("--from", dest="start", type=float, default=None,
                         help="range start (default 0 for x)")
    p_sweep.add_argument("--to", dest="stop", type=float, default=None,
                         help="range end (default 1 for x)")
    p_sweep.set_defaults(handler=cmd_sweep)

    p_xc = sub.add_parser("xc", parents=[common], help="critical corruption and dominance verdict")
    p_xc.set_defaults(handler=cmd_xc)

    p_tomo = sub.add_parser("tomo", parents=[common], help="tomography tasks")
    p_tomo.add_argument("task", choices=("forward", "reconstruct", "fidelity", "estimate"))
    p_tomo.add_argument("inputs", nargs="+", metavar="INPUT",
                        help="profile (XIX), bundled state name, or file path; "
                             "fidelity takes STATE TARGET, with TARGET also accepting bits like 101")
    p_tomo.set_defaults(handler=cmd_tomo)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        _check_shared(args)
        payload = args.handler(args)
        emit(payload, args)
    except (ValueError, KeyError, OSError) as exc:
        message = exc.args[0] if exc.args else exc
        print(f"error: {message}", file=sys.stderr)
        return 2
    return 0


def _check_shared(args):
    """Reject an out-of-range ``--gamma`` or ``--x`` whatever the command."""
    for flag, check, value in (("--gamma", game._check_gamma, args.gamma),
                               ("--x", noise.check_corruption, args.x)):
        try:
            check(value)
        except ValueError as exc:
            raise ValueError(f"{flag}: {exc}") from None


#: Parameter columns that lead every CSV row, unless the row already carries them.
_ECHO_COLUMNS = ("p", "q", "n", "x", "gamma", "seed")


def _payload(args, results, rows, **extra) -> dict:
    """The one record form: JSON prints ``params`` and ``results``, CSV is derived
    from ``rows`` (flat dicts) with the ``params`` echo as leading columns."""
    params = {
        "command": args.command,
        "p": args.p,
        "q": args.q,
        "n": args.n,
        "x": args.x,
        "gamma": args.gamma,
        "shots": args.shots,
        "seed": args.seed,
        "grid": args.grid,
    }
    params.update(extra)
    return {"params": params, "results": results, "rows": rows}


def _table(args) -> PayoffTable:
    return PayoffTable(args.p, args.q, args.n)


def cmd_play(args) -> dict:
    profile = game.parse_profile(args.profile)
    table = _table(args)
    probs = game.play(profile, noise.corrupted_input(args.x), args.gamma)
    pay = game.payoff(probs, table)
    name = args.profile.upper()
    results = {
        "profile": name,
        "probabilities": {outcome: probs[k] for k, outcome in enumerate(game.OUTCOMES)},
        "payoffs": {
            "player1": pay.player1,
            "player2": pay.player2,
            "player3": pay.player3,
            "mean": pay.mean,
        },
    }
    row = {"profile": name}
    row.update((f"prob_{outcome}", probs[k]) for k, outcome in enumerate(game.OUTCOMES))
    row.update(payoff1=pay.player1, payoff2=pay.player2, payoff3=pay.player3, mean=pay.mean)
    return _payload(args, results, [row], profile=name)


def cmd_classes(args) -> dict:
    table = _table(args)
    rows = [
        {
            "label": cls.label,
            "multiset": "".join(cls.multiset),
            "size": cls.size,
            "mean_payoff": analysis.simulated_class_mean(cls.multiset, table, args.x, args.gamma),
        }
        for cls in analysis.enumerate_classes()
    ]
    return _payload(args, rows, rows)


def cmd_sweep(args) -> dict:
    start, stop = args.start, args.stop
    if args.swept == "x":
        start = 0.0 if start is None else start
        stop = 1.0 if stop is None else stop
    if start is None or stop is None:
        raise ValueError(f"sweeping {args.swept} requires --from and --to")
    if not (math.isfinite(start) and math.isfinite(stop)):
        raise ValueError(f"sweep range [{start}, {stop}] must be finite")
    if args.grid < 1:
        raise ValueError("empty sweep range: --grid must be at least 1")
    if stop < start:
        raise ValueError(f"inverted sweep range [{start}, {stop}]")
    grid = np.linspace(start, stop, args.grid)
    rows = analysis.sweep(_table(args), args.swept, grid, x=args.x, gamma=args.gamma)
    return _payload(args, rows, rows, swept=args.swept, start=start, stop=stop)


def cmd_xc(args) -> dict:
    table = _table(args)
    x_c = analysis.critical_corruption(table)
    report = analysis.dominance(table, args.x)
    results = {
        "x_c": x_c,
        "no_advantage": x_c is None,
        "report": asdict(report),
    }
    row = {"x_c": x_c, "no_advantage": x_c is None, "quantum_ne_mean": report.quantum_ne_mean,
           "classical_ne_mean": report.classical_ne_mean, "dominant": report.dominant}
    return _payload(args, results, [row])


def _resolve_state(token: str, args) -> np.ndarray:
    """A state argument: strategy profile, bundled reference name, or file path."""
    if _PROFILE_RE.fullmatch(token):
        profile = game.parse_profile(token)
        return game.evolve(profile, noise.corrupted_input(args.x), args.gamma)
    if token in tomography.REFERENCE_STATES:
        return tomography.load_reference_state(token)
    if os.path.exists(token):
        return tomography.read_density_matrix(token)
    raise ValueError(
        f"cannot resolve state {token!r}: not a profile, bundled reference state, or file"
    )


def _resolve_target(token: str, args) -> np.ndarray:
    if _BITS_RE.fullmatch(token):
        return linalg.basis_density(token)
    return _resolve_state(token, args)


def _tensor_payload(args, t: np.ndarray, token: str) -> dict:
    rows = [{"i1": i, "i2": j, "i3": k, "value": t[i, j, k]}
            for i in range(4) for j in range(4) for k in range(4)]
    return _payload(args, {"tensor": t.tolist()}, rows, state=token)


def cmd_tomo(args) -> dict:
    task = args.task
    if task == "fidelity":
        if len(args.inputs) != 2:
            raise ValueError("tomo fidelity takes exactly two inputs: STATE TARGET")
        state = _resolve_state(args.inputs[0], args)
        target = _resolve_target(args.inputs[1], args)
        results = {"fidelity": tomography.fidelity(state, target)}
        return _payload(args, results, [results], state=args.inputs[0], target=args.inputs[1])
    if len(args.inputs) != 1:
        raise ValueError(f"tomo {task} takes exactly one input")
    token = args.inputs[0]
    if task == "forward":
        t = tomography.expectations(_resolve_state(token, args))
        return _tensor_payload(args, t, token)
    if task == "estimate":
        t = tomography.estimate_expectations(_resolve_state(token, args), args.shots, args.seed)
        return _tensor_payload(args, t, token)
    # reconstruct: token is a JSON file from a previous forward/estimate run
    with open(token, encoding="utf-8") as fh:
        doc = json.load(fh)
    try:
        tensor = np.array(doc["results"]["tensor"], dtype=float)
    except (KeyError, TypeError):
        raise ValueError(f"{token!r} does not contain a results.tensor block") from None
    rho = tomography.reconstruct(tensor)
    rows = [{"row": i, "col": j, "re": rho[i, j].real, "im": rho[i, j].imag}
            for i in range(8) for j in range(8)]
    results = {"real": rho.real.tolist(), "imag": rho.imag.tolist()}
    return _payload(args, results, rows, tensor_file=token)


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, bool):
        return str(value).lower()
    if isinstance(value, float):
        if not math.isfinite(value):
            raise ValueError(f"non-finite value {value!r}")
        return format(value, ".12g")
    return str(value)


def _csv_text(doc: dict) -> str:
    """CSV of ``doc["rows"]``, led by the ``doc["params"]`` echo columns."""
    rows = doc["rows"]
    lead = [_csv_cell(v) for v in doc["params"].values()]
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(doc["params"]) + list(rows[0]))
    for row in rows:
        # v - v == 0.0 holds for exactly the finite floats
        writer.writerow(lead + [format(v, ".12g") if v.__class__ is float and v - v == 0.0
                                else _csv_cell(v) for v in row.values()])
    return buf.getvalue()


@functools.cache
def _flat_encoder(depth: int):
    """C-encoder of a container at ``depth`` that holds no container: each item
    on its own line, indented for ``depth + 1``."""
    return json.JSONEncoder(allow_nan=False, separators=(",\n" + "  " * (depth + 1), ": ")).encode


def _json_text(node, depth: int = 0) -> str:
    """``json.dumps(node, indent=2, allow_nan=False)``, byte for byte, for string keys.

    Only the nesting is written here; each flat container (a record,
    ``params``, an innermost tensor row) is one C-encoder call.
    """
    if isinstance(node, dict):
        children, opening, closing = node.values(), "{", "}"
    elif isinstance(node, (list, tuple)):
        children, opening, closing = node, "[", "]"
    else:
        return _flat_encoder(depth)(node)
    if not node:
        return opening + closing
    pad = "\n" + "  " * (depth + 1)
    # an empty child container takes this path too, and is written as {} or []
    if any(issubclass(kind, (dict, list, tuple)) for kind in set(map(type, children))):
        if opening == "[":
            items = (_json_text(child, depth + 1) for child in node)
        else:
            items = (encode_basestring_ascii(key) + ": " + _json_text(child, depth + 1)
                     for key, child in node.items())
        body = ("," + pad).join(items)
    else:
        body = _flat_encoder(depth)(node)[1:-1]
    return opening + pad + body + "\n" + "  " * depth + closing


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
    params = payload["params"]
    if args.fmt == "json":
        doc = {"params": params, "results": payload["results"]}
        encode = _json_text
    else:
        rows = payload["rows"]
        doc = {"params": {c: params[c] for c in _ECHO_COLUMNS if c not in rows[0]}, "rows": rows}
        encode = _csv_text
    try:
        text = encode(doc)
    except ValueError:
        # walk the document only on failure: sweeps emit thousands of records
        found = _first_non_finite(doc)
        if found is None:
            raise
        path, value = found
        raise ValueError(f"result holds the non-finite value {float(value)!r} at {path}") from None
    if args.fmt == "json":
        text += "\n"
    if args.output:
        _write_atomic(args.output, text)
    else:
        sys.stdout.write(text)


def _write_atomic(path: str, text: str):
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".qdilemma-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


if __name__ == "__main__":
    sys.exit(main())
