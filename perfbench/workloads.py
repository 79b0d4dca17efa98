"""The three benchmark workloads: request generation, execution and output checks.

Each workload yields requests in fixed-mix blocks drawn from a seeded
``random.Random``, so one seed always gives the same sequence and every seed
gives the same mix.  ``execute`` is the timed part of a request; ``check``
runs after the timer stops and raises :class:`CheckFailed` (or a parsing
error) when the output is wrong.  ``self_test`` feeds the checker corrupted
outputs and returns how many of them it rejected.
"""

from __future__ import annotations

import contextlib
import csv
import io
import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import qdilemma.cli as cli
from qdilemma import game, linalg, noise, tomography

HALF_PI = math.pi / 2

#: Errors a checker raises on malformed output.
CHECK_ERRORS = (KeyError, TypeError, ValueError, IndexError, csv.Error)

#: Simulated and closed-form means must agree this closely (acceptance criterion 3).
SIM_TOL = 1e-10
#: Relative tolerance for numbers the output merely echoes or computes in closed form.
#: CSV carries 12 significant digits, so this is looser than JSON needs.
ECHO_RTOL = 1e-11
#: Linear inversion of an exact tensor must return the state this closely.
ROUND_TRIP_TOL = 1e-12
#: Shot-noise bound: each estimated Pauli expectation lies within
#: SHOT_SIGMAS standard deviations sqrt((1 - e^2) / shots) of the exact e,
#: plus two shots of slack for the clamped p(+1) of an exact eigenstring.
SHOT_SIGMAS = 8.0
#: Fidelity of the bundled class-VII state against |101> (acceptance criterion 4).
CLASS7_FIDELITY = 0.843
CLASS7_TOL = 1e-3


class CheckFailed(Exception):
    """An output broke a correctness rule."""


def require(condition: bool, message: str):
    if not condition:
        raise CheckFailed(message)


def close(got, want, rtol: float = 0.0, atol: float = 0.0) -> bool:
    """``|got - want| <= max(atol, rtol*|want|)``; false for NaN, raises on None."""
    return abs(got - want) <= max(atol, rtol * abs(want))


def _reject_constant(token):
    raise ValueError(f"non-finite JSON number {token}")


def strict_json(text: str):
    """Parse JSON, refusing NaN and Infinity."""
    return json.loads(text, parse_constant=_reject_constant)


def parse_output(text: str, fmt: str):
    """Parsed CLI output: a JSON document or a list of CSV rows of equal width."""
    if fmt == "json":
        return strict_json(text)
    rows = list(csv.reader(io.StringIO(text)))
    require(len(rows) >= 2, "CSV output has no data rows")
    require(all(len(row) == len(rows[0]) for row in rows), "ragged CSV rows")
    return rows


# -- grid ---------------------------------------------------------------------

#: Points per grid request.  A 10001-point x-sweep takes 3-5 s on a 2-vCPU
#: Xeon host, which leaves 8 requests in a 30 s run: too few for a steady
#: median on a shared host.  2001 points keep the same per-point work and
#: give 32-48 requests per run.
GRID_POINTS = 2001

SWEEP_FIELDS = ("swept", "value", "p", "q", "n", "x", "quantum_ne_mean", "classical_ne_mean",
                "x_c", "simulated_quantum_mean", "simulated_classical_mean", "valid", "error")
_SWEEP_TEXT = {"swept", "error"}


@dataclass
class SweepRequest:
    swept: str
    start: float
    stop: float
    x: float
    gamma: float
    fmt: str
    grid: int = GRID_POINTS
    path: str = ""

    def argv(self) -> list[str]:
        args = ["sweep", self.swept, "--grid", str(self.grid), "--from", repr(self.start),
                "--to", repr(self.stop), "--gamma", repr(self.gamma), "--format", self.fmt,
                "--output", self.path]
        if self.swept != "x":
            args += ["--x", repr(self.x)]
        return args


def _csv_records(rows: list[list[str]]) -> list[dict]:
    header, body = rows[0], rows[1:]
    require(header == ["gamma", "seed", *SWEEP_FIELDS], f"unexpected CSV header {header}")
    records = []
    for row in body:
        rec = {}
        for name, cell in zip(SWEEP_FIELDS, row[2:]):
            if name == "valid":
                rec[name] = {"true": True, "false": False}[cell]
            elif name in _SWEEP_TEXT or cell == "":
                rec[name] = cell or None
            else:
                rec[name] = float(cell)
        records.append(rec)
    return records


def check_sweep(req: SweepRequest, text: str):
    """Record count, grid alignment, closed forms, and simulation against closed forms."""
    doc = parse_output(text, req.fmt)
    if req.fmt == "json":
        require(doc["params"]["grid"] == req.grid, "params.grid does not echo --grid")
        records = doc["results"]
        require(all(tuple(rec) == SWEEP_FIELDS for rec in records), "unexpected record keys")
    else:
        records = _csv_records(doc)
        require(all(close(float(row[0]), req.gamma, ECHO_RTOL) for row in doc[1:]),
                "gamma column does not echo --gamma")
    require(len(records) == req.grid, f"{len(records)} records for --grid {req.grid}")
    cos2 = math.cos(req.gamma) ** 2
    for value, rec in zip(np.linspace(req.start, req.stop, req.grid).tolist(), records):
        params = {"p": 1.0, "q": 2.0, "n": 9.0, "x": req.x}
        params[req.swept] = value
        p, q, n, x = params["p"], params["q"], params["n"], params["x"]
        require(rec["swept"] == req.swept and rec["valid"] is True and rec["error"] is None,
                "record is not a valid point of this sweep")
        require(close(rec["value"], value, ECHO_RTOL), f"record value {rec['value']} is not {value}")
        for name, want in params.items():
            require(close(rec[name], want, ECHO_RTOL), f"{name} echo {rec[name]} is not {want}")
        quantum = (-4.0 * n * x + 2.0 * n + p) / 3.0
        classical = q * (1.0 - x)
        for name, want in (("quantum_ne_mean", quantum), ("classical_ne_mean", classical)):
            require(close(rec[name], want, SIM_TOL, SIM_TOL), f"{name} {rec[name]} is not {want}")
        numerator = 2.0 * n + p - 3.0 * q
        if numerator <= 0.0:
            require(rec["x_c"] is None, "x_c given in the no-advantage regime")
        else:
            want = numerator / (4.0 * n - 3.0 * q)
            require(close(rec["x_c"], want, ECHO_RTOL, SIM_TOL), f"x_c {rec['x_c']} is not {want}")
        if req.swept == "x":
            # HIX at entanglement gamma: the maximal-entanglement closed form
            # plus a correction (2n/3)(2x - 1)cos^2(gamma) that vanishes at pi/2.
            sim_quantum = quantum - (2.0 * n / 3.0) * (1.0 - 2.0 * x) * cos2
            require(close(rec["simulated_quantum_mean"], sim_quantum, atol=SIM_TOL),
                    f"simulated quantum mean {rec['simulated_quantum_mean']} is not {sim_quantum}")
            require(close(rec["simulated_classical_mean"], classical, atol=SIM_TOL),
                    f"simulated classical mean {rec['simulated_classical_mean']} is not {classical}")
        else:
            require(rec["simulated_quantum_mean"] is None and rec["simulated_classical_mean"] is None,
                    "simulated means on a sweep without simulation")


class Grid:
    """In-process ``sweep`` requests over GRID_POINTS points, written with ``--output``."""

    name = "grid"

    def __init__(self, seed: int, tmpdir: Path):
        self.rng = random.Random(f"grid:{seed}")
        self.tmpdir = tmpdir
        self.count = 0

    def _sweep(self, swept: str, fmt: str, grid: int = GRID_POINTS) -> SweepRequest:
        u = self.rng.uniform
        if swept == "x":
            start = u(0.0, 0.5)
            stop = u(start + 0.25, 1.0)
        elif swept == "n":
            start, stop = u(2.5, 5.0), u(20.0, 100.0)
        else:
            start, stop = u(1.05, 1.5), u(6.0, 8.9)
        return SweepRequest(swept, start, stop, x=u(0.0, 1.0), gamma=u(0.0, HALF_PI),
                            fmt=fmt, grid=grid)

    def blocks(self):
        """Six x-sweeps (three JSON, three CSV), one n-sweep and one q-sweep
        (one JSON, one CSV), in seeded order."""
        while True:
            x_formats = ["json", "csv"] * 3
            other_formats = ["json", "csv"]
            self.rng.shuffle(x_formats)
            self.rng.shuffle(other_formats)
            block = [self._sweep("x", fmt) for fmt in x_formats]
            block += [self._sweep("n", other_formats[0]), self._sweep("q", other_formats[1])]
            self.rng.shuffle(block)
            yield block

    def warm_up_requests(self):
        return [self._sweep(s, f, grid=101) for s in ("x", "n", "q") for f in ("json", "csv")]

    def execute(self, req: SweepRequest):
        self.count += 1
        req.path = str(self.tmpdir / f"sweep-{self.count}.{req.fmt}")
        code = cli.main(req.argv())
        require(code == 0, f"exit status {code}")
        return req.path

    def check(self, req: SweepRequest, path: str):
        try:
            check_sweep(req, Path(path).read_text(encoding="utf-8"))
        finally:
            os.unlink(path)

    def emitted_bytes(self, req, path: str) -> int:
        return os.path.getsize(path)

    def self_test(self) -> tuple[int, int]:
        corrupted = []
        for fmt in ("json", "csv"):
            req = self._sweep("x", fmt, grid=11)
            path = self.execute(req)
            text = Path(path).read_text(encoding="utf-8")
            os.unlink(path)
            check_sweep(req, text)
            if fmt == "json":
                doc = json.loads(text)
                recs = doc["results"]
                swapped = json.loads(text)
                swapped["results"][3], swapped["results"][4] = recs[4], recs[3]
                nan = json.loads(text)
                nan["results"][5]["simulated_quantum_mean"] = float("nan")
                flipped = json.loads(text)
                flipped["results"][2]["simulated_quantum_mean"] += 1e-6
                corrupted += [(req, json.dumps(d)) for d in (swapped, nan, flipped)]
            else:
                rows = list(csv.reader(io.StringIO(text)))
                dropped = rows[:-1]
                nan = [list(r) for r in rows]
                nan[6][SWEEP_FIELDS.index("classical_ne_mean") + 2] = "nan"
                corrupted += [(req, _csv_text(r)) for r in (dropped, nan)]
        return len(corrupted), sum(_rejects(check_sweep, req, text) for req, text in corrupted)


def _csv_text(rows) -> str:
    buf = io.StringIO()
    csv.writer(buf, lineterminator="\n").writerows(rows)
    return buf.getvalue()


def _rejects(checker, *args) -> bool:
    try:
        checker(*args)
    except (CheckFailed, *CHECK_ERRORS):
        return True
    return False


# -- tomo ---------------------------------------------------------------------


@dataclass
class TomoRequest:
    """One state through estimate -> reconstruct -> project -> fidelity.

    ``state`` is set for the raw bundled reference state (scored against
    |101>); otherwise the state is the game output of ``profile`` on the
    corrupted input, scored against itself.
    """

    profile: tuple = ()
    x: float = 0.0
    gamma: float = HALF_PI
    shots: int = 8192
    seed: int = 0
    state: np.ndarray | None = None


@dataclass
class TomoOutput:
    rho: np.ndarray
    exact: np.ndarray
    data: np.ndarray
    physical: np.ndarray
    fidelity: float


class Tomo:
    """In-process library requests: repeated tomography of one state each."""

    name = "tomo"
    #: Requests per block: four game states and one raw reference state.
    BLOCK = 5
    SHOTS = (8192, 10**5, 10**6)

    def __init__(self, seed: int):
        self.rng = random.Random(f"tomo:{seed}")
        self.class7 = tomography.load_reference_state("class7_appendix")

    def _profile_request(self, **fixed) -> TomoRequest:
        rng = self.rng
        req = TomoRequest(
            profile=game.parse_profile("".join(rng.choice("IHX") for _ in range(3))),
            x=rng.uniform(0.0, 1.0), gamma=rng.uniform(0.0, HALF_PI),
            shots=rng.choice(self.SHOTS), seed=rng.getrandbits(32))
        for key, value in fixed.items():
            setattr(req, key, value)
        return req

    def blocks(self):
        while True:
            block = [self._profile_request() for _ in range(self.BLOCK - 1)]
            block.append(TomoRequest(state=self.class7))
            self.rng.shuffle(block)
            yield block

    def warm_up_requests(self):
        return next(self.blocks())

    def execute(self, req: TomoRequest) -> TomoOutput:
        if req.state is None:
            rho = game.evolve(req.profile, noise.corrupted_input(req.x), req.gamma)
            target = rho
        else:
            rho = req.state
            target = linalg.basis_density("101")
        exact = tomography.expectations(rho)
        # A raw state has no outcome distribution to sample, so its exact
        # tensor stands in for measured data.
        data = exact if req.state is not None else tomography.estimate_expectations(
            rho, req.shots, req.seed)
        recon = tomography.reconstruct(data)
        physical = tomography.project_to_physical(recon)
        value = tomography.fidelity(recon if req.state is not None else physical, target)
        return TomoOutput(rho, exact, data, physical, value)

    def check(self, req: TomoRequest, out: TomoOutput):
        err = linalg.max_abs(tomography.reconstruct(out.exact) - out.rho)
        require(err <= ROUND_TRIP_TOL, f"round-trip error {err:.3e}")
        if req.state is None:
            sigma = np.sqrt(np.clip(1.0 - out.exact**2, 0.0, None) / req.shots)
            bound = SHOT_SIGMAS * sigma + 2.0 / req.shots
            require(out.data[0, 0, 0] == 1.0, "estimated identity expectation is not 1")
            require(bool(np.all(np.abs(out.data - out.exact) <= bound)),
                    "estimate outside the binomial bound")
        physical = out.physical
        require(close(np.trace(physical).real, 1.0, atol=ROUND_TRIP_TOL), "projected trace is not 1")
        require(np.linalg.eigvalsh(physical)[0] >= -ROUND_TRIP_TOL, "projected state not positive")
        require(0.0 <= out.fidelity <= 1.0 + ROUND_TRIP_TOL, f"fidelity {out.fidelity} outside [0, 1]")
        if req.state is not None:
            require(close(out.fidelity, CLASS7_FIDELITY, atol=CLASS7_TOL),
                    f"class7_appendix fidelity {out.fidelity} is not {CLASS7_FIDELITY}")

    def emitted_bytes(self, req, out) -> int:
        return 0

    def self_test(self) -> tuple[int, int]:
        pure = self._profile_request(profile=game.parse_profile("HIX"), x=0.0, gamma=HALF_PI,
                                     shots=8192)
        raw = TomoRequest(state=self.class7)
        good_pure, good_raw = self.execute(pure), self.execute(raw)
        self.check(pure, good_pure)
        self.check(raw, good_raw)

        def variant(out, **changes):
            return TomoOutput(**{**out.__dict__, **changes})

        flipped = good_pure.data.copy()
        biggest = np.unravel_index(np.argmax(np.abs(flipped) * (np.arange(64) > 0).reshape(4, 4, 4)),
                                   flipped.shape)
        flipped[biggest] = -flipped[biggest]
        exact_off = good_pure.exact.copy()
        exact_off[1, 2, 3] += 1e-6
        corrupted = [
            (pure, variant(good_pure, fidelity=float("nan"))),
            (pure, variant(good_pure, fidelity=1.5)),
            (pure, variant(good_pure, data=flipped)),
            (pure, variant(good_pure, exact=exact_off)),
            (raw, variant(good_raw, fidelity=0.9)),
        ]
        return len(corrupted), sum(_rejects(self.check, req, out) for req, out in corrupted)


# -- cli ----------------------------------------------------------------------


@dataclass
class CliRequest:
    argv: list[str]
    fmt: str
    #: --output target, when the command writes a file instead of stdout
    output: str | None = None


class Cli:
    """``python -m qdilemma.cli`` subprocess requests from the README commands."""

    name = "cli"

    def __init__(self, seed: int, tmpdir: Path, env: dict, cwd: str, spans_py: str):
        self.rng = random.Random(f"cli:{seed}")
        self.tmpdir = tmpdir
        self.env = env
        self.cwd = cwd
        self.spans_py = spans_py
        self.count = 0

    def _common(self, fmt=None) -> list[str]:
        u = self.rng.uniform
        fmt = fmt or self.rng.choice(("json", "csv"))
        return ["--x", repr(u(0.0, 1.0)), "--gamma", repr(u(0.0, HALF_PI)), "--format", fmt]

    def _profile(self) -> str:
        return "".join(self.rng.choice("IHX") for _ in range(3))

    def _request(self, *argv, fmt=None, output=None) -> CliRequest:
        common = self._common(fmt)
        args = [*argv, *common] + (["--output", output] if output else [])
        return CliRequest(args, common[-1], output)

    def blocks(self):
        """play, classes, sweep x, sweep n, xc, tomo fidelity, tomo forward then
        tomo reconstruct of its file, and tomo estimate, in seeded order."""
        rng = self.rng
        while True:
            self.count += 1
            tensor = str(self.tmpdir / f"tensor-{self.count}.json")
            u = rng.uniform
            p = u(0.5, 1.5)
            q = p + u(0.5, 2.0)
            n = q + u(1.0, 20.0)
            groups = [
                [self._request("play", self._profile())],
                [self._request("classes")],
                [self._request("sweep", "x")],
                [self._request("sweep", "n", "--from", repr(u(2.5, 5.0)), "--to", repr(u(20.0, 100.0)))],
                [self._request("xc", "--p", repr(p), "--q", repr(q), "--n", repr(n))],
                [self._request("tomo", "fidelity", rng.choice(("class7_appendix", self._profile())),
                               rng.choice(("101", f"{rng.getrandbits(3):03b}", self._profile())))],
                [self._request("tomo", "forward", self._profile(), fmt="json", output=tensor),
                 self._request("tomo", "reconstruct", tensor)],
                [self._request("tomo", "estimate", self._profile(), "--shots",
                               str(rng.choice(Tomo.SHOTS)), "--seed", str(rng.getrandbits(32)))],
            ]
            rng.shuffle(groups)
            yield [req for group in groups for req in group]

    def warm_up_requests(self):
        return [self._request("play", self._profile())]

    def command(self, req: CliRequest, stats_path: str | None) -> list[str]:
        if stats_path is None:
            return [sys.executable, "-m", "qdilemma.cli", *req.argv]
        return [sys.executable, self.spans_py, stats_path, *req.argv]

    def execute(self, req: CliRequest, stats_path: str | None = None):
        return subprocess.run(self.command(req, stats_path), env=self.env, cwd=self.cwd,
                              capture_output=True, timeout=120)

    def reference(self, req: CliRequest) -> str:
        """The same command run in this process."""
        argv = list(req.argv)
        if req.output:
            argv[argv.index("--output") + 1] = req.output + ".ref"
        buf = io.StringIO()
        with contextlib.redirect_stdout(buf):
            code = cli.main(argv)
        require(code == 0, f"in-process reference exited {code}")
        if not req.output:
            return buf.getvalue()
        ref = Path(req.output + ".ref")
        try:
            return ref.read_text(encoding="utf-8")
        finally:
            ref.unlink()

    def output_text(self, req: CliRequest, proc) -> str:
        if req.output:
            return Path(req.output).read_text(encoding="utf-8")
        return proc.stdout.decode("utf-8")

    def check(self, req: CliRequest, proc, reference: str | None = None):
        require(proc.returncode == 0,
                f"exit status {proc.returncode}: {proc.stderr.decode(errors='replace').strip()}")
        got = parse_output(self.output_text(req, proc), req.fmt)
        want = parse_output(reference if reference is not None else self.reference(req), req.fmt)
        require(got == want, "output differs from the in-process reference")
        if "reconstruct" in req.argv:
            os.unlink(req.argv[req.argv.index("reconstruct") + 1])

    def emitted_bytes(self, req: CliRequest, proc) -> int:
        return len(self.output_text(req, proc).encode("utf-8"))

    def self_test(self) -> tuple[int, int]:
        req = self._request("play", "XIX", fmt="json")
        good = self.reference(req)
        doc = json.loads(good)
        doc["results"]["payoffs"]["mean"] += 1e-9
        flipped = json.dumps(doc)
        doc["results"]["payoffs"]["mean"] = float("nan")
        nan = json.dumps(doc)

        def fake(stdout: str, code: int = 0):
            return subprocess.CompletedProcess([], code, stdout.encode(), b"")

        self.check(req, fake(good), good)
        corrupted = [fake(flipped), fake(nan), fake(good, code=2), fake(good[: len(good) // 2])]
        return len(corrupted), sum(_rejects(self.check, req, proc, good) for proc in corrupted)
