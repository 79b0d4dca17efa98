"""Layer spans for traced benchmark runs, and the interpreter start-up probe.

A traced run wraps every public function of the six ``qdilemma`` modules in
every module namespace that holds it.  That covers calls made through a
module attribute (``cli`` calls ``analysis.sweep``) and calls made through a
name imported directly (``analysis`` calls its own ``mean_payoff`` imported
from ``game``, ``game`` calls ``kron3`` imported from ``linalg``).  Each call
is a span whose caller is the layer of the innermost open span ("bench" at
the top).  Spans are aggregated in memory per (caller layer, callee layer,
callee function) as count, total time and self time, where self time is the
span's duration minus the time covered by its child spans.

Only the benchmark's own files change: nothing under ``src/`` knows about
this.  Wrappers exist only inside :meth:`Tracer.installed`.
"""

from __future__ import annotations

import contextlib
import functools
import json
import statistics
import subprocess
import sys
import time
import types

#: The package's modules, lowest layer first.
LAYERS = ("linalg", "game", "noise", "analysis", "tomography", "cli")


class Tracer:
    """In-memory span aggregator for one process."""

    def __init__(self):
        #: (caller layer, callee layer, function) -> [count, total s, self s]
        self.stats: dict[tuple[str, str, str], list] = {}
        self.requests = 0
        #: distinct (profile, gamma) keys summed over requests
        self.distinct_circuits = 0
        self._circuit_keys: set = set()
        #: output bytes written by the CLI, added by the caller per request
        self.emit_bytes = 0
        self._stack: list[list] = []
        self._patches = None

    # -- wrapping ---------------------------------------------------------

    def _wrap(self, layer: str, fn):
        stats = self.stats
        stack = self._stack
        clock = time.perf_counter
        name = fn.__name__
        keys = self._circuit_keys if (layer, name) == ("game", "circuit_unitary") else None

        @functools.wraps(fn)
        def span(*args, **kwargs):
            caller = stack[-1][0] if stack else "bench"
            if keys is not None:
                keys.add(_circuit_key(*args, **kwargs))
            frame = [layer, 0.0]
            stack.append(frame)
            start = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                elapsed = clock() - start
                stack.pop()
                if stack:
                    stack[-1][1] += elapsed
                rec = stats.get((caller, layer, name))
                if rec is None:
                    rec = stats[(caller, layer, name)] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[1] += elapsed
                rec[2] += elapsed - frame[1]

        return span

    def _plan(self):
        """(module, name, original, wrapper) for every public function of the package."""
        modules = {layer: sys.modules[f"qdilemma.{layer}"] for layer in LAYERS}
        owners = {mod.__name__: layer for layer, mod in modules.items()}
        wrappers: dict[int, object] = {}
        plan = []
        for mod in modules.values():
            for name, obj in vars(mod).items():
                if (not isinstance(obj, types.FunctionType) or obj.__name__.startswith("_")
                        or obj.__module__ not in owners):
                    continue
                if id(obj) not in wrappers:
                    wrappers[id(obj)] = self._wrap(owners[obj.__module__], obj)
                plan.append((mod, name, obj, wrappers[id(obj)]))
        return plan

    @contextlib.contextmanager
    def installed(self):
        """Wrap the package's public functions for the duration of the block."""
        if self._patches is None:
            self._patches = self._plan()
        for mod, name, _, wrapper in self._patches:
            setattr(mod, name, wrapper)
        try:
            yield
        finally:
            for mod, name, original, _ in self._patches:
                setattr(mod, name, original)

    # -- requests ---------------------------------------------------------

    def end_request(self):
        """Close one request: fold its distinct circuit keys into the totals."""
        self.requests += 1
        self.distinct_circuits += len(self._circuit_keys)
        self._circuit_keys.clear()

    def to_json(self) -> dict:
        return {
            "requests": self.requests,
            "distinct_circuits": self.distinct_circuits,
            "stats": [[*key, *rec] for key, rec in self.stats.items()],
        }

    def merge(self, doc: dict):
        """Add the aggregates of another process (a traced CLI child)."""
        self.requests += doc["requests"]
        self.distinct_circuits += doc["distinct_circuits"]
        for caller, layer, name, count, total, self_s in doc["stats"]:
            rec = self.stats.setdefault((caller, layer, name), [0, 0.0, 0.0])
            rec[0] += count
            rec[1] += total
            rec[2] += self_s

    # -- metrics ----------------------------------------------------------

    def layer_metrics(self) -> dict[str, tuple[float, str]]:
        """Per-request layer metrics as name -> (value, unit)."""
        n = max(self.requests, 1)
        out: dict[str, tuple[float, str]] = {}

        def total(pred, field):
            return sum(rec[field] for key, rec in self.stats.items() if pred(*key))

        for layer in LAYERS:
            calls = total(lambda c, l, f: l == layer and c != layer, 0)
            self_s = total(lambda c, l, f: l == layer, 2)
            out[f"{layer}.calls"] = (calls / n, "count/req")
            out[f"{layer}.self_s"] = (self_s / n, "s/req")
        out["cli.emit_s"] = (total(lambda c, l, f: (l, f) == ("cli", "emit"), 1) / n, "s/req")
        out["cli.emit_bytes"] = (self.emit_bytes / n, "B/req")
        builds = total(lambda c, l, f: (l, f) == ("game", "circuit_unitary"), 0)
        out["game.circuit_builds"] = (builds / n, "count/req")
        out["game.distinct_circuit_ratio"] = (
            self.distinct_circuits / builds if builds else 0.0, "ratio")
        out["linalg.kron_calls"] = (
            total(lambda c, l, f: (l, f) == ("linalg", "kron"), 0) / n, "count/req")
        return out


def _circuit_key(profile, gamma=None):
    """Hashable identity of a circuit: the three strategies and gamma."""
    parts = tuple(s if isinstance(s, str) else (s.kind, s.theta, s.phi, s.lam) for s in profile)
    return parts, gamma


# -- interpreter start-up ---------------------------------------------------


def _parse_importtime(stderr: str) -> dict[str, float]:
    """Cumulative import seconds per module from ``-X importtime`` output."""
    out = {}
    for line in stderr.splitlines():
        if not line.startswith("import time:") or "cumulative" in line:
            continue
        _, cumulative, name = line[len("import time:"):].split("|")
        out[name.strip()] = int(cumulative) / 1e6
    return out


def startup_metrics(env: dict, cwd: str, samples: int = 5) -> dict[str, tuple[float, str]]:
    """Median interpreter start and import times, measured in fresh interpreters.

    ``startup.interp_s`` is the wall time of ``python -c pass``;
    ``startup.import_numpy_s`` is numpy's cumulative import time, and
    ``startup.import_qdilemma_s`` the cumulative import time of
    ``qdilemma.cli`` with numpy's share taken out.
    """
    interp, numpy_s, own_s = [], [], []
    for _ in range(samples):
        start = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=cwd, check=True)
        interp.append(time.perf_counter() - start)
        proc = subprocess.run([sys.executable, "-X", "importtime", "-c", "import qdilemma.cli"],
                              env=env, cwd=cwd, check=True, capture_output=True, text=True)
        times = _parse_importtime(proc.stderr)
        # the outermost qdilemma entry's cumulative time includes numpy's
        package = max(t for name, t in times.items() if name.split(".")[0] == "qdilemma")
        numpy_s.append(times["numpy"])
        own_s.append(package - times["numpy"])
    return {
        "startup.interp_s": (statistics.median(interp), "s"),
        "startup.import_numpy_s": (statistics.median(numpy_s), "s"),
        "startup.import_qdilemma_s": (statistics.median(own_s), "s"),
    }


def child_main(argv: list[str]) -> int:
    """Traced CLI child: ``python perfbench/spans.py STATS_PATH CLI_ARGS...``.

    Runs ``qdilemma.cli.main`` with spans installed and writes the aggregates
    to STATS_PATH as JSON.  The exit status is the CLI's.
    """
    import qdilemma.cli

    stats_path, cli_args = argv[0], argv[1:]
    tracer = Tracer()
    with tracer.installed():
        code = qdilemma.cli.main(cli_args)
    tracer.end_request()
    sys.stdout.flush()
    with open(stats_path, "w", encoding="utf-8") as fh:
        json.dump(tracer.to_json(), fh)
    return code


if __name__ == "__main__":
    sys.exit(child_main(sys.argv[1:]))
