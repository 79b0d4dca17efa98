"""qdilemma benchmark runner.

    python3 perfbench/run.py --workload grid --seed 1 --seconds 30 --trace 0

Runs one workload closed loop (one client, one request at a time) for about
``--seconds`` seconds from the root of a source checkout, checks every
output, and prints the end-to-end metrics (``--trace 0``) or the per-layer
metrics (``--trace 1``) as the last line of stdout, in JSON.  Requests run in
whole blocks so that every run sees the workload's exact mix.
``--workload all`` runs every workload, untraced and traced, each in its own
process, and prints one table.

Must be run from a checkout that holds ``src/qdilemma``; it exits with status
2 and prints no result otherwise.
"""

from __future__ import annotations

import os
import time

START = time.perf_counter()

#: numpy's BLAS is pinned to one thread, here and in every child process.
BLAS_THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
for _var in BLAS_THREAD_VARS:
    os.environ[_var] = "1"

#: This process and its children share one CPU, so the calibration kernel
#: (calibrate.py) times the same CPU as the requests.
CPU = max(os.sched_getaffinity(0))
os.sched_setaffinity(0, {CPU})

import argparse  # noqa: E402
import contextlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

import calibrate  # noqa: E402
import spans  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORKLOADS = ("grid", "tomo", "cli")
#: Fresh-process set-ups timed per run for ``setup_s``.
SETUP_SAMPLES = 5
#: The tail percentile must leave at least this many samples beyond it...
TAIL_BEYOND = 10
#: ...and is at most p99: above it, single host stalls of a few milliseconds
#: decide the value, and tomo's p99.9 moved by 30% between runs.
TAIL_MAX = 0.99


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    return env


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=(*WORKLOADS, "all"), required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up, print 'ready' and exit (used to time set-up)")
    return parser.parse_args(argv)


def import_package():
    """Import ``qdilemma`` from this checkout's ``src``, and nothing else."""
    if not (SRC / "qdilemma" / "__init__.py").is_file():
        print(f"error: {SRC / 'qdilemma'} not found; run from a qdilemma source checkout",
              file=sys.stderr)
        sys.exit(2)
    sys.path.insert(0, str(SRC))
    import qdilemma

    if Path(qdilemma.__file__).resolve().parent != SRC / "qdilemma":
        print(f"error: imported qdilemma from {qdilemma.__file__}, not {SRC}", file=sys.stderr)
        sys.exit(2)


def make_workload(name: str, seed: int, tmpdir: Path):
    import workloads

    if name == "grid":
        return workloads.Grid(seed, tmpdir)
    if name == "tomo":
        return workloads.Tomo(seed)
    return workloads.Cli(seed, tmpdir, child_env(), str(ROOT), str(HERE / "spans.py"))


class Run:
    """One workload's closed loop: latencies, failures, and (if traced) spans."""

    def __init__(self, workload):
        self.wl = workload
        self.tracer = spans.Tracer()
        self.speed = calibrate.Speed()
        #: (raw request seconds, preceding calibration burst), untraced and traced
        self.latencies = {False: [], True: []}
        self.attempted = 0
        self.failed = 0
        self.first_error = None

    def request(self, req, traced: bool = False):
        """Time one request, then check its output. Returns whether it passed."""
        wl = self.wl
        stats_path = None
        if traced and wl.name == "cli":
            stats_path = str(wl.tmpdir / "spans.json")
        # spans cover the request itself, never the checks that follow it
        spans = self.tracer.installed() if traced and not stats_path else contextlib.nullcontext()
        self.attempted += 1
        burst = self.speed.tick()
        try:
            with spans:
                start = time.perf_counter()
                out = wl.execute(req, stats_path) if stats_path else wl.execute(req)
                latency = time.perf_counter() - start
            if traced:
                self.account(req, out, stats_path)
            wl.check(req, out)
        except Exception as exc:  # a failed request is counted, and the loop goes on
            self.failed += 1
            if self.first_error is None:
                self.first_error = f"{type(exc).__name__}: {exc}"
            return False
        self.latencies[traced].append((latency, burst))
        return True

    def summary(self, traced: bool = False) -> dict:
        """Latency statistics at the reference speed, and raw."""
        raw = self.latencies[traced]
        return {
            "scaled": latency_summary([self.speed.scale(t, i) for t, i in raw]),
            "raw": latency_summary([t for t, _ in raw]),
        }

    def account(self, req, out, stats_path):
        tracer = self.tracer
        if stats_path:
            with open(stats_path, encoding="utf-8") as fh:
                tracer.merge(json.load(fh))
        else:
            tracer.end_request()
        tracer.emit_bytes += self.wl.emitted_bytes(req, out)

    def loop(self, seconds: float, traced_phases: bool):
        """Whole blocks until ``seconds`` have passed.

        Untraced runs stop before a block that would likely end later than
        1.25 x ``seconds``.  Traced runs alternate untraced and traced blocks
        and stop after an even number of them.
        """
        start = time.perf_counter()
        done = 0
        for block in self.wl.blocks():
            traced = traced_phases and done % 2 == 1
            for req in block:
                self.request(req, traced)
            done += 1
            elapsed = time.perf_counter() - start
            if traced_phases:
                if elapsed >= seconds and done % 2 == 0:
                    break
            elif elapsed >= seconds or elapsed * (done + 1) / done > 1.25 * seconds:
                break
        self.speed.tick(force=True)


def latency_summary(latencies: list[float]) -> dict:
    """Throughput over busy time, median, and the tail percentile with its sample count."""
    ordered = sorted(latencies)
    n = len(ordered)
    # the highest sample with TAIL_BEYOND samples above it (the maximum when there
    # are too few), but no higher than the TAIL_MAX quantile
    index = n - 1 - TAIL_BEYOND if n > TAIL_BEYOND else n - 1
    index = min(index, math.ceil(TAIL_MAX * n) - 1)
    return {
        "req_per_s": n / sum(ordered),
        "req_p50_s": statistics.median(ordered),
        "req_tail_s": ordered[index],
        "tail_percentile": 100.0 * (index + 1) / n,
        "tail_beyond": n - 1 - index,
        "samples": n,
    }


def setup(args, tmpdir: Path):
    """Imports, workload generation, warm-up and the checker self-test."""
    import_package()
    wl = make_workload(args.workload, args.seed, tmpdir)
    run = Run(wl)
    for req in wl.warm_up_requests():
        if not run.request(req):
            raise RuntimeError(f"warm-up request failed: {run.first_error}")
    corrupted, rejected = wl.self_test()
    run.attempted = run.failed = 0
    run.latencies[False].clear()
    run.speed = calibrate.Speed()
    return run, (corrupted, rejected)


def time_setups(args) -> list[float]:
    """Wall time from spawning a fresh benchmark process until it is ready to
    send requests, at the reference speed."""
    speed = calibrate.Speed()
    times = []
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--setup-only"]
    for _ in range(SETUP_SAMPLES):
        burst = speed.tick(force=True)
        start = time.perf_counter()
        proc = subprocess.Popen(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - start
        proc.stdout.read()
        proc.stdout.close()
        if proc.wait(timeout=120) != 0 or line.strip() != "ready":
            raise RuntimeError(f"set-up replica failed: {line!r}")
        times.append((elapsed, burst))
    speed.tick(force=True)
    return [speed.scale(t, i) for t, i in times]


def git_commit() -> str:
    """The checked-out commit, read from .git without running git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def machine(args) -> dict:
    import numpy as np

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next(line.split(":", 1)[1].strip() for line in fh if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version', '')}".strip()
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": bool(args.trace),
        "nproc": os.cpu_count(),
        "cpu_model": cpu,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": {var: os.environ[var] for var in BLAS_THREAD_VARS},
        "pinned_cpu": CPU,
        "commit": git_commit(),
    }


def run_workload(args) -> int:
    tmpdir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    tmpdir.mkdir(parents=True, exist_ok=True)
    try:
        run, (corrupted, rejected) = setup(args, tmpdir)
        if args.setup_only:
            print("ready", flush=True)
            return 0
        own_setup = time.perf_counter() - START
        run.loop(args.seconds, traced_phases=bool(args.trace))
        rss_self = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        rss_children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
        untraced = run.summary()
        if args.trace:
            traced = run.summary(traced=True)
            metrics = run.tracer.layer_metrics()
            metrics.update(spans.startup_metrics(child_env(), str(ROOT)))
            metrics["trace.overhead_frac"] = (
                1.0 - traced["scaled"]["req_per_s"] / untraced["scaled"]["req_per_s"], "ratio")
        else:
            setups = time_setups(args)
            scaled = untraced["scaled"]
            rss_kib = rss_children if args.workload == "cli" else rss_self
            metrics = {
                "req_per_s": (scaled["req_per_s"], "1/s"),
                "req_p50_s": (scaled["req_p50_s"], "s"),
                "req_tail_s": (scaled["req_tail_s"], "s"),
                "setup_s": (statistics.median(setups), "s"),
                "peak_rss_mb": (rss_kib / 1024.0, "MiB"),
            }
    finally:
        shutil.rmtree(tmpdir, ignore_errors=True)
        if tmpdir.parent.is_dir() and not any(tmpdir.parent.iterdir()):
            tmpdir.parent.rmdir()

    failed_frac = run.failed / max(run.attempted, 1)
    print("machine: " + json.dumps(machine(args)))
    print(f"requests: {run.attempted} attempted, {run.failed} failed "
          f"(failed_frac = {failed_frac:.6g})" + (f"; first failure: {run.first_error}"
                                                   if run.first_error else ""))
    print(f"checker self-test: {rejected}/{corrupted} corrupted outputs rejected")
    print(f"machine speed: calibration kernel {run.speed.factor():.3f}x its reference time "
          f"({run.speed.runs} timings); times below are scaled to the reference")
    for kind, summary in untraced.items():
        print(f"untraced {kind}: req_per_s {summary['req_per_s']:.6g} 1/s, req_p50_s "
              f"{summary['req_p50_s']:.6g} s, req_tail_s {summary['req_tail_s']:.6g} s "
              f"(p{summary['tail_percentile']:.2f} of {summary['samples']} samples, "
              f"{summary['tail_beyond']} beyond)")
    if not args.trace:
        print(f"setup: this process {own_setup:.4f} s raw, without interpreter start; "
              f"fresh processes {', '.join(f'{t:.4f}' for t in setups)} s scaled")
    for name, (value, unit) in metrics.items():
        print(f"  {name} = {value:.6g} {unit}")
    result = {
        "correct": run.failed == 0 and rejected == corrupted,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload, untraced then traced, each in its own process."""
    results = {}
    for workload in WORKLOADS:
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, check=True)
            lines = proc.stdout.strip().splitlines()
            results.setdefault(workload, {"machine": json.loads(lines[0].split(": ", 1)[1])})
            results[workload]["traced" if trace else "untraced"] = json.loads(lines[-1])
    for workload, res in results.items():
        print(f"== {workload}")
        for kind in ("untraced", "traced"):
            doc = res[kind]
            print(f"  [{kind}] correct={doc['correct']} attempted={doc['attempted']} "
                  f"failed={doc['failed']} failed_frac={doc['failed'] / doc['attempted']:.6g}")
            for name, metric in doc["metrics"].items():
                print(f"    {name:28s} {metric['value']:12.6g} {metric['unit']}")
    print(json.dumps(results))
    return 0


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.workload == "all":
        import_package()
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
