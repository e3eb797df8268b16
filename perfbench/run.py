"""Benchmark of the `silted` CLI: CPU time, set-up time and memory per
workload, or, with --trace 1, the time and work of each layer.

    python3 perfbench/run.py [--workload NAME|all] [--seed N] [--seconds S] [--trace 0|1]

Run from anywhere; the package is taken from `src/` next to this
directory.  Every program run is a fresh interpreter, because the catalog
memo and the hom-basis cache live for one process and every CLI user pays
for filling them.

--trace 0 (end-to-end): one discarded warm-up, then SETUP_RUNS set-ups
(`import silted` plus knitting the workload's catalog, CPU time measured
in-process), then CLI runs until the next one would end past --seconds (at
least one).  Reports the medians of cpu_s (the CLI process's user plus
system time), setup_s and peak_rss_mb (the CLI process's ru_maxrss), and
prints wall_s (spawn until stdout is complete and hashed).  wall_s is not
one of the bounded metrics: on a shared host it also counts the time other
tenants take from the CPU.  On a shared 2-core host the median wall_s of
census-b7 moved by more than half between two sets of ten runs of the same
code, while cpu_s moved by 3%.  The traced run reports the wall time of
its untraced run as trace.untraced_wall_s.  Half the set-ups run before
the CLI runs and half after, because the speed of a shared host drifts
over seconds and one batch would sample a single state.

--trace 1 (per-layer): one untraced and one traced CLI run.  The traced run
wraps each layer's functions at the names their callers look up, keeps the
spans in memory and writes them to .perfbench/ when the output is done.

Every CLI run passes through the correctness gate (gate.py); a run that
raises, exits non-zero or fails the gate counts in `failed`.  The digests
and known gaps it checks against are in expected.json.  The last line of
stdout is one JSON object: correct, attempted, failed, metrics.

The benchmark's own tests: python3 -m pytest perfbench/tests
"""

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from dataclasses import dataclass
from pathlib import Path

import gate
import layers
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = ROOT / ".perfbench"
SETUP_RUNS = 12
# Each invocation must end within 180 s; stop starting children after this.
DEADLINE_S = 170.0


@dataclass
class Child:
    wall_s: float
    data: bytes
    digest: str
    code: int
    cpu_s: float
    rss_mb: float


class Runner:
    """Starts the program's processes and keeps the attempt/failure tally."""

    def __init__(self, seed):
        self.env = dict(
            os.environ,
            PYTHONPATH=str(ROOT / "src"),
            PYTHONHASHSEED=str(seed % 2**32),
        )
        self.deadline = time.perf_counter() + DEADLINE_S
        self.attempted = 0
        self.failed = 0

    def left(self):
        return self.deadline - time.perf_counter()

    def spawn(self, args):
        """Run child.py with args; time it until stdout is complete and hashed."""
        t0 = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, str(HERE / "child.py"), *args],
            stdout=subprocess.PIPE,
            env=self.env,
            cwd=ROOT,
        )
        timer = threading.Timer(max(self.left(), 0.0), proc.kill)
        timer.start()
        try:
            sha = hashlib.sha256()
            chunks = []
            while chunk := proc.stdout.read(1 << 20):
                sha.update(chunk)
                chunks.append(chunk)
            digest = sha.hexdigest()
            wall = time.perf_counter() - t0
            _, status, usage = os.wait4(proc.pid, 0)
            proc.returncode = os.waitstatus_to_exitcode(status)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
            proc.stdout.close()
        return Child(
            wall,
            b"".join(chunks),
            digest,
            proc.returncode,
            usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024.0,
        )

    def tally(self, what, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            for p in problems:
                print(f"FAILED {what}: {p}", file=sys.stderr)
        return not problems

    def setup(self, w):
        """One set-up run; returns its in-process seconds, or None on failure."""
        child = self.spawn(["setup", w.family, str(w.n)])
        problems = [] if child.code == 0 else [f"exit code {child.code}"]
        doc = {}
        if not problems:
            doc = json.loads(child.data)
            if doc["indecomposables"] != w.indecomposables:
                problems.append(
                    f"catalog has {doc['indecomposables']} indecomposables, "
                    f"expected {w.indecomposables}"
                )
        return doc["setup_s"] if self.tally(f"set-up {w.name}", problems) else None

    def closed_forms(self, w, expected):
        keys = [gate.gap_key(g) for g in gate.known_gaps(w, expected)]
        if not keys:
            return {}
        child = self.spawn(["formulas", *keys])
        if not self.tally("closed forms", [] if child.code == 0 else [f"exit code {child.code}"]):
            return {}
        return json.loads(child.data)

    def cli(self, w, expected, closed, trace=()):
        """One CLI run and its gate problems; returns (Child, problems, gap lines)."""
        child = self.spawn(["cli", *trace, "--", *w.argv])
        if child.code != 0:
            return child, [f"exit code {child.code}"], []
        try:
            lines, problems = gate.check_run(w, child.data, expected, closed)
        except KeyError as exc:
            lines, problems = [], [f"missing {exc} in output or closed forms"]
        return child, problems, lines


def environment():
    return {"python": platform.python_version(), "nproc": len(os.sched_getaffinity(0))}


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4, method="inclusive")
    return q[0], q[2]


def fmt(value):
    if value is None:
        return "n/a"
    if isinstance(value, float):
        return f"{value:.6g}"
    return str(value)


def end_to_end(runner, w, seconds, expected, closed):
    runner.setup(w)  # warm-up: byte-compiles the package, not timed
    setups = [runner.setup(w) for _ in range(SETUP_RUNS // 2)]
    walls, cpus, rss, lines = [], [], [], []
    started = time.perf_counter()
    while True:
        child, problems, lines = runner.cli(w, expected, closed)
        runner.tally(w.name, problems)
        walls.append(child.wall_s)
        cpus.append(child.cpu_s)
        rss.append(child.rss_mb)
        typical = statistics.median(walls)
        elapsed = time.perf_counter() - started
        if elapsed + typical > seconds or typical > runner.left():
            break
    setups += [runner.setup(w) for _ in range(SETUP_RUNS - SETUP_RUNS // 2)]
    samples = {
        "wall_s": walls,
        "cpu_s": cpus,
        "setup_s": [s for s in setups if s is not None],
        "peak_rss_mb": rss,
    }
    metrics = {name: statistics.median(v) if v else 0.0 for name, v in samples.items()}
    for name, vals in samples.items():
        q1, q3 = quartiles(vals) if vals else (None, None)
        print(
            f"  {name:<14} {fmt(metrics[name]):>12} {layers.UNITS[name]:<3}"
            f"  median of {len(vals)}; min {fmt(min(vals, default=None))}"
            f" q1 {fmt(q1)} q3 {fmt(q3)} max {fmt(max(vals, default=None))}"
        )
    return metrics, lines, samples


def traced(runner, w, expected, closed, run_id):
    runner.setup(w)  # warm-up: byte-compiles the package, not timed
    OUT.mkdir(exist_ok=True)
    spans_path = OUT / f"spans-{w.name}.json"
    plain, problems, lines = runner.cli(w, expected, closed)
    runner.tally(w.name, problems)
    trace = ("--trace", str(spans_path), run_id)
    tr, problems, _ = runner.cli(w, expected, closed, trace)
    values = None
    if tr.code == 0:
        if tr.digest != plain.digest:
            problems.append("traced stdout differs from untraced stdout")
        values, more = layers.per_layer(
            json.loads(spans_path.read_text()), w, tr.wall_s, plain.wall_s, len(tr.data)
        )
        problems += more
    if not runner.tally(f"traced {w.name}", problems):
        return None, lines
    for name in layers.PER_LAYER:
        print(f"  {name:<32} {fmt(values[name]):>14} {layers.UNITS[name]}")
    return values, lines


def run_workload(runner, w, seed, seconds, trace):
    runner.deadline = time.perf_counter() + DEADLINE_S
    attempted, failed = runner.attempted, runner.failed
    expected = gate.load_expected()
    env = environment()
    print(f"workload {w.name}: silted {' '.join(w.argv)}")
    print(f"  seed {seed}  python {env['python']}  nproc {env['nproc']}  trace {trace}")
    closed = runner.closed_forms(w, expected)
    run_id = f"{w.name}-seed{seed}-pid{os.getpid()}"
    if trace:
        values, lines = traced(runner, w, expected, closed, run_id)
        samples = values = values or {}
        # A value that cannot be given (see layers.per_layer) reads 0.
        vals = {n: 0.0 if values.get(n) is None else values[n] for n in layers.PER_LAYER}
    else:
        medians, lines, samples = end_to_end(runner, w, seconds, expected, closed)
        vals = {n: medians[n] for n in layers.END_TO_END}
    metrics = {name: {"value": v, "unit": layers.UNITS[name]} for name, v in vals.items()}
    for line in lines:
        print(f"  {line}")
    attempted, failed = runner.attempted - attempted, runner.failed - failed
    print(f"  {'error_rate':<14} {fmt(failed / attempted):>12} share"
          f"  {failed} of {attempted} runs failed")
    OUT.mkdir(exist_ok=True)
    with open(OUT / f"result-{w.name}-trace{trace}.json", "w") as fh:
        json.dump({"run_id": run_id, "environment": env, "metrics": metrics,
                   "samples": samples}, fh, indent=1)
    return metrics


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", default="all", choices=["all", *WORKLOADS])
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = ap.parse_args(argv)
    # Turn a termination request into an exception, so the child is stopped too.
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    if not (ROOT / "src" / "silted" / "__init__.py").is_file():
        print(f"error: no silted package under {ROOT / 'src'}", file=sys.stderr)
        return 2
    runner = Runner(args.seed)
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    metrics = {}
    for name in names:
        got = run_workload(runner, WORKLOADS[name], args.seed, args.seconds, args.trace)
        prefix = "" if len(names) == 1 else f"{name}."
        metrics.update({prefix + k: v for k, v in got.items()})
    result = {
        "correct": runner.failed == 0,
        "attempted": runner.attempted,
        "failed": runner.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
