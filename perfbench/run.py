"""kratzerml benchmark: one workload, one seed, one run.

    python3 perfbench/run.py --workload cli-cold --seed 1 --seconds 30 --trace 0

Run from anywhere inside a checkout that holds src/kratzerml.  The run
generates its inputs from the seed under .bench_build/perfbench/, sets
the program up, drives it in a closed loop with one client for
--seconds, checks every report, and prints a readable summary followed
by one JSON line: {"correct", "attempted", "failed", "metrics"}.

--trace 0 reports the end-to-end metrics of BENCHMARK.json from untraced
operations.  --trace 1 reports its per-layer metrics: half the time runs
untraced and half traced (spans around each layer's public functions and
scipy bindings), so the tracing overhead is measured in the same run.

Workloads (see BENCHMARK.json for why each exists):
  cli-cold      a fresh interpreter per operation, `bound` and `spectrum`
  verify-paper  one worker process, `verify --grid-preset paper` repeated
  fit-sweep     one worker process, seeded 12-level `fit` inputs

Operation times are bounded in "xref": each operation divided by a
reference timed right next to it on the same core, so that the slow
spells of a shared machine cancel.  The reference is the start-up floor
(a fresh `python -c "import numpy"`) before and after each cli-cold
operation, and refloop's interpreter loop before and after each
in-process operation.  setup_s is treated the same way: each set-up is
divided by the floor timed before and after it, and the median ratio is
scaled back to seconds by a fixed constant (FLOOR_SCALE_S).  The summary
also prints the raw milliseconds, CPU time, throughput and fail ratio.
Children run with one BLAS thread.

The benchmark's own tests: python3 -m pytest perfbench/selftest.py
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
from dataclasses import dataclass
from importlib import metadata
from pathlib import Path
from time import perf_counter

import gate
import inputs
import spans

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
CHILD = str(HERE / "child.py")
#: the start-up floor no CLI run can beat, and cli-cold's reference
FLOOR_CMD = [sys.executable, "-c", "import numpy"]

#: setup_s is each set-up divided by the floor timed next to it, times
#: this: the floor's median on the 2-core x86 machine the benchmark was
#: tuned on, so that setup_s reads in seconds at that machine's speed
FLOOR_SCALE_S = 0.17

#: one operation that runs longer than this counts as hung
OP_TIMEOUT_S = 60.0
#: fresh set-ups per run, odd; setup_s comes from their median
CLI_SETUPS = 7
WORKER_SETUPS = 5
#: noise-floor and -X importtime repeats; each figure is a median
FLOOR_REPEATS = 3
IMPORT_REPEATS = 3
#: the tail percentile must leave this many samples beyond it
TAIL_BEYOND = 10


class BenchError(RuntimeError):
    """The run cannot produce a result (set-up failed, a worker died)."""


@dataclass
class Done:
    rc: int
    out: str
    wall: float
    cpu: float
    maxrss_kb: int


def _python(*args: str) -> list[str]:
    return [sys.executable, *args]


#: one BLAS thread: the package only does tiny linear algebra, and idle
#: OpenBLAS threads spinning on the second core made CPU time and the
#: start-up floor swing from run to run
CHILD_ENV = dict(os.environ, OPENBLAS_NUM_THREADS="1", OMP_NUM_THREADS="1",
                 MKL_NUM_THREADS="1")


def run_child(cmd: list[str], stderr_path: Path) -> Done:
    """Run one child to completion; wall, CPU and peak RSS from wait4."""
    with open(stderr_path, "wb") as err:
        t0 = perf_counter()
        proc = subprocess.Popen(
            cmd, cwd=ROOT, env=CHILD_ENV, stdin=subprocess.DEVNULL,
            stdout=subprocess.PIPE, stderr=err,
        )
        watchdog = threading.Timer(OP_TIMEOUT_S, proc.kill)
        watchdog.start()
        try:
            out = proc.stdout.read()
            proc.stdout.close()
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            watchdog.cancel()
        wall = perf_counter() - t0
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Done(
        rc=proc.returncode,
        out=out.decode("utf-8", "replace"),
        wall=wall,
        cpu=usage.ru_utime + usage.ru_stime,
        maxrss_kb=usage.ru_maxrss,
    )


class Worker:
    """A `child.py serve` process: import once, then one op per request."""

    def __init__(self, stderr_path: Path) -> None:
        self.started = perf_counter()
        self._err = open(stderr_path, "ab")
        self.proc = subprocess.Popen(
            _python(CHILD, "serve"), cwd=ROOT, env=CHILD_ENV, stdin=subprocess.PIPE,
            stdout=subprocess.PIPE, stderr=self._err, text=True,
        )
        self._recv()

    def _recv(self) -> dict:
        watchdog = threading.Timer(OP_TIMEOUT_S, self.proc.kill)
        watchdog.start()
        try:
            line = self.proc.stdout.readline()
        finally:
            watchdog.cancel()
        if not line:
            raise BenchError(f"worker exited (see {self._err.name})")
        return json.loads(line)

    def request(self, doc: dict) -> dict:
        self.proc.stdin.write(json.dumps(doc) + "\n")
        self.proc.stdin.flush()
        return self._recv()

    def close(self, spans_path: str | None = None) -> int:
        """Stop the worker and return its peak RSS in kB."""
        self.request({"quit": spans_path})
        self.proc.stdin.close()
        self.proc.stdout.read()
        self.proc.stdout.close()
        _, status, usage = os.wait4(self.proc.pid, 0)
        self.proc.returncode = os.waitstatus_to_exitcode(status)
        self._err.close()
        return usage.ru_maxrss

    def kill(self) -> None:
        if self.proc.returncode is None:
            self.proc.kill()
            self.proc.wait()
        self._err.close()


class Ledger:
    """Per-operation samples of one phase, and the run's failure count."""

    def __init__(self) -> None:
        self.walls: list[float] = []
        self.cpus: list[float] = []
        self.refs: list[float] = []
        self.attempted = 0
        self.failures: list[str] = []

    def gate(self, op: dict, rc, out: str) -> None:
        self.attempted += 1
        why = gate.check(op, rc, out)
        if why is not None:
            self.failures.append(f"{' '.join(op['argv'][:2])}: {why}")

    def sample(self, wall: float, cpu: float, ref: float) -> None:
        self.walls.append(wall)
        self.cpus.append(cpu)
        self.refs.append(ref)


# ---------------------------------------------------------- environment


def _wall(cmd: list[str], work: Path) -> float:
    done = run_child(cmd, work / "floor.stderr")
    if done.rc != 0:
        raise BenchError(f"{' '.join(cmd[1:])} exited {done.rc}")
    return done.wall


def environment(work: Path) -> dict:
    """Versions, cores, load, and the start-up floor no CLI run beats."""
    return {
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "scipy": metadata.version("scipy"),
        "mpmath": metadata.version("mpmath"),
        "nproc": len(os.sched_getaffinity(0)),
        "loadavg": list(os.getloadavg()),
        "bare_interpreter_s": statistics.median(
            _wall(_python("-c", "pass"), work) for _ in range(FLOOR_REPEATS)
        ),
        "import_numpy_s": statistics.median(
            _wall(FLOOR_CMD, work) for _ in range(FLOOR_REPEATS)
        ),
    }


# ------------------------------------------------------------ workloads


def _cli_phase(ops, seconds, work, ledger, traced_dir: Path | None = None):
    """Fresh interpreters until `seconds` pass: (elapsed, peak RSS in kB).

    A run of the noise floor (a fresh interpreter importing numpy) comes
    before the first op and after each op; the two around an op are its
    reference, because start-up and import slow down with the machine
    in step with the op, which an in-process loop does not.
    """
    peak = 0
    floor = _wall(FLOOR_CMD, work)
    t0 = perf_counter()
    i = 0
    while perf_counter() - t0 < seconds:
        op = ops[i % len(ops)]
        if traced_dir is None:
            cmd = _python(CHILD, "cli", *op["argv"])
        else:
            cmd = _python(CHILD, "cli-traced", str(traced_dir / f"op{i:04d}.npz"),
                          *op["argv"])
        i += 1
        done = run_child(cmd, work / "op.stderr")
        next_floor = _wall(FLOOR_CMD, work)
        ledger.gate(op, done.rc, done.out)
        ledger.sample(done.wall, done.cpu, (floor + next_floor) / 2)
        floor = next_floor
        peak = max(peak, done.maxrss_kb)
    return perf_counter() - t0, peak


def _worker_phase(worker: Worker, ops, seconds, ledger) -> float:
    """Operations until `seconds` pass; returns the elapsed time."""
    t0 = perf_counter()
    i = 0
    while perf_counter() - t0 < seconds:
        op = ops[i % len(ops)]
        i += 1
        reply = worker.request({"argv": op["argv"]})
        ledger.gate(op, reply["rc"], reply["out"])
        ledger.sample(reply["wall"], reply["cpu"], reply["ref"])
    return perf_counter() - t0


def _start_worker(warm_op: dict, work: Path, ledger: Ledger) -> tuple[Worker, float]:
    """A worker that has imported and run one untimed warm-up op; also
    the set-up time from spawn to that point."""
    worker = Worker(work / "worker.stderr")
    try:
        reply = worker.request({"argv": warm_op["argv"]})
    except BaseException:
        worker.kill()
        raise
    ledger.gate(warm_op, reply["rc"], reply["out"])
    return worker, perf_counter() - worker.started


def _import_setup(work: Path) -> float:
    done = run_child(_python(CHILD, "import"), work / "import.stderr")
    if done.rc != 0:
        raise BenchError(
            f"importing kratzerml failed ({done.rc}): "
            + (work / "import.stderr").read_text(errors="replace").strip()
        )
    return done.wall


def _setups_over_floor(count: int, setup_once, work: Path) -> list[float]:
    """`count` set-ups, each divided by the floor timed before and after
    it, for the reason _cli_phase gives."""
    ratios = []
    floor = _wall(FLOOR_CMD, work)
    for _ in range(count):
        setup = setup_once()
        next_floor = _wall(FLOOR_CMD, work)
        ratios.append(setup / ((floor + next_floor) / 2))
        floor = next_floor
    return ratios


def timed_run(workload: str, ops: list[dict], seconds: float, work: Path):
    """Untraced end-to-end run: (ledger, set-ups over the floor, elapsed,
    peak kB).

    Set-ups come before and after the timed phase, so that their median
    does not hang on how busy the machine was in one moment.
    """
    ledger = Ledger()
    if workload == "cli-cold":
        def setup_once() -> float:
            return _import_setup(work)

        def phase() -> tuple[float, int]:
            return _cli_phase(ops, seconds, work, ledger)

        count = CLI_SETUPS
    else:
        def setup_once() -> float:
            worker, setup = _start_worker(ops[0], work, ledger)
            worker.close()
            return setup

        def phase() -> tuple[float, int]:
            worker, _ = _start_worker(ops[0], work, ledger)
            try:
                elapsed = _worker_phase(worker, ops[1:] or ops, seconds, ledger)
            except BaseException:
                worker.kill()
                raise
            return elapsed, worker.close()

        count = WORKER_SETUPS
    setups = _setups_over_floor(count // 2 + 1, setup_once, work)
    elapsed, peak = phase()
    setups += _setups_over_floor(count // 2, setup_once, work)
    return ledger, setups, elapsed, peak


def percentile(samples: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(samples)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def tail(samples: list[float]) -> tuple[float, int]:
    """The highest percentile with TAIL_BEYOND samples above it, and that
    percentile; never below the median."""
    n = len(samples)
    pct = max(50, math.floor(100 * (n - TAIL_BEYOND) / n))
    return percentile(samples, pct), pct


# -------------------------------------------------------------- tracing


def import_layer(work: Path) -> dict:
    """-X importtime figures of the entry-point import, medians."""
    pkg, sci, modules = [], [], set()
    for _ in range(IMPORT_REPEATS):
        err = work / "importtime.stderr"
        done = run_child(_python("-X", "importtime", CHILD, "import"), err)
        if done.rc != 0:
            raise BenchError(f"-X importtime import exited {done.rc}")
        cumulative = parse_importtime(err.read_text())
        pkg.append(cumulative.get("kratzerml", 0.0))
        sci.append(cumulative.get("scipy", 0.0))
        modules.add(int(done.out.strip()))
    return {
        "import.kratzerml_ms": statistics.median(pkg) / 1e3,
        "import.scipy_ms": statistics.median(sci) / 1e3,
        "import.modules": max(modules),
    }


def parse_importtime(text: str) -> dict:
    """Cumulative microseconds per top-level package, summed over its
    outermost imports (scipy.integrate inside scipy counts once)."""
    entries = []
    for line in text.splitlines():
        parts = line.split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header row, or not an importtime line
        name = parts[2]
        depth = (len(name) - len(name.lstrip(" ")) - 1) // 2
        entries.append((depth, name.strip(), int(parts[1])))
    totals: dict[str, float] = {}
    enclosing: list[str] = []  # top-level package at each depth above
    for depth, name, cumulative in reversed(entries):  # parents first
        del enclosing[depth:]
        top = name.split(".")[0]
        if top not in enclosing:
            totals[top] = totals.get(top, 0.0) + cumulative
        enclosing.append(top)
    return totals


def traced_run(workload: str, ops: list[dict], seconds: float, work: Path):
    """Half untraced, half traced: (ledger, layer metrics)."""
    ledger = Ledger()
    untraced, traced = Ledger(), Ledger()
    metrics = import_layer(work)
    span_dir = work / "spans"
    span_dir.mkdir()
    if workload == "cli-cold":
        _cli_phase(ops, seconds / 2, work, untraced)
        _cli_phase(ops, seconds / 2, work, traced, traced_dir=span_dir)
        paths = sorted(span_dir.glob("*.npz"))
    else:
        worker, _ = _start_worker(ops[0], work, ledger)
        try:
            _worker_phase(worker, ops[1:] or ops, seconds / 2, untraced)
            worker.request({"trace": True})
            _worker_phase(worker, ops[1:] or ops, seconds / 2, traced)
        except BaseException:
            worker.kill()
            raise
        paths = [span_dir / "worker.npz"]
        worker.close(str(paths[0]))
    for phase in (untraced, traced):
        ledger.attempted += phase.attempted
        ledger.failures += phase.failures
    metrics.update(spans.layer_metrics(spans.aggregate(paths), len(traced.walls)))
    metrics["trace.op_p50_ms"] = statistics.median(traced.walls) * 1e3
    metrics["trace.untraced_op_p50_ms"] = statistics.median(untraced.walls) * 1e3
    metrics["trace.overhead_ms"] = (
        metrics["trace.op_p50_ms"] - metrics["trace.untraced_op_p50_ms"]
    )
    metrics["trace.op_mean_ms"] = statistics.fmean(traced.walls) * 1e3
    return ledger, metrics


# ----------------------------------------------------------------- main


def _select(spec_metrics: list[dict], values: dict) -> dict:
    missing = [m["name"] for m in spec_metrics if m["name"] not in values]
    if missing:
        raise BenchError(f"metrics not computed: {', '.join(missing)}")
    return {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
            for m in spec_metrics}


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n", 1)[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.GENERATORS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "kratzerml" / "__init__.py").is_file():
        print(f"error: no src/kratzerml under {ROOT}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    work = ROOT / ".bench_build" / "perfbench" / f"{args.workload}-{args.seed}-t{args.trace}"
    shutil.rmtree(work, ignore_errors=True)
    work.mkdir(parents=True)

    try:
        ops = inputs.GENERATORS[args.workload](args.seed, work / "inputs")
        env = environment(work)
        if args.trace:
            ledger, values = traced_run(args.workload, ops, args.seconds, work)
            metrics = _select(spec["per_layer"], values)
            summary = _trace_summary(values)
        else:
            ledger, setups, elapsed, peak_kb = timed_run(
                args.workload, ops, args.seconds, work
            )
            values, summary = _end_to_end(ledger, setups, elapsed, peak_kb)
            metrics = _select(spec["end_to_end"], values)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    env["loadavg_end"] = list(os.getloadavg())

    failed = len(ledger.failures)
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"(closed loop, 1 client, at most one child process alive)")
    for line in summary:
        print(line)
    print(f"{'fail_ratio':<16} {failed / ledger.attempted:11.4g}       "
          f"({failed} of {ledger.attempted} ops failed)")
    for why in ledger.failures[:5]:
        print(f"  failed: {why}")
    print("env " + json.dumps(env))
    result = {
        "correct": failed == 0,
        "attempted": ledger.attempted,
        "failed": failed,
        "metrics": metrics,
    }
    (work / "result.json").write_text(json.dumps(
        {"args": vars(args), "env": env, "failures": ledger.failures,
         "walls": ledger.walls, "cpus": ledger.cpus, "refs": ledger.refs,
         **result},
        indent=1,
    ))
    print(json.dumps(result))
    return 0


def _end_to_end(ledger: Ledger, setups, elapsed, peak_kb):
    walls, cpus, refs = ledger.walls, ledger.cpus, ledger.refs
    n = len(walls)
    xref = [w / r for w, r in zip(walls, refs)]
    tail_s, pct = tail(walls)
    tail_x, _ = tail(xref)
    values = {
        "op_p50_xref": statistics.median(xref),
        "op_mean_xref": statistics.fmean(xref),
        "op_tail_xref": tail_x,
        "op_p50_ms": statistics.median(walls) * 1e3,
        "op_tail_ms": tail_s * 1e3,
        "op_cpu_p50_ms": statistics.median(cpus) * 1e3,
        "ops_per_s": n / elapsed,
        "setup_s": statistics.median(setups) * FLOOR_SCALE_S,
        "peak_rss_mb": peak_kb / 1024,
        "fail_ratio": len(ledger.failures) / ledger.attempted,
    }
    beyond = f"p{pct}, {n - math.ceil(pct / 100 * n)} of {n} ops beyond"
    summary = [
        f"{'op_p50_ms':<16} {values['op_p50_ms']:11.4f} ms    "
        f"{'op_p50_xref':<16} {values['op_p50_xref']:9.3f} xref  (median of {n} ops)",
        f"{'':<16} {'':>11}       "
        f"{'op_mean_xref':<16} {values['op_mean_xref']:9.3f} xref  (mean of {n} ops)",
        f"{'op_tail_ms':<16} {values['op_tail_ms']:11.4f} ms    "
        f"{'op_tail_xref':<16} {values['op_tail_xref']:9.3f} xref  ({beyond})",
        f"{'op_cpu_p50_ms':<16} {values['op_cpu_p50_ms']:11.4f} ms    (user+sys)",
        f"{'ops_per_s':<16} {values['ops_per_s']:11.4f} 1/s   "
        f"({n} ops in the {elapsed:.2f} s timed phase, references included)",
        f"{'setup_s':<16} {values['setup_s']:11.4f} s     (median of {len(setups)} set-ups "
        f"over the floor, x {FLOOR_SCALE_S} s)",
        f"{'peak_rss_mb':<16} {values['peak_rss_mb']:11.2f} MB    "
        f"(largest process that ran operations)",
        f"{'reference':<16} {statistics.median(refs) * 1e3:11.4f} ms    "
        f"(median; 1 xref = the reference timed next to each op)",
    ]
    return values, summary


def _trace_summary(values: dict) -> list[str]:
    layers = [f"{layer}.self_ms" for layer in spans.LAYERS]
    bound = {attr for _, attr, _ in spans.BINDINGS}
    bindings = [f"{label}.self_ms" for label, fields in spans.REPORTED.items()
                if "self_ms" in fields and label.split(".")[1] in bound]
    lines = [f"{k:<34} {values[k]:.4f} ms/op" for k in layers + bindings]
    lines.append(
        f"{'trace.self_sum_ms':<34} {values['trace.self_sum_ms']:.4f} ms/op "
        f"(sum of the self times above) vs traced op mean "
        f"{values['trace.op_mean_ms']:.4f} ms"
    )
    lines.append(
        f"{'trace.overhead_ms':<34} {values['trace.overhead_ms']:.4f} ms "
        f"(traced p50 {values['trace.op_p50_ms']:.4f} - untraced p50 "
        f"{values['trace.untraced_op_p50_ms']:.4f})"
    )
    return lines


if __name__ == "__main__":
    sys.exit(main())
