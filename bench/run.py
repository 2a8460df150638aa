#!/usr/bin/env python3
"""Benchmark of the latmin library: one closed-loop client in one process.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The next op starts only after the previous one
returned; nothing runs in threads.  The package is imported from ``src/`` next
to this directory, never from an installed copy, so the command fails (exit 2,
no result line) where ``src/latmin`` is absent.

A run does, in order:

1. The gate.  The sha256 of ``latmin.cli.run`` stdout for ``CLI_ARGVS`` (all
   six verify suites and the three byte-determinism argvs of the acceptance
   tests) and the canonical JSON digest of the workload's first reference ops
   at ``GATE_SEED`` must equal those in ``digests.json``.  A mismatch fails
   the run.  To re-record after a deliberate output change, dump
   ``recorded_digests()`` from this module into ``digests.json``.
2. Set-up, ``SETUP_REPS`` times: a fresh import of ``latmin``, input
   generation from ``--seed``, prebuilt bodies and one checked warm-up op.
3. With ``--trace 0``: ops from the last set-up until their time at
   reference speed (below) reaches ``--seconds``, or ``--seconds`` of wall
   time have passed.  Each op runs under a
   ``signal.setitimer`` wall cap of ``OP_CAP_S``; one that raises, hits the
   cap or fails its output check counts as failed.  Prints every end-to-end
   metric.
4. With ``--trace 1``: the workload's fixed ``trace_ops`` ops, each once on a
   plain import and once on a second import with spans around every layer
   function (see ``tracing.py`` and ``traced_run``).  The op count is fixed
   so the counts repeat exactly.  Prints every per-layer metric and
   ``trace.overhead_ratio``, traced over plain op time.

Reference speed.  On a shared host the speed of the whole guest swings by up
to 1.8 times, in phases of seconds to minutes, which would swamp any change to
the program.  So each set-up and each op is bracketed by calibrations, calls
of ``reference_kernel``, a fixed piece of pure Python that shares no code with
``latmin``.  End-to-end times are reported at the reference speed: raw
seconds times ``REF_KERNEL_S`` over the mean kernel time measured around
them.  A program that gets faster or slower moves these times by the same
share as the raw ones; the host's swings slow the program and the kernel alike
and cancel.  The raw figures are printed above the result line (``raw.*``)
and kept in the record under ``bench/out/``.

The last stdout line is the JSON result ``{"correct", "attempted", "failed",
"metrics"}``.  A fuller record (tail percentile, sample counts, Python
version, commit, nproc, seeds and the baseline that ``spread.py --baseline``
stored in ``baseline.json``) goes to ``bench/out/`` and to the lines printed
above the result.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import signal
import statistics
import sys
import traceback
from fractions import Fraction
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

from tracing import LAYERS, OVERHEAD, Tracer  # noqa: E402
from workloads import WORKLOADS, _mix, digest  # noqa: E402

OP_CAP_S = 20
SETUP_REPS = 5
# Calls of the reference kernel per calibration, and the kernel's time per
# call that sets the reference speed of the reported times: about its time on
# a 2-vCPU KVM guest with Python 3.11 while neighbours load the host, so that
# a run's ops rarely take more than --seconds of wall time.
KERNEL_CALLS = 3
REF_KERNEL_S = 0.0012
# The ops of a run stop after WALL_CAP times --seconds of wall time even when
# a slow host has not yet used up the budget at reference speed, so that a
# run's length stays bounded.
WALL_CAP = 1.0
# Metrics of the result line.  failed_ratio is printed above it but left out:
# it is 0 on working code, and the result's "failed" count carries it.
RESULT_METRICS = {
    0: ("ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s", "peak_rss_mb"),
    1: tuple(f"{name}.{stat}" for name, stats in LAYERS.items() for stat in stats)
    + (OVERHEAD,),
}
GATE_SEED = 0
GATE_OPS = {"verify-d3": 2, "width-skew": 6, "lattice-count": 6}
CLI_ARGVS = (
    ["verify", "--suite", "minkowski", "--seed", "11", "--count", "6"],
    ["verify", "--suite", "transference", "--seed", "12", "--count", "6"],
    ["verify", "--suite", "sharp2d", "--seed", "13", "--count", "6"],
    ["verify", "--suite", "flatness", "--seed", "14", "--count", "4"],
    ["verify", "--suite", "m2m", "--seed", "15", "--count", "6"],
    ["verify", "--suite", "postulation", "--seed", "16", "--count", "8", "--dim", "3"],
    ["verify", "--suite", "sharp2d", "--seed", "7", "--count", "25"],
    ["verify", "--suite", "minkowski", "--seed", "5", "--count", "10",
     "--dim", "3", "--bound", "4"],
    ["verify", "--suite", "postulation", "--seed", "2", "--count", "20",
     "--dim", "3", "--bound", "4"],
)


class Lib:
    """A fresh import of the package under src/, with its modules as attributes."""

    def __init__(self):
        for name in [n for n in sys.modules if n == "latmin" or n.startswith("latmin.")]:
            del sys.modules[name]
        pkg = importlib.import_module("latmin")
        if Path(pkg.__file__).resolve().parent != SRC / "latmin":
            raise ImportError(f"latmin imported from {pkg.__file__}, not from {SRC}")
        for name in ("polytope", "gon", "toric", "postulation", "cli"):
            setattr(self, name, importlib.import_module(f"latmin.{name}"))
        self.modules = [m for n, m in sys.modules.items()
                        if n == "latmin" or n.startswith("latmin.")]


class OpTimeout(Exception):
    pass


def _on_alarm(signum, frame):
    raise OpTimeout(f"exceeded the {OP_CAP_S} s op cap")


def capped(fn, *args):
    """(seconds, result, exception) of fn(*args) under the wall cap."""
    start = perf_counter()
    try:
        signal.setitimer(signal.ITIMER_REAL, OP_CAP_S)
        try:
            result = fn(*args)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except Exception as exc:  # a failing op is counted and the run goes on
        return perf_counter() - start, None, exc
    return perf_counter() - start, result, None


def _report(what: str, exc: BaseException) -> None:
    print(f"{what}: {type(exc).__name__}: {exc}", file=sys.stderr)
    traceback.print_exception(exc, file=sys.stderr)


def run_checked(workload, lib, state, i, op=None) -> tuple[float, object, bool]:
    """Time op i (``workload.op`` unless ``op`` is given), then check its
    output outside the timed region."""
    if workload.prepare:
        workload.prepare(state, i)
    seconds, out, exc = capped(op or workload.op, lib, state, i)
    if exc is not None:
        _report(f"{workload.name} op {i}", exc)
        return seconds, None, False
    _, ok, exc = capped(workload.check, lib, state, i, out)
    if exc is not None:
        _report(f"{workload.name} check {i}", exc)
    elif not ok:
        print(f"{workload.name} op {i}: output check failed", file=sys.stderr)
    return seconds, out, bool(ok)


# ---------------------------------------------------------------------------
# gate


def cli_digests(lib) -> list:
    out = []
    for argv in CLI_ARGVS:
        code, stdout = lib.cli.run(list(argv))
        out.append({"argv": list(argv), "exit": code,
                    "sha256": hashlib.sha256(stdout).hexdigest()})
    return out


def op_digests(lib, workload) -> list:
    """Digests of the first reference ops at GATE_SEED; None where an op or
    its check failed."""
    state = workload.setup(lib, GATE_SEED, GATE_OPS[workload.name])
    digests = []
    for i in range(GATE_OPS[workload.name]):
        _, out, ok = run_checked(workload, lib, state, i)
        digests.append(digest(workload.canonical(out)) if ok else None)
    return digests


def recorded_digests() -> dict:
    """Everything ``digests.json`` records, computed from the current code."""
    lib = Lib()
    return {"gate_seed": GATE_SEED, "cli": cli_digests(lib),
            "ops": {name: op_digests(lib, w) for name, w in WORKLOADS.items()}}


def gate(workload) -> list:
    """Mismatches against digests.json; empty when the outputs are unchanged."""
    recorded = json.loads((HERE / "digests.json").read_text(encoding="utf-8"))
    lib = Lib()
    problems = [f"cli {' '.join(c['argv'])}: exit {c['exit']} sha256 {c['sha256']}"
                for c, want in zip(cli_digests(lib), recorded["cli"]) if c != want]
    got = op_digests(lib, workload)
    problems += [f"{workload.name} reference op {i}: digest {g}"
                 for i, (g, want) in enumerate(zip(got, recorded["ops"][workload.name]))
                 if g != want]
    return problems


# ---------------------------------------------------------------------------
# reference speed

_KERNEL_POINTS = [((i * 7919) % 101 - 50, (i * 104729) % 97 - 48, i % 13 - 6)
                  for i in range(160)]


def reference_kernel() -> int:
    """Fixed pure-Python work of the kinds latmin does: small-integer dot and
    cross products over tuples, dict counting, Fraction sums and a keyed sort."""
    counts: dict = {}
    for a in _KERNEL_POINTS:
        for b in _KERNEL_POINTS[:20]:
            s = a[0] * b[1] - a[1] * b[0] + a[2] * b[2]
            counts[s] = counts.get(s, 0) + 1
    total = Fraction(0)
    for k in range(1, 40):
        total += Fraction(k, k * k + 1)
    ordered = sorted(_KERNEL_POINTS, key=lambda p: (p[0] * p[0] + p[1] * p[1], p))
    return len(counts) + total.numerator % 7 + ordered[0][2]


def calibrate() -> float:
    """Median seconds of ``KERNEL_CALLS`` kernel calls.  The collector is off
    meanwhile, so that the size of latmin's heap does not enter the time."""
    times = []
    gc.disable()
    try:
        for _ in range(KERNEL_CALLS):
            start = perf_counter()
            reference_kernel()
            times.append(perf_counter() - start)
    finally:
        gc.enable()
    return statistics.median(times)


def at_reference(seconds: float, before: float, after: float) -> float:
    """seconds measured between calibrations ``before`` and ``after``, at the
    reference speed."""
    return seconds * REF_KERNEL_S * 2 / (before + after)


# ---------------------------------------------------------------------------
# set-up and measurement


def set_up(workload, seed):
    """Import, inputs, prebuilt bodies and one warm-up op; returns seconds."""
    start = perf_counter()
    lib = Lib()
    state = workload.setup(lib, seed, workload.pool)
    if workload.prepare:
        workload.prepare(state, 0)
    _, out, exc = capped(workload.op, lib, state, 0)
    seconds = perf_counter() - start
    if exc is not None:
        raise exc
    if not workload.check(lib, state, 0, out):
        raise AssertionError(f"{workload.name} warm-up op: output check failed")
    return seconds, lib, state


def measure(workload, lib, state, seconds) -> tuple[list, list]:
    """(raw seconds, seconds at reference speed, ok) of ops 1, 2, ... until
    their time at reference speed reaches ``seconds``, and the calibrations
    taken between the ops.  The budget is counted at reference speed so that
    the host's speed does not decide how many of the seed's inputs a run
    covers; ``WALL_CAP`` times ``seconds`` of wall time ends the run anyway."""
    results, calibrations = [], [calibrate()]
    start = perf_counter()
    measured = 0.0
    i = 1
    while (measured < seconds and perf_counter() - start < WALL_CAP * seconds
           and i < workload.pool):
        dt, _, ok = run_checked(workload, lib, state, i)
        calibrations.append(calibrate())
        results.append((dt, at_reference(dt, *calibrations[-2:]), ok))
        measured += results[-1][1]
        i += 1
    return results, calibrations


def tail(times, pct) -> float:
    """The pct-th percentile of times, by nearest rank."""
    ordered = sorted(times)
    return ordered[max(math.ceil(pct / 100 * len(ordered)), 1) - 1]


def timing_metrics(workload, times, setup_times, ok) -> dict:
    """Throughput, median, tail and set-up of per-op and set-up seconds;
    failed ops count against throughput."""
    return {
        "ops_per_s": {"value": sum(ok) / sum(times), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(times) * 1e3, "unit": "ms"},
        "op_tail_ms": {"value": tail(times, workload.tail_pct) * 1e3, "unit": "ms"},
        "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
    }


def end_to_end(workload, results, setups) -> tuple[dict, dict, dict]:
    """Metrics at reference speed, the same from raw times, and the detail
    for the record, from (raw s, reference s, ok) per op and per set-up."""
    ok = [r[2] for r in results]
    failed = ok.count(False)
    metrics = timing_metrics(workload, [r[1] for r in results], [s[1] for s in setups], ok)
    metrics["failed_ratio"] = {"value": failed / len(results), "unit": "ratio"}
    metrics["peak_rss_mb"] = {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                              "unit": "MB"}
    raw = timing_metrics(workload, [r[0] for r in results], [s[0] for s in setups], ok)
    detail = {"op_tail_percentile": workload.tail_pct, "ops": len(results), "failed": failed,
              "setup_s_samples": [s[1] for s in setups],
              "raw_setup_s_samples": [s[0] for s in setups],
              "op_ms": [r[1] * 1e3 for r in results],
              "raw_op_ms": [r[0] * 1e3 for r in results]}
    return metrics, raw, detail


# ---------------------------------------------------------------------------
# provenance


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text(encoding="utf-8").strip()
    if not ref.startswith("ref: "):
        return ref
    ref = ref[5:]
    loose = ROOT / ".git" / ref
    if loose.is_file():
        return loose.read_text(encoding="utf-8").strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    return None


def src_digest() -> str:
    """sha256 over src/latmin/*.py, naming the code measured when no commit is known."""
    h = hashlib.sha256()
    for path in sorted((SRC / "latmin").glob("*.py")):
        h.update(path.name.encode() + b"\0" + path.read_bytes())
    return h.hexdigest()


def provenance(workload, seed, trace) -> dict:
    baselines = HERE / "baseline.json"
    baseline = None
    if baselines.is_file():
        baseline = json.loads(baselines.read_text(encoding="utf-8")).get(workload.name)
    return {
        "workload": workload.name,
        "seed": seed,
        # A second seed, derived from the first, that no tuning ever used: a
        # claimed gain must also hold on it.
        "held_out_seed": _mix(seed) >> 33,
        "trace": trace,
        "python": platform.python_version(),
        "commit": git_commit(),
        "src_sha256": src_digest(),
        "nproc": os.cpu_count(),
        "baseline": baseline,
    }


# ---------------------------------------------------------------------------
# main


def traced_run(workload, seed) -> tuple[Tracer, list, list]:
    """Ops 1..trace_ops on two fresh imports, one plain and one with spans.

    The two copies of an op run back to back, in alternating order, so that
    load from elsewhere falls on both alike; each import keeps its own inputs,
    so neither copy profits from what the other left in the program.
    Returns the tracer and the (seconds, output, ok) of the plain and the
    traced ops.
    """
    _, plain_lib, plain_state = set_up(workload, seed)
    _, lib, state = set_up(workload, seed)
    tracer = Tracer(lib)

    def traced_op(lib, state, i):
        with tracer.op(i):
            return workload.op(lib, state, i)

    plain, traced = [], []
    with tracer.installed():
        for i in range(1, workload.trace_ops + 1):
            pair = [(plain, plain_lib, plain_state, None), (traced, lib, state, traced_op)]
            for out, lib_, state_, op in (pair if i % 2 else pair[::-1]):
                out.append(run_checked(workload, lib_, state_, i, op))
    return tracer, plain, traced


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = args.seed % (1 << 64)

    sys.path.insert(0, str(SRC))
    signal.signal(signal.SIGALRM, _on_alarm)
    try:
        Lib()
    except ImportError as exc:
        print(f"cannot import latmin from {SRC}: {exc}", file=sys.stderr)
        return 2

    problems = gate(workload)
    if problems:
        for p in problems:
            print(f"gate mismatch: {p}", file=sys.stderr)
        return 1

    record = provenance(workload, seed, args.trace)
    if args.trace:
        tracer, plain, traced = traced_run(workload, seed)
        metrics = tracer.metrics()
        metrics[OVERHEAD] = {"value": sum(r[0] for r in traced) / sum(r[0] for r in plain),
                             "unit": "ratio"}
        results = [(r[0], r[2]) for r in plain + traced]
        record["ops"] = workload.trace_ops
        OUT.mkdir(exist_ok=True)
        tracer.write_spans(OUT / f"{workload.name}-seed{seed}-spans.jsonl")
    else:
        setups = []
        for _ in range(SETUP_REPS):
            before = calibrate()
            seconds, lib, state = set_up(workload, seed)
            setups.append((seconds, at_reference(seconds, before, calibrate())))
        ops, calibrations = measure(workload, lib, state, args.seconds)
        metrics, raw, detail = end_to_end(workload, ops, setups)
        record.update(detail, kernel_s=calibrations, ref_kernel_s=REF_KERNEL_S,
                      raw_metrics=raw)
        results = [(r[0], r[2]) for r in ops]
    failed = sum(not ok for _, ok in results)

    record["metrics"] = metrics
    OUT.mkdir(exist_ok=True)
    (OUT / f"{workload.name}-seed{seed}-trace{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n", encoding="utf-8")
    print(json.dumps({k: v for k, v in record.items()
                      if k not in ("metrics", "raw_metrics", "op_ms", "raw_op_ms", "kernel_s")}))
    printed = dict(metrics)
    printed.update({f"raw.{k}": v for k, v in record.get("raw_metrics", {}).items()})
    for name, m in printed.items():
        extra = ""
        if name.endswith("op_tail_ms"):
            extra = f"  (p{record['op_tail_percentile']:g} of {record['ops']} ops)"
        elif name == "failed_ratio":
            extra = f"  ({failed} of {len(results)} ops)"
        print(f"{name} {m['value']:.6g} {m['unit']}{extra}")
    result = {"correct": failed == 0, "attempted": len(results), "failed": failed,
              "metrics": {k: v for k, v in metrics.items() if k in RESULT_METRICS[args.trace]}}
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
