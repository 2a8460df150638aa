"""Tests of the benchmark itself: its oracles, its trace counts and its
result contract.  Run from the repository root:

    python3 -m pytest -q bench
"""

from __future__ import annotations

import bisect
import dataclasses
import json
import shutil
import signal
import subprocess
import sys
import time
from fractions import Fraction
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import workloads as wl  # noqa: E402

# Stats that are exact functions of the inputs.
COUNT_STATS = ("calls", "input_points", "facets_out", "repeat_ratio", "hit_ratio",
               "points", "radius_ratio")
COMMAND = [sys.executable, "bench/run.py"]


@pytest.fixture(autouse=True)
def _op_cap():
    previous = signal.signal(signal.SIGALRM, run._on_alarm)
    yield
    signal.signal(signal.SIGALRM, previous)


def _counts(metrics: dict) -> dict:
    return {k: v["value"] for k, v in metrics.items() if k.rsplit(".", 1)[1] in COUNT_STATS}


def _run(*args, cwd=ROOT):
    proc = subprocess.run(COMMAND + list(args), cwd=cwd, capture_output=True, text=True,
                          timeout=180)
    return proc, proc.stdout.strip().splitlines()


def test_splitmix_copy_matches_the_library():
    run.Lib()
    from latmin.generate import instance_stream

    for seed in (0, 1, 2 ** 63 + 5):
        for index in (0, 7):
            ours, theirs = wl.substream(seed, index), instance_stream(seed, index)
            assert [ours.next_u64() for _ in range(5)] == [theirs.next_u64() for _ in range(5)]


def test_oracles_agree_with_the_library():
    lib = run.Lib()
    rng = wl.substream(99, 0)
    for d, n in ((2, 4), (2, 5), (3, 5)):
        for _ in range(4):
            pts = wl.random_points(rng, n, d, 2)
            assert wl.brute_width(pts) == lib.gon.lattice_width(
                lib.polytope.convex_hull(pts, d)).width
    for _ in range(4):
        pts = wl.random_points(rng, 7, 3, 3)
        Q = lib.polytope.convex_hull(pts, 3)
        assert wl.oracle_lattice_points(pts) == (lib.polytope.lattice_points(Q, "all"),
                                                 lib.polytope.lattice_points(Q, "interior"))
    for q in range(0, 6):
        for p in ((0, 0, 0, 0), (1, 0, 2, 1), (q, 0, 1, 0)):
            assert wl.brute_flag_h0(4, p, q) == lib.postulation.flag_h0(4, p, q)


def test_checks_reject_a_wrong_output():
    lib = run.Lib()
    for w in wl.WORKLOADS.values():
        state = w.setup(lib, 5, 3)
        for i in (1, 2):
            out = w.op(lib, state, i)
            assert w.check(lib, state, i, out)
            if w.name == "verify-d3":
                out["width"] = dataclasses.replace(out["width"], width=out["width"].width + 1)
            elif w.name == "width-skew":
                out = (dataclasses.replace(out[0], width=out[0].width + 1), out[1])
            else:
                out = (out[0][:-1], out[1]) if i % 2 == 0 else (out[0] + 1, out[1])
            assert not w.check(lib, state, i, out)


def test_op_cap_aborts_an_enumeration_blow_up(monkeypatch):
    lib = run.Lib()
    thin = lib.polytope.convex_hull([(0, 0), (1000, 0), (0, Fraction(1, 1000))], 2)
    monkeypatch.setattr(run, "OP_CAP_S", 0.5)
    seconds, out, exc = run.capped(lib.gon.lattice_width, thin)
    assert isinstance(exc, run.OpTimeout) and out is None
    assert seconds < 5


def _trace_counts(name: str, seed: int, ops: int) -> dict:
    workload = dataclasses.replace(wl.WORKLOADS[name], trace_ops=ops)
    tracer, plain, traced = run.traced_run(workload, seed)
    assert all(ok for _, _, ok in plain + traced)
    return _counts(tracer.metrics())


@pytest.mark.parametrize("name", sorted(wl.WORKLOADS))
def test_trace_counts_repeat_across_runs_and_sets(name):
    ops = {"verify-d3": 2, "width-skew": 6, "lattice-count": 6}[name]
    first = [_trace_counts(name, seed, ops) for seed in (3, 4)]
    second = [_trace_counts(name, seed, ops) for seed in (3, 4)]
    assert first == second
    assert first[0] != first[1]
    assert first[0]["polytope.convex_hull.calls"] > 0


def test_traced_command_repeats_its_counts():
    runs = []
    for _ in range(2):
        proc, lines = _run("--workload", "lattice-count", "--seed", "8", "--seconds", "1",
                           "--trace", "1")
        assert proc.returncode == 0, proc.stderr
        result = json.loads(lines[-1])
        assert result["correct"] and result["failed"] == 0
        assert list(result["metrics"]) == list(run.RESULT_METRICS[1])
        runs.append(_counts(result["metrics"]))
    assert runs[0] == runs[1]
    assert runs[0]["postulation.box_count.points"] > 0


def test_untraced_command_prints_every_metric():
    proc, lines = _run("--workload", "width-skew", "--seed", "2", "--seconds", "1",
                       "--trace", "0")
    assert proc.returncode == 0, proc.stderr
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["attempted"] >= 1 and result["failed"] == 0
    assert list(result["metrics"]) == list(run.RESULT_METRICS[0])
    printed = {line.split()[0] for line in lines[1:-1]}
    raw = {"ops_per_s", "op_p50_ms", "op_tail_ms", "setup_s"}
    assert printed == set(run.RESULT_METRICS[0]) | {"failed_ratio"} | {f"raw.{k}" for k in raw}


def test_reference_speed_scales_by_the_kernel_time():
    ref = run.REF_KERNEL_S
    assert run.at_reference(2.0, ref, ref) == 2.0
    # A host twice as slow doubles both the op and the kernel time.
    assert run.at_reference(4.0, 2 * ref, 2 * ref) == 2.0
    assert 0 < run.calibrate() < 1


def test_budget_is_counted_at_reference_speed(monkeypatch):
    """On a host twice as fast as the reference, ops of 10 ms count 20 ms,
    so a 0.2 s budget ends after about 10 ops and 0.1 s of op time."""
    fake = wl.Workload("fake", lambda lib, seed, n: {}, lambda lib, state, i: time.sleep(0.01),
                       lambda lib, state, i, out: True, lambda out: None,
                       pool=1000, trace_ops=1, tail_pct=90)
    monkeypatch.setattr(run, "calibrate", lambda: run.REF_KERNEL_S / 2)
    results, calibrations = run.measure(fake, None, {}, 0.2)
    assert len(calibrations) == len(results) + 1
    assert all(ref == pytest.approx(2 * raw) for raw, ref, _ in results)
    assert sum(ref for _, ref, _ in results) >= 0.2 > sum(ref for _, ref, _ in results[:-1])


def test_stratified_inputs_land_in_their_strata():
    strata = len(wl.SKEW_STRATA) + 1
    for i in range(40):
        pts, sheared = wl._skew_input(wl.stream(6, i), i)
        k = wl.SKEW_K[i % len(wl.SKEW_K)]
        work = wl.enumeration_work(sheared) / k ** 2
        assert bisect.bisect_right(wl.SKEW_STRATA, work) == (i + i // strata) % strata
        assert wl.brute_width(pts) == wl.brute_width(sheared)
    strata = len(wl.FLAG_STRATA) + 1
    for i in range(1, 80, 2):
        q, p = wl._flag_input(wl.substream(6, i), i)
        j = i // 2
        assert q == wl.FLAG_Q[(37 * j) % len(wl.FLAG_Q)] and all(0 <= x <= q // 2 for x in p)
        work = Fraction(wl.chain_count([q - x for x in p]), q ** 4)
        assert bisect.bisect_right(wl.FLAG_STRATA, work) == (j + j // strata) % strata


def test_chain_count_matches_the_dp():
    rng = wl.substream(17, 0)
    for _ in range(30):
        caps = [rng.int_in(0, 12) for _ in range(rng.int_in(1, 4))]
        assert wl.chain_count(caps) == wl.dp_box_count(caps)


def test_lazy_inputs_repeat_and_bodies_are_stratified():
    lib = run.Lib()
    for name in ("width-skew", "lattice-count"):
        w = wl.WORKLOADS[name]
        a, b = w.setup(lib, 9, w.pool), w.setup(lib, 9, w.pool)
        key = "inputs" if name == "width-skew" else "flags"
        for i in (7, 3, 1):
            assert a[key][i] == b[key][i]
    state = wl.WORKLOADS["lattice-count"].setup(lib, 9, 4)
    assert len(state["bodies"]) == wl.BASE_BODIES * len(wl.DILATES)
    assert state["bodies"][0][0] == wl.WORKLOADS["lattice-count"].setup(lib, 10, 4)["bodies"][0][0]


def test_result_metrics_match_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in spec["workloads"]] == list(wl.WORKLOADS)
    assert [m["name"] for m in spec["end_to_end"]] == list(run.RESULT_METRICS[0])
    assert [m["name"] for m in spec["per_layer"]] == list(run.RESULT_METRICS[1])


def test_fails_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc, lines = _run("--workload", "verify-d3", "--seed", "1", "--seconds", "1",
                       "--trace", "0", cwd=tmp_path)
    assert proc.returncode != 0
    assert not lines
