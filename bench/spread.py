#!/usr/bin/env python3
"""Run the benchmark once per seed and print each metric's median, quartiles
and spread, the distance between the quartiles as a share of the median.

    python3 bench/spread.py --workload NAME --seeds 1-10 --seconds 30 [--trace 0|1]
                            [--baseline]

Run from the repository root.  The runs are sequential, so no two measure at
once.  With ``--baseline`` the medians and quartiles are stored for the
workload in ``bench/baseline.json``, which ``run.py`` copies into every record
as the numbers to compare against.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds(text: str) -> list:
    """'1-10' or '3,5,8' as a list of ints."""
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seeds, required=True)
    ap.add_argument("--seconds", required=True)
    ap.add_argument("--trace", choices=("0", "1"), default="0")
    ap.add_argument("--baseline", action="store_true")
    args = ap.parse_args(argv)

    values: dict = {}
    record = None
    for seed in args.seeds:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", args.workload,
             "--seed", str(seed), "--seconds", args.seconds, "--trace", args.trace],
            capture_output=True, text=True, timeout=600)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            return 1
        result, record = json.loads(lines[-1]), json.loads(lines[0])
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} "
              + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()),
              flush=True)
        for name, m in result["metrics"].items():
            values.setdefault(name, ([], m["unit"]))[0].append(m["value"])

    summary = {}
    for name, (vals, unit) in values.items():
        q1, _, q3 = statistics.quantiles(vals, n=4) if len(vals) > 1 else (vals[0],) * 3
        med = statistics.median(vals)
        summary[name] = {"median": med, "q1": q1, "q3": q3, "unit": unit}
        print(f"{name:40s} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
              f"spread {(q3 - q1) / med if med else 0:.3f}")

    if args.baseline:
        path = HERE / "baseline.json"
        doc = json.loads(path.read_text(encoding="utf-8")) if path.is_file() else {}
        entry = doc.setdefault(args.workload, {})
        entry["commit"] = record["commit"]
        entry["src_sha256"] = record["src_sha256"]
        entry["python"] = record["python"]
        entry["nproc"] = record["nproc"]
        entry[f"trace{args.trace}"] = {"seconds": float(args.seconds), "seeds": args.seeds,
                                       "metrics": summary}
        path.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
