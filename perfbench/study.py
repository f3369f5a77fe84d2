#!/usr/bin/env python3
"""Steadiness study: run each workload of ``BENCHMARK.json`` several
times, seeds 1, 2, ..., for its ``run_seconds``, and report per metric
the median and the spread (distance between the first and third
quartile as a share of the median).

Run from the root of a kashin checkout, one benchmark process at a time:

    python3 perfbench/study.py --runs 10
    python3 perfbench/study.py --runs 10 --against perfbench/out/study-trace0-<time>.json

Every run's result line is kept in
``perfbench/out/study-trace<0|1>-<time>.json``.  ``--against`` names an
earlier study of the same mode and also prints, per metric, how much
worse this study's median is than that one's, as a share of the earlier
median (negative when it is better).
"""

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

SPEC = json.loads((Path(__file__).resolve().parents[1] / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SECONDS = SPEC["run_seconds"]
BETTER = {m["name"]: m["better"] for m in SPEC["end_to_end"] + SPEC["per_layer"]}


def run_once(workload: str, seed: int, trace: int) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(SECONDS), "--trace", str(trace)]
    t0 = time.perf_counter()
    proc = subprocess.run(cmd, capture_output=True, text=True, timeout=600)
    wall = time.perf_counter() - t0
    if proc.returncode != 0:
        raise SystemExit(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    result["wall_s"] = wall
    return result


def spread(values) -> tuple[float, float]:
    """(median, (q3 - q1) / median) with statistics.quantiles(n=4)."""
    q1, q2, q3 = statistics.quantiles(values, n=4)
    med = statistics.median(values)
    return med, (q3 - q1) / med


def worse_by(name: str, median: float, earlier: float) -> float:
    """How much worse ``median`` is than ``earlier``, as a share of it."""
    change = (median - earlier) / earlier
    return change if BETTER[name] == "lower" else -change


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--runs", type=int, default=10)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--against", type=Path, help="an earlier study's JSON file")
    args = p.parse_args()
    earlier = json.loads(args.against.read_text())["summary"] if args.against else {}
    out = {"seconds": SECONDS, "trace": args.trace,
           "started": time.strftime("%Y-%m-%d %H:%M:%S"), "runs": {}, "summary": {}}
    path = Path("perfbench") / "out" / f"study-trace{args.trace}-{time.strftime('%Y%m%d-%H%M%S')}.json"
    for workload in WORKLOADS:
        results = [run_once(workload, 1 + i, args.trace) for i in range(args.runs)]
        out["runs"][workload] = results
        shares = {(r["failed"], r["attempted"]) for r in results}
        walls = [r["wall_s"] for r in results]
        print(f"{workload}: correct={all(r['correct'] for r in results)} "
              f"failed/attempted={sorted(shares)} wall max {max(walls):.1f} s")
        summary = {}
        for name in results[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in results]
            if len(values) >= 2 and statistics.median(values):
                med, sp = spread(values)
            else:
                med, sp = statistics.median(values), 0.0
            summary[name] = {"median": med, "spread": sp, "unit": results[0]["metrics"][name]["unit"]}
            line = f"  {name:52s} {med:14.6g} {summary[name]['unit']:6s} spread {100 * sp:6.2f}%"
            before = earlier.get(workload, {}).get(name, {}).get("median")
            if before:
                line += f"  worse by {100 * worse_by(name, med, before):+6.2f}%"
            print(line)
        out["summary"][workload] = summary
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(json.dumps(out, indent=1))
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
