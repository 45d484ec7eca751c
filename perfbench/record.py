"""Run the benchmark over several seeds and record medians and spreads.

Usage::

    python3 perfbench/record.py --runs 10 --out perfbench/results/NAME.json
    python3 perfbench/record.py --workloads sweep --runs 5 --first-seed 2

For each workload it runs ``run.py`` once per seed (``--first-seed``,
``--first-seed + 1``, ...), and reports for every end-to-end metric the
median, the quartiles and the spread: the distance between the quartiles
as a share of the median, as ``statistics.quantiles(values, n=4)`` gives
them.  With ``--traced`` it adds one traced run per workload at the
default seed and keeps its layer tables.  A run that fails or reports
``correct: false`` stops the recording.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path
from typing import Any, Dict, List

import specs

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int
        ) -> Dict[str, Any]:
    """One benchmark run: its printed report and its result line."""
    completed = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600)
    lines = completed.stdout.strip().splitlines()
    if completed.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed:\n"
                         f"{completed.stderr}")
    result = json.loads(lines[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed} is not correct:\n"
                         + "\n".join(lines[:-1]))
    return {"report": lines[:-1], "result": result}


def summarize(values: List[float]) -> Dict[str, Any]:
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    declared = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    names = [w["name"] for w in declared["workloads"]]
    parser.add_argument("--workloads", nargs="+", choices=names,
                        default=names)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=specs.DEFAULT_SEED)
    parser.add_argument("--seconds", type=int,
                        default=declared["run_seconds"])
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in declared["end_to_end"]}
    record: Dict[str, Any] = {"run_seconds": args.seconds, "workloads": {}}
    for workload in args.workloads:
        seeds = range(args.first_seed, args.first_seed + args.runs)
        runs = [run(workload, seed, args.seconds, 0) for seed in seeds]
        metrics = {name: summarize([r["result"]["metrics"][name]["value"]
                                    for r in runs])
                   for name in bounds}
        entry: Dict[str, Any] = {"seeds": list(seeds), "metrics": metrics,
                                 "attempted": [r["result"]["attempted"]
                                               for r in runs]}
        print(f"{workload}: {args.runs} runs")
        for name, summary in metrics.items():
            flag = "" if summary["spread"] < bounds[name] / 3 else \
                "  <-- above a third of its bound"
            print(f"  {name:<16} median {summary['median']:12.4f}  "
                  f"spread {summary['spread']:6.1%}  "
                  f"(bound {bounds[name]:.0%}){flag}\n    "
                  + " ".join(f"{value:.4g}" for value in summary["values"]))
        if args.traced:
            traced = run(workload, specs.DEFAULT_SEED, args.seconds, 1)
            entry["traced"] = {
                "report": traced["report"],
                "metrics": {name: value["value"] for name, value
                            in traced["result"]["metrics"].items()}}
            print("\n".join(traced["report"]))
        record["workloads"][workload] = entry
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1) + "\n",
                            encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
