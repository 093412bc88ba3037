"""Run the benchmark over workloads and seeds and print every metric by name
with its unit; with several seeds, print each metric's median, quartiles
and spread (interquartile distance over the median).

    python3 bench/report.py                         # every workload, seed 1, both modes
    python3 bench/report.py --seeds 1-10 --trace 0 --out bench/spread.json
    python3 bench/report.py --workloads prism_solve --seeds 1-5 --trace 0

Each run is a separate process (``bench/run.py``), as the benchmark is run
for real.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def seeds_arg(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run([sys.executable, str(BENCH / "run.py"), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        raise SystemExit(f"{workload} seed {seed}: incorrect output\n{proc.stderr}")
    return result


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) < 2:
        return {"median": med}
    q1, _, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med if med else 0.0}


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seeds", type=seeds_arg, default=[1])
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--trace", choices=("0", "1", "both"), default="both")
    parser.add_argument("--out", type=Path, help="write the per-metric summary as JSON")
    args = parser.parse_args()

    modes = (0, 1) if args.trace == "both" else (int(args.trace),)
    bounds = {m["name"]: m.get("bound") for m in SPEC["end_to_end"]}
    summary: dict = {}
    for workload in args.workloads.split(","):
        for trace in modes:
            runs = [run_once(workload, seed, args.seconds, trace) for seed in args.seeds]
            for name, first in runs[0]["metrics"].items():
                values = [r["metrics"][name]["value"] for r in runs]
                stats = spread(values)
                summary.setdefault(workload, {})[name] = dict(stats, unit=first["unit"],
                                                              values=values)
                line = f"{workload:13} {name:40} {stats['median']:>16.6g} {first['unit']:6}"
                if "spread" in stats:
                    line += (f" q1 {stats['q1']:.6g} q3 {stats['q3']:.6g}"
                             f" spread {stats['spread']:.4f}")
                    if bounds.get(name):
                        line += f" (bound {bounds[name]})"
                print(line, flush=True)
    if args.out:
        args.out.write_text(json.dumps({"seeds": args.seeds, "seconds": args.seconds,
                                        "workloads": summary}, indent=1) + "\n")


if __name__ == "__main__":
    main()
