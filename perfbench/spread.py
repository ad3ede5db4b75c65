"""Run the benchmark over several seeds and report each metric's spread.

    python3 perfbench/spread.py --workloads quad4,jacobi,beamline,cli \\
        --seeds 1-10 --seconds 20 --out perfbench/results/reference.json

Runs ``perfbench/run.py`` once per (workload, seed), one process at a
time, and prints for every metric the median, the quartiles (Python's
``statistics.quantiles(values, n=4)``) and the spread (q3 - q1) / median.
With ``--out`` every run's result line is also written to a JSON file;
the reference figures in perfbench/README.md were made this way.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += list(range(int(lo), int(hi or lo) + 1))
    return seeds


def run_one(workload: str, seed: int, seconds: float, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=HERE.parent, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n{proc.stderr}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        if len(values) >= 2:
            q1, _, q3 = statistics.quantiles(values, n=4)
        else:
            q1 = q3 = med
        out[name] = {"median": med, "q1": q1, "q3": q3,
                     "spread": (q3 - q1) / med if med else 0.0,
                     "unit": results[0]["metrics"][name]["unit"]}
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    p.add_argument("--workloads", default="quad4,jacobi,beamline,cli")
    p.add_argument("--seeds", default="1-10", help="e.g. 1-10 or 3,5,8")
    p.add_argument("--seconds", type=float, default=20)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--out", default=None, help="write all result lines here")
    args = p.parse_args(argv)

    record = {"seconds": args.seconds, "trace": args.trace, "runs": {}}
    for workload in args.workloads.split(","):
        results = []
        for seed in parse_seeds(args.seeds):
            res = run_one(workload, seed, args.seconds, args.trace)
            results.append(res)
            print(f"# {workload} seed {seed}: attempted {res['attempted']} "
                  f"failed {res['failed']} correct {res['correct']}",
                  file=sys.stderr, flush=True)
        record["runs"][workload] = results
        shares = sorted({r["failed"] / r["attempted"] for r in results})
        print(f"{workload}: {len(results)} runs, failed share {shares}, "
              f"all correct {all(r['correct'] for r in results)}")
        for name, s in summarize(results).items():
            print(f"  {name:34s} median {s['median']:12.5g} {s['unit']:6s} "
                  f"q1 {s['q1']:12.5g} q3 {s['q3']:12.5g} spread {s['spread']:.4f}")
        sys.stdout.flush()
    if args.out:
        Path(args.out).parent.mkdir(parents=True, exist_ok=True)
        Path(args.out).write_text(json.dumps(record, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
