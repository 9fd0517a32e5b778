"""Repeat run.py over several seeds and report each metric's spread.

    python3 perfbench/repeat.py --workload NAME [--workload NAME ...]
        [--seeds 1-10] [--out FILE.jsonl]

Runs are sequential, one fresh untraced run.py per seed, with
BENCHMARK.json's run_seconds.  For each metric it prints the median and the spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound.  With --out,
each run's result line is appended to FILE.jsonl with its workload,
seed and elapsed seconds.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path
from statistics import median, quantiles
from time import perf_counter


def seed_range(text):
    low, _, high = text.partition("-")
    return range(int(low), int(high or low) + 1)


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", type=seed_range, default=seed_range("1-10"))
    parser.add_argument("--out")
    args = parser.parse_args()
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    for workload in args.workload:
        values = {}
        for seed in args.seeds:
            start = perf_counter()
            proc = subprocess.run(
                [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
                 "--seconds", str(spec["run_seconds"]), "--trace", "0"],
                capture_output=True, text=True,
            )
            elapsed = perf_counter() - start
            if proc.returncode != 0:
                sys.exit(f"{workload} seed {seed} failed: {proc.stderr.strip()}")
            result = json.loads(proc.stdout.splitlines()[-1])
            print(f"{workload} seed {seed}: {elapsed:.1f} s, correct {result['correct']}, "
                  f"failed {result['failed']}/{result['attempted']}", flush=True)
            for name, metric in result["metrics"].items():
                values.setdefault(name, []).append(metric["value"])
            if args.out:
                with open(args.out, "a", encoding="utf-8") as fh:
                    row = {"workload": workload, "seed": seed, "elapsed_s": elapsed, **result}
                    fh.write(json.dumps(row) + "\n")
        for name, series in values.items():
            mid = median(series)
            line = f"  {name}: median {mid:.6g}"
            if len(series) >= 2 and mid:
                q1, _, q3 = quantiles(series, n=4)
                line += f", spread {(q3 - q1) / mid:.4f} (bound {bounds[name]})"
            print(line, flush=True)


if __name__ == "__main__":
    main()
