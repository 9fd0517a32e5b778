"""Benchmark of the certificate pipeline: one workload, one seed, one run.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --smoke

Run from the root of a checkout; the library is imported from its src/.
Workloads and metrics are defined in BENCHMARK.json and perfbench/README.md.

--trace 0 measures the end-to-end metrics with tracing off: a fresh
worker process repeats the workload's op list for about --seconds, and
set-up is repeated in SETUP_RUNS fresh processes, half before and half
after the measuring worker, and reported as the median.
--trace 1 runs the op list once traced in a fresh worker, replaying each
op stage by stage, then once untraced in another, and reports the
per-layer metrics; spans go to .perfbench_out/.  --smoke runs every
workload at toy size, both ways.

The last line of stdout is the result as one JSON object.  The exit code
is 0 when a result was printed and 1 when the run could not complete.
"""

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

HERE = Path(__file__).resolve().parent
OUT_DIR = Path(".perfbench_out")
SETUP_RUNS = 11  # set-up samples per run: SETUP_RUNS - 1 probes plus the worker's own
DEADLINE_S = 170  # the whole run must end within 180 s


class RunFailed(Exception):
    pass


def run_worker(args, deadline):
    """Run worker.py in a fresh process; return its JSON result."""
    command = [sys.executable, str(HERE / "worker.py"), *args]
    env = dict(os.environ, PYTHONHASHSEED="0")
    env.pop("RW_BUDGET", None)  # the README's default budget applies
    timeout = deadline - perf_counter()
    if timeout <= 0:
        raise RunFailed("out of time before starting " + " ".join(args))
    try:
        proc = subprocess.run(command, capture_output=True, text=True, env=env, timeout=timeout)
    except subprocess.TimeoutExpired:
        raise RunFailed(f"worker did not finish within {DEADLINE_S} s: {' '.join(args)}")
    if proc.returncode != 0:
        raise RunFailed(f"worker failed ({proc.returncode}): {proc.stderr.strip()}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def tally(records):
    """(attempted, failed, failed other than by a pinned known defect)."""
    failed = [r for r in records if r["failure"]]
    return len(records), len(failed), sum(not r["known"] for r in failed)


def by_op(records):
    """Op records grouped by op name, in op-list order."""
    grouped = {}
    for record in records:
        grouped.setdefault(record["name"], []).append(record)
    return grouped


def op_lines(records):
    """One line per op: its outcome, run count, median time and failures."""
    lines = []
    for name, runs in by_op(records).items():
        failures = [r for r in runs if r["failure"]]
        summary = {
            "op": name,
            "runs": len(runs),
            "p50_s": median(r["seconds"] for r in runs),
            "outcome": runs[0]["outcome"],
            "failed": len(failures),
        }
        if failures:
            summary["why"] = failures[0]["failure"]
            summary["known_defect"] = all(r["known"] for r in failures)
        lines.append("op " + json.dumps(summary))
    return lines


def run(workload, seed, seconds, trace, size="full"):
    """One benchmark run; returns (report lines, result dict)."""
    deadline = perf_counter() + DEADLINE_S
    common = ["--workload", workload, "--seed", str(seed), "--size", size]
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    if trace:
        report = run_worker(["--mode", "trace", *common], deadline)
        untraced = run_worker(["--mode", "measure", "--seconds", "0", *common], deadline)
        report["layers"]["perfbench.trace.overhead_s"] = (
            sum(r["seconds"] for r in report["records"]) - untraced["passes"][0]
        )
        report["records"] += untraced["records"]
        units = {m["name"]: m["unit"] for m in spec["per_layer"]}
        values = {name: report["layers"][name] for name in units}
        notes = {}
    else:
        # Set-up takes some 20 ms, and the machine's speed drifts over
        # seconds, so the probes sample both sides of the measuring run.
        def probe():
            return run_worker(["--mode", "setup", *common], deadline)["setup_s"]

        setups = [probe() for _ in range(SETUP_RUNS // 2)]
        report = run_worker(["--mode", "measure", "--seconds", str(seconds), *common], deadline)
        setups += [report["setup_s"]] + [probe() for _ in range(SETUP_RUNS - 1 - SETUP_RUNS // 2)]
        units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
        ops = by_op(report["records"])
        values = {
            "setup_s": median(setups),
            "wall_s": median(report["passes"]),
            # Each op's median over the passes first: the plain median of a
            # list with a few fast and a few slow ops falls between two
            # clusters and would follow the noisiest op at either edge.
            "op_p50_s": median(median(r["seconds"] for r in runs) for runs in ops.values()),
            "peak_rss_mb": report["peak_rss_mb"],
        }
        notes = {
            "setup_s": f"median of {len(setups)} set-ups",
            "wall_s": f"median of {len(report['passes'])} passes over the op list",
            "op_p50_s": f"median of {len(ops)} ops' medians over "
                        f"{len(report['records'])} op runs",
        }
    attempted, failed, unexpected = tally(report["records"])
    lines = [f"workload {workload} seed {seed} size {size} trace {int(trace)}"]
    lines += op_lines(report["records"])
    for name, unit in units.items():
        note = f" ({notes[name]})" if name in notes else ""
        lines.append(f"{name} {values[name]:.6g} {unit}{note}")
    lines.append(f"error_rate {failed / attempted:.6g} ratio ({failed} of {attempted} ops failed)")
    result = {
        "correct": unexpected == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit} for name, unit in units.items()},
    }
    OUT_DIR.mkdir(exist_ok=True)
    name = f"report-{size}-{workload}-seed{seed}-trace{int(trace)}.json"
    (OUT_DIR / name).write_text(json.dumps({"report": report, "result": result}), encoding="utf-8")
    return lines, result


def smoke():
    """Every workload at toy size, untraced and traced; 0 when all are correct."""
    spec = json.loads(Path("BENCHMARK.json").read_text(encoding="utf-8"))
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        for trace in (0, 1):
            start = perf_counter()
            _, result = run(workload, seed=1, seconds=0, trace=trace, size="toy")
            ok &= result["correct"]
            print(
                f"{workload} trace {trace}: correct {result['correct']}, "
                f"{result['failed']} of {result['attempted']} ops failed, "
                f"{perf_counter() - start:.1f} s"
            )
    return 0 if ok else 1


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int)
    parser.add_argument("--seconds", type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1))
    parser.add_argument("--smoke", action="store_true", help="every workload at toy size")
    args = parser.parse_args(argv)

    if not Path("src/bipartite_ramsey/__init__.py").is_file():
        print("run.py: no src/bipartite_ramsey here; run from the root of a checkout",
              file=sys.stderr)
        return 1
    try:
        if args.smoke:
            return smoke()
        if None in (args.workload, args.seed, args.seconds, args.trace):
            parser.error("--workload, --seed, --seconds and --trace are required")
        lines, result = run(args.workload, args.seed, args.seconds, args.trace)
    except RunFailed as exc:
        print(f"run.py: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
