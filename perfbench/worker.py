"""One workload in one fresh process; started by run.py, never imported.

Modes:
  setup    import the library, generate the inputs, report the time taken;
  measure  then repeat the fixed op list untraced for about --seconds
           (one pass when --seconds is 0);
  trace    then run the op list once traced, replaying every op stage by
           stage, and report the per-layer metrics.  The traced pass is
           the process's first work, so the rss_mb read in its first op
           is not yet the process's high-water mark.

The last line of stdout is one JSON object with the results.
"""

import argparse
import json
import os
import shutil
import sys
from pathlib import Path
from statistics import median
from time import perf_counter

START = perf_counter()  # set-up time counts from here: import plus inputs

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import bipartite_ramsey  # noqa: E402
import workloads  # noqa: E402
from tracing import NULL_TRACER, Tracer, layer_totals, rss_mb  # noqa: E402

OUT_DIR = ".perfbench_out"  # relative to the checkout root, the working directory


def run_pass(workload, tracer, replay=False):
    workload.before_pass()
    return [workloads.run_op(op, tracer, replay) for op in workload.ops]


def measure(workload, seconds):
    """Repeat the op list until another pass would end past ``seconds``."""
    passes, records = [], []
    start = perf_counter()
    while True:
        done = run_pass(workload, NULL_TRACER)
        records.extend(done)
        passes.append(sum(r.seconds for r in done))
        if perf_counter() - start + median(passes) > seconds:
            return passes, records


def pipeline_gap(spans):
    """Pipeline seconds minus its replayed stages, summed over the ops
    that have both: the compose step plus the tracing overhead."""
    replays = {s["id"] for s in spans if s["name"] == "replay"}
    pipeline, stages = {}, {}
    for span in spans:
        seconds = span["end"] - span["start"]
        if span["name"] == "pipeline.find_induced_mono_pattern":
            pipeline[span["op"]] = pipeline.get(span["op"], 0.0) + seconds
        elif span["parent"] in replays:
            stages[span["op"]] = stages.get(span["op"], 0.0) + seconds
    return sum(seconds - stages.get(op, 0.0) for op, seconds in pipeline.items())


def trace(workload, layer_names, spans_path):
    tracer = Tracer()
    records = run_pass(workload, tracer, replay=True)
    tracer.write(spans_path)
    layers = layer_totals(tracer.spans, layer_names)
    layers["pipeline.find_induced_mono_pattern.gap_s"] = pipeline_gap(tracer.spans)
    return records, layers


def main():
    parser = argparse.ArgumentParser()
    parser.add_argument("--mode", choices=("setup", "measure", "trace"), required=True)
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--size", choices=tuple(workloads.SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=0)
    args = parser.parse_args()

    library = Path(bipartite_ramsey.__file__).resolve()
    if ROOT / "src" not in library.parents:
        sys.exit(f"bipartite_ramsey was imported from {library}, not from this checkout")

    workdir = os.path.join(OUT_DIR, f"tmp-{args.workload}-{os.getpid()}")
    os.makedirs(workdir)
    try:
        inputs = workloads.make_inputs(args.workload, args.seed, args.size, workdir)
        setup_s = perf_counter() - START
        result = {"setup_s": setup_s}
        if args.mode != "setup":
            workload = workloads.build(args.workload, inputs, args.size)
            if args.mode == "measure":
                passes, records = measure(workload, args.seconds)
                result["passes"] = passes
            else:
                with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
                    names = [m["name"] for m in json.load(fh)["per_layer"]]
                spans_path = os.path.join(
                    OUT_DIR, f"spans-{args.size}-{args.workload}-seed{args.seed}.json"
                )
                records, result["layers"] = trace(workload, names, spans_path)
                result["spans"] = spans_path
            result["records"] = [vars(r) for r in records]
            result["peak_rss_mb"] = rss_mb()
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    print(json.dumps(result))


if __name__ == "__main__":
    main()
