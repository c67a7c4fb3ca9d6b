"""Benchmark for hurwitzcf.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Run from the root of a checkout: the program is imported from its src/.
Prints, as the last line, one JSON object with ``correct``, ``attempted``,
``failed`` and ``metrics`` (the end-to-end metrics with --trace 0, the
per-layer metrics with --trace 1).  See bench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import subprocess
import sys
from time import perf_counter

import harness
import tracing
import workloads

HERE = os.path.dirname(os.path.abspath(__file__))
OUT_DIR = ".bench_out"
SETUP_SAMPLES = 15
COLD_START_SAMPLES = 5
RUN_LIMIT_S = 170


class Deadline:
    def __init__(self, seconds: float):
        self.end = perf_counter() + seconds

    def left(self) -> float:
        left = self.end - perf_counter()
        if left <= 0:
            raise TimeoutError("run exceeded its time limit")
        return left


def _worker_cmd(args, *extra) -> list:
    return [sys.executable, os.path.join(HERE, "worker.py"),
            "--workload", args.workload, "--seed", str(args.seed), *extra]


def scaled_samples(measure, count: int) -> list:
    """count calls of measure(), each returning seconds, with calibrations
    in between; each sample is scaled like an operation's time."""
    cals, samples = [harness.calibrate()], []
    for _ in range(count):
        samples.append(measure())
        cals.append(harness.calibrate())
    return [s * harness.speed_factor(cals, k) for k, s in enumerate(samples)]


def setup_sample(cmd, env, deadline: Deadline) -> float:
    """Seconds from starting a fresh interpreter until it reports that
    hurwitzcf is imported and the inputs are built."""
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        line = proc.stdout.readline()
        elapsed = perf_counter() - t0
        proc.wait(timeout=deadline.left())
    finally:
        proc.kill()
        proc.wait()
        proc.stdout.close()
    if line.strip() != "READY" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {cmd}")
    return elapsed


def run_in_process(args, env, deadline: Deadline, spans_path: str) -> dict:
    """Run the operations in worker.py and collect its result."""
    cmd = _worker_cmd(args, "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--spans", spans_path)
    proc = subprocess.Popen(cmd, env=env, stdout=subprocess.PIPE, text=True)
    try:
        out, _ = proc.communicate(timeout=deadline.left())
    finally:
        proc.kill()
        proc.wait()
    lines = out.splitlines()
    if proc.returncode != 0 or len(lines) < 2 or lines[0] != "READY":
        raise RuntimeError(f"worker failed with exit code {proc.returncode}")
    return json.loads(lines[-1])


def run_cli(args, env, deadline: Deadline, out_dir: str,
            spans_path: str) -> dict:
    """Closed loop, one client: each request in a fresh interpreter, the
    next one started when the previous one has exited."""
    requests = workloads.cli_inputs(args.seed)
    child_spans = os.path.join(out_dir, "cli_request_spans.json")
    totals = tracing.LayerTotals()
    batches = []

    def command(request, traced: bool) -> list:
        if traced:
            return [sys.executable, os.path.join(HERE, "clichild.py"),
                    child_spans] + workloads.cli_argv(request)
        return [sys.executable, "-m", "hurwitzcf.cli"] + \
            workloads.cli_argv(request)

    def make_op(i, request):
        cmd = command(request, bool(args.trace))

        def run():
            return subprocess.run(cmd, env=env, capture_output=True,
                                  text=True, timeout=deadline.left())

        def digest(done):
            if args.trace:
                with open(child_spans) as fh:
                    doc = json.load(fh)
                os.remove(child_spans)
                totals.add(doc["spans"], doc["counts"])
                batches.append([span[:4] + [i] for span in doc["spans"]])
            if done.returncode != 0:
                raise workloads.OpFailed(done.stderr.strip()[-200:])
            return done.stdout

        return workloads.Op(" ".join(workloads.cli_argv(request)), run,
                            lambda out: workloads.check_cli_output(request,
                                                                   out),
                            digest)

    ops = [make_op(i, r) for i, r in enumerate(requests)]
    rounds = harness.run_rounds(ops, args.seconds)
    result = rounds.summary(
        ops, resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)
    if args.trace:
        cheapest = command(next(r for r in requests if r[0] == "poly"), False)

        def cold_start() -> float:
            t0 = perf_counter()
            subprocess.run(cheapest, env=env, capture_output=True,
                           timeout=deadline.left(), check=True)
            return perf_counter() - t0

        cold = scaled_samples(cold_start, COLD_START_SAMPLES)
        result["layers"] = totals.metrics(
            rounds.rounds, sum(map(sum, rounds.times)),
            1e3 * statistics.median(cold), rounds.scale)
        tracing.write_spans(spans_path, batches)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    root = os.getcwd()
    if not os.path.isfile(os.path.join(root, "src", "hurwitzcf",
                                       "__init__.py")):
        print("bench: run from the root of a hurwitzcf checkout "
              "(src/hurwitzcf not found)", file=sys.stderr)
        return 2
    deadline = Deadline(RUN_LIMIT_S)
    # One core for this process and every process it starts, so that the
    # calibrations and the timed work run on the same core.
    os.sched_setaffinity(0, {max(os.sched_getaffinity(0))})
    out_dir = os.path.join(root, OUT_DIR)
    os.makedirs(out_dir, exist_ok=True)
    env = harness.child_env(root)
    spans_path = os.path.join(out_dir, f"spans-{args.workload}.json.gz")

    setup = []
    if not args.trace:
        probe = _worker_cmd(args, "--setup-only")
        setup_sample(probe, env, deadline)  # compiles and caches bytecode
        setup = scaled_samples(lambda: setup_sample(probe, env, deadline),
                               SETUP_SAMPLES)
    if args.workload == "cli":
        raw = run_cli(args, env, deadline, out_dir, spans_path)
    else:
        raw = run_in_process(args, env, deadline, spans_path)

    for err in raw["errors"]:
        print(f"check failed: {err}", file=sys.stderr)
    if args.trace:
        units = dict(tracing.PER_LAYER)
        values = raw["layers"]
    else:
        units = dict(harness.END_TO_END)
        values = harness.end_to_end(raw["times"], setup, raw["peak_rss_kb"])
    result = {"correct": not raw["errors"], "attempted": raw["attempted"],
              "failed": raw["failed"],
              "metrics": {name: {"value": values[name], "unit": unit}
                          for name, unit in units.items()}}
    per_op = [{"op": label, "median_s": statistics.median(t),
               "raw_median_s": statistics.median(raw_t)}
              for label, t, raw_t in zip(raw["labels"], raw["times"],
                                         raw["raw_times"])]
    with open(os.path.join(out_dir, f"result-{args.workload}-trace"
                                    f"{args.trace}.json"), "w") as fh:
        json.dump(dict(result, rounds=raw["rounds"], ops=per_op), fh,
                  indent=1)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
