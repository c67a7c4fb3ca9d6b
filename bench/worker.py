"""The process that runs an in-process workload's operations, one at a time.

Started by run.py with the checkout's src/ on PYTHONPATH.  It imports
hurwitzcf, builds the operations from the seed and prints ``READY``; that
line ends the set-up the parent times.  With ``--setup-only`` it stops
there.  Otherwise it runs whole rounds for ``--seconds``, reads its peak
resident memory, checks the outputs and prints one JSON line.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import sys


def _import_checkout_package(root: str) -> None:
    import hurwitzcf
    src = os.path.realpath(os.path.join(root, "src"))
    if not os.path.realpath(hurwitzcf.__file__).startswith(src + os.sep):
        sys.exit(f"hurwitzcf was imported from {hurwitzcf.__file__}, "
                 f"not from {src}")


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spans", help="where the traced run writes its spans")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    _import_checkout_package(os.getcwd())
    import workloads

    tracer = None
    if args.trace:
        import tracing
        tracer = tracing.Tracer()
        tracing.install(tracer)
    if args.workload == "cli":
        # Only the set-up of a cli request runs here: its requests run in
        # fresh interpreters started by run.py.
        import hurwitzcf.cli  # noqa: F401
        ops = workloads.cli_inputs(args.seed)
    else:
        ops = workloads.OPS_BY_WORKLOAD[args.workload](args.seed)
    print("READY", flush=True)
    if args.setup_only or args.workload == "cli":
        return
    import harness

    def mark(i):
        tracer.op = i

    rounds = harness.run_rounds(ops, args.seconds,
                                on_op=mark if tracer else None)
    peak_rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    result = rounds.summary(ops, peak_rss_kb)
    if tracer:
        totals = tracing.LayerTotals()
        totals.add(tracer.spans, tracer.counts)
        result["layers"] = totals.metrics(
            rounds.rounds, sum(map(sum, rounds.times)), 0.0, rounds.scale)
        tracing.write_spans(args.spans, [tracer.spans])
    print(json.dumps(result), flush=True)


if __name__ == "__main__":
    main()
