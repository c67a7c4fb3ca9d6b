"""Round loop, operation and failure counting, and the end-to-end metrics.

A round is one pass over a workload's fixed list of operations.  A run
repeats whole rounds until ``--seconds`` have passed, so every run attempts
the same operations the same number of times per round and ``failed`` is
always the same share of ``attempted``.
"""

from __future__ import annotations

import os
import statistics
from dataclasses import dataclass, field
from fractions import Fraction
from time import perf_counter

from workloads import OpFailed

# (metric, unit) in the order they are reported under --trace 0.
END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("op_p50_ms", "ms"),
    ("op_max_ms", "ms"),
    ("peak_rss_mb", "MB"),
)

# Environment variables that would change what is measured: an
# integer-string limit, a precision cap, a path to another copy of the
# program, no bytecode cache.
_SCRUBBED = ("PYTHONPATH", "PYTHONINTMAXSTRDIGITS", "HURWITZ_MAX_PRECISION",
             "PYTHONDONTWRITEBYTECODE")


def child_env(root: str) -> dict:
    """Environment for processes that run program code: the checkout's own
    src/ and the interpreter's defaults for everything the program reads."""
    env = {k: v for k, v in os.environ.items() if k not in _SCRUBBED}
    env["PYTHONPATH"] = os.path.join(root, "src")
    return env


# The machine's speed drifts by up to a third within seconds (other
# tenants, clock changes), and every timing drifts with it.  So a fixed
# piece of interpreter, big-integer, rational and generator work, mixed like
# the program's own, is timed before each operation (or group of operations
# shorter than CALIBRATION_PERIOD_S) and once more at the end.  Each time is
# scaled by CALIBRATION_REF_S / (median of the CALIBRATION_WINDOW
# calibrations nearest to it, half before and half after): times are
# reported in seconds at the speed where the piece takes CALIBRATION_REF_S,
# about its median on a 2-core Python 3.11.7 box.  The median keeps one
# calibration slowed by the clean-up after a large operation from moving
# that operation's time.
CALIBRATION_REF_S = 0.006
CALIBRATION_PERIOD_S = 0.02
CALIBRATION_WINDOW = 10
_MODULUS = 7 ** 2000


def _even_runs(lo: int, hi: int):
    """Subsets of lo..hi made of even-length runs, as tuples."""
    if lo > hi:
        yield ()
        return
    yield from _even_runs(lo + 1, hi)
    for end in range(lo + 1, hi + 1, 2):
        for rest in _even_runs(end + 2, hi):
            yield tuple(range(lo, end + 1)) + rest


def calibrate() -> float:
    """Seconds taken by the fixed calibration work (about 6 ms): an integer
    loop, big-integer products and a growing recurrence, rational sums,
    and generator, set and dict work like the enumeration oracles'."""
    t0 = perf_counter()
    x = 0
    for i in range(8000):
        x += i * i
    n = 3 ** 2500
    for _ in range(15):
        n = n * n % _MODULUS
    kept, a, b = [], 0, 1
    for _ in range(2500):
        a, b = b, 3 * b + a
        kept.append(b)
    s, t = Fraction(0), Fraction(1)
    for k in range(1, 110):
        t = t * Fraction(3, k * (2 * k + 1))
        s += t
    total = 0
    for run in _even_runs(0, 11):
        skip = set(run)
        total += sum(i for i in range(12) if i not in skip)
    table = {(i, i % 7): str(i) for i in range(3000)}
    return perf_counter() - t0


def speed_factor(cals, k: int) -> float:
    """Factor for a time measured between calibrations k and k + 1."""
    half = CALIBRATION_WINDOW // 2
    window = cals[max(0, k + 1 - half):k + 1 + half]
    return CALIBRATION_REF_S / statistics.median(window)


@dataclass
class Rounds:
    """Per-operation times (one list per op, one entry per round) as read
    and as scaled by the calibrations, the first round's digests and the
    outcome counts of a run."""
    raw_times: list
    digests: list
    times: list = field(default_factory=list)
    rounds: int = 0
    attempted: int = 0
    failed: int = 0
    errors: list = field(default_factory=list)

    @property
    def scale(self) -> float:
        """Overall speed factor of the run: scaled over raw time."""
        return sum(map(sum, self.times)) / sum(map(sum, self.raw_times))

    def summary(self, ops, peak_rss_kb: int) -> dict:
        """What a run reports to run.py, outputs checked."""
        return {"labels": [op.label for op in ops], "times": self.times,
                "raw_times": self.raw_times, "rounds": self.rounds,
                "attempted": self.attempted, "failed": self.failed,
                "errors": check_outputs(ops, self),
                "peak_rss_kb": peak_rss_kb}


def run_rounds(ops, seconds: float, on_op=None,
               clock=perf_counter) -> Rounds:
    """Run whole rounds of ``ops`` until ``seconds`` have passed (at least
    one round).  Only ``op.run`` is timed; ``raw_times`` holds the times as
    read and ``times`` the same scaled by the calibrations around them.  An
    op fails when ``run`` or ``digest`` raises; every later round must
    reproduce the first round's digests exactly."""
    out = Rounds([[] for _ in ops], [None] * len(ops))
    cals, cal_before = [], [[] for _ in ops]
    last_cal = None
    start = clock()
    while True:
        for i, op in enumerate(ops):
            if last_cal is None or clock() - last_cal >= CALIBRATION_PERIOD_S:
                cals.append(calibrate())
                last_cal = clock()
            if on_op is not None:
                on_op(i)
            out.attempted += 1
            t0 = clock()
            try:
                result = op.run()
            except Exception as exc:
                result = exc
            out.raw_times[i].append(clock() - t0)
            cal_before[i].append(len(cals) - 1)
            try:
                if isinstance(result, Exception):
                    raise OpFailed(f"{type(result).__name__}: {result}")
                digest = op.digest(result)
            except OpFailed:
                out.failed += 1
                digest = OpFailed
            del result
            if out.rounds == 0:
                out.digests[i] = digest
            elif digest != out.digests[i]:
                out.errors.append(f"{op.label}: round {out.rounds + 1} "
                                  "differs from round 1")
        out.rounds += 1
        if clock() - start >= seconds:
            break
    cals.append(calibrate())
    out.times = [[t * speed_factor(cals, k) for t, k in zip(raw, ks)]
                 for raw, ks in zip(out.raw_times, cal_before)]
    return out


def check_outputs(ops, rounds: Rounds) -> list:
    """Errors from checking each op's first-round output; failed ops have
    no output and are only counted."""
    errors = list(rounds.errors)
    for op, digest in zip(ops, rounds.digests):
        if digest is not OpFailed:
            errors += op.check(digest)
    return errors


def end_to_end(times, setup_samples, peak_rss_kb: int) -> dict:
    """The END_TO_END metrics from per-op scaled times (one entry per
    round), the set-up samples and the peak resident memory."""
    op_medians = [statistics.median(t) for t in times]
    round_walls = [sum(column) for column in zip(*times)]
    return {
        "setup_s": statistics.median(setup_samples),
        "wall_s": statistics.median(round_walls),
        "op_p50_ms": 1e3 * statistics.median(op_medians),
        "op_max_ms": 1e3 * max(op_medians),
        "peak_rss_mb": peak_rss_kb / 1024,
    }
