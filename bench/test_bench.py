"""Self-tests of the benchmark harness (no hurwitzcf needed).

    python3 -m unittest discover -s bench
"""

from __future__ import annotations

import json
import os
import re
import unittest
from decimal import Decimal, localcontext
from fractions import Fraction

import harness
import refs
import tracing
import workloads
from workloads import Op, OpFailed

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
NAME = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")


def span(name, start, end, parent=-1):
    return (name, start, end, parent, 0)


class SelfTime(unittest.TestCase):
    def test_union_of_children(self):
        self.assertEqual(tracing.covered_length([(1, 3), (2, 5), (7, 8)],
                                                0, 10), 5)
        self.assertEqual(tracing.covered_length([(-1, 2), (9, 12)], 0, 10), 3)
        self.assertEqual(tracing.covered_length([], 0, 10), 0)

    def test_nested_spans(self):
        spans = [span("a", 0, 10), span("b", 1, 4, 0), span("c", 2, 3, 1),
                 span("d", 5, 9, 0)]
        self.assertEqual(tracing.self_times(spans), [3, 2, 1, 4])

    def test_self_times_add_up_to_top_level_time(self):
        spans = [span("a", 0, 10), span("b", 1, 4, 0), span("c", 2, 3, 1),
                 span("e", 12, 15), span("f", 13, 14, 3)]
        self.assertEqual(sum(tracing.self_times(spans)), 13)

    def test_tracer_records_parents_and_counts(self):
        tracer = tracing.Tracer()

        def inner(n):
            return list(range(n))

        traced_inner = tracer.wrap("cf_engine.convergents", inner)
        outer = tracer.wrap("outer", lambda: len(traced_inner(4)) +
                            len(traced_inner(3)))
        tracer.op = 7
        self.assertEqual(outer(), 7)
        names = [s[0] for s in tracer.spans]
        self.assertEqual(names, ["outer", "cf_engine.convergents",
                                 "cf_engine.convergents"])
        self.assertEqual([s[3] for s in tracer.spans], [-1, 0, 0])
        self.assertEqual({s[4] for s in tracer.spans}, {7})
        self.assertEqual(tracer.counts["cf_engine.convergents.terms"], 7)

    def test_traced_self_time_within_op_wall_time(self):
        tracer = tracing.Tracer()
        work = tracer.wrap("fibpoly.fib_eval", lambda n: sum(range(n)))
        top = tracer.wrap("hurwitz.prec_recurrence_p",
                          lambda: [work(2000) for _ in range(20)])
        ops = [Op("top", top, lambda _: [])]
        rounds = harness.run_rounds(ops, 0.05)
        totals = tracing.LayerTotals()
        totals.add(tracer.spans, tracer.counts)
        layers = totals.metrics(rounds.rounds, sum(map(sum, rounds.times)),
                                0.0, rounds.scale)
        self.assertLessEqual(layers["trace.self_total_s"],
                             layers["trace.wall_s"])
        self.assertEqual(layers["fibpoly.fib_eval.calls"], 20)


class MetricNames(unittest.TestCase):
    def setUp(self):
        with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
            self.spec = json.load(fh)

    def test_names_and_units_are_well_formed_and_unique(self):
        names = [m["name"] for key in ("end_to_end", "per_layer")
                 for m in self.spec[key]]
        names += [w["name"] for w in self.spec["workloads"]]
        self.assertEqual(len(names), len(set(names)))
        for name in names:
            self.assertRegex(name, NAME)
        for key in ("end_to_end", "per_layer"):
            for metric in self.spec[key]:
                self.assertRegex(metric["unit"], UNIT)

    def test_spec_matches_what_the_harness_reports(self):
        self.assertEqual([(m["name"], m["unit"]) for m in
                          self.spec["end_to_end"]], list(harness.END_TO_END))
        self.assertEqual([(m["name"], m["unit"]) for m in
                          self.spec["per_layer"]], list(tracing.PER_LAYER))
        self.assertEqual([w["name"] for w in self.spec["workloads"]],
                         list(workloads.WORKLOADS))

    def test_layer_totals_report_every_per_layer_metric(self):
        reported = tracing.LayerTotals().metrics(1, 1.0, 1.0)
        self.assertEqual(list(reported), [m for m, _ in tracing.PER_LAYER])

    def test_end_to_end_reports_every_metric(self):
        values = harness.end_to_end([[0.1, 0.2], [0.3, 0.1]],
                                    [0.1, 0.3, 0.2], 2048)
        self.assertEqual(list(values), [m for m, _ in harness.END_TO_END])
        self.assertAlmostEqual(values["wall_s"], 0.35)
        self.assertAlmostEqual(values["op_max_ms"], 200)
        self.assertEqual(values["setup_s"], 0.2)
        self.assertEqual(values["peak_rss_mb"], 2)


class FakeClock:
    def __init__(self, step):
        self.now, self.step = 0.0, step

    def __call__(self):
        self.now += self.step
        return self.now


def _fails():
    raise ValueError("bad input")


def _refuse(result):
    raise OpFailed("non-zero exit")


class Counting(unittest.TestCase):
    def ops(self):
        return [Op("ok", lambda: 2, lambda d: [] if d == 2 else ["wrong"]),
                Op("raises", _fails, lambda d: ["checked"]),
                Op("refused", lambda: 1, lambda d: ["checked"], _refuse)]

    def test_one_round_counts(self):
        ops = self.ops()
        rounds = harness.run_rounds(ops, 0)
        self.assertEqual((rounds.rounds, rounds.attempted, rounds.failed),
                         (1, 3, 2))
        self.assertEqual(harness.check_outputs(ops, rounds), [])

    def test_whole_rounds_keep_the_failed_share(self):
        rounds = harness.run_rounds(self.ops(), 10, clock=FakeClock(0.5))
        self.assertGreater(rounds.rounds, 1)
        self.assertEqual(rounds.attempted, 3 * rounds.rounds)
        self.assertEqual(rounds.failed, 2 * rounds.rounds)
        self.assertTrue(all(len(t) == rounds.rounds for t in rounds.times))

    def test_wrong_output_is_reported(self):
        ops = [Op("ok", lambda: 3, lambda d: [] if d == 2 else ["wrong"])]
        self.assertEqual(harness.check_outputs(ops,
                                               harness.run_rounds(ops, 0)),
                         ["wrong"])

    def test_output_that_changes_between_rounds_is_reported(self):
        values = iter(range(100))
        ops = [Op("drift", lambda: next(values), lambda d: [])]
        rounds = harness.run_rounds(ops, 10, clock=FakeClock(1))
        self.assertGreater(rounds.rounds, 1)
        self.assertTrue(harness.check_outputs(ops, rounds))


class Inputs(unittest.TestCase):
    GENERATORS = (workloads.limits_deep_inputs,
                  workloads.convergents_deep_inputs,
                  workloads.oracles_inputs, workloads.cli_inputs)

    def test_seed_determines_inputs(self):
        for make in self.GENERATORS:
            self.assertEqual(make(5), make(5))
            self.assertNotEqual(make(5), make(6))

    def test_limits_deep_covers_classes_degrees_and_forms(self):
        inputs = workloads.limits_deep_inputs(1)
        tuples = {t for _, t, _ in inputs}
        self.assertEqual({refs.sigma_tag(refs.sigma(t)) for t in tuples},
                         {"half-odd", "integer", "other"})
        self.assertEqual({t[3] for t in tuples}, {1, 2, 3, 4})
        self.assertTrue(set(refs.CLOSED_FORMS) <= tuples)
        self.assertEqual({m for m, _, _ in inputs}, {"xi_limit", "xi_bessel"})
        self.assertTrue(all(1000 <= d <= 3010 for _, _, d in inputs))

    def test_cli_failures_do_not_depend_on_the_seed(self):
        for seed in range(20):
            requests = workloads.cli_inputs(seed)
            self.assertEqual(requests[-2:], list(workloads.FAILING_REQUESTS))
            self.assertEqual(len(requests), 17)

    def test_euler_mindig_indices_stay_within_its_guard(self):
        for seed in range(20):
            for verb, t, *extra in workloads.cli_inputs(seed):
                if "euler-mindig" in extra:
                    n = int(extra[extra.index("--n") + 1])
                    self.assertLessEqual(n * t[3] + t[4] - 1, 22)
            for kind, *args in workloads.oracles_inputs(seed):
                if kind == "euler_mindig":
                    self.assertLessEqual(args[1], 22)


class References(unittest.TestCase):
    def test_int_text_has_no_length_limit(self):
        self.assertEqual(refs.int_text(10 ** 6000), "1" + "0" * 6000)
        self.assertEqual(refs.int_text(-12), "-12")

    def test_convergents_of_e_minus_one(self):
        # e - 1 = [1; 1, 2, 1, 1, 4, ...]: 1, 2, 5/3, 7/4, 12/7, 55/32
        got = refs.convergents((1, 2, 2, 3, 2), 5, keep=range(-1, 6))
        self.assertEqual([got[i] for i in range(-1, 6)],
                         [(1, 0), (1, 1), (2, 1), (5, 3), (7, 4), (12, 7),
                          (55, 32)])

    def test_residues_follow_the_exact_recurrence(self):
        t = (2, 1, 1, 2, 1)
        exact = refs.convergents(t, 300, keep=range(-1, 301))
        m = refs.RESIDUE_MODULUS
        self.assertEqual(refs.convergent_residues(t, 300),
                         [(n, hash(p), hash(q)) for n, (p, q) in
                          sorted(exact.items())])
        self.assertEqual([(n, p % m, q % m) for n, (p, q) in
                          sorted(exact.items())],
                         refs.convergent_residues(t, 300))

    def test_fibonacci_and_lucas(self):
        self.assertEqual([refs.fib_lucas(n, 1) for n in range(6)],
                         [(0, 2), (1, 1), (1, 3), (2, 4), (3, 7), (5, 11)])
        self.assertEqual(refs.fib_poly_coeffs(5), [1, 0, 3, 0, 1])
        self.assertEqual(refs.fib_poly_coeffs(0), [])

    def test_sigma_and_sweep_counts(self):
        self.assertEqual(refs.sigma((1, 2, 2, 3, 2)), Fraction(3, 2))
        self.assertEqual(refs.sigma((4, 3, 1, 2, 1)), Fraction(7, 2))
        counts = refs.sweep_counts(3, 3, 3)
        tags = [refs.sigma_tag(refs.sigma((a, b0, b1, d, 0)))
                for a in range(1, 4) for d in (2, 3)
                for b1 in range(1, 4) for b0 in range(1, 4)]
        self.assertEqual(counts, {t: tags.count(t) for t in counts})

    def test_limit_check_accepts_truth_and_rejects_a_wrong_digit(self):
        with localcontext() as ctx:
            ctx.prec = 80
            text = str(refs.e_minus_one().quantize(Decimal(10) ** -60))
        self.assertEqual(refs.check_limit_text((1, 2, 2, 3, 2), 60, text), [])
        wrong = text[:-3] + str((int(text[-3]) + 1) % 10) + text[-2:]
        self.assertTrue(refs.check_limit_text((1, 2, 2, 3, 2), 60, wrong))
        self.assertTrue(refs.check_limit_text((1, 2, 2, 3, 2), 61, text))


if __name__ == "__main__":
    unittest.main()
