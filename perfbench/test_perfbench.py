"""Tests of the benchmark itself: deterministic generators, references
that reject tampered outputs, and a printer that emits every metric
BENCHMARK.json names.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import contextlib
import io
import json
from fractions import Fraction
from pathlib import Path

import pytest

import calibration
import reference as ref
import run
import workloads
from tracing import Tracer, per_layer_spec

BENCHMARK = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
F = Fraction


def _fingerprint(rounds: list) -> list:
    return [[(op.kind, op.label, op.text, op.expect, op.host, op.params) for op in ops]
            for ops in rounds]


# -- generators ---------------------------------------------------------------


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_generators_are_deterministic(workload):
    a = workloads.make_rounds(workload, 7, 3)
    b = workloads.make_rounds(workload, 7, 3)
    c = workloads.make_rounds(workload, 8, 3)
    assert _fingerprint(a) == _fingerprint(b)
    assert _fingerprint(a) != _fingerprint(c)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_rounds_have_a_fixed_mix(workload):
    rounds = workloads.make_rounds(workload, 3, 4)
    mixes = [sorted(op.label for op in ops) for ops in rounds]
    if workload == "qe":  # golden sentences rotate; growth patterns are fixed
        mixes = [[lab for lab in m if lab.startswith("growth")] for m in mixes]
    assert all(m == mixes[0] for m in mixes)


def test_qe_sentences_are_distinct():
    rounds = workloads.make_rounds("qe", 5, 10)
    texts = [op.text for ops in rounds for op in ops if op.label.startswith("growth")]
    assert len(texts) == len(set(texts))


def test_decide_texts_match_benchmark_predicates():
    """The text handed to esdec and the benchmark's own predicate agree."""
    from esdec.predicates import eval_at, parse

    for ops in workloads.make_rounds("decide", 2, 1):
        for op in ops:
            pset = parse(op.text)
            for member, node in zip(pset.members, op.members):
                for point in ((F(0), F(0)), (F(1), F(-2)), (F(-3), F(5)), (F(7, 2), F(7, 2))):
                    pt = point[:member.arity]
                    assert eval_at(member, pt) == ref.holds(node, *point), op.text


# -- references -----------------------------------------------------------------

LT = ("atom", {(1, 0): F(1), (0, 1): F(-1)}, "<")  # x1 - x2 < 0
UNARY = ("atom", {(1, 0): F(1), (0, 0): F(-3)}, "<")  # x1 - 3 < 0


def test_decide_reference_rejects_flipped_verdict():
    assert ref.check_decide("YES", [LT, workloads.negation(LT)], "YES", None) is None
    assert ref.check_decide("YES", [LT, workloads.negation(LT)], "NO", None)
    assert ref.check_decide("NO", [LT], "YES", None)
    assert ref.check_decide("NO", [LT], "UNDECIDED", None) is None


def test_decide_reference_rejects_perturbed_witness():
    b = [F(4), F(256)]
    # 3 + b is never below 3, so x1 - 3 < 0 fails on every tuple
    assert ref.check_no_witness([UNARY], "F1", F(3), F(1), b, "ascending") is None
    assert ref.check_no_witness([UNARY], "F1", F(-10), F(1), b, "ascending")
    # a decreasing image makes x1 < x2 false everywhere; reversed, it holds
    assert ref.check_no_witness([LT], "F1", F(0), F(-1), b, "ascending") is None
    assert ref.check_no_witness([LT], "F1", F(0), F(-1), b, "descending")


def test_expected_singletons():
    one = ("atom", {(1, 0): F(2), (0, 1): F(-2)}, "=")
    assert ref.expected_singleton({"node": LT, "family": "diff"}) == "NO"
    assert ref.expected_singleton({"node": one, "family": "diff"}) == "NO"
    taut = ("or", LT, ("not", LT))
    assert ref.expected_singleton({"node": taut, "family": "diff"}) == "YES"
    assert ref.expected_singleton({"node": UNARY, "family": "unary"}) == "NO"


def test_qe_reference_rejects_wrong_truth():
    assert ref.check_qe(True, True) is None
    assert ref.check_qe(True, False)
    assert ref.check_qe(False, True)
    D, G = "D", "G"
    assert ref.growth_gap_truth(frozenset({(D, "u", "v"), (G, "v", "u")}))
    assert not ref.growth_gap_truth(frozenset({(D, "u", "v"), (G, "u", "v")}))
    assert not ref.growth_gap_truth(frozenset({(G, "u", "v"), (G, "v", "u")}))


def _embedding_case():
    b = (F(4), F(256), F(256) ** 4)
    host = [F(1), F(5) + 2 * b[0], F(-7), F(5) + 2 * b[1], F(5) + 2 * b[2]]
    return host, b


def test_embedding_reference_rejects_tampering():
    host, b = _embedding_case()
    good = dict(kind="F1", A=F(5), B=F(2), orientation="forward", index_map=(1, 3, 4), b=b)
    assert ref.check_embedding(host, 4, 3, **good) is None
    assert ref.check_embedding(host, 4, 3, **dict(good, A=F(6)))
    assert ref.check_embedding(host, 4, 3, **dict(good, index_map=(1, 2, 4)))
    slow = (F(4), F(256), F(257))
    assert ref.check_embedding(host, 4, 3, **dict(good, b=slow))


def test_homogeneous_reference_rejects_tampering():
    host = [F(3), F(1), F(4), F(1, 2), F(9)]
    members = [LT, workloads.negation(LT)]
    verdicts = {0: "everywhere", 1: "nowhere"}
    assert ref.check_homogeneous(host, members, 3, (1, 2, 4), (F(1), F(4), F(9)),
                                 verdicts) is None
    flipped = {0: "nowhere", 1: "everywhere"}
    assert ref.check_homogeneous(host, members, 3, (1, 2, 4), (F(1), F(4), F(9)), flipped)
    mixed = (F(3), F(1), F(4))
    assert ref.check_homogeneous(host, members, 3, (0, 1, 2), mixed, verdicts)


def test_bruteforce_reference():
    assert ref.check_bruteforce(3, 5) is None
    assert ref.check_bruteforce(3, 6)
    assert ref.check_bruteforce(3, None)


# -- calibration ----------------------------------------------------------------


def test_speedometer_scales_by_the_slices_around_an_op():
    ref = calibration.REFERENCE_SLICE_S
    slices = [ref, ref, ref, 2 * ref, 2 * ref, 2 * ref, 2 * ref]
    ticks = iter(t for s in slices for t in (0.0, s))
    meter = calibration.Speedometer(lambda: next(ticks))
    for _ in slices:
        meter.sample()
    assert meter.slice_s() == pytest.approx(2 * ref)
    assert meter.scale_at(1) == pytest.approx(1.0)  # slices 0-2, all fast
    assert meter.scale_at(6) == pytest.approx(0.5)  # slices 4-6, twice as slow
    tally = run.Tally()
    tally.latencies, tally.slices_before = [0.2, 0.2], [1, 6]
    assert tally.scaled_latencies(meter) == pytest.approx([0.2, 0.1])


# -- printer --------------------------------------------------------------------


def test_end_to_end_printer_emits_every_metric():
    tally = run.Tally()
    tally.latencies = [0.1, 0.2, 0.3, 0.3, 0.1, 0.2]
    tally.status[run.ANSWERED] = 6
    metrics = run.end_to_end(tally, 0.5, tally.latencies)
    assert metrics["ops_per_s"][0] == pytest.approx(6 / 1.2)
    assert metrics["op_p50_s"][0] == pytest.approx(0.2)
    names = {m["name"] for m in BENCHMARK["end_to_end"]}
    assert set(run.JSON_END_TO_END) == names
    line = json.loads(run.result_line(tally, {k: metrics[k] for k in run.JSON_END_TO_END}))
    assert set(line) == {"correct", "attempted", "failed", "metrics"}
    assert set(line["metrics"]) == names
    assert {"failed_share"} | names == set(metrics)


def test_per_layer_spec_matches_benchmark():
    spec = per_layer_spec()
    assert [(m["name"], m["unit"], m["better"]) for m in BENCHMARK["per_layer"]] == \
        [(k, u, b) for k, (u, b) in spec.items()]
    assert set(Tracer().metrics(0.0)) == set(spec)


def test_traced_run_prints_every_per_layer_metric(monkeypatch):
    monkeypatch.setattr(run, "SETUP_REPEATS", 1)
    monkeypatch.setitem(run.TRACE_ROUNDS, "extract", 1)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = run.main(["--workload", "extract", "--seed", "1", "--seconds", "1",
                         "--trace", "1"])
    assert code == 0
    result = json.loads(out.getvalue().strip().splitlines()[-1])
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == set(per_layer_spec())
    assert result["metrics"]["ramsey.extract_homogeneous.calls"]["value"] > 0
