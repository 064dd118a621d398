"""esdec benchmark: one workload per run, closed loop, one client.

    python3 perfbench/run.py --workload decide|qe|extract --seed N \\
        --seconds S --trace 0|1

Run from the root of a checkout; esdec is imported from its ``src``
directory.  The script first re-executes itself with a fixed
PYTHONHASHSEED (see HASH_SEED).  Op and set-up times are CPU time (see
op_clock).  Set-up (import, input generation, parsing) is repeated
SETUP_REPEATS times and its median reported as ``setup_s``.  The timed
loop then runs whole rounds of ops (each round has a fixed mix of op
classes) until the next round would end after ``--seconds``, with at
least MIN_OPS ops.  Every output is checked against the references in
``reference.py``; any disagreement or unexpected exception marks the
run incorrect, and the process exits 1 after printing its result.
Reported times are scaled to a reference machine speed measured by
work slices run between ops (see calibration.py).

``--trace 1`` runs TRACE_ROUNDS rounds untraced, then the same rounds
with spans around every layer boundary, and prints the per-layer
metrics; spans are written to ``.perfbench_out/``.  The last line of
standard output is always the JSON result.
"""

from __future__ import annotations

import argparse
import gc
import importlib
import json
import math
import os
import resource
import statistics
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from calibration import Speedometer  # noqa: E402
from reference import (  # noqa: E402
    check_bruteforce, check_decide, check_embedding, check_homogeneous, check_qe,
)
from workloads import WORKLOADS, make_rounds  # noqa: E402

SETUP_REPEATS = 7
MIN_OPS = 100
# op CPU seconds between two calibration slices (a slice takes about 0.04 s)
CAL_EVERY_S = 0.3
# rounds generated at set-up; the loop wraps around if it runs out
POOL_ROUNDS = {"decide": 8, "qe": 40, "extract": 60}
# rounds measured (twice) by the traced run
TRACE_ROUNDS = {"decide": 2, "qe": 12, "extract": 12}

# Op and set-up times are this process's CPU time.  The loop is one
# CPU-bound thread that does no I/O, so on a dedicated machine this equals
# wall time; on a shared virtual machine it leaves out the time the host
# steals from the virtual CPU, which moved wall-clock rates by up to 40%
# between identical runs.  CPU time still moved by up to 2x with the
# host's load, so the reported times are also scaled by calibration.py.
# Run length is still bounded by wall time.
op_clock = time.process_time

ANSWERED = "answered"
UNANSWERED = "unanswered"
FAILED = "failed"


class EsdecMissing(RuntimeError):
    pass


def import_esdec():
    """A fresh import of esdec from the checkout (earlier imports are
    dropped, so each set-up pays the import again)."""
    src = ROOT / "src"
    if not (src / "esdec" / "__init__.py").is_file():
        raise EsdecMissing(f"esdec sources not found under {src}")
    if str(src) not in sys.path:
        sys.path.insert(0, str(src))
    for name in [n for n in sys.modules if n == "esdec" or n.startswith("esdec.")]:
        del sys.modules[name]
    esdec = importlib.import_module("esdec")
    for sub in ("errors", "predicates", "decider", "ramsey", "qe", "qe.cad",
                "qe.sentences"):
        importlib.import_module(f"esdec.{sub}")
    return esdec


def prepare(esdec, rounds: list) -> list:
    """Parse every op's text; returns rounds of (op, parsed argument)."""
    parse = esdec.predicates.parse
    qe = esdec.qe
    out = []
    for ops in rounds:
        prepared = []
        for op in ops:
            if op.kind == "qe":
                arg = qe.parse_sentence(op.text)
                if op.params.get("negate"):
                    arg = qe.sentence_negate(arg)
            elif op.kind in ("decide", "homog", "bruteforce"):
                arg = parse(op.text)
            else:
                arg = None
            prepared.append((op, arg))
        out.append(prepared)
    return out


def setup(workload: str, seed: int, pool_rounds: int):
    esdec = import_esdec()
    return esdec, prepare(esdec, make_rounds(workload, seed, pool_rounds))


# -- one op -----------------------------------------------------------------


def run_op(esdec, op, arg):
    """Call esdec for one op.  Returns its result, or the honest-failure
    exception (budget exhausted, extraction failure) it raised; any other
    exception propagates.  Only this call is inside the op timer."""
    errors = esdec.errors
    if op.kind == "decide":
        return esdec.decider.decide_es(arg)
    if op.kind == "qe":
        try:
            return esdec.qe.decide_sentence(arg)
        except errors.ResourceLimitError as exc:
            return exc
    if op.kind == "embed":
        params = esdec.ramsey.GrowthParams(op.params["R"], op.params["n"])
        try:
            return esdec.ramsey.extract_growing_embedding(op.host, params)
        except errors.ExtractionFailure as exc:
            return exc
    if op.kind == "homog":
        try:
            return esdec.ramsey.extract_homogeneous(op.host, arg, op.params["n"])
        except errors.ExtractionFailure as exc:
            return exc
    if op.kind == "bruteforce":
        return esdec.decider.es_bruteforce(arg, op.params["n"], op.params["n_max"])
    raise ValueError(f"unknown op kind {op.kind!r}")


def judge(esdec, op, result) -> tuple:
    """(ANSWERED | UNANSWERED | FAILED, answer tag or failure reason)."""
    errors = esdec.errors
    if op.kind == "decide":
        witness = None
        if result.answer == "NO" and result.witness is not None:
            A, B, b = result.witness
            witness = (result.transform.value, A, B, list(b), result.orientation)
        why = check_decide(op.expect, op.members, result.answer, witness)
        if why:
            return FAILED, why
        return (UNANSWERED if result.answer == "UNDECIDED" else ANSWERED), result.answer
    if op.kind == "qe":
        if isinstance(result, errors.ResourceLimitError):
            return UNANSWERED, "budget"
        why = check_qe(op.expect, result)
        return (FAILED, why) if why else (ANSWERED, str(result).lower())
    if op.kind == "embed":
        if isinstance(result, errors.ExtractionFailure):
            return UNANSWERED, f"failure:{result.stage}"
        w = result.witness
        why = check_embedding(op.host, op.params["R"], op.params["n"], w.kind.value, w.A,
                              w.B, w.orientation, w.index_map, result.sequence)
        return (FAILED, why) if why else (ANSWERED, "embedded")
    if op.kind == "homog":
        if isinstance(result, errors.ExtractionFailure):
            return UNANSWERED, f"failure:{result.stage}"
        why = check_homogeneous(op.host, op.members, op.params["n"], result.indices,
                                result.values, result.verdicts)
        return (FAILED, why) if why else (ANSWERED, result.method)
    if op.kind == "bruteforce":
        why = check_bruteforce(op.params["n"], result.value)
        return (FAILED, why) if why else (ANSWERED, "exact")
    raise ValueError(f"unknown op kind {op.kind!r}")


# -- the loop -----------------------------------------------------------------


class Tally:
    def __init__(self):
        self.latencies: list = []
        self.status = {ANSWERED: 0, UNANSWERED: 0, FAILED: 0}
        self.mix: dict = {}  # (label, outcome) -> count
        self.by_label: dict = {}  # label -> latencies
        self.host_lengths: dict = {}  # label -> host lengths
        self.failures: list = []
        self.busy = 0.0
        self.busy_at_cal = 0.0  # busy time at the last calibration slice
        self.slices_before: list = []  # calibration slices taken before each op

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    def scaled_latencies(self, meter: Speedometer) -> list:
        """Op times in reference seconds, each scaled by the slices around it."""
        return [dt * meter.scale_at(k) for dt, k in zip(self.latencies, self.slices_before)]


def run_round(esdec, prepared: list, tally: Tally, meter: Speedometer, tracer=None,
              first_op: int = 0):
    """Run one round's ops, with a calibration slice after every
    CAL_EVERY_S of op time."""
    for i, (op, arg) in enumerate(prepared):
        if tracer is not None:
            tracer.op_id = first_op + i
        t0 = op_clock()
        try:
            result = run_op(esdec, op, arg)
        except Exception as exc:  # an unexpected exception is a failed op
            dt = op_clock() - t0
            status, tag = FAILED, f"{type(exc).__name__}: {exc}"
        else:
            dt = op_clock() - t0
            status, tag = judge(esdec, op, result)
        tally.latencies.append(dt)
        tally.slices_before.append(len(meter.samples))
        tally.busy += dt
        tally.status[status] += 1
        key = (op.label, tag if status != FAILED else FAILED)
        tally.mix[key] = tally.mix.get(key, 0) + 1
        tally.by_label.setdefault(op.label, []).append(dt)
        if op.host:
            tally.host_lengths.setdefault(op.label, []).append(len(op.host))
        if status == FAILED:
            tally.failures.append(f"{op.label} {op.text[:120]!r}: {tag}")
        if tally.busy - tally.busy_at_cal >= CAL_EVERY_S:
            meter.sample()
            tally.busy_at_cal = tally.busy


def timed_loop(esdec, pool: list, seconds: float, meter: Speedometer) -> tuple:
    """Whole rounds until the next one would end after ``seconds``."""
    tally = Tally()
    t_start = time.perf_counter()
    meter.sample()
    rounds = 0
    while True:
        run_round(esdec, pool[rounds % len(pool)], tally, meter)
        rounds += 1
        elapsed = time.perf_counter() - t_start
        if tally.attempted >= MIN_OPS and elapsed * (rounds + 1) / rounds > seconds:
            return tally, rounds


def quantile(sorted_vals: list, q: float) -> float:
    """Nearest-rank quantile."""
    return sorted_vals[max(0, math.ceil(q * len(sorted_vals)) - 1)]


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(tally: Tally, setup_s: float, latencies: list) -> dict:
    """``latencies`` are the tally's op times, scaled to reference seconds;
    the run holds whole rounds only, so ``ops_per_s`` weighs every op
    class as the round mix does."""
    n = tally.attempted
    lat = sorted(latencies)
    return {
        "ops_per_s": (n / sum(latencies), "ops/s"),
        "op_p50_s": (quantile(lat, 0.5), "s"),
        "op_p90_s": (quantile(lat, 0.9), "s"),
        "answered_share": (tally.status[ANSWERED] / n, "ratio"),
        "failed_share": (tally.status[FAILED] / n, "ratio"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


# failed_share is printed for people but kept out of the JSON result: it
# must be 0, and the result's "failed" and "correct" fields carry it
JSON_END_TO_END = ("ops_per_s", "op_p50_s", "op_p90_s", "answered_share", "setup_s",
                   "peak_rss_mb")


def report_mix(tally: Tally):
    """Input and outcome properties of the run, for claims that depend on
    them: per-class outcomes, outcome shares, latencies, host lengths."""
    n = tally.attempted
    print("op mix (class, outcome: count, share of ops):")
    for (label, tag), count in sorted(tally.mix.items()):
        print(f"  {label:16s} {tag:24s} {count:5d} {count / n:.3f}")
    outcomes: dict = {}
    for (_, tag), count in tally.mix.items():
        outcomes[tag] = outcomes.get(tag, 0) + count
    print("outcome shares: " + ", ".join(
        f"{tag} {count / n:.3f}" for tag, count in sorted(outcomes.items())))
    print("latency by class (count, median s, max s):")
    for label, lat in sorted(tally.by_label.items()):
        print(f"  {label:16s} {len(lat):5d} {statistics.median(lat):.4f} {max(lat):.4f}")
    for label, lengths in sorted(tally.host_lengths.items()):
        print(f"host length {label}: min {min(lengths)} median "
              f"{statistics.median(lengths)} max {max(lengths)}")
    for line in tally.failures[:20]:
        print(f"FAILED {line}")


def result_line(tally: Tally, metrics: dict) -> str:
    return json.dumps({
        "correct": tally.status[FAILED] == 0,
        "attempted": tally.attempted,
        "failed": tally.status[FAILED],
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    setups = []
    setup_meter = Speedometer(op_clock)
    try:
        for _ in range(SETUP_REPEATS):
            # free the previous set-up's objects outside the timed region
            esdec = pool = None
            gc.collect()
            setup_meter.sample()
            t0 = op_clock()
            esdec, pool = setup(args.workload, args.seed, POOL_ROUNDS[args.workload])
            setups.append(op_clock() - t0)
    except EsdecMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    setup_meter.sample()
    # set-up i ran between slices i and i + 1
    setup_s = statistics.median(t * setup_meter.scale_at(i + 1) for i, t in enumerate(setups))
    gc.collect()

    if args.trace:
        return traced_run(esdec, pool, args)

    meter = Speedometer(op_clock)
    tally, rounds = timed_loop(esdec, pool, args.seconds, meter)
    metrics = end_to_end(tally, setup_s, tally.scaled_latencies(meter))
    print(f"workload {args.workload} seed {args.seed}: {rounds} rounds, "
          f"{tally.attempted} ops (latency samples), closed loop, 1 client")
    print(f"calibration: {len(meter.samples)} slices, median {meter.slice_s():.4f} s, "
          f"min {min(meter.samples):.4f} s, max {max(meter.samples):.4f} s; unscaled "
          f"p50 {quantile(sorted(tally.latencies), 0.5):.6g} s, "
          f"set-up {statistics.median(setups):.6g} s")
    for name, (value, unit) in metrics.items():
        print(f"  {name:16s} {value:.6g} {unit}")
    report_mix(tally)
    print(result_line(tally, {k: metrics[k] for k in JSON_END_TO_END}))
    return 0 if tally.status[FAILED] == 0 else 1


def traced_run(esdec, pool: list, args) -> int:
    """TRACE_ROUNDS rounds untraced, then the same rounds traced; the
    ratio of their scaled op times gives trace.overhead_share."""
    from tracing import Tracer, per_layer_spec

    plain, plain_meter = Tally(), Speedometer(op_clock)
    plain_meter.sample()
    t0 = time.perf_counter()
    done = 0
    while done < min(TRACE_ROUNDS[args.workload], len(pool)):
        run_round(esdec, pool[done], plain, plain_meter)
        done += 1
        if time.perf_counter() - t0 > args.seconds:
            break

    tracer = Tracer()
    tracer.install(esdec)
    traced, traced_meter = Tally(), Speedometer(op_clock)
    traced_meter.sample()
    try:
        # parse the traced rounds again, so the parser's spans are recorded
        repool = prepare(esdec, [[op for op, _ in prepared] for prepared in pool[:done]])
        for prepared in repool:
            run_round(esdec, prepared, traced, traced_meter, tracer,
                      first_op=traced.attempted)
    finally:
        tracer.uninstall()

    overhead = (sum(traced.scaled_latencies(traced_meter))
                / sum(plain.scaled_latencies(plain_meter)) - 1.0)
    metrics = tracer.metrics(overhead)
    tracer.write(ROOT / ".perfbench_out" / f"spans-{args.workload}-{args.seed}.bin")
    spec = per_layer_spec()
    print(f"workload {args.workload} seed {args.seed}: traced {done} rounds, "
          f"{traced.attempted} ops, {len(tracer.span_name)} spans")
    for name in spec:
        print(f"  {name:56s} {metrics[name]:.6g} {spec[name][0]}")
    report_mix(traced)
    failed = plain.status[FAILED] + traced.status[FAILED]
    print(json.dumps({
        "correct": failed == 0,
        "attempted": plain.attempted + traced.attempted,
        "failed": failed,
        "metrics": {k: {"value": metrics[k], "unit": spec[k][0]} for k in spec},
    }))
    return 0 if failed == 0 else 1


# str hashing is salted per process, and the salt moved the same ops' CPU
# time by up to 25% (same work, different dict layouts); a fixed salt keeps
# runs comparable
HASH_SEED = "0"

if __name__ == "__main__":
    if os.environ.get("PYTHONHASHSEED") != HASH_SEED:
        os.environ["PYTHONHASHSEED"] = HASH_SEED
        os.execv(sys.executable, [sys.executable, *sys.argv])  # same process, new salt
    sys.exit(main())
