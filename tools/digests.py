"""Output digests of the three benchmark workloads, for checking that a
change keeps every answer.

    python3 tools/digests.py [SEED ...] [WORKLOAD ...]

Seeds default to 401 5.  Names (qe, decide, extract, algebraic,
projection) among the arguments restrict the lines to those names,
printed in that order; with no name, the three workloads are printed.
``python3 tools/digests.py 401 5 extract`` prints the two extract
lines.  For each seed it prints the sha256 of:

* qe: the truth and LiftStats of every sentence of 8 qe rounds (or the
  ResourceLimitError text);
* decide: the decide_es JSON of every op of 3 decide rounds, with the
  stats' ``elapsed`` dropped;
* extract: the result of every op of 26 extract rounds (the result's
  repr, or the failure's type, stage and message);
* algebraic, only when named: the answer of each sign_at_point and
  roots_at_point call of a corpus drawn from the seed, at points with
  two irrational coordinates (no workload reaches those), and the
  reprs of the point's numbers after the call, which the call refines;
* projection, only when named: the vars and terms of every
  collins_project output, in each variable, over a corpus of polynomial
  lists drawn from the seed, with Fraction coefficients and unused
  variables.

The workload ops come from perfbench's workload generator, imported as
it is; esdec is imported from this checkout's ``src``.  Run it on two
checkouts and compare the lines.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_rounds  # noqa: E402

from esdec.decider import decide_es, es_bruteforce  # noqa: E402
from esdec.errors import ExtractionFailure, ResourceLimitError  # noqa: E402
from esdec.poly import MultiPoly  # noqa: E402
from esdec.predicates import parse  # noqa: E402
from esdec.qe import decide_sentence_stats, parse_sentence, sentence_negate  # noqa: E402
from esdec.qe.cad import collins_project  # noqa: E402
from esdec.qe.roots import isolate_real_roots, roots_at_point, sign_at_point  # noqa: E402
from esdec.ramsey import GrowthParams, extract_growing_embedding, extract_homogeneous  # noqa: E402

ROUNDS = {"qe": 8, "decide": 3, "extract": 26}
ALGEBRAIC_CALLS = 300
PROJECTION_SETS = 300
PROJECTION_VARS = ("a1", "b1", "x1")


def _qe_line(op) -> str:
    sentence = parse_sentence(op.text)
    if op.params.get("negate"):
        sentence = sentence_negate(sentence)
    try:
        truth, stats = decide_sentence_stats(sentence)
    except ResourceLimitError as exc:
        return f"budget {exc}"
    return f"{truth} {json.dumps(stats.to_json(), sort_keys=True)}"


def _decide_line(op) -> str:
    out = decide_es(parse(op.text)).to_json()
    del out["stats"]["elapsed"]
    return json.dumps(out, sort_keys=True)


def _extract_line(op) -> str:
    try:
        if op.kind == "embed":
            result = extract_growing_embedding(op.host, GrowthParams(op.params["R"], op.params["n"]))
        elif op.kind == "homog":
            result = extract_homogeneous(op.host, parse(op.text), op.params["n"])
        else:
            result = es_bruteforce(parse(op.text), op.params["n"], op.params["n_max"])
    except ExtractionFailure as exc:
        return f"{type(exc).__name__} {exc.stage} {exc}"
    return repr(result)


def _small_poly(rng, names) -> MultiPoly:
    """Up to three terms with coefficients in -3..3, degree <= 2 in each
    of the names."""
    terms = {tuple(rng.randint(0, 2) for _ in names): rng.randint(-3, 3)
             for _ in range(rng.randint(1, 3))}
    return MultiPoly(names, terms)


def _algebraic_calls(seed: int):
    """(function, polynomial, point) of the algebraic corpus: a1 and a2
    irrational roots of small quadratics, and a polynomial in them (in z1
    too, for roots_at_point) of a few small terms, half of them with a
    multiple of a1's or a2's defining polynomial added, which makes
    values zero and roots algebraic."""
    rng = random.Random(seed)
    names = ("a1", "a2")
    for _ in range(ALGEBRAIC_CALLS):
        point = {}
        for name in names:
            k, shape = rng.randint(2, 7), rng.randrange(3)
            quadratic = ([-k, 0, 1], [-1, 0, k], [-k, -1, 1])[shape]
            roots = [r for r in isolate_real_roots(quadratic) if not r.is_rational]
            point[name] = rng.choice(roots) if roots else isolate_real_roots([-2, 0, 1])[1]

        def poly():
            p = _small_poly(rng, names)
            if rng.random() < 0.5:
                name = rng.choice(names)
                defining = MultiPoly((name,), {(i,): c for i, c in enumerate(point[name].poly)})
                p = p + _small_poly(rng, names) * defining
            return p

        if rng.random() < 0.5:
            yield sign_at_point, poly(), point
        else:
            z = MultiPoly.var("z1")
            p = poly() * z + poly()
            if rng.random() < 0.5:
                p = p * (z - MultiPoly.var(rng.choice(names)) - MultiPoly.var(rng.choice(names)))
            yield roots_at_point, p, point


def _algebraic_line(call) -> str:
    f, p, point = call
    args = (p, point) if f is sign_at_point else (p, point, "z1")
    try:
        out = repr(f(*args))
    except ResourceLimitError as exc:
        out = f"budget {exc}"
    return f"{f.__name__} {p} {out} {[repr(point[v]) for v in sorted(point)]}"


def _projection_sets(seed: int):
    """Lists of one to three polynomials declared over a1, b1, x1 and c1,
    of up to four terms with coefficients n/d (n in -3..3, d in 1..3) and
    degrees up to 3 in x1, 2 in a1 and 1 in b1; c1 is never used, and
    each of the others goes unused in some polynomials."""
    rng = random.Random(seed)
    names = PROJECTION_VARS + ("c1",)
    for _ in range(PROJECTION_SETS):
        polys = []
        for _ in range(rng.randint(1, 3)):
            live = [rng.random() < 0.8 for _ in PROJECTION_VARS]
            terms = {}
            for _ in range(rng.randint(1, 4)):
                mono = tuple(rng.randint(0, top) if on else 0
                             for top, on in zip((2, 1, 3), live)) + (0,)
                terms[mono] = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
            polys.append(MultiPoly(names, terms))
        yield polys


def _projection_line(polys) -> str:
    return " ".join(f"{var} {[(q.vars, sorted(q.terms.items())) for q in collins_project(polys, var)]}"
                    for var in PROJECTION_VARS)


LINES = {"qe": _qe_line, "decide": _decide_line, "extract": _extract_line,
         "algebraic": _algebraic_line, "projection": _projection_line}


def _ops(workload: str, seed: int):
    if workload == "algebraic":
        return _algebraic_calls(seed)
    if workload == "projection":
        return _projection_sets(seed)
    return (op for ops in make_rounds(workload, seed, ROUNDS[workload]) for op in ops)


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for op in _ops(workload, seed):
        h.update(LINES[workload](op).encode())
        h.update(b"\n")
    return h.hexdigest()


def main(argv: list) -> int:
    named = [w for w in LINES if w in argv]
    seeds = [int(s) for s in argv if s not in LINES] or [401, 5]
    for seed in seeds:
        for workload in named or ROUNDS:
            print(f"seed {seed} {workload} {digest(workload, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
