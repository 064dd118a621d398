"""Output digests of the three benchmark workloads, for checking that a
change keeps every answer.

    python3 tools/digests.py [SEED ...] [WORKLOAD ...]

Seeds default to 401 5.  Workload names (qe, decide, extract) among the
arguments restrict the lines to those workloads, printed in that order;
with no name, all three are printed.  ``python3 tools/digests.py 401 5
extract`` prints the two extract lines.  For each seed it prints the
sha256 of:

* qe: the truth and LiftStats of every sentence of 8 qe rounds (or the
  ResourceLimitError text);
* decide: the decide_es JSON of every op of 3 decide rounds, with the
  stats' ``elapsed`` dropped;
* extract: the result of every op of 26 extract rounds (the result's
  repr, or the failure's type, stage and message).

The ops come from perfbench's workload generator, imported as it is;
esdec is imported from this checkout's ``src``.  Run it on two checkouts
and compare the lines.  Standard library only.
"""

from __future__ import annotations

import hashlib
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(ROOT / "perfbench"))

from workloads import make_rounds  # noqa: E402

from esdec.decider import decide_es, es_bruteforce  # noqa: E402
from esdec.errors import ExtractionFailure, ResourceLimitError  # noqa: E402
from esdec.predicates import parse  # noqa: E402
from esdec.qe import decide_sentence_stats, parse_sentence, sentence_negate  # noqa: E402
from esdec.ramsey import GrowthParams, extract_growing_embedding, extract_homogeneous  # noqa: E402

ROUNDS = {"qe": 8, "decide": 3, "extract": 26}


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


LINES = {"qe": _qe_line, "decide": _decide_line, "extract": _extract_line}


def digest(workload: str, seed: int) -> str:
    h = hashlib.sha256()
    for ops in make_rounds(workload, seed, ROUNDS[workload]):
        for op in ops:
            h.update(LINES[workload](op).encode())
            h.update(b"\n")
    return h.hexdigest()


def main(argv: list) -> int:
    named = [w for w in ROUNDS if w in argv]
    seeds = [int(s) for s in argv if s not in ROUNDS] or [401, 5]
    for seed in seeds:
        for workload in named or ROUNDS:
            print(f"seed {seed} {workload} {digest(workload, seed)}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
