"""Command-line frontend: batch decisions, extractions, generation, QE.

Exit codes: 0 = YES / true / success, 10 = NO / false, 20 = undecided or
unknown within budget, 30 = extraction failure, 1 = usage or parse
error.  All verification happens before printing; no unverified witness
is ever emitted.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction

from .algebra import TransformKind
from .corpus import CorpusSpec, crossratio_family, generate
from .decider import NO, UNDEC, YES, decide_es, es_bruteforce
from .errors import EsdecError, ExtractionFailure, ParseError, ResourceLimitError
from .feasibility import FeasibilityInstance, is_feasible, witness_search
from .parser import parse_sequence
from .predicates import member_verdicts, parse
from .qe import QeBudget, decide_sentence_stats, export_smtlib, parse_sentence
from .ramsey import GrowthParams, extract_growing_embedding, extract_homogeneous
from .typesys import build_Q, enumerate_types

EXIT_YES = 0
EXIT_NO = 10
EXIT_UNDECIDED = 20
EXIT_FAILURE = 30
EXIT_USAGE = 1


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as handle:
        return handle.read()


def _budget(args) -> QeBudget:
    return QeBudget() if args.cell_cap is None else QeBudget(max_cells=args.cell_cap)


def _emit(args, payload: dict, text: str):
    if args.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        print(text)


def cmd_decide(args) -> int:
    pset = parse(_read(args.predicates))
    verdict = decide_es(
        pset,
        budget=_budget(args),
        type_cap=args.type_cap,
        search_witness=not args.no_witness,
    )
    payload = verdict.to_json()
    if args.repro:
        payload["stats"]["elapsed"] = 0.0
    _emit(args, payload, f"{verdict.answer}")
    return {YES: EXIT_YES, NO: EXIT_NO, UNDEC: EXIT_UNDECIDED}[verdict.answer]


def cmd_homog(args) -> int:
    pset = parse(_read(args.predicates))
    seq = parse_sequence(_read(args.sequence))
    try:
        got = extract_homogeneous(seq, pset, args.n, node_budget=args.node_budget)
    except ExtractionFailure as exc:
        print(f"extraction failed ({exc.stage}): {exc}", file=sys.stderr)
        return EXIT_FAILURE
    verdicts = member_verdicts(pset, list(got.values))
    if any(v not in ("everywhere", "nowhere") for v in verdicts.values()):
        print("internal: result failed re-verification", file=sys.stderr)
        return EXIT_FAILURE
    payload = {
        "indices": list(got.indices),
        "values": [str(v) for v in got.values],
        "members": {str(i): v for i, v in verdicts.items()},
        "method": got.method,
    }
    _emit(args, payload, " ".join(str(v) for v in got.values))
    return EXIT_YES


def cmd_extract_growing(args) -> int:
    seq = parse_sequence(_read(args.sequence))
    try:
        emb = extract_growing_embedding(seq, GrowthParams(args.R, args.n))
    except ExtractionFailure as exc:
        print(f"extraction failed ({exc.stage}): {exc}", file=sys.stderr)
        return EXIT_FAILURE
    payload = {
        "sequence": [str(x) for x in emb.sequence],
        "witness": emb.witness.to_json(),
    }
    _emit(args, payload, " ".join(str(x) for x in emb.sequence))
    return EXIT_YES


def cmd_feasible(args) -> int:
    GrowthParams(args.R, args.n)  # the witness parameters, checked before any work
    pset = parse(_read(args.predicates))
    kind = TransformKind[args.transform]
    Q = build_Q(pset, kind)
    budget = _budget(args)
    rows = []
    feasible = infeasible = undecided = 0
    try:
        types = enumerate_types(Q, cap=args.type_cap)
    except ResourceLimitError as exc:
        print(f"type enumeration over cap: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    for typ in types:
        inst = FeasibilityInstance.from_type(Q, typ)
        verdict = is_feasible(inst, budget)
        row = {"type": typ.to_json(Q), "verdict": verdict}
        if verdict == "feasible":
            feasible += 1
            if args.witness:
                got = witness_search(Q, typ, args.R, args.n)
                if got is not None:
                    A, B, b = got
                    row["witness"] = {"A": str(A), "B": str(B),
                                      "b": [str(x) for x in b]}
        elif verdict == "infeasible":
            infeasible += 1
        else:
            undecided += 1
        rows.append(row)
    payload = {
        "transform": kind.value,
        "counts": {"feasible": feasible, "infeasible": infeasible,
                   "undecided": undecided, "total": len(rows)},
        "types": rows,
    }
    _emit(args, payload, f"feasible {feasible} / {len(rows)}")
    return EXIT_YES if undecided == 0 else EXIT_UNDECIDED


def cmd_qe(args) -> int:
    text = _read(args.file) if args.file else args.sentence
    if text is None:
        print("qe needs a sentence or --file", file=sys.stderr)
        return EXIT_USAGE
    sentence = parse_sentence(text)
    if args.smtlib:
        print(export_smtlib(sentence), end="")
        return EXIT_YES
    try:
        truth, stats = decide_sentence_stats(sentence, _budget(args))
    except ResourceLimitError as exc:
        print(f"undecided within budget: {exc}", file=sys.stderr)
        return EXIT_UNDECIDED
    payload = {"sentence": text, "truth": truth, "cells": stats.to_json()}
    _emit(args, payload, "true" if truth else "false")
    return EXIT_YES if truth else EXIT_NO


def cmd_gen(args) -> int:
    if args.family in ("monotone", "crossratio"):
        if args.family == "monotone":
            text = "x1 < x2 ; x1 >= x2"
        else:
            text = crossratio_family().to_text()
        out = text + "\n"
    else:
        spec = CorpusSpec(
            family=args.family, N=args.N,
            A=Fraction(args.A), B=Fraction(args.B),
            step=Fraction(args.step), ratio=Fraction(args.ratio), R=args.R,
        )
        values = generate(spec)
        out = "\n".join(str(v) for v in values) + "\n"
    if args.out:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.write(out)
    else:
        print(out, end="")
    return EXIT_YES


def cmd_es_exact(args) -> int:
    pset = parse(_read(args.predicates))
    got = es_bruteforce(pset, args.n, args.Nmax)
    payload = {
        "n": args.n,
        "value": got.value,
        "searchedUpTo": got.searched_up_to,
        "counterexample": list(got.counterexample) if got.counterexample else None,
    }
    _emit(args, payload, str(got.value) if got.value else f"> {got.searched_up_to}")
    return EXIT_YES if got.value is not None else EXIT_UNDECIDED


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="esdec",
        description="decision and extraction tools for semialgebraic predicate sets",
    )
    top.add_argument("--format", choices=("json", "text"), default="json")
    top.add_argument("--repro", action="store_true",
                     help="byte-identical output across runs")
    common = argparse.ArgumentParser(add_help=False)
    # SUPPRESS keeps the subcommand from clobbering top-level values
    common.add_argument("--format", choices=("json", "text"),
                        default=argparse.SUPPRESS)
    common.add_argument("--repro", action="store_true",
                        default=argparse.SUPPRESS)
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decide", parents=[common], help="is the predicate set Erdos-Szekeres?")
    p.add_argument("predicates")
    p.add_argument("--type-cap", type=int, default=200_000,
                   help="cap on the candidate types per transform of the type enumeration, "
                        "the last stage")
    p.add_argument("--cell-cap", type=int, default=None)
    p.add_argument("--no-witness", action="store_true")
    p.set_defaults(func=cmd_decide)

    p = sub.add_parser("homog", parents=[common], help="homogeneous subsequence extraction")
    p.add_argument("sequence")
    p.add_argument("predicates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--node-budget", type=int, default=500_000)
    p.set_defaults(func=cmd_homog)

    p = sub.add_parser("extract-growing", parents=[common], help="fast-growing subsequence with witness")
    p.add_argument("sequence")
    p.add_argument("--R", type=int, default=4)
    p.add_argument("--n", type=int, required=True)
    p.set_defaults(func=cmd_extract_growing)

    p = sub.add_parser("feasible", parents=[common], help="feasibility census of candidate types")
    p.add_argument("predicates")
    p.add_argument("--transform", choices=("F1", "F2"), default="F1")
    p.add_argument("--type-cap", type=int, default=10_000)
    p.add_argument("--cell-cap", type=int, default=None)
    p.add_argument("--witness", action="store_true")
    p.add_argument("--R", type=int, default=4)
    p.add_argument("--n", type=int, default=4)
    p.set_defaults(func=cmd_feasible)

    p = sub.add_parser("qe", parents=[common], help="decide a prenex sentence over the reals")
    p.add_argument("sentence", nargs="?")
    p.add_argument("--file")
    p.add_argument("--smtlib", action="store_true",
                   help="print an SMT-LIB2 script instead of deciding")
    p.add_argument("--cell-cap", type=int, default=None)
    p.set_defaults(func=cmd_qe)

    p = sub.add_parser("gen", parents=[common], help="generate corpus sequences or predicate files")
    p.add_argument("--family", required=True,
                   choices=("integers", "arithmetic", "geometric",
                            "shifted_reciprocal", "growing", "monotone", "crossratio"))
    p.add_argument("--N", type=int, default=8)
    p.add_argument("--A", default="0")
    p.add_argument("--B", default="1")
    p.add_argument("--step", default="1")
    p.add_argument("--ratio", default="2")
    p.add_argument("--R", type=int, default=4)
    p.add_argument("--out")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("es-exact", parents=[common], help="exact Ramsey value by weak-order enumeration")
    p.add_argument("predicates")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--Nmax", type=int, required=True)
    p.set_defaults(func=cmd_es_exact)

    return top


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except FileNotFoundError as exc:
        print(f"cannot read {exc.filename}", file=sys.stderr)
        return EXIT_USAGE
    except EsdecError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except ValueError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
