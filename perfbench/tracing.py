"""Spans and counters around esdec's layer boundaries, installed from the
benchmark's own files.

``Tracer.install`` replaces each traced function with a wrapper, both in
its defining module and under every name another esdec module imported
it as (``esdec.qe.cad.roots_at_point``, ``esdec.decider.decide_sentence``,
``esdec.feasibility.decide_sentence``, ...).  Spans are kept in memory as
parallel arrays (name, start, end, parent, op id) and written out once,
at the end of the run.  A span's self time is its duration minus the
time covered by its direct child spans.
"""

from __future__ import annotations

import inspect
import json
import sys
from array import array
from pathlib import Path
from time import perf_counter

# (layer, module, attribute); "Class.method" attributes patch the class
TRACED = (
    ("decider", "esdec.decider", "decide_es"),
    ("decider", "esdec.decider", "es_bruteforce"),
    ("typesys", "esdec.typesys", "build_Q"),
    ("typesys", "esdec.typesys", "enumerate_types"),
    ("typesys", "esdec.typesys", "eval_predicates_from_type"),
    ("typesys", "esdec.typesys", "compute_type"),
    ("feasibility", "esdec.feasibility", "is_feasible"),
    ("feasibility", "esdec.feasibility", "witness_search"),
    ("qe.cad", "esdec.qe.cad", "decide_sentence"),
    ("qe.cad", "esdec.qe.cad", "collins_project"),
    ("qe.roots", "esdec.qe.roots", "roots_at_point"),
    ("qe.roots", "esdec.qe.roots", "sign_at_point"),
    ("qe.roots", "esdec.qe.roots", "isolate_real_roots"),
    ("qe.resultants", "esdec.qe.resultants", "psc_set"),
    ("poly", "esdec.poly", "MultiPoly.__mul__"),
    ("poly", "esdec.poly", "MultiPoly.partial_eval"),
    ("poly", "esdec.poly", "MultiPoly.evaluate"),
    ("algebra", "esdec.algebra", "substitute_transform"),
    ("algebra", "esdec.algebra", "coefficient_decomposition"),
    ("predicates", "esdec.predicates", "parse"),
    ("predicates", "esdec.predicates", "holds_everywhere"),
    ("predicates", "esdec.predicates", "member_verdicts"),
    ("ramsey", "esdec.ramsey", "extract_growing_embedding"),
    ("ramsey", "esdec.ramsey", "extract_rfold"),
    ("ramsey", "esdec.ramsey", "extract_ddc"),
    ("ramsey", "esdec.ramsey", "extract_homogeneous"),
)


def span_name(layer: str, attr: str) -> str:
    fn = attr.split(".")[-1]
    return f"{layer}.{'mul' if fn == '__mul__' else fn}"


SPAN_NAMES = tuple(span_name(layer, attr) for layer, _, attr in TRACED)

# derived per-layer metrics: name -> (unit, better)
DERIVED = {
    "decider.types_total": ("count", "lower"),
    "decider.types_feasible": ("count", "lower"),
    "decider.screen_skip_share": ("ratio", "higher"),
    "feasibility.witness_search.hit_share": ("ratio", "higher"),
    "qe.cad.cells": ("count", "lower"),
    "qe.cad.cells_per_sentence": ("count", "lower"),
    "qe.cad.budget_exhausted": ("count", "lower"),
    "qe.cad.decide_sentence.repeat_share": ("ratio", "lower"),
    "qe.cad.collins_project.polys_out": ("count", "lower"),
    "qe.roots.roots_at_point.roots_out": ("count", "lower"),
    "ramsey.extract_growing_embedding.success_share": ("ratio", "higher"),
    "ramsey.extract_homogeneous.constructive_share": ("ratio", "higher"),
    "trace.overhead_share": ("ratio", "lower"),
}


def per_layer_spec() -> dict:
    """Every per-layer metric the traced run prints: name -> (unit, better)."""
    spec = {}
    for name in SPAN_NAMES:
        spec[f"{name}.calls"] = ("count", "lower")
        spec[f"{name}.self_s"] = ("s", "lower")
    spec.update(DERIVED)
    return spec


class Tracer:
    def __init__(self):
        self.names: list = []
        self.name_ids: dict = {}
        self.span_name = array("H")
        self.span_parent = array("q")
        self.span_op = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self.stack: list = []
        self.op_id = -1
        self.counts: dict = {}
        self.seen_sentences: set = set()
        self._undo: list = []

    # -- recording ----------------------------------------------------

    def count(self, key: str, by: int = 1):
        self.counts[key] = self.counts.get(key, 0) + by

    def _open(self, nid: int) -> int:
        sid = len(self.span_name)
        self.span_name.append(nid)
        self.span_parent.append(self.stack[-1] if self.stack else -1)
        self.span_op.append(self.op_id)
        self.span_start.append(perf_counter())
        self.span_end.append(0.0)
        self.stack.append(sid)
        return sid

    def _close(self, sid: int):
        self.span_end[sid] = perf_counter()
        self.stack.pop()

    def _wrap(self, name: str, fn, before=None, after=None, failed=None):
        nid = self.name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        tracer = self

        if inspect.isgeneratorfunction(fn):
            def wrapper(*args, **kwargs):
                sid = tracer._open(nid)
                try:
                    yield from fn(*args, **kwargs)
                finally:
                    tracer._close(sid)
        else:
            def wrapper(*args, **kwargs):
                if before is not None:
                    before(args)
                sid = tracer._open(nid)
                try:
                    result = fn(*args, **kwargs)
                except Exception as exc:
                    tracer._close(sid)
                    if failed is not None:
                        failed(exc)
                    raise
                tracer._close(sid)
                if after is not None:
                    after(result)
                return result
        wrapper.__wrapped__ = fn
        return wrapper

    # -- hooks for the derived counters -------------------------------

    def _hooks(self, esdec) -> dict:
        export = esdec.qe.sentences.export_smtlib
        limit_error = esdec.errors.ResourceLimitError

        def sentence_seen(args):
            text = export(args[0])
            if text in self.seen_sentences:
                self.count("repeats")
            self.seen_sentences.add(text)

        def budget(exc):
            if isinstance(exc, limit_error):
                self.count("budget_exhausted")

        return {
            "qe.cad.decide_sentence": dict(before=sentence_seen, failed=budget),
            "qe.cad.collins_project": dict(after=lambda r: self.count("polys_out", len(r))),
            "qe.roots.roots_at_point": dict(
                after=lambda r: self.count("roots_out", len(r or ()))),  # None: p vanishes
            "feasibility.witness_search": dict(
                after=lambda r: self.count("witness_hits", r is not None)),
            "ramsey.extract_growing_embedding": dict(
                after=lambda r: self.count("embed_success")),
            "ramsey.extract_homogeneous": dict(
                after=lambda r: self.count("constructive", r.method == "constructive")),
            "decider.decide_es": dict(after=self._decide_stats),
        }

    def _decide_stats(self, verdict):
        self.count("types_total", verdict.stats.types_total)
        self.count("types_feasible", verdict.stats.types_feasible)
        self.count("types_screened", verdict.stats.types_skipped_by_screen)

    # -- installation ---------------------------------------------------

    def install(self, esdec):
        """Wrap every TRACED function; ``esdec`` is the imported package."""
        hooks = self._hooks(esdec)
        loaded = [m for name, m in sys.modules.items()
                  if m is not None and (name == "esdec" or name.startswith("esdec."))]
        for layer, module_name, attr in TRACED:
            module = sys.modules[module_name]
            name = span_name(layer, attr)
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                setattr(cls, meth, self._wrap(name, original, **hooks.get(name, {})))
                self._undo.append((cls, meth, original))
                continue
            original = getattr(module, attr)
            wrapper = self._wrap(name, original, **hooks.get(name, {}))
            for mod in loaded:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        setattr(mod, key, wrapper)
                        self._undo.append((mod, key, original))
        self._install_cell_counter(esdec)

    def _install_cell_counter(self, esdec):
        decider_cls = esdec.qe.cad._Decider
        original = decider_cls.decide
        tracer = self

        def decide(self, level, point, cell):
            tracer.count("cad_decide_calls")
            if level == 1:
                tracer.count("cad_decide_top")
            return original(self, level, point, cell)

        decider_cls.decide = decide
        self._undo.append((decider_cls, "decide", original))

    def uninstall(self):
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    # -- results --------------------------------------------------------

    def self_times(self) -> dict:
        """name -> (calls, self seconds)."""
        n = len(self.span_name)
        child = array("d", bytes(8 * n))
        start, end, parent = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            p = parent[i]
            if p >= 0:
                child[p] += end[i] - start[i]
        calls = [0] * len(self.names)
        selfs = [0.0] * len(self.names)
        for i in range(n):
            nid = self.span_name[i]
            calls[nid] += 1
            selfs[nid] += end[i] - start[i] - child[i]
        return {name: (calls[i], selfs[i]) for i, name in enumerate(self.names)}

    def metrics(self, overhead_share: float) -> dict:
        times = self.self_times()
        c = self.counts.get
        out = {}
        for name in SPAN_NAMES:
            calls, self_s = times.get(name, (0, 0.0))
            out[f"{name}.calls"] = calls
            out[f"{name}.self_s"] = self_s
        sentences = out["qe.cad.decide_sentence.calls"]
        cells = c("cad_decide_calls", 0) - c("cad_decide_top", 0)
        embeds = out["ramsey.extract_growing_embedding.calls"]
        homogs = out["ramsey.extract_homogeneous.calls"]
        searches = out["feasibility.witness_search.calls"]
        total = c("types_total", 0)
        out.update({
            "decider.types_total": total,
            "decider.types_feasible": c("types_feasible", 0),
            "decider.screen_skip_share": ratio(c("types_screened", 0), total),
            "feasibility.witness_search.hit_share": ratio(c("witness_hits", 0), searches),
            "qe.cad.cells": cells,
            "qe.cad.cells_per_sentence": ratio(cells, sentences),
            "qe.cad.budget_exhausted": c("budget_exhausted", 0),
            "qe.cad.decide_sentence.repeat_share": ratio(c("repeats", 0), sentences),
            "qe.cad.collins_project.polys_out": c("polys_out", 0),
            "qe.roots.roots_at_point.roots_out": c("roots_out", 0),
            "ramsey.extract_growing_embedding.success_share": ratio(c("embed_success", 0), embeds),
            "ramsey.extract_homogeneous.constructive_share": ratio(c("constructive", 0), homogs),
            "trace.overhead_share": overhead_share,
        })
        return out

    def write(self, path: Path):
        """Spans as a JSON header line (names, count) followed by the raw
        arrays name:u16, parent:i64, op:i64, start:f64, end:f64."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "wb") as fh:
            header = {"names": self.names, "spans": len(self.span_name)}
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_name, self.span_parent, self.span_op,
                        self.span_start, self.span_end):
                arr.tofile(fh)


def ratio(num, den) -> float:
    return num / den if den else 0.0
