"""What the benchmark's tracer (perfbench/tracing.py) reads of esdec by
name.  A rename there otherwise breaks only a traced benchmark run."""

import dataclasses
import importlib
import importlib.util
import inspect
from pathlib import Path

from esdec.decider import DecisionStats
from esdec.qe.cad import _Decider
from esdec.ramsey import HomogeneousResult

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def _traced():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TRACED


def _field_names(cls) -> set:
    return {f.name for f in dataclasses.fields(cls)}


def test_every_traced_attribute_resolves():
    traced = _traced()
    assert traced
    for _layer, module_name, attr in traced:
        owner = importlib.import_module(module_name)
        if "." in attr:  # the tracer patches the method in the class itself
            cls_name, meth = attr.split(".")
            owner = getattr(owner, cls_name)
            assert meth in vars(owner), (module_name, attr)
            attr = meth
        assert callable(getattr(owner, attr)), (module_name, attr)


def test_cell_counter_signature():
    params = list(inspect.signature(_Decider.decide).parameters)
    assert params == ["self", "level", "point", "cell"]


def test_decision_stats_counters():
    assert {"types_total", "types_feasible", "types_skipped_by_screen"} <= _field_names(DecisionStats)


def test_homogeneous_result_method():
    assert "method" in _field_names(HomogeneousResult)
