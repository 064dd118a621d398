import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_names_select_the_lines(monkeypatch, capsys):
    """Seeds and names mix in any order; named lines print in the tool's
    order, and with no names the three workloads print."""
    digests = _load()
    monkeypatch.setattr(digests, "digest", lambda workload, seed: f"{workload}-{seed}")

    def lines(*argv):
        assert digests.main(list(argv)) == 0
        return capsys.readouterr().out.splitlines()

    assert lines("401", "extract") == ["seed 401 extract extract-401"]
    assert lines("extract", "401", "5", "qe") == [
        "seed 401 qe qe-401", "seed 401 extract extract-401",
        "seed 5 qe qe-5", "seed 5 extract extract-5",
    ]
    assert lines("77") == ["seed 77 qe qe-77", "seed 77 decide decide-77",
                           "seed 77 extract extract-77"]
    assert lines("decide") == ["seed 401 decide decide-401", "seed 5 decide decide-5"]
    # the algebraic corpus prints only when named, after the workloads
    assert lines("algebraic", "7") == ["seed 7 algebraic algebraic-7"]
    assert lines("7", "algebraic", "qe") == ["seed 7 qe qe-7", "seed 7 algebraic algebraic-7"]


def test_the_algebraic_corpus_is_drawn_from_the_seed(monkeypatch):
    """Each call gets numbers of its own, so the digest depends on the
    seed alone, although the calls refine their points in place."""
    digests = _load()
    monkeypatch.setattr(digests, "ALGEBRAIC_CALLS", 8)
    calls = list(digests._algebraic_calls(3))
    assert {f.__name__ for f, _p, _point in calls} <= {"sign_at_point", "roots_at_point"}
    assert all(sum(not x.is_rational for x in point.values()) == 2 for _f, _p, point in calls)
    assert digests.digest("algebraic", 3) == digests.digest("algebraic", 3)
    assert digests.digest("algebraic", 3) != digests.digest("algebraic", 4)
