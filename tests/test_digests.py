import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "digests.py"


def _load():
    spec = importlib.util.spec_from_file_location("digests", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workload_names_select_the_lines(monkeypatch, capsys):
    """Seeds and workload names mix in any order; named workloads print
    in the tool's order, and with no names all three print."""
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
