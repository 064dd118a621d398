import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "src_lines.py"


def _load():
    spec = importlib.util.spec_from_file_location("src_lines", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


FIXTURE = '''"""Module docstring,
over two lines."""

# a comment


def f(x):  # code with a trailing comment
    """Function docstring."""
    s = """a multi-line string
    that is not a docstring"""
    return x, s


class C:
    """Class docstring."""

    y = 1
'''


def test_counts_only_the_code_of_a_fixture():
    """The def, the assignment's two lines, the return, the class line
    and its assignment count; docstrings, comments and blanks do not."""
    src_lines = _load()
    assert src_lines.count(FIXTURE) == (FIXTURE.count("\n"), 6)
    assert src_lines.count("x = 1\n\n\n") == (3, 1)


def test_total_is_the_sum_of_the_modules(capsys):
    src_lines = _load()
    assert src_lines.main([]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    *modules, total = rows
    assert total[2] == "total"
    assert len(modules) == len(list((src_lines.ROOT / "src" / "esdec").rglob("*.py")))
    assert int(total[0]) == sum(int(row[0]) for row in modules)
    assert int(total[1]) == sum(int(row[1]) for row in modules)
    for lines, code, name in modules:
        text = (src_lines.ROOT / "src" / name).read_text()
        assert int(lines) == text.count("\n") >= int(code)
