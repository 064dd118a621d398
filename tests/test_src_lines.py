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


def _tree(root, modules):
    for name, text in modules.items():
        path = root / "src" / "esdec" / name
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text(text)
    return root


def test_two_checkouts_print_both_counts_and_the_difference(tmp_path, capsys):
    """Per module, BASE's counts, ROOT's and ROOT's minus BASE's; a
    module in one tree only counts 0 in the other; then the totals."""
    src_lines = _load()
    base = _tree(tmp_path / "base", {"a.py": "x = 1\n\n", "gone.py": "y = 2\n",
                                     "qe/b.py": FIXTURE})
    root = _tree(tmp_path / "root", {"a.py": "x = 1\ny = 2\nz = 3\n", "new.py": "# c\n",
                                     "qe/b.py": FIXTURE})
    assert src_lines.main([str(base), str(root)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    fixture = [str(n) for n in src_lines.count(FIXTURE)]
    assert rows == [
        ["2", "1", "3", "3", "+1", "+2", "esdec/a.py"],
        ["1", "1", "0", "0", "-1", "-1", "esdec/gone.py"],
        ["0", "0", "1", "0", "+1", "+0", "esdec/new.py"],
        [*fixture, *fixture, "+0", "+0", "esdec/qe/b.py"],
        [str(3 + int(fixture[0])), str(2 + int(fixture[1])),
         str(4 + int(fixture[0])), str(3 + int(fixture[1])), "+1", "+1", "total"],
    ]


def test_one_checkout_prints_its_own_counts(tmp_path, capsys):
    src_lines = _load()
    root = _tree(tmp_path, {"a.py": "x = 1\n\n", "qe/b.py": "# c\n"})
    assert src_lines.main([str(root)]) == 0
    assert capsys.readouterr().out.splitlines() == [
        "     2      1  esdec/a.py", "     1      0  esdec/qe/b.py", "     3      1  total"]
