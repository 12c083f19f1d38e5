"""The line counter in tools/codelines.py, on a small fixture."""

import ast
import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "codelines.py"
_SPEC = importlib.util.spec_from_file_location("codelines", _PATH)
codelines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(codelines)

# Seven code lines: the import, the class and def lines, both lines of
# the string that is not a docstring, and both lines of the return,
# the second a continuation.  Comments, blank lines and the three
# docstrings do not count.
SOURCE = '''"""Module docstring,
over two lines."""

# A comment on its own line.
import os


class Box:
    """Class docstring."""

    def f(self):
        """Function docstring,

        with a blank line inside."""
        text = """not a
docstring"""
        return (text +  # a trailing comment
                os.sep)
'''
CODE_LINES = 7


def test_counts_code_lines_only(tmp_path):
    path = tmp_path / "fixture.py"
    path.write_text(SOURCE)
    assert codelines.count(str(path)) == (CODE_LINES, SOURCE.count("\n"))


def test_docstring_lines_are_the_three_docstrings():
    lines = codelines.docstring_lines(ast.parse(SOURCE))
    assert sorted(lines) == [1, 2, 9, 12, 13, 14]


def test_main_prints_each_file_and_the_total(tmp_path, capsys):
    a, b = tmp_path / "a.py", tmp_path / "b.py"
    a.write_text(SOURCE)
    b.write_text("x = 1\n\n")
    assert codelines.main([str(a), str(b)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        [str(CODE_LINES), str(SOURCE.count("\n")), str(a)],
        ["1", "2", str(b)],
        [str(CODE_LINES + 1), str(SOURCE.count("\n") + 2), "total"],
    ]


def test_main_without_files_exits_2(capsys):
    assert codelines.main([]) == 2
    assert "Usage" in capsys.readouterr().err


def test_a_directory_counts_its_python_files_in_sorted_order(tmp_path, capsys):
    (tmp_path / "b.py").write_text(SOURCE)
    (tmp_path / "a.py").write_text("x = 1\n\n")
    (tmp_path / "notes.txt").write_text("not python\n")
    assert codelines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [
        ["1", "2", str(tmp_path / "a.py")],
        [str(CODE_LINES), str(SOURCE.count("\n")), str(tmp_path / "b.py")],
        [str(CODE_LINES + 1), str(SOURCE.count("\n") + 2), "total"],
    ]


def test_a_missing_path_exits_2_naming_it(tmp_path, capsys):
    a, missing = tmp_path / "a.py", tmp_path / "missing.py"
    a.write_text("x = 1\n")
    assert codelines.main([str(a), str(missing)]) == 2
    out, err = capsys.readouterr()
    assert out == "" and str(missing) in err
