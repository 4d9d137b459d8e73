"""scripts/code_lines.py: what counts as a code line."""

import importlib.util
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = importlib.util.spec_from_file_location("code_lines", ROOT / "scripts" / "code_lines.py")
code_lines = importlib.util.module_from_spec(SPEC)
SPEC.loader.exec_module(code_lines)

# the code lines are those marked "# code" and the first line of the
# two-line string, which has no room for the mark
MODULE = '''"""Module docstring,
over two lines."""

import os  # code


class Box:  # code
    """Class docstring."""

    size = (1,  # code
            2)  # code

    def area(self):  # code
        """Method docstring.

        Its body is blank lines and prose.
        """
        # a comment line
        return self.size[0] * (  # code
            self.size[1])  # code


def text():  # code
    def inner():  # code
        """Nested docstring."""
        return 1  # code
    x = """a string that is
not a docstring"""  # code
    "nor is this one, after a statement"  # code
    return x + os.sep  # code
'''
CODE_LINES = MODULE.count("# code") + 1


def test_code_lines_leave_out_blanks_comments_and_docstrings():
    assert code_lines.code_lines(MODULE) == CODE_LINES


def test_main_prints_each_module_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(MODULE)
    (tmp_path / "b.py").write_text('"""Only a docstring."""\n\n# and a comment\nx = 1\n')
    (tmp_path / "notes.txt").write_text("x = 1\n")
    assert code_lines.main([str(tmp_path)]) == 0
    rows = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert rows == [["a.py", str(CODE_LINES)], ["b.py", "1"], ["total", str(CODE_LINES + 1)]]
