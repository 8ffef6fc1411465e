"""The code-line counter in tools/code_lines.py on a fixture whose count is
known by hand."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parents[1] / "tools" / "code_lines.py"
_SPEC = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(code_lines)

# Code lines are marked "# code"; every other line is a docstring, a
# comment or blank. The string assigned to ``text`` is not a docstring, and
# its three lines count.
FIXTURE = '''"""Module docstring,
over two lines."""

import os  # code


class Point:  # code
    """Class docstring."""

    x: int = 0  # code

    def norm(self):  # code
        """Method
        docstring."""
        # A comment on its own line.
        return (  # code
            self.x  # code
            * 2  # code
        )  # code


text = """not a
docstring
"""
total = [1,  # code
         2]  # code
'''


def test_counts_code_lines_of_the_fixture():
    assert FIXTURE.count("# code") == 10
    assert code_lines.code_lines(FIXTURE) == 10 + 3


def test_prints_each_file_and_the_total(tmp_path, capsys):
    (tmp_path / "a.py").write_text(FIXTURE)
    (tmp_path / "sub").mkdir()
    (tmp_path / "sub" / "b.py").write_text("x = 1\n\n# comment\n")
    assert code_lines.main([str(tmp_path)]) == 0
    lines = capsys.readouterr().out.splitlines()
    assert lines == [f"13 {tmp_path / 'a.py'}", f"1 {tmp_path / 'sub' / 'b.py'}", "14 total"]
