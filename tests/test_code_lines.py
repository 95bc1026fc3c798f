import importlib.util
from pathlib import Path

_spec = importlib.util.spec_from_file_location(
    "code_lines", Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)

FIXTURE = '''"""A module docstring
over two lines."""

import math  # a trailing comment keeps its line

# a comment line


def area(r):
    """A function docstring."""
    text = """a string
that is not a docstring"""
    return math.pi * r**2


class Shape:
    """A class docstring,
    over two lines.
    """

    sides = (
        3,
    )
'''


def test_code_lines_skip_blanks_comments_and_docstrings():
    # import, def, two lines of the string, return, class, and the three lines of `sides`
    assert code_lines.code_lines(FIXTURE) == 9

