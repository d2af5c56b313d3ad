import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "code_lines.py"
_spec = importlib.util.spec_from_file_location("code_lines", _PATH)
code_lines = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(code_lines)


def test_code_lines_skip_docstrings_comments_and_blank_lines():
    source = '''"""A module docstring
over two lines."""
import math  # a trailing comment keeps its line

# a comment line


class A:
    """A class docstring."""

    def f(self, x):
        """A function docstring."""
        s = """a string that is no docstring
runs over two lines"""
        return (x,
                s)
'''
    # import, class, def, the two lines of s, the two lines of the return
    assert code_lines.code_lines(source) == 7

