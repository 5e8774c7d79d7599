"""The statement spans of tools/reach.py on a small made-up module: which
lines count as each statement's own.  No traced run happens here."""

import importlib.util
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "reach.py"
_SPEC = importlib.util.spec_from_file_location("reach", _PATH)
reach = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(reach)

SOURCE = '''"""module docstring"""
import math


@staticmethod
def f(x):
    """function docstring"""
    if (x and
            x > 1):
        y = [i for i in
             range(x)]
    elif x:
        pass
    else:
        return lambda: x if x else 0
    try:
        return math.sqrt(x)
    except ValueError:
        raise
    finally:
        x = 0
'''


def test_each_statement_once_without_docstrings():
    assert reach.statement_spans(SOURCE) == [
        (2, 2),                # import
        (5, 6),                # decorator through the def line
        (8, 9),                # the if's two-line header
        (10, 11),              # a two-line simple statement
        (12, 12), (13, 13),    # elif, which is a nested if, and its body
        (15, 15),              # the else body: lambda and if-expression are no blocks
        (16, 16), (17, 17), (19, 19), (21, 21),
    ]
