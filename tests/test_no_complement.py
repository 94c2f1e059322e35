"""No bitwise complement in the row-mask modules.

The row masks of ``oracle.py``, ``tri.py`` and ``difftest.py`` are
non-negative integers inside the row set ``ones``.  On such a mask ``~x`` is
the negative integer ``-(x + 1)``, and ``&`` with a negative operand first
converts it to two's complement, several times slower than ``ones ^ x`` on
masks of thousands of rows.  So these modules complement a mask as
``ones ^ x``, or as ``a ^ b`` where ``b`` lies inside ``a``, and never with
``~``.
"""

import ast
from pathlib import Path

import kconfex

PACKAGE = Path(kconfex.__file__).resolve().parent
ROW_MASK_MODULES = ("oracle.py", "tri.py", "difftest.py")


def test_row_mask_modules_use_no_bitwise_complement():
    found = []
    for module in ROW_MASK_MODULES:
        tree = ast.parse((PACKAGE / module).read_text(encoding="utf-8"))
        found += [
            f"{module}:{node.lineno}"
            for node in ast.walk(tree)
            if isinstance(node, ast.UnaryOp) and isinstance(node.op, ast.Invert)
        ]
    assert not found, found
