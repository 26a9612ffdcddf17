"""Every threshold lives in the tolerance table at the top of _linalg.py.

Source files are tokenized, so numbers inside strings and comments do not
count. A small numeric literal anywhere else is a threshold that skipped the
table, and a table entry that no module reads is dead.
"""

import ast
import io
import tokenize
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "cartankak"
MODULES = sorted(SRC.glob("*.py"))
TABLE = SRC / "_linalg.py"


def table_entries():
    """name -> line of each module-level `*_TOL = <number>` in _linalg.py."""
    out = {}
    for node in ast.parse(TABLE.read_text()).body:
        if (
            isinstance(node, ast.Assign)
            and len(node.targets) == 1
            and isinstance(node.targets[0], ast.Name)
            and node.targets[0].id.endswith("_TOL")
            and isinstance(node.value, ast.Constant)
        ):
            out[node.targets[0].id] = node.lineno
    return out


def small_literals(source):
    """(line, text) of every numeric literal with 0 < |value| < 1e-5."""
    tokens = tokenize.generate_tokens(io.StringIO(source).readline)
    return [
        (tok.start[0], tok.string)
        for tok in tokens
        if tok.type == tokenize.NUMBER and 0 < abs(complex(tok.string)) < 1e-5
    ]


def test_table_is_not_empty():
    assert {"STRUCT_TOL", "ACCEPT_TOL", "SOLVE_TOL", "CLUSTER_TOL"} <= set(table_entries())


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_small_literal_outside_the_table(path):
    allowed = set(table_entries().values()) if path == TABLE else set()
    stray = [f"{path.name}:{line}: {text}" for line, text in small_literals(path.read_text())
             if line not in allowed]
    assert stray == []


def test_every_table_name_is_read():
    reads = set()
    for path in MODULES:
        for node in ast.walk(ast.parse(path.read_text())):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                reads.add(node.id)
    assert sorted(set(table_entries()) - reads) == []


def test_literal_scan_sees_through_strings_and_comments():
    sample = 'x = 1e-9  # 1e-12\ny = "1e-10"\nz = 0.5 * 2e-7j\n'
    assert small_literals(sample) == [(1, "1e-9"), (3, "2e-7j")]
