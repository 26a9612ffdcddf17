"""A pytest plugin that lists the lines of src/cartankak a test run never executes.

    PYTHONPATH=src:tools python -m pytest -q -p line_hits

Loaded with -p, it is imported before any conftest or test module, and it
installs a sys.settrace line tracer at import, so the import-time lines of
cartankak count too. Only frames whose code lies under src/cartankak are
traced line by line. At the end of the session it prints, per source file,
every line that carries bytecode (the co_lines of every code object compiled
from the file) and was never executed, marks those that start a `raise`
statement, and closes with the count of raise statements never reached.
Subprocesses the tests start (the console-script checks) are not traced.
A traced tier-1 run takes several minutes; no test depends on it.
"""

import ast
import os
import sys
import threading
import types
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src" / "cartankak"
_PREFIX = str(SRC) + os.sep
_files = {}  # co_filename -> set of executed lines, or None outside SRC


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    lines = _files.get(name, False)
    if lines is False:
        lines = _files[name] = set() if os.path.abspath(name).startswith(_PREFIX) else None
    if lines is None:
        return None

    def line(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return line

    return line


sys.settrace(_trace)
threading.settrace(_trace)


def _code_lines(code):
    """Every line that some instruction of code, or of a code object nested in it, sits on."""
    lines = {line for _, _, line in code.co_lines() if line}
    for const in code.co_consts:
        if isinstance(const, types.CodeType):
            lines |= _code_lines(const)
    return lines


def missed_lines():
    """(path, line, is_raise, text) of every line under SRC that never ran, and the
    number of raise statements there."""
    hit = {}
    for name, lines in _files.items():
        if lines is not None:
            hit.setdefault(os.path.abspath(name), set()).update(lines)
    missed, raises = [], 0
    for path in sorted(SRC.glob("*.py")):
        source = path.read_text()
        text = source.splitlines()
        starts = {node.lineno for node in ast.walk(ast.parse(source)) if isinstance(node, ast.Raise)}
        raises += len(starts)
        for line in sorted(_code_lines(compile(source, str(path), "exec")) - hit.get(str(path), set())):
            missed.append((path, line, line in starts, text[line - 1].strip()))
    return missed, raises


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    threading.settrace(None)
    missed, raises = missed_lines()
    write = terminalreporter.write_line
    terminalreporter.section("lines of src/cartankak never executed")
    for path, line, is_raise, text in missed:
        write(f"{path.relative_to(SRC.parent)}:{line}:{' [raise]' if is_raise else ''} {text}")
    unreached = sum(is_raise for _, _, is_raise, _ in missed)
    write(f"{len(missed)} lines never executed; {unreached} of {raises} raise statements never reached")
