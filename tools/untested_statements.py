"""A pytest plugin that lists the statements of `src/hieremb` no test runs.

    PYTHONPATH=src:tools python -m pytest -p untested_statements -q

After the run it prints each statement of `src/hieremb/*.py` that was never
executed, as `file:line: source`. A statement counts as executed when any
line of its header (a simple statement's lines, a compound statement's lines
before its body, an `except` clause's line) ran. Code that only runs in a
subprocess a test starts is not seen.

It uses only the standard library (`sys.settrace`), so it needs nothing
beyond what the tests need. The tracer starts when pytest imports this
module, before `tests/conftest.py` imports `hieremb`, so module and class
bodies are seen running. Tracing makes the suite about twice as slow.
"""
from __future__ import annotations

import ast
import os
import sys
import types
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SOURCE = ROOT / "src" / "hieremb"

_executed: dict[str, set[int]] = {}  # per file of SOURCE, the lines that ran
_lines: dict[str, set[int] | None] = {}  # per code file name, its set in `_executed` or None


def _trace(frame, event, arg):
    name = frame.f_code.co_filename
    if name not in _lines:
        path = Path(os.path.abspath(name))
        _lines[name] = _executed.setdefault(str(path), set()) if path.parent == SOURCE else None
    lines = _lines[name]
    if lines is None:
        return None

    def trace_lines(frame, event, arg):
        if event == "line":
            lines.add(frame.f_lineno)
        return trace_lines

    return trace_lines


sys.settrace(_trace)


def statements(path: Path) -> list[tuple[int, set[int]]]:
    """Each statement of the file that compiles to bytecode: its first line
    and the lines of its header that hold bytecode."""
    source = path.read_text(encoding="utf-8")
    code = [compile(source, str(path), "exec")]
    executable = set()
    while code:
        c = code.pop()
        executable.update(line for *_, line in c.co_lines() if line is not None)
        code.extend(k for k in c.co_consts if isinstance(k, types.CodeType))
    found = []
    for node in ast.walk(ast.parse(source)):
        if not isinstance(node, (ast.stmt, ast.excepthandler)):
            continue
        first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", [])])
        body = getattr(node, "body", None)
        last = max(node.lineno, body[0].lineno - 1) if isinstance(body, list) and body else node.end_lineno
        header = set(range(first, last + 1)) & executable
        if header:
            found.append((first, header))
    return sorted(found)


def pytest_terminal_summary(terminalreporter):
    sys.settrace(None)
    missed = []
    for path in sorted(SOURCE.glob("*.py")):
        ran = _executed.get(str(path), set())
        lines = path.read_text(encoding="utf-8").splitlines()
        for first, header in statements(path):
            if not header & ran:
                missed.append(f"{path.relative_to(ROOT)}:{first}: {lines[first - 1].strip()}")
    terminalreporter.section(f"statements of src/hieremb no test executed: {len(missed)}")
    for line in missed:
        terminalreporter.write_line(line)
