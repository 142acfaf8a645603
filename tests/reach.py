"""Line reach of ``src/micpkit`` under the test suite (a script; pytest does
not collect it).

Run from the repository root:

    PYTHONPATH=src python tests/reach.py [pytest arguments]

It runs pytest in this process (``-q`` when no argument is given) with a
``sys.settrace`` hook that records every line run in a module under
``src/micpkit``; frames of other files get no line hook.  A module's
executable lines are the line numbers in the ``co_lines`` tables of its
code objects, nested ones included, less the lines of ``def`` and
``class`` headers (with their decorators) and of docstrings, which the
tables list whether or not a body ever runs.  Per module it prints the
executable lines that never ran, as ranges.  The last line of standard
output is one JSON object.  Tracing about doubles the suite's wall time.
"""

from __future__ import annotations

import ast
import json
import sys
from pathlib import Path

import pytest

SRC = (Path(__file__).resolve().parent.parent / "src" / "micpkit").resolve()


def _code_lines(code):
    lines = {ln for _, _, ln in code.co_lines() if ln}
    for const in code.co_consts:
        if hasattr(const, "co_lines"):
            lines |= _code_lines(const)
    return lines


def _skipped(tree):
    """Lines of def and class headers, decorators included, and of docstrings."""
    skip = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            skip.update(range(first, node.body[0].lineno))
            skip.add(node.lineno)
        if isinstance(node, (ast.Module, ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            head = node.body[0] if node.body else None
            if (isinstance(head, ast.Expr) and isinstance(head.value, ast.Constant)
                    and isinstance(head.value.value, str)):
                skip.update(range(head.lineno, head.end_lineno + 1))
    return skip


def executable(path):
    source = path.read_text(encoding="utf-8")
    return _code_lines(compile(source, str(path), "exec")) - _skipped(ast.parse(source))


def _ranges(lines):
    out, lines = [], sorted(lines)
    for ln in lines:
        if out and ln == out[-1][1] + 1:
            out[-1][1] = ln
        else:
            out.append([ln, ln])
    return ", ".join(f"{a}" if a == b else f"{a}-{b}" for a, b in out)


def main(argv):
    ran = {}     # resolved file name -> set of line numbers run
    where = {}   # code file name -> its set in ``ran``, or None outside src/micpkit

    def local(frame, event, arg):
        if event == "line":
            where[frame.f_code.co_filename].add(frame.f_lineno)
        return local

    def hook(frame, event, arg):
        name = frame.f_code.co_filename
        if name not in where:
            path = Path(name).resolve()
            where[name] = ran.setdefault(str(path), set()) if path.parent == SRC else None
        return None if where[name] is None else local

    sys.settrace(hook)
    try:
        code = pytest.main(argv or ["-q"])
    finally:
        sys.settrace(None)
    report = {"pytest_exit": int(code), "modules": {}}
    for path in sorted(SRC.glob("*.py")):
        lines = executable(path)
        missed = lines - ran.get(str(path), set())
        report["modules"][path.name] = {"executable": len(lines), "unreached": sorted(missed)}
        print(f"{path.name}: {len(missed)} of {len(lines)} unreached"
              + (f": {_ranges(missed)}" if missed else ""))
    report["executable"] = sum(m["executable"] for m in report["modules"].values())
    report["unreached"] = sum(len(m["unreached"]) for m in report["modules"].values())
    print(json.dumps(report))
    return int(code)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
