"""A pytest plugin that lists the lines of ``src/pcons`` no test runs.

It loads only on request::

    PYTHONPATH=src:tools python -m pytest -p linetrace

The tracer is installed when pytest imports this module, which is before
``conftest.py`` imports pcons, so module-level lines count; threads
started later (the grid oracle's helpers) are traced too.  At the end of
the session every executable line of ``src/pcons/*.py`` that did not run
is written to ``linetrace.txt`` in the rootdir, one ``path:line`` a
line, and counted in the terminal summary.  An executable line is one
that a code object of the module maps an instruction to
(``co_lines()``).  Lines run only in a child process count as not run.
With tracing on, tier-1 takes about 1.8 times as long.
"""
import os
import sys
import threading
from pathlib import Path
from types import CodeType

SOURCE = Path(__file__).resolve().parent.parent / "src" / "pcons"
OUTPUT = "linetrace.txt"

#: absolute path -> line numbers run there, for the files under SOURCE
_ran = {}

#: co_filename -> its set in _ran, or None for a file outside SOURCE
_files = {}

_UNSEEN = object()


def _lines(filename):
    path = os.path.realpath(filename)
    return _ran.setdefault(path, set()) if path.startswith(f"{SOURCE}{os.sep}") else None


def _local(frame, event, arg):
    _files[frame.f_code.co_filename].add(frame.f_lineno)
    return _local


def _global(frame, event, arg):
    """Trace a new frame line by line only when its code is in SOURCE."""
    filename = frame.f_code.co_filename
    lines = _files.get(filename, _UNSEEN)
    if lines is _UNSEEN:
        lines = _files[filename] = _lines(filename)
    if lines is None:
        return None
    lines.add(frame.f_lineno)
    return _local


def _executable(code: CodeType) -> set:
    """The lines ``code`` and the code objects nested in it map to."""
    lines = {line for _, _, line in code.co_lines() if line is not None}
    for const in code.co_consts:
        if isinstance(const, CodeType):
            lines |= _executable(const)
    return lines


def _missed():
    """(path, line) for every executable line of SOURCE that did not run."""
    for path in sorted(SOURCE.glob("*.py")):
        code = compile(path.read_text(encoding="utf-8"), str(path), "exec")
        ran = _ran.get(str(path), set())
        for line in sorted(_executable(code) - ran):
            yield path, line


sys.settrace(_global)
threading.settrace(_global)


def pytest_sessionfinish(session):
    sys.settrace(None)
    threading.settrace(None)
    root = Path(session.config.rootpath)
    missed = [f"{path.relative_to(root)}:{line}" for path, line in _missed()]
    (root / OUTPUT).write_text("".join(m + "\n" for m in missed), encoding="utf-8")
    session.config._linetrace_missed = missed


def pytest_terminal_summary(terminalreporter, config):
    missed = getattr(config, "_linetrace_missed", None)
    if missed is None:
        return
    terminalreporter.section("line trace")
    for line in missed:
        terminalreporter.write_line(line)
    terminalreporter.write_line(f"{len(missed)} executable lines of src/pcons not run; "
                                f"listed in {OUTPUT}")
