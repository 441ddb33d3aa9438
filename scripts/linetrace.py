"""Line trace of the Tier-1 suite: the function-body lines of
``src/vadeers`` that no test runs.

``python scripts/linetrace.py [pytest args]`` runs ``pytest -q
--continue-on-collection-errors`` in this process, with a
``sys.settrace`` tracer on the calling thread and on every thread started
after it, then prints each never-run line as ``path:line (function):
text``.  Lines that stay unreached by design are printed apart, each with
its reason; the last line gives the counts.  The exit status is pytest's.

The traced run takes about 150 s against about 100 s untraced (2-core
Xeon VM), so it is a tool, not a CI step.  Only frames of
``src/vadeers`` get a line tracer, so the suite's own frames, and the
graph nodes they hold, are freed as they are untraced; pytest's summary
is printed as it is.

A line counts as executable when the bytecode of a function, method,
lambda or comprehension carries it, the ``def`` line aside; module and
class bodies are left out, since importing runs them.
"""

from __future__ import annotations

import sys
import threading
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "vadeers"

# (path under src/vadeers, function, line text) -> why the suite never
# runs that line
BY_DESIGN = {
    ("nnkernel/parts.py", "_forget_pool",
     "_lock, _pool = threading.Lock(), None"):
        "runs in a forked child, whose lines the tracer never sees",
    ("nnkernel/parts.py", "_cpus", "except AttributeError:"):
        "platforms without os.sched_getaffinity (not Linux)",
    ("nnkernel/parts.py", "_cpus", "return os.cpu_count() or 1"):
        "platforms without os.sched_getaffinity (not Linux)",
    ("nnkernel/parts.py", "_blas_threads", "return None"):
        "a numpy whose BLAS is not a wheel's OpenBLAS",
    ("nnkernel/autodiff.py", "Tensor.__repr__",
     "tag = f\" name={self.name!r}\" if self.name else \"\""):
        "debugging aid; nothing prints a tensor",
    ("nnkernel/autodiff.py", "Tensor.__repr__",
     "return f\"Tensor(shape={self.data.shape}{tag})\""):
        "debugging aid; nothing prints a tensor",
    ("data.py", "_parse_csv_module", "raise"):
        "float() failed on the batch but on no single token: unreachable",
    ("data.py", "read_table",
     "raise DataError(f\"{path.name}: not UTF-8 text\") from None"):
        "the chunked read failed to decode a file that decodes whole: "
        "unreachable",
    ("data.py", "_parse_plain", "return None"):
        "a guard for a numpy whose loadtxt skips a line; this one never does",
    ("data.py", "_lloyd", "\"k-means inertia increased\""):
        "the message of an invariant assert: Lloyd's steps never raise the "
        "inertia",
}

_CO_OPTIMIZED = 0x1  # set on functions, lambdas and comprehensions


def executable_lines(path: Path) -> dict[int, str]:
    """Line -> qualified function name of every function-body line of
    the module at ``path``."""
    lines: dict[int, str] = {}
    stack = [compile(path.read_text(encoding="utf-8"), str(path), "exec")]
    while stack:
        code = stack.pop()
        stack.extend(c for c in code.co_consts if hasattr(c, "co_lines"))
        if not code.co_flags & _CO_OPTIMIZED:
            continue
        name = getattr(code, "co_qualname", code.co_name)
        for _, _, line in code.co_lines():
            if line is not None and line != code.co_firstlineno:
                lines.setdefault(line, name)
    return lines


def trace(pytest_args: list[str]) -> tuple[int, dict[str, set[int]]]:
    """Run pytest under the tracer; its exit code and the lines run in
    each file under ``src/vadeers``."""
    import pytest

    prefix = str(SRC) + "/"
    hits: dict[str, set[int]] = {}
    local_tracers = {}

    def local_for(filename: str):
        add = hits.setdefault(filename, set()).add

        def local(frame, event, arg):
            if event == "line":
                add(frame.f_lineno)
            return local
        return local

    def global_tracer(frame, event, arg):
        filename = frame.f_code.co_filename
        if not filename.startswith(prefix):
            return None
        local = local_tracers.get(filename)
        if local is None:
            local = local_tracers[filename] = local_for(filename)
        return local

    threading.settrace(global_tracer)
    sys.settrace(global_tracer)
    try:
        code = pytest.main(["-q", "--continue-on-collection-errors",
                            *pytest_args])
    finally:
        sys.settrace(None)
        threading.settrace(None)
    return int(code), hits


def main(argv: list[str]) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    code, hits = trace(argv)
    unexplained, explained = [], []
    total = 0
    for path in sorted(SRC.rglob("*.py")):
        rel = path.relative_to(SRC).as_posix()
        source = path.read_text(encoding="utf-8").splitlines()
        lines = executable_lines(path)
        total += len(lines)
        run = hits.get(str(path), set())
        for line in sorted(set(lines) - run):
            text = source[line - 1].strip()
            where = f"src/vadeers/{rel}:{line} ({lines[line]}): {text}"
            reason = BY_DESIGN.get((rel, lines[line], text))
            if reason is None:
                unexplained.append(where)
            else:
                explained.append(f"{where}\n    by design: {reason}")
    print(f"\n{len(unexplained)} never-run lines without a reason:")
    print("\n".join(unexplained))
    print(f"\n{len(explained)} never-run lines by design:")
    print("\n".join(explained))
    print(f"\n{len(unexplained) + len(explained)} of {total} function-body "
          f"lines never ran, {len(explained)} of them by design")
    return code


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
