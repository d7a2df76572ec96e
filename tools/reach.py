"""List the statements of ``src/tractdim`` that no route executes.

    python3 tools/reach.py

Runs every ``tools/parity.py`` route through ``tractdim.cli.main`` and
every library operation of ``perfbench/ops.py`` (the ones that do not go
through the command line), each in its own child process, two at a time,
under a ``sys.settrace`` line trace limited to this tree's
``src/tractdim``.  Outputs go to a temporary directory.  Then, per module,
it prints the statements inside function bodies on which no line event
fired, leaving out ``raise`` statements; a compound statement counts as
executed when its header did.  It takes about 90 s on 2 cores.
"""

import argparse
import ast
import json
import os
import subprocess
import sys
import tempfile
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

TOOLS = Path(__file__).resolve().parent
ROOT = TOOLS.parent
PACKAGE = ROOT / "src" / "tractdim"
sys.path[:0] = [str(TOOLS), str(ROOT / "perfbench")]

import ops  # noqa: E402
import parity  # noqa: E402

#: Runs one task (``route I`` or ``op NAME``) from argv[1:3] under the line
#: trace and writes the executed (file, line) pairs to argv[3] as JSON.
CHILD = ("import sys; sys.path.insert(0, %r); import reach; "
         "reach.child(*sys.argv[1:])" % str(TOOLS))


def child(kind, key, dump):
    """Run one route or library op, recording the lines it executes."""
    root, hits = str(PACKAGE) + os.sep, set()

    def trace(frame, event, arg):
        if event == "call" and not frame.f_code.co_filename.startswith(root):
            return None
        if event == "line":
            hits.add((frame.f_code.co_filename, frame.f_lineno))
        return trace

    sys.settrace(trace)
    if kind == "route":
        from tractdim import cli

        i = int(key)
        cli.main(parity.ROUTES[i] + ["--out", "route%02d" % i])
    else:
        op = ops.OPS[key]
        op.run(op.setup(0), os.getcwd())
    sys.settrace(None)
    Path(dump).write_text(json.dumps(sorted(hits)))


def library_ops():
    """The perfbench ops that do not run through ``ops._cli_op``."""
    return [op.name for op in ops.OPS.values()
            if not op.run.__qualname__.startswith("_cli_op.")]


def run_task(task, work):
    """One task in a child process, from its own directory under work."""
    kind, key = task
    cwd = Path(work, "%s_%s" % task)
    cwd.mkdir()
    dump = cwd / "lines.json"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"),
               PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run([sys.executable, "-c", CHILD, kind, key, str(dump)],
                          cwd=cwd, env=env, capture_output=True, text=True)
    if proc.returncode:
        raise RuntimeError("%s %s exited %d:\n%s" % (kind, key,
                                                     proc.returncode,
                                                     proc.stderr))
    return {(f, line) for f, line in json.loads(dump.read_text())}


def statements(tree):
    """(first line, last header line) of each statement in a function body,
    docstrings and ``raise`` statements left out."""
    found = set()
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        for node in ast.walk(fn):
            if node is fn or not isinstance(node, ast.stmt):
                continue
            if isinstance(node, ast.Raise) or (
                    isinstance(node, ast.Expr)
                    and isinstance(node.value, ast.Constant)
                    and isinstance(node.value.value, str)):
                continue
            body = getattr(node, "body", None)
            found.add((node.lineno, max(node.lineno, body[0].lineno - 1)
                       if body else node.end_lineno))
    return sorted(found)


def unreached(hits):
    """Module name -> sorted first lines of the statements never executed."""
    report = {}
    for path in sorted(PACKAGE.glob("*.py")):
        lines = {line for f, line in hits if f == str(path)}
        report[path.name] = [a for a, b in statements(ast.parse(
            path.read_text())) if not lines & set(range(a, b + 1))]
    return report


def main(argv=None):
    argparse.ArgumentParser(description=__doc__.split("\n")[0]).parse_args(
        argv)
    tasks = ([("route", str(i)) for i in range(len(parity.ROUTES))]
             + [("op", name) for name in library_ops()])
    with tempfile.TemporaryDirectory() as work:
        with ThreadPoolExecutor(parity.JOBS) as pool:
            hits = set().union(*pool.map(lambda t: run_task(t, work), tasks))
    total = 0
    for name, missed in unreached(hits).items():
        source = (PACKAGE / name).read_text().splitlines()
        print("%s: %d statements not executed" % (name, len(missed)))
        for line in missed:
            print("  %4d  %s" % (line, source[line - 1].strip()))
        total += len(missed)
    print("%d tasks (%d routes); %d statements not executed"
          % (len(tasks), len(parity.ROUTES), total))
    return 0


if __name__ == "__main__":
    sys.exit(main())
