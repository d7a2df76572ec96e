"""Compare the command-line output of two source trees byte for byte.

    python3 tools/parity.py PARENT CHANGE [--work DIR]

PARENT and CHANGE are two checkouts of this repository, for example two
``git archive`` copies.  ``ROUTES`` runs each command on each shorthand
function, ``hypdim --poly``, ``verify``, and inputs that the front end
refuses (exit 2 or 3), so the refusal texts are compared too.  Each
route runs once per tree as ``tractdim.cli.main`` with ``PYTHONPATH`` set
to the tree's ``src`` and the same relative ``--out`` directory, so no
path in an output differs.
Exit codes, stdout, stderr (with each tree's ``src`` path written as
``<src>``) and the output trees (``diff -r``) are compared;
``verify_seconds.json`` holds timings and is left out.  The script
prints each differing route and each tree's ``src/tractdim`` code lines
(tokens other than comments, docstrings and blank lines), and exits 1
on any difference.
"""

import argparse
import ast
import io
import os
import subprocess
import sys
import tempfile
import tokenize
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

FUNCTIONS = ("exp", "quarter", "square", "composite", "koenigs:z^2-1")
POLYS = ("z^2", "z^2-1", "z^3-0.5z", "z^2+0.05i")
TIMINGS = "verify_seconds.json"
ROUTES = [
    [command, "--function", f, *extra]
    for f in FUNCTIONS
    for command, *extra in (["spectrum"], ["transfer", "--tmin", "1.2"],
                            ["pressure", "--tmin", "1.5"], ["hypdim"],
                            ["tract-plot"])
] + [["hypdim", "--poly", p] for p in POLYS] + [["verify"]] + [
    # refusals: each exits 2 (3 for the fixed point) and writes no file
    ["hypdim", "--poly", "z"], ["hypdim", "--poly", "z^2+"],
    *(["spectrum", "--function", f] for f in (
        '{"family": "nonsense"}', '{"family": "exp_power", "d": 2.0}',
        '{"family": "koenigs", "poly": {"coeffs": [[0,0],[0,0],[1,0]]}}',
        "{bad", "koenigs:z^2+0.25")),
    ["spectrum", "--function", "exp", "--radius", "0.5"],
    ["transfer", "--function", "exp"],
    ["transfer", "--function", "exp", "--tmin", "1.2", "--radius", "8"],
    *(["spectrum", "--config", c] for c in ("/dev/null", ".", "missing.json")),
    ["verify", "--only", "99"],
]
JOBS = 2  # routes run at once
CLI = "import sys; from tractdim.cli import main; sys.exit(main(sys.argv[1:]))"
NOT_CODE = {tokenize.COMMENT, tokenize.NL, tokenize.NEWLINE, tokenize.INDENT,
            tokenize.DEDENT, tokenize.ENCODING, tokenize.ENDMARKER}


def run(tree, work, i):
    """Route i on tree, from work: (exit code, stdout, stderr)."""
    src = str(Path(tree, "src").resolve())
    env = dict(os.environ, PYTHONPATH=src, PYTHONDONTWRITEBYTECODE="1")
    proc = subprocess.run(
        [sys.executable, "-c", CLI, *ROUTES[i], "--out", "route%02d" % i],
        cwd=work, env=env, capture_output=True, text=True)
    return proc.returncode, proc.stdout, proc.stderr.replace(src, "<src>")


def code_lines(path):
    """Lines of path that hold a token other than a comment or docstring."""
    text = Path(path).read_text()
    docs = set()
    for node in ast.walk(ast.parse(text)):
        if (isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef,
                              ast.AsyncFunctionDef))
                and ast.get_docstring(node, clean=False) is not None):
            docs.update(range(node.body[0].lineno,
                              node.body[0].end_lineno + 1))
    lines = set()
    for tok in tokenize.generate_tokens(io.StringIO(text).readline):
        if tok.type not in NOT_CODE:
            lines.update(range(tok.start[0], tok.end[0] + 1))
    return len(lines - docs)


def compare(trees, work):
    """Run every route on both trees; the number of routes that differ."""
    dirs = [Path(work, side) for side in ("parent", "change")]
    for d in dirs:
        d.mkdir(parents=True)
    with ThreadPoolExecutor(JOBS) as pool:
        results = [[pool.submit(run, tree, d, i) for i in range(len(ROUTES))]
                   for tree, d in zip(trees, dirs)]
        results = [[r.result() for r in side] for side in results]
    differing = 0
    for i, route in enumerate(ROUTES):
        rc_p, out_p, err_p = results[0][i]
        rc_c, out_c, err_c = results[1][i]
        outs = [str(d / ("route%02d" % i)) for d in dirs]
        # A route that writes no output on either tree has equal files;
        # one written on a single tree makes diff exit 2.
        diff = subprocess.run(
            ["diff", "-r", "-x", TIMINGS, *outs], capture_output=True,
            text=True) if any(map(os.path.exists, outs)) else None
        files = diff.stdout + diff.stderr if diff else ""
        found = [what for what, differs in (
            ("exit %d vs %d" % (rc_p, rc_c), rc_p != rc_c),
            ("stdout", out_p != out_c), ("stderr", err_p != err_c),
            ("files", bool(diff and diff.returncode))) if differs]
        print("%-5s exit %d  %s%s" % ("DIFF" if found else "same", rc_p,
                                      " ".join(route),
                                      "  (%s)" % ", ".join(found)
                                      if found else ""))
        if err_p != err_c:
            print("parent stderr:\n%schange stderr:\n%s" % (err_p, err_c),
                  end="")
        if files:
            print(files, end="")
        differing += bool(found)
    return differing


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("parent")
    parser.add_argument("change")
    parser.add_argument("--work", help="keep the outputs in this new "
                        "directory (default: a temporary one)")
    args = parser.parse_args(argv)
    trees = (args.parent, args.change)
    if args.work:
        differing = compare(trees, args.work)
    else:
        with tempfile.TemporaryDirectory() as work:
            differing = compare(trees, work)
    for name, tree in zip(("parent", "change"), trees):
        package = sorted(Path(tree, "src", "tractdim").glob("*.py"))
        print("%s src/tractdim code lines: %d"
              % (name, sum(code_lines(p) for p in package)))
    print("%d of %d routes differ" % (differing, len(ROUTES)))
    return 1 if differing else 0


if __name__ == "__main__":
    sys.exit(main())
