"""Every top-level function and class of src/tractdim has a caller that is not a test.

A name counts as reached when code in src/tractdim uses it (as a name or
an attribute) outside its own definition, or when the benchmark harness
in perfbench/ names it.  Code that only tests reach has to be kept alive
through every refactor of the layers it wraps, so it either gets a job in
the pipeline or goes.  Private helpers are held to the same rule, so a
helper that a refactor leaves without a caller fails here too.
"""

import ast
import pathlib
import re

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tractdim"
PERFBENCH = ROOT / "perfbench"

#: Public names that no command reaches yet but that have a job waiting.
ALLOWED = {
    # ROADMAP item 6: spectrum and hypdim report the Hoelder exponent of
    # the tract per T of the grid
    "estimate_holder",
    # ROADMAP item 6: and the ratio of the paper's condition (4.2) across T
    "check_condition_42",
}


def _definitions():
    """(module file, top-level node) for each function and class."""
    for path in sorted(SRC.glob("*.py")):
        for node in ast.parse(path.read_text()).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                yield path.name, node


def _uses():
    """(module file, top-level node, used name) over all of src/tractdim."""
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                if isinstance(node, ast.Name):
                    yield path.name, top.lineno, node.id
                elif isinstance(node, ast.Attribute):
                    yield path.name, top.lineno, node.attr


def _perfbench_text():
    return "\n".join(p.read_text() for p in sorted(PERFBENCH.glob("*.py"))
                     if not p.name.startswith("test_"))


def _unreached(private):
    """module:name for each definition whose name no other code uses."""
    uses = list(_uses())
    bench = _perfbench_text()
    unreached = []
    for module, node in _definitions():
        if node.name.startswith("_") != private or node.name in ALLOWED:
            continue
        # a use inside the definition itself (recursion) does not count
        if any(name == node.name and (where, line) != (module, node.lineno)
               for where, line, name in uses):
            continue
        if re.search(r"\b%s\b" % re.escape(node.name), bench):
            continue
        unreached.append("%s:%s" % (module, node.name))
    return unreached


def test_every_public_name_has_a_caller():
    assert _unreached(private=False) == []


def test_every_private_helper_has_a_caller():
    assert _unreached(private=True) == []


def test_allowed_names_still_exist():
    # an exception outlives its name only by mistake
    names = {node.name for _, node in _definitions()}
    assert ALLOWED <= names
