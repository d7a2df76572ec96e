"""Every top-level function and class of src/tractdim has a caller that is not a test.

A name counts as reached when code in src/tractdim uses it (as a name or
an attribute) outside its own definition, or when the benchmark harness
in perfbench/ names it.  Code that only tests reach has to be kept alive
through every refactor of the layers it wraps, so it either gets a job in
the pipeline or goes.  Private helpers are held to the same rule, so a
helper that a refactor leaves without a caller fails here too.  Every
field of a dataclass is held to it as well: some code in src/tractdim
reads an attribute of that name, or perfbench/ names it.  The names that
perfbench/tracer.py wraps must also still exist, and be looked up when
they are called.  And no module reads an underscore name of another: what
one layer needs from another is public.
"""

import ast
import importlib
import pathlib
import re
import types

ROOT = pathlib.Path(__file__).resolve().parents[1]
SRC = ROOT / "src" / "tractdim"
PERFBENCH = ROOT / "perfbench"

#: Public names that no command reaches yet but that have a job waiting.
ALLOWED = {
    # ROADMAP item 8: spectrum and hypdim report the Hoelder exponent of
    # the tract per T of the grid
    "estimate_holder",
    # ROADMAP item 8: and the ratio of the paper's condition (4.2) across T
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


def _fields():
    """(module file, class name, field name) of every dataclass field."""
    for module, node in _definitions():
        if isinstance(node, ast.ClassDef) and any(
                (d.func if isinstance(d, ast.Call) else d).id == "dataclass"
                for d in node.decorator_list):
            for stmt in node.body:
                if isinstance(stmt, ast.AnnAssign):
                    yield module, node.name, stmt.target.id


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


def test_every_dataclass_field_is_read():
    # a field nothing reads is a value each construction builds for no one
    reads = {node.attr for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text()))
             if isinstance(node, ast.Attribute)
             and isinstance(node.ctx, ast.Load)}
    bench = _perfbench_text()
    unread = ["%s:%s.%s" % (module, cls, name)
              for module, cls, name in _fields()
              if name not in reads
              and not re.search(r"\b%s\b" % re.escape(name), bench)]
    assert unread == []


def test_allowed_names_still_exist():
    # an exception outlives its name only by mistake
    names = {node.name for _, node in _definitions()}
    assert ALLOWED <= names


def _wrapped():
    """(module, name) of each function perfbench/tracer.py wraps.  The file
    is executed from its text, so nothing is written under perfbench/."""
    path = PERFBENCH / "tracer.py"
    tracer = types.ModuleType("tracer")
    exec(compile(path.read_text(), str(path), "exec"), tracer.__dict__)
    return {(module, attr) for module, attr, *_ in tracer.WRAPPED}


def test_every_traced_name_resolves():
    # perfbench/tracer.py wraps these by name at run time; a rename or a
    # deletion in src/tractdim must fail here, not in a traced benchmark
    # run
    missing = [(module, attr) for module, attr in sorted(_wrapped())
               if not hasattr(importlib.import_module("tractdim." + module),
                              attr)]
    assert missing == []


_FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)


def _definition_parts(function):
    """The decorators and defaults of a function or lambda node: they run
    when it is defined, its body when it is called."""
    return [*getattr(function, "decorator_list", ()), *function.args.defaults,
            *filter(None, function.args.kw_defaults)]


def _run_at_import(node):
    """node and the nodes under it that run when node's module is imported."""
    yield node
    for child in (_definition_parts(node) if isinstance(node, _FUNCTIONS)
                  else ast.iter_child_nodes(node)):
        yield from _run_at_import(child)


def _early_binds(wrapped):
    """module:line name for each place in src/tractdim that takes a wrapped
    function before the call that runs it: a from-import, a load at module
    or class level, a default argument or a decorator."""
    names = {attr for _, attr in wrapped}
    binds = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        early = list(_run_at_import(tree))
        for node in ast.walk(tree):
            if isinstance(node, _FUNCTIONS):
                early.extend(sub for part in _definition_parts(node)
                             for sub in ast.walk(part))
            elif isinstance(node, ast.ImportFrom) and node.module:
                module = node.module.removeprefix("tractdim.")
                binds.extend("%s:%d %s" % (path.stem, node.lineno, a.name)
                             for a in node.names
                             if (module, a.name) in wrapped)
        for node in early:
            name = (node.id if isinstance(node, ast.Name)
                    else node.attr if isinstance(node, ast.Attribute)
                    else None)
            if name in names and isinstance(node.ctx, ast.Load):
                binds.append("%s:%d %s" % (path.stem, node.lineno, name))
    return sorted(set(binds))


def test_traced_names_are_looked_up_at_call_time():
    # perfbench/tracer.py replaces each wrapped function on its module after
    # import; a reference taken earlier keeps the unwrapped function, and
    # the calls through it drop out of the traced spans
    assert _early_binds(_wrapped()) == []


def _private_reads():
    """module: other.name for each underscore attribute a tractdim module
    reads from another one, through a module alias or a from-import."""
    reads = []
    for path in sorted(SRC.glob("*.py")):
        tree = ast.parse(path.read_text())
        modules = {}  # local name -> tractdim module, from "from . import"
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.level == 1:
                for alias in node.names:
                    if node.module is None:
                        modules[alias.asname or alias.name] = alias.name
                    elif alias.name.startswith("_"):
                        reads.append("%s: %s.%s"
                                     % (path.stem, node.module, alias.name))
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and node.attr.startswith("_")):
                reads.append("%s: %s.%s" % (path.stem,
                                            modules[node.value.id], node.attr))
    return reads


def test_no_module_reads_another_modules_private_names():
    # a helper another layer needs is public where it is defined, so each
    # module's underscore names can change without a search of the others
    assert _private_reads() == []
