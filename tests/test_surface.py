"""The library keeps only what runs.

Every top-level public function and class of a library module (all of
src/magnilab but cli and __init__) is read by other package code or is an
entry point the benchmark traces, and every field of a library dataclass
is read as an attribute by package code or the benchmark.  A name that
only tests use belongs in tests/, and being listed in the README keeps no name; instead every
module.name the README's Library section lists must exist, and every name
its example imports must be one the package itself reads.  Importing the
package itself loads no module of it and no numpy: it re-exports nothing,
so the library is what the command line imports.  And no library module
imports scipy.sparse:
graphs need numpy alone.  QUADPACK is reached through closed_forms._quad
alone, the one place that sees every quadrature call and its error
estimate.  Importing the command line loads neither scipy nor
numpy.random, which every subcommand's start-up would pay for.  No
function but cli.main, the console script, ends the process, so a library
caller, cli.run's included, always gets control back.
"""
import ast
import importlib
import os
import re
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

REPO = Path(__file__).resolve().parents[1]
TREES = {p.stem: ast.parse(p.read_text()) for p in sorted(REPO.glob("src/magnilab/*.py"))}


def _reads(tree: ast.AST) -> Counter:
    """How often each name is read, as an ast.Name id or an ast.Attribute attr."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr for n in ast.walk(tree)
                   if isinstance(n, (ast.Name, ast.Attribute)))


READS = sum((_reads(tree) for tree in TREES.values()), Counter())


LIBRARY = [m for m in TREES if m not in ("cli", "__init__")]


@pytest.mark.parametrize("module", LIBRARY)
def test_every_public_name_is_used_traced_or_documented(module):
    sys.path.insert(0, str(REPO / "bench"))
    try:
        import traced_cli
    finally:
        sys.path.remove(str(REPO / "bench"))
    kept = set(traced_cli.ENTRY_POINTS.get(module, {}))
    unused = [node.name for node in TREES[module].body
              if isinstance(node, (ast.FunctionDef, ast.ClassDef))
              and not node.name.startswith("_") and node.name not in kept
              and READS[node.name] == _reads(node)[node.name]]  # read only by itself
    assert not unused, f"{module}: {unused} are used only by tests or not at all"


#: dataclasses that cli prints whole, each field a CSV column, through dataclasses.astuple
PRINTED_ROWS = ("IntervalWeightRow", "FeketeRow")


def _is_dataclass(node: ast.ClassDef) -> bool:
    """True for a class decorated with dataclass, called or not."""
    for decorator in node.decorator_list:
        target = decorator.func if isinstance(decorator, ast.Call) else decorator
        if getattr(target, "id", getattr(target, "attr", None)) == "dataclass":
            return True
    return False


def test_every_dataclass_field_is_read():
    """Each field of a dataclass in a library module is read as an
    attribute, obj.field, by package code or by a bench/ module other than
    its tests.  Like the checks around it, this matches names only: a field
    passes on any read of an attribute of its name, so a field t would pass
    on cli's args.t even if nothing read the field itself."""
    bench = [ast.parse(p.read_text()) for p in sorted(REPO.glob("bench/*.py"))
             if not p.name.startswith("test_")]
    read = {node.attr for tree in [*TREES.values(), *bench] for node in ast.walk(tree)
            if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)}
    unread = [f"{module}.{cls.name}.{field.target.id}" for module in LIBRARY
              for cls in TREES[module].body if isinstance(cls, ast.ClassDef)
              and _is_dataclass(cls) and cls.name not in PRINTED_ROWS
              for field in cls.body if isinstance(field, ast.AnnAssign)
              and isinstance(field.target, ast.Name) and field.target.id not in read]
    assert not unread, f"dataclass fields that nothing reads: {unread}"


def _library_section() -> str:
    return (REPO / "README.md").read_text().split("\n## Library\n", 1)[1].split("\n## ", 1)[0]


def _library_section_names() -> list[tuple[str, str]]:
    """Each module.name of an inline code span in the README's Library
    section whose module is a library module."""
    prose = re.sub(r"```.*?```", "", _library_section(), flags=re.S)
    return [(module, name) for span in re.findall(r"`([^`]+)`", prose)
            for module, name in re.findall(r"(?<![\w./])(\w+)\.(\w+)", span) if module in LIBRARY]


def test_readme_library_section_names_exist():
    listed = _library_section_names()
    assert listed
    missing = [f"{module}.{name}" for module, name in listed
               if not hasattr(importlib.import_module(f"magnilab.{module}"), name)]
    assert not missing, f"the README's Library section lists {missing}, which do not exist"


def test_readme_library_imports_are_read_by_package_code():
    """Each name the Library section's code imports from a library module is
    what the package itself runs: read by package code outside its own
    definition."""
    code = "\n".join(re.findall(r"```python\n(.*?)```", _library_section(), flags=re.S))
    imports = [node for node in ast.walk(ast.parse(code)) if isinstance(node, ast.ImportFrom)]
    imported = [(module, alias.name) for node in imports
                for module in [node.module.removeprefix("magnilab.")] if module in LIBRARY
                for alias in node.names]
    assert imported
    unread = [f"{module}.{name}" for module, name in imported
              if READS[name] == sum(_reads(node)[name] for node in TREES[module].body
                                    if getattr(node, "name", None) == name)]
    assert not unread, f"the README's Library section imports {unread}, which nothing reads"


def _imports(tree: ast.AST):
    """Every module an import in tree names, 'from a import b' as a.b."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module:
            yield from (f"{node.module}.{alias.name}" for alias in node.names)


def test_no_module_imports_scipy_sparse():
    found = [(module, name) for module, tree in TREES.items() for name in _imports(tree)
             if (name + ".").startswith("scipy.sparse.")]
    assert not found, f"scipy.sparse imported by {found}"


def _quadpack_uses(tree: ast.AST):
    """Each import of scipy.integrate, read of an attribute named integrate
    and call of a function named quad in tree, as (line, what)."""
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            yield from ((node.lineno, name) for name in _imports(node)
                        if (name + ".").startswith("scipy.integrate."))
        elif isinstance(node, ast.Attribute) and node.attr == "integrate":
            yield node.lineno, "integrate"
        elif isinstance(node, ast.Call):
            func = node.func
            name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            if name == "quad":
                yield node.lineno, "quad()"


def test_quadpack_is_called_through_closed_forms_quad_alone():
    helper = [node for node in TREES["closed_forms"].body
              if isinstance(node, ast.FunctionDef) and node.name == "_quad"]
    assert len(helper) == 1 and {what for _, what in _quadpack_uses(helper[0])} == {
        "scipy.integrate", "quad()"}
    found = [(module, line, what) for module, tree in TREES.items() for top in tree.body
             if top not in helper for line, what in _quadpack_uses(top)]
    assert not found, f"QUADPACK reached outside closed_forms._quad: {found}"


def test_importing_the_cli_loads_no_scipy_and_no_numpy_random():
    code = ("import sys, magnilab.cli; print(*sorted(m for m in sys.modules if "
            "m.split('.')[0] == 'scipy' or m.startswith('numpy.random')))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def test_importing_the_package_loads_none_of_its_modules_and_no_numpy():
    code = ("import sys, magnilab; print(*sorted(m for m in sys.modules if "
            "m.startswith('magnilab.') or m.split('.')[0] == 'numpy'))")
    res = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                         env=dict(os.environ, PYTHONPATH=str(REPO / "src")), timeout=60)
    assert res.returncode == 0, res.stderr
    assert res.stdout.split() == []


def _is_exit(func: ast.expr) -> bool:
    """True for os._exit, sys.exit, exit and an imported _exit."""
    if isinstance(func, ast.Name):
        return func.id in ("exit", "_exit")
    return (isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name)
            and (func.value.id, func.attr) in (("os", "_exit"), ("sys", "exit")))


def _exit_calls(node: ast.AST, where: str | None = None):
    """(enclosing def or class as a dotted name, line) of each exit call
    under node; None for a call outside every def."""
    for child in ast.iter_child_nodes(node):
        inner = where
        if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            inner = child.name if where is None else f"{where}.{child.name}"
        elif isinstance(child, ast.Call) and _is_exit(child.func):
            yield where, child.lineno
        yield from _exit_calls(child, inner)


def test_only_the_console_script_exits():
    assert {where for where, _ in _exit_calls(TREES["cli"])} == {"main"}
    found = [(module, where, line) for module, tree in TREES.items()
             for where, line in _exit_calls(tree) if (module, where) != ("cli", "main")]
    assert not found, f"exit called outside cli.main: {found}"
