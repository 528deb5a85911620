"""Every module under ``src/repro`` is imported by the library itself,
and none imports scipy or networkx when it is imported.

A module that neither its package nor any other module imports is
reached only by the tests that import it directly: code no workflow
can run.  The check reads every ``import`` statement of the package
source (function-level imports included) and resolves relative ones.
Package ``__init__`` modules and the ``__main__`` entry point are
exempt: Python itself loads them.

scipy and networkx are imported inside the functions that use them:
loading them costs more than importing the rest of the library, and
the behavioural converter flow never needs them.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def _dotted(path: Path) -> str:
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _is_type_checking(test: ast.expr) -> bool:
    return (isinstance(test, ast.Name) and test.id == "TYPE_CHECKING"
            or isinstance(test, ast.Attribute)
            and test.attr == "TYPE_CHECKING")


def _import_time_nodes(tree: ast.Module):
    """Every node the module runs when it is imported: function bodies
    and ``if TYPE_CHECKING:`` blocks are skipped."""
    pending = list(tree.body)
    while pending:
        node = pending.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.Lambda)):
            continue
        if isinstance(node, ast.If) and _is_type_checking(node.test):
            pending.extend(node.orelse)
            continue
        yield node
        pending.extend(ast.iter_child_nodes(node))


def _imported_names(path: Path, import_time: bool = False) -> set[str]:
    """Every dotted name an import statement of ``path`` may load; with
    ``import_time``, only the statements run when ``path`` is imported."""
    package = _dotted(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    tree = ast.parse(path.read_text(), str(path))
    names: set[str] = set()
    for node in _import_time_nodes(tree) if import_time else ast.walk(tree):
        if isinstance(node, ast.Import):
            names.update(alias.name for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = node.module or ""
            if node.level:
                anchor = package.split(".")
                anchor = anchor[:len(anchor) - node.level + 1]
                base = ".".join(anchor + ([base] if base else []))
            names.add(base)
            names.update(f"{base}.{alias.name}" for alias in node.names)
    return names


def test_every_module_is_imported_by_the_library():
    sources = sorted(ROOT.rglob("*.py"))
    imported: dict[str, set[str]] = {
        _dotted(path): _imported_names(path) for path in sources}
    orphans = []
    for path in sources:
        if path.name in ("__init__.py", "__main__.py"):
            continue
        name = _dotted(path)
        if not any(name in names for other, names in imported.items()
                   if other != name):
            orphans.append(name)
    assert orphans == []


def test_no_module_imports_scipy_or_networkx_when_imported():
    """The flows themselves are checked in ``test_import_cost.py``."""
    offenders = {}
    for path in sorted(ROOT.rglob("*.py")):
        heavy = sorted(name for name in _imported_names(path, True)
                       if name.split(".")[0] in ("scipy", "networkx"))
        if heavy:
            offenders[_dotted(path)] = heavy
    assert offenders == {}


def test_no_module_imports_scipy_optimize():
    """The STSCL design equations use the port in ``stscl.roots``."""
    offenders = {_dotted(path) for path in sorted(ROOT.rglob("*.py"))
                 if any(name == "scipy.optimize"
                        or name.startswith("scipy.optimize.")
                        for name in _imported_names(path))}
    assert offenders == set()
