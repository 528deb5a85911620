"""Every module under ``src/repro`` is imported by the library itself.

A module that neither its package nor any other module imports is
reached only by the tests that import it directly: code no workflow
can run.  The check reads every ``import`` statement of the package
source (function-level imports included) and resolves relative ones.
Package ``__init__`` modules and the ``__main__`` entry point are
exempt: Python itself loads them.
"""

import ast
from pathlib import Path

import repro

ROOT = Path(repro.__file__).parent


def _dotted(path: Path) -> str:
    parts = path.relative_to(ROOT.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _imported_names(path: Path) -> set[str]:
    """Every dotted name an import statement of ``path`` may load."""
    package = _dotted(path)
    if path.name != "__init__.py":
        package = package.rpartition(".")[0]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), str(path))):
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
