"""Every imported name in the package and its tests is used.

A static scan with ``ast``: a name bound by an import statement must be
read somewhere in the same file.  Package ``__init__.py`` files re-export
on purpose and are skipped, as are names a module lists in ``__all__``.
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def imported_names(tree):
    """(name, line) for every binding an import statement makes."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield alias.asname or alias.name.split(".")[0], node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    yield alias.asname or alias.name, node.lineno


def exported_names(tree):
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            yield from ast.literal_eval(node.value)


def unused_imports(path):
    tree = ast.parse(path.read_text(), filename=str(path))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    used.update(exported_names(tree))
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for name, line in imported_names(tree)
        if name not in used
    ]


def test_no_unused_imports():
    files = sorted(
        path
        for folder in ("src", "tests")
        for path in (ROOT / folder).rglob("*.py")
        if path.name != "__init__.py"
    )
    assert files
    assert [hit for path in files for hit in unused_imports(path)] == []
