"""Every imported name in the package and its tests is used, and every
function, class and method the package defines is named somewhere.

A static scan with ``ast``: a name bound by an import statement must be
read somewhere in the same file.  Package ``__init__.py`` files re-export
on purpose and are skipped, as are names a module lists in ``__all__``.
A name defined under ``src`` must appear, as a word, on some line of the
package, its tests, demos or benchmarks other than its own ``def`` or
``class`` line, and on some such line outside the tests and the package's
re-exports; a method counts only where it appears as an attribute,
``.name``, since its name alone may be any other word.  Dunder methods
are called by Python itself and are exempt.
"""

import ast
import re
from collections import Counter
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


# what counts as a use of a definition: a function or class is used where
# its name appears as a word, a method only where it appears as an attribute
WORD, ATTRIBUTE = r"\w+", r"\.(\w+)"


def defined_names(tree):
    """(name, line, pattern) for every module-level function and class
    (pattern WORD) and every method of a module-level class (ATTRIBUTE)."""
    kinds = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
    for node in tree.body:
        if isinstance(node, kinds):
            yield node.name, node.lineno, WORD
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, kinds):
                    yield item.name, item.lineno, ATTRIBUTE


def orphans(folders, counted=lambda path: True):
    """``path:line: name`` for every name defined under ``src`` that its
    pattern finds on no counted line of ``folders`` other than its own
    ``def`` or ``class`` line."""
    lines = {path: path.read_text().splitlines() for folder in folders for path in (ROOT / folder).rglob("*.py")}
    uses = {
        pattern: Counter(
            word for path, text in lines.items() if counted(path) for line in text for word in re.findall(pattern, line)
        )
        for pattern in (WORD, ATTRIBUTE)
    }
    return [
        f"{path.relative_to(ROOT)}:{line}: {name}"
        for path in sorted(lines)
        if path.is_relative_to(ROOT / "src")
        for name, line, pattern in defined_names(ast.parse("\n".join(lines[path]), filename=str(path)))
        if not (name.startswith("__") and name.endswith("__"))
        and uses[pattern][name] == re.findall(pattern, lines[path][line - 1]).count(name)
    ]


def test_every_definition_is_named_elsewhere():
    assert orphans(("src", "tests", "demos", "benchmarks")) == []


def test_every_definition_runs_outside_the_tests():
    # what only tests call belongs in tests/oracles.py; the re-exports of
    # the __init__ files name every public function, so they do not count
    found = orphans(("src", "demos", "benchmarks"), counted=lambda path: path.name != "__init__.py")
    # no command checks the group axioms of the spec it parses yet, and the
    # audit ledger planned in ROADMAP.md is to make one do so
    allowed = {"validate_group_axioms"}
    assert [hit for hit in found if hit.rsplit(": ", 1)[1] not in allowed] == []
