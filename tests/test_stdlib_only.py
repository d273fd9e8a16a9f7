"""The runtime stays stdlib-only: every import in the package names a
standard-library module or the package itself."""

import ast
import sys
from pathlib import Path

import bernstein_forge

PACKAGE = Path(bernstein_forge.__file__).resolve().parent


def imported_modules(tree):
    """(line, top-level module name) for every absolute import in tree."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.partition(".")[0]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.lineno, node.module.partition(".")[0]


def test_every_import_is_stdlib_or_the_package():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) >= 10
    allowed = sys.stdlib_module_names | {PACKAGE.name}
    foreign = [f"{path.name}:{line} imports {name}"
               for path in modules
               for line, name in imported_modules(ast.parse(path.read_text(encoding="utf-8")))
               if name not in allowed]
    assert foreign == []

