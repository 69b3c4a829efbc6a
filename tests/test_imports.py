"""Every name a library module imports is used, exported or marked.

No linter ships with the project, so this is the F401 check over
``src/fracgaussiso/*.py`` (the package ``__init__`` re-exports by design):
an imported name must be used in the module or listed in its ``__all__``,
or its import statement must carry ``# noqa: F401`` with the reason.
"""
import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "fracgaussiso"
MODULES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    lines = source.splitlines()
    imported = {}  # name -> line of its import statement
    exported, used = set(), set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa: F401" in line for line in lines[node.lineno - 1:node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported.update(ast.literal_eval(node.value))
    return [f"line {line}: {name}" for name, line in sorted(imported.items(), key=lambda kv: kv[1])
            if name not in used | exported]


@pytest.mark.parametrize("path", MODULES, ids=[p.name for p in MODULES])
def test_module_has_no_unused_import(path):
    assert unused_imports(path.read_text()) == []


def test_the_check_flags_an_unused_import_and_honours_noqa():
    source = ("import math\nimport os  # noqa: F401\nfrom json import (dumps,\n    loads)\n"
              "__all__ = ['dumps']\n")
    assert unused_imports(source) == ["line 1: math", "line 3: loads"]
