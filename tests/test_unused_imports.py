"""Every name a ``vfpath`` module, a test module or a tool imports is used
in that module.

A static check with the stdlib ``ast``: a name bound by an ``import`` counts
as used when it appears as a name anywhere else in the module.  The package
``__init__`` re-exports what it imports, and ``from __future__`` binds no
name, so both are exempt.
"""

import ast
from pathlib import Path

import pytest

import vfpath

TESTS = Path(__file__).parent
MODULES = sorted(
    path for path in Path(vfpath.__file__).parent.glob("*.py") if path.name != "__init__.py"
) + sorted(TESTS.glob("*.py")) + sorted((TESTS.parent / "tools").glob("*.py"))


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"line {line}: {name}" for name, line in imported.items() if name not in used]


@pytest.mark.parametrize("module", MODULES, ids=lambda path: path.name)
def test_module_uses_every_import(module):
    assert unused_imports(module.read_text(encoding="utf-8")) == []


def test_check_finds_an_unused_import():
    source = "from __future__ import annotations\nimport math\nfrom .angles import PI, TAU\nx = TAU\n"
    assert unused_imports(source) == ["line 2: math", "line 3: PI"]
