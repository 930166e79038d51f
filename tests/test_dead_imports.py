"""Every name a module in src/lplsh or scripts imports is read somewhere in
that module. Package __init__ files re-export what they import and are
skipped; `from __future__` imports are directives, not names."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    path
    for path in [*(ROOT / "src" / "lplsh").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    if path.name != "__init__.py"
)


def unused_imports(source: str) -> list[str]:
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                # `import a.b` binds a
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items(), key=lambda kv: kv[1]) if name not in read]


def test_guard_sees_an_unused_import():
    source = "from __future__ import annotations\nimport os\nimport sys\nfrom math import pi, tau\nprint(sys, pi)\n"
    assert unused_imports(source) == ["os (line 2)", "tau (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: f"{p.parent.name}/{p.name}")
def test_no_dead_imports(path):
    assert unused_imports(path.read_text()) == []
