"""Every name a package module imports at module level is used there.

No linter runs on this repository, so this test stands in for the
unused-import rule. ``__init__.py`` is skipped: its imports are the package's
re-exports. A name counts as used when the module's code refers to it or
lists it in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "vtcompress"


def unused_imports(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    imported = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [f"{path.name}:{line} {name}" for name, line in imported.items() if name not in used]


MODULES = sorted(p for p in SRC.glob("*.py") if p.name != "__init__.py")


def test_modules_are_found():
    assert len(MODULES) >= 10


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_every_module_level_import_is_used(path):
    assert unused_imports(path) == []


def test_an_unused_import_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from __future__ import annotations\n"
        "import os\nimport numpy as np\nfrom .errors import A, B\n"
        "__all__ = ['B']\n"
        "def f():\n    return np.zeros(1)\n"
    )
    assert unused_imports(module) == ["sample.py:2 os", "sample.py:4 A"]
