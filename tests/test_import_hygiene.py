"""Every name a package module imports at module level is used there, and
every private name it defines at module level is read there.

No linter runs on this repository, so these tests stand in for the
unused-import and unused-private-name rules. ``__init__.py`` is skipped for
imports: they are the package's re-exports. An import counts as used when
the module's code refers to it or lists it in ``__all__``. A private name
(one leading underscore, not a dunder) defined by a ``def``, ``class`` or
assignment counts as used when the module's code reads it. The chunk caps
of ``numerics`` are read through that module, never imported by name: a
name bound at import does not follow a patch of ``numerics``.
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


def unused_private_names(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    defined = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            defined[node.name] = node.lineno
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            for target in targets:
                for name in ast.walk(target):
                    if isinstance(name, ast.Name):
                        defined[name.id] = node.lineno
    loaded = {
        node.id for node in ast.walk(tree)
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)
    }
    return [
        f"{path.name}:{line} {name}" for name, line in defined.items()
        if name.startswith("_") and not name.startswith("__") and name not in loaded
    ]


ALL_MODULES = sorted(SRC.glob("*.py"))
MODULES = [p for p in ALL_MODULES if p.name != "__init__.py"]


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


@pytest.mark.parametrize("path", ALL_MODULES, ids=lambda p: p.name)
def test_every_private_module_level_name_is_read(path):
    assert unused_private_names(path) == []


def test_an_unused_private_name_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "__all__ = ['f']\n"
        "_LIMIT = 4\n_SPARE: int = 5\n"
        "def _read_array(fh):\n    return fh.read()\n"
        "class _Used:\n    pass\n"
        "def _helper():\n    return _Used()\n"
        "def f():\n    return _helper(), _LIMIT\n"
    )
    assert unused_private_names(module) == ["sample.py:3 _SPARE", "sample.py:4 _read_array"]


CHUNK_CAPS = {"WORK_BYTES", "POOL_CHUNK_FRAMES", "POOL_CHUNK_TOKENS"}


def chunk_caps_imported_by_name(path: Path) -> list[str]:
    tree = ast.parse(path.read_text(), filename=str(path))
    return [
        f"{path.name}:{node.lineno} {alias.name}"
        for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)
        for alias in node.names if alias.name in CHUNK_CAPS
    ]


@pytest.mark.parametrize(
    "path", [p for p in ALL_MODULES if p.name != "numerics.py"], ids=lambda p: p.name
)
def test_no_module_but_numerics_imports_a_chunk_cap_by_name(path):
    assert chunk_caps_imported_by_name(path) == []


def test_a_chunk_cap_imported_by_name_is_reported(tmp_path):
    module = tmp_path / "sample.py"
    module.write_text(
        "from . import numerics\nfrom .numerics import WORK_BYTES, per_chunk\n"
        "def f():\n    from .numerics import POOL_CHUNK_TOKENS as cap\n"
        "    return numerics.POOL_CHUNK_FRAMES, WORK_BYTES, cap\n"
    )
    assert chunk_caps_imported_by_name(module) == [
        "sample.py:2 WORK_BYTES", "sample.py:4 POOL_CHUNK_TOKENS"
    ]
