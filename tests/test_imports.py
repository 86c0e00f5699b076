"""No module imports a name it never reads.

No linter ships with the toolchain, so this walks each module's syntax tree:
every name an import statement binds must appear as a name somewhere else in
the file (annotations count; docstrings and comments do not). The package
``__init__`` modules are skipped, since their imports are the re-exports.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
CHECKED = (ROOT / "src" / "redloco", ROOT / "tests")


def unused_imports(path: Path) -> list[tuple[int, str]]:
    """(line, name) of each name an import in ``path`` binds and no code reads."""
    tree = ast.parse(path.read_text(), filename=str(path))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in read)


def test_every_imported_name_is_read_in_its_file():
    files = [p for root in CHECKED for p in sorted(root.rglob("*.py"))
             if p.name != "__init__.py"]
    assert len(files) > 40
    found = [f"{p.relative_to(ROOT)}:{line}: {name!r} is imported but never read"
             for p in files for line, name in unused_imports(p)]
    assert not found, "\n".join(found)


def test_the_scan_sees_an_unused_import_and_a_read_one(tmp_path):
    mod = tmp_path / "mod.py"
    mod.write_text("from __future__ import annotations\n"
                   "import os.path\nimport json as js\nfrom math import pi, tau\n\n"
                   "def f(x: tau) -> None:\n    return os.sep\n")
    assert unused_imports(mod) == [(3, "js"), (4, "pi")]


@pytest.mark.parametrize("source, unused", [
    pytest.param('"""Reads json."""\nimport json\n# json.dumps\ntext = "json"\n',
                 [(2, "json")], id="docstring-comment-and-string-do-not-read"),
    pytest.param("def f():\n    import json\n    return 1\n", [(2, "json")],
                 id="an-import-inside-a-function-is-scanned"),
    pytest.param("import functools\n\n@functools.cache\ndef f():\n    return 1\n", [],
                 id="a-decorator-reads"),
    pytest.param("import xml.etree.ElementTree\nroot = xml.etree\n", [],
                 id="a-dotted-import-binds-its-first-name"),
    pytest.param("from os import path as p, sep\nx = sep\n", [(1, "p")],
                 id="an-alias-is-the-bound-name"),
])
def test_the_scan_rules(tmp_path, source, unused):
    mod = tmp_path / "mod.py"
    mod.write_text(source)
    assert unused_imports(mod) == unused
