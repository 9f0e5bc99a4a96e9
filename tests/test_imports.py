"""Every name a library module imports is used in that module.

``__init__.py`` is skipped: its imports are the package's public names.
"""
import ast
import glob
import os

import pytest

import dfinito

SOURCES = sorted(path for path in glob.glob(os.path.join(os.path.dirname(dfinito.__file__), "*.py"))
                 if os.path.basename(path) != "__init__.py")


def unused_imports(text):
    """The names that ``text`` imports, at any depth, and never reads."""
    tree = ast.parse(text)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported += [alias.asname or alias.name.split(".")[0] for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported += [alias.asname or alias.name for alias in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(set(imported) - used)


def test_the_check_sees_an_unused_import():
    assert unused_imports("import math\nfrom os import path, sep\nprint(path)\n") == ["math", "sep"]
    assert unused_imports("def f():\n    import zlib\n    return zlib.crc32(b'')\n") == []


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_every_imported_name_is_used(path):
    with open(path, encoding="utf-8") as fh:
        assert unused_imports(fh.read()) == []
