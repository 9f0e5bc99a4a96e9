"""Every name a library module imports is used in that module, and every
module-level private name is read by some library module.

``__init__.py`` is skipped by the import check: its imports are the package's
public names.
"""
import ast
import glob
import os

import pytest

import dfinito

MODULES = sorted(glob.glob(os.path.join(os.path.dirname(dfinito.__file__), "*.py")))
SOURCES = [path for path in MODULES if os.path.basename(path) != "__init__.py"]


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


def unread_private_names(texts):
    """The module-level functions, classes and constants of ``texts`` whose names
    start with a single ``_`` and that no text reads, by name or as an attribute."""
    defined, read = set(), set()
    for text in texts:
        tree = ast.parse(text)
        for node in tree.body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                defined.add(node.name)
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                defined.update(t.id for t in targets if isinstance(t, ast.Name))
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.ImportFrom):
                read.update(alias.name for alias in node.names)
    private = {name for name in defined if name.startswith("_") and not name.startswith("__")}
    return sorted(private - read)


def test_the_check_sees_an_unread_private_name():
    texts = ["import b\n_A = 1\n_B: int = 2\n__all__ = []\ndef _f():\n    return b._g()\n"
             "class _C:\n    pass\n_D = _A\n",
             "def _g():\n    pass\ndef _h():\n    pass\n", "from a import _D\n"]
    assert unread_private_names(texts) == ["_B", "_C", "_f", "_h"]


def test_every_private_name_is_read():
    texts = []
    for path in MODULES:
        with open(path, encoding="utf-8") as fh:
            texts.append(fh.read())
    assert unread_private_names(texts) == []
