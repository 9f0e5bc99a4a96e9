"""Every name a library module imports is used in that module, every
module-level private name is read by some library module, the modules import
one another without a cycle (``oracle`` imports only ``model``), only
``sampling`` builds a seeded stream, and a fresh ``import dfinito.cli`` loads
nothing beyond the standard library but numpy.

``__init__.py`` is skipped by the import check: its imports are the package's
public names.
"""
import ast
import glob
import os
import subprocess
import sys

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


def package_imports(text):
    """The dfinito modules that ``text`` imports, relatively or by absolute name."""
    names = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.ImportFrom) and (node.level or node.module.startswith("dfinito")):
            module = (node.module or "") if node.level else node.module[len("dfinito."):]
            names.update([module.split(".")[0]] if module else [a.name for a in node.names])
        elif isinstance(node, ast.Import):
            names.update(alias.name.split(".")[1] for alias in node.names
                         if alias.name.startswith("dfinito."))
    return names


def test_the_check_sees_every_package_import():
    text = ("import numpy\nimport dfinito.e\nfrom . import a, b\nfrom .c import x\n"
            "from dfinito.d import y\nfrom dfinito import f\nfrom os import path\n")
    assert package_imports(text) == {"a", "b", "c", "d", "e", "f"}


def _module_imports():
    graph = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as fh:
            graph[os.path.basename(path)[:-3]] = package_imports(fh.read())
    return graph


def test_oracle_imports_only_model():
    # engine imports oracle for the literal step and z*, so oracle must not import engine
    assert _module_imports()["oracle"] == {"model"}


def test_the_package_has_no_import_cycle():
    graph = _module_imports()
    assert set().union(*graph.values()) <= set(graph)
    done = set()
    while len(done) < len(graph):  # peel off the modules whose imports are all done
        ready = {name for name, deps in graph.items() if name not in done and deps <= done}
        assert ready, sorted(set(graph) - done)  # what is left imports in a cycle
        done |= ready


RANDOM_NAMES = {"default_rng", "SeedSequence", "Generator", "PCG64"}


def random_references(text):
    """The places in ``text`` that import ``numpy.random``, read ``np.random`` or
    name one of ``RANDOM_NAMES``, each as written."""
    found = set()
    for node in ast.walk(ast.parse(text)):
        if isinstance(node, ast.Import):
            hit = any(alias.name.startswith("numpy.random") for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            hit = (node.module or "").startswith("numpy.random") or (
                node.module == "numpy" and any(alias.name == "random" for alias in node.names))
        elif isinstance(node, ast.Attribute):
            hit = node.attr in RANDOM_NAMES or (
                node.attr == "random" and isinstance(node.value, ast.Name)
                and node.value.id in ("np", "numpy"))
        else:
            hit = isinstance(node, ast.Name) and node.id in RANDOM_NAMES
        if hit:
            found.add(ast.unparse(node))
    return sorted(found)


def test_the_check_sees_a_random_stream():
    text = ("import numpy as np\nimport numpy.random\nfrom numpy.random import PCG64\n"
            "from numpy import random\nrng = np.random.default_rng(0)\nx = rng.random(3)\n"
            "s = SeedSequence([1])\ng: mod.Generator = rng\n")
    assert random_references(text) == [
        "SeedSequence", "from numpy import random", "from numpy.random import PCG64",
        "import numpy.random", "mod.Generator", "np.random", "np.random.default_rng"]


@pytest.mark.parametrize("path", [path for path in SOURCES if os.path.basename(path) != "sampling.py"],
                         ids=os.path.basename)
def test_only_sampling_builds_a_seeded_stream(path):
    # every seeded draw goes through sampling.stream, whose table is the one seed contract
    with open(path, encoding="utf-8") as fh:
        assert random_references(fh.read()) == []


def test_cli_import_loads_only_numpy_beyond_the_standard_library():
    # a fresh `import dfinito.cli` is the set-up cost of every command; a new
    # third-party import, even an unused one, adds to each
    code = ("import sys\nbefore = set(sys.modules)\nimport dfinito.cli\n"
            "print(' '.join(sorted({name.split('.')[0] for name in set(sys.modules) - before}"
            " - set(sys.stdlib_module_names))))")
    src = os.path.dirname(os.path.dirname(dfinito.__file__))
    env = {**os.environ, "PYTHONPATH": src, "PYTHONDONTWRITEBYTECODE": "1"}
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                         check=True, timeout=60).stdout
    assert out.split() == ["dfinito", "numpy"]
    assert len(MODULES) == 11
