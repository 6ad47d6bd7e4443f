"""The public API: every exported name resolves, every import is used, every
module-level definition is read somewhere, and importing is cheap.

Each module's ``__all__`` is its public surface. A name left in ``__all__``
after its object is deleted or renamed breaks ``from metats.x import *``
and every caller that looks it up, so each one is resolved here. An import
left behind by a deletion is caught the same way, from the module's source.
"""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys

import pytest

import metats

MODULES = ["metats"] + [
    f"metats.{info.name}" for info in pkgutil.iter_modules(metats.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_exported_name_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", [])
    missing = [attr for attr in exported if not hasattr(module, attr)]
    assert missing == []
    assert len(set(exported)) == len(exported)


SOURCES = sorted(
    entry.path for entry in os.scandir(os.path.dirname(metats.__file__))
    if entry.name.endswith(".py")
)


def unused_imports(source: str) -> list:
    """Names a module imports and never reads. A name in ``__all__``, or
    imported by a statement with ``# noqa`` on one of its lines, is used."""
    tree = ast.parse(source)
    lines = source.splitlines()
    imported, used = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if any("# noqa" in line for line in lines[node.lineno - 1 : node.end_lineno]):
                continue
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return sorted(f"{name} (line {line})" for name, line in imported.items() if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=os.path.basename)
def test_every_import_is_used(path):
    with open(path, encoding="utf-8") as f:
        assert unused_imports(f.read()) == []


def test_an_unused_import_is_found():
    source = "import os\nimport sys  # noqa: F401\nfrom math import pi, tau\n__all__ = ['tau']\n"
    assert unused_imports(source) == ["os (line 1)", "pi (line 3)"]


def reaches_lapack_gufuncs(source: str) -> bool:
    """Whether a module imports numpy.linalg._umath_linalg, or reads it as an attribute."""
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            names = [f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = [node.attr] if isinstance(node, ast.Attribute) else []
        if any("_umath_linalg" in name.split(".") for name in names):
            return True
    return False


def test_only_special_reaches_lapack_gufuncs():
    # The LAPACK seam (_cholesky, _solve) lives in special; every other
    # module factors and solves through it.
    reaching = []
    for path in SOURCES:
        with open(path, encoding="utf-8") as f:
            if reaches_lapack_gufuncs(f.read()):
                reaching.append(os.path.basename(path))
    assert reaching == ["special.py"]
    assert reaches_lapack_gufuncs("from numpy.linalg._umath_linalg import solve\n")
    assert reaches_lapack_gufuncs("import numpy as np\nf = np.linalg._umath_linalg.solve\n")
    assert not reaches_lapack_gufuncs("from numpy.linalg import solve\n")


def unreferenced_definitions(sources: dict) -> list:
    """Module-level functions, classes and constants of the given modules
    (file name -> source) that none of them reads outside the definition
    itself, as a name or an attribute. A name in its module's ``__all__`` is
    referenced."""
    defined, used = {}, set()
    for module, source in sources.items():
        for node in ast.parse(source).body:
            if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
                names = {node.name}
            elif isinstance(node, (ast.Assign, ast.AnnAssign)):
                targets = node.targets if isinstance(node, ast.Assign) else [node.target]
                names = {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
            else:
                names = set()
            if "__all__" in names:
                used.update(ast.literal_eval(node.value))
            defined.update((name, f"{module}:{node.lineno}") for name in names if name[:2] != "__")
            reads = {sub.id for sub in ast.walk(node) if isinstance(sub, ast.Name)}
            reads |= {sub.attr for sub in ast.walk(node) if isinstance(sub, ast.Attribute)}
            used |= reads - names
    return sorted(f"{name} ({where})" for name, where in defined.items() if name not in used)


def test_every_definition_is_referenced():
    sources = {}
    for path in SOURCES:
        with open(path, encoding="utf-8") as f:
            sources[os.path.basename(path)] = f.read()
    assert unreferenced_definitions(sources) == []


def test_an_unreferenced_definition_is_found():
    first = "A, B = 1, 2\n__all__ = ['f']\ndef f():\n    return g()\ndef g():\n    return g()\n"
    second = "class C:\n    pass\nD = A\nprint(mod.B)\n"
    found = unreferenced_definitions({"a.py": first, "b.py": second})
    assert found == ["C (b.py:1)", "D (b.py:3)"]


def loaded_by_import(module: str) -> str:
    """"True" or "False": whether importing metats.bounds and metats.harness
    in a fresh interpreter loads the named module."""
    code = f"import sys, metats.bounds, metats.harness; print({module!r} in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(metats.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    return out.stdout.strip()


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily, on first use; stream annotations name
    # np.random.Generator, so they must stay unevaluated at import time.
    assert loaded_by_import("numpy.random") == "False"


def test_import_leaves_multiprocessing_unloaded():
    # run_experiment imports the process pool only when it starts one, so a
    # serial run never pays for loading multiprocessing.
    assert loaded_by_import("multiprocessing") == "False"
