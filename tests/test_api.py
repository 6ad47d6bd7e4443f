"""The public API: every exported name resolves, and importing is cheap.

Each module's ``__all__`` is its public surface. A name left in ``__all__``
after its object is deleted or renamed breaks ``from metats.x import *``
and every caller that looks it up, so each one is resolved here.
"""

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


def test_import_leaves_numpy_random_unloaded():
    # numpy loads numpy.random lazily, on first use; stream annotations name
    # np.random.Generator, so they must stay unevaluated at import time.
    code = "import sys, metats.bounds, metats.harness; print('numpy.random' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.path.dirname(os.path.dirname(metats.__file__)))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, check=True, env=env
    )
    assert out.stdout.strip() == "False"
