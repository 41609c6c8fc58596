"""Every exported name resolves, so ``from eotlab.<module> import *`` cannot break
on a stale ``__all__`` entry; every function the benchmark traces exists;
importing the package loads no scipy."""

import ast
import importlib
import os
import pkgutil
import subprocess
import sys
import types
from pathlib import Path

import pytest

import eotlab

MODULES = [
    importlib.import_module(f"eotlab.{info.name}")
    for info in pkgutil.iter_modules(eotlab.__path__)
    if info.name != "__main__"
]


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_module_all_resolves(module):
    missing = [name for name in getattr(module, "__all__", []) if not hasattr(module, name)]
    assert not missing
    exec(f"from {module.__name__} import *", {})


def test_package_names_are_exported_by_their_module():
    for name, value in vars(eotlab).items():
        if name.startswith("_") or isinstance(value, types.ModuleType):
            continue
        home = importlib.import_module(value.__module__)
        assert getattr(home, name) is value
        assert name in getattr(home, "__all__", [name]), f"{name} not in {home.__name__}.__all__"


def test_import_leaves_scipy_unloaded():
    # Only the transport LP uses scipy, and it imports scipy on its first
    # solve: importing the package and its CLI does not.
    src = str(Path(eotlab.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    code = ("import sys, eotlab, eotlab.cli; "
            "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True,
                          timeout=60, check=True)
    assert proc.stdout.strip() == "[]"


def test_benchmark_traced_names_resolve():
    # perfbench/spans.py swaps each traced function by name: a name deleted or
    # renamed in the package would crash a traced run.  Read the lists without
    # importing the benchmark.
    tree = ast.parse((Path(__file__).resolve().parents[1] / "perfbench" / "spans.py").read_text())
    lists = {node.targets[0].id: ast.literal_eval(node.value) for node in tree.body
             if isinstance(node, ast.Assign) and isinstance(node.targets[0], ast.Name)
             and node.targets[0].id in ("TRACED", "TRACED_METHODS")}
    assert lists["TRACED"] and lists["TRACED_METHODS"]
    missing = [(module, name) for module, name, _ in lists["TRACED"]
               if not callable(getattr(importlib.import_module(module), name, None))]
    missing += [(module, f"{cls}.{name}") for module, cls, name, _ in lists["TRACED_METHODS"]
                if not callable(getattr(getattr(importlib.import_module(module), cls, None),
                                        name, None))]
    assert not missing
