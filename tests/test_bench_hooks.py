"""The benchmark's trace hooks must keep resolving.

``perfbench/ledger.py`` wraps named entry points of every layer from the
outside.  Deleting or renaming one breaks only ``perfbench/run.py
--trace 1``, so this test loads the ledger by path (without importing the
benchmark package) and resolves every wrapped name the way
``Ledger.install`` does.
"""

import importlib
import importlib.util
from pathlib import Path

import pytest

LEDGER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "ledger.py"


def _load_ledger():
    spec = importlib.util.spec_from_file_location("_perfbench_ledger", LEDGER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LEDGER = _load_ledger()

#: Every wrapped entry point, plus ``EvaluationEngine.map`` (wrapped apart).
HOOKS = [(module, path) for module, path, _, _ in LEDGER.BOUNDARIES] + [
    ("repro.engine.engine", "EvaluationEngine.map"),
]


@pytest.mark.parametrize(
    "module_name,path", HOOKS, ids=[f"{m}:{p}" for m, p in HOOKS]
)
def test_hook_resolves(module_name, path):
    module = importlib.import_module(module_name)
    if "." in path:
        owner_name, attr = path.split(".")
        owner = getattr(module, owner_name)
        # ``Ledger.install`` replaces the attribute in the class's own
        # namespace, so an inherited method would not be wrapped.
        assert attr in vars(owner), f"{module_name}.{path} is not defined here"
        assert callable(getattr(owner, attr))
    else:
        assert callable(getattr(module, path))
