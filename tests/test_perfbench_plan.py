"""Every target of the perfbench instrumentation plan resolves.

``perfbench/layers.py`` names the functions a traced run wraps as
``(module, class, attribute)`` triples, and ``instrument()`` resolves
all of them before any traced workload runs: one stale name (a module,
class or function renamed or deleted) crashes every traced run.  CI
traces only some of the workloads, so the plan is checked here, one
case per target.  ``layers`` imports only the standard library, so
loading it by path leaves ``sys.path`` and the benchmark alone.
"""

import importlib
import importlib.util
import pathlib

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load_layers():
    spec = importlib.util.spec_from_file_location(
        "perfbench_layers", ROOT / "perfbench" / "layers.py"
    )
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


LAYERS = _load_layers()
TARGETS = [
    pytest.param(target, id=f"{plan}:{target[3]}:{target[0]}")
    for plan, targets in (
        ("in_process", LAYERS.IN_PROCESS),
        ("server", LAYERS.SERVER),
    )
    for target in targets
]


@pytest.mark.parametrize("target", TARGETS)
def test_plan_target_resolves(target):
    module_name, class_name, attribute = target[:3]
    owner = importlib.import_module(module_name)
    if class_name is not None:
        owner = getattr(owner, class_name)
    assert callable(getattr(owner, attribute))
