"""What a fresh interpreter loads: lazy package exports and registries.

Every package re-exports its public names lazily (``repro._lazy``), so
these checks run in subprocesses: pytest itself imports everything into
one process, where a registry that is complete only by import order, or
an entry point that loads a layer it never runs, cannot show.  They
read ``sys.modules`` and registry contents, never timings.
"""

from __future__ import annotations

import importlib
import json
import os
import subprocess
import sys

import pytest

SRC = os.path.abspath(os.path.join(os.path.dirname(__file__), "..", "src"))

PACKAGES = (
    "repro",
    "repro.analysis",
    "repro.core",
    "repro.data",
    "repro.delta",
    "repro.engine",
    "repro.obs",
    "repro.oracle",
    "repro.protocol",
)

#: Imports every module of the package (``__main__`` would run a CLI).
FULL_IMPORT = """
import importlib, pkgutil, repro
for module in pkgutil.walk_packages(repro.__path__, "repro."):
    if not module.name.endswith("__main__"):
        importlib.import_module(module.name)
"""

#: Lists both registries, scenarios first, after ``{setup}``.
LIST_REGISTRIES = """
import json
{setup}
from repro.engine.scenarios import scenario_names
names = scenario_names()
from repro.engine.sweeps import grid_names
print(json.dumps({{"scenarios": names, "grids": grid_names()}}))
"""


def _run(code: str) -> str:
    """Run ``code`` in a fresh interpreter on ``src/``; its stdout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC
    completed = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        env=env,
        timeout=120,
    )
    assert completed.returncode == 0, completed.stderr
    return completed.stdout


def _loaded_after(statement: str) -> set[str]:
    """The modules a fresh interpreter holds after ``statement``."""
    code = f"import json, sys\n{statement}\nprint(json.dumps(sorted(sys.modules)))"
    return set(json.loads(_run(code)))


@pytest.fixture(scope="module")
def full_registries():
    return json.loads(_run(LIST_REGISTRIES.format(setup=FULL_IMPORT)))


class TestRegistriesAreComplete:
    """The scenario and grid registries list every built-in whichever
    module a process imported first."""

    @pytest.mark.parametrize(
        "module",
        ["repro", "repro.engine", "repro.engine.scenarios", "repro.engine.sweeps"],
    )
    def test_same_as_full_import(self, module, full_registries):
        listed = json.loads(_run(LIST_REGISTRIES.format(setup=f"import {module}")))
        assert listed == full_registries

    def test_full_import_lists_the_protocol_workloads(self, full_registries):
        assert "protocol-honest" in full_registries["scenarios"]
        assert "protocol_wan" in full_registries["grids"]

    def test_lookup_of_a_protocol_scenario_first(self):
        code = (
            "from repro.engine.scenarios import get_scenario\n"
            "print(type(get_scenario('protocol-honest')).__name__)"
        )
        assert _run(code).strip() == "ProtocolScenario"


class TestImportBudget:
    def test_exact_dp_loads_no_simulator_backend_or_oracle(self):
        loaded = _loaded_after("import repro.analysis.exact")
        assert "repro.analysis.exact" in loaded
        forbidden = {
            name
            for name in loaded
            if name.startswith(("repro.protocol", "repro.oracle"))
            or name
            in (
                "repro.engine.runner",
                "repro.engine.distributed",
                "http.server",
            )
        }
        assert not forbidden

    def test_protocol_workload_loads_no_oracle_or_series(self):
        loaded = _loaded_after("import repro.engine.protocol")
        assert "repro.protocol.simulation" in loaded
        forbidden = {
            name
            for name in loaded
            if name.startswith("repro.oracle")
            or name == "repro.analysis.genfunc"
        }
        assert not forbidden

    def test_star_import_binds_every_export(self):
        code = (
            "import importlib, json\n"
            "unbound = {}\n"
            f"for package in {PACKAGES!r}:\n"
            "    namespace = {}\n"
            "    exec(f'from {package} import *', namespace)\n"
            "    exports = importlib.import_module(package).__all__\n"
            "    unbound[package] = [n for n in exports if n not in namespace]\n"
            "print(json.dumps(unbound))"
        )
        unbound = json.loads(_run(code))
        assert unbound == {package: [] for package in PACKAGES}


def test_exports_resolve_to_their_modules():
    """Every lazy export is the object its module defines, and unknown
    names still raise ``AttributeError``."""
    for package in PACKAGES:
        module = importlib.import_module(package)
        for name in module.__all__:
            assert name in dir(module)
            value = getattr(module, name)
            origin = getattr(value, "__module__", None)
            if isinstance(origin, str) and origin.startswith("repro."):
                assert getattr(importlib.import_module(origin), name) is value
        with pytest.raises(AttributeError):
            getattr(module, "no_such_name")


def test_margin_function_shadows_its_module():
    import repro.core.margin  # noqa: F401  (the submodule, explicitly)
    from repro.core import margin

    assert callable(margin)
    assert margin.__module__ == "repro.core.margin"
