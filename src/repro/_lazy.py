"""Lazy package exports (PEP 562), shared by every package of ``repro``.

A package's ``__init__`` declares which module provides each public
name.  The module is imported the first time one of its names is
looked up, and the value is then bound in the package namespace, so
later lookups are plain attribute reads.  Submodules
(``repro.engine.kernels``) resolve the same way.  Importing a package
therefore runs no module it re-exports: ``import repro.analysis.exact``
loads none of the protocol, backend or oracle code that ``repro``
exports, while ``from repro import Simulation`` still works.
"""

from __future__ import annotations

import importlib
import sys

__all__ = ["lazy_exports"]


def lazy_exports(
    package: str,
    exports: dict[str, tuple[str, ...]],
    submodules: tuple[str, ...] = (),
):
    """``(__all__, __getattr__, __dir__)`` for the package ``package``.

    ``exports`` maps a module name to the public names it provides;
    ``submodules`` lists the submodules that are public names of the
    package themselves.  Any other submodule is reachable as an
    attribute too, as if it had been imported.
    """
    origins = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__
    public = sorted([*origins, *submodules])

    def missing(name: str) -> AttributeError:
        return AttributeError(f"module {package!r} has no attribute {name!r}")

    def __getattr__(name: str):
        if name in origins:
            value = getattr(importlib.import_module(origins[name]), name)
        elif name.startswith("__"):
            raise missing(name)
        else:
            qualified = f"{package}.{name}"
            try:
                value = importlib.import_module(qualified)
            except ModuleNotFoundError as error:
                if error.name != qualified:
                    raise
                raise missing(name) from None
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted({*namespace, *public})

    return public, __getattr__, __dir__
