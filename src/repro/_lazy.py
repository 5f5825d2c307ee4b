"""Lazy package exports (PEP 562 module ``__getattr__`` / ``__dir__``).

A package that re-exports names from its submodules lists them by defining
module instead of importing them.  Each name is imported on first access and
then cached in the package namespace, so importing the package itself costs
nothing and a run pays only for the layers it uses.  Submodules resolve on
attribute access too (``import repro; repro.parallel``), as they did when the
package imported them eagerly.
"""

from __future__ import annotations

import importlib
import sys


def lazy_exports(package: str, exports: dict[str, tuple[str, ...]]):
    """The ``(__getattr__, __dir__)`` pair of ``package``.

    ``exports`` maps the absolute name of each defining module to the names
    ``package`` re-exports from it.
    """
    origin = {name: module for module, names in exports.items() for name in names}
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        module = origin.get(name)
        if module is not None:
            value = namespace[name] = getattr(importlib.import_module(module), name)
            return value
        submodule = f"{package}.{name}"
        try:
            return importlib.import_module(submodule)
        except ModuleNotFoundError as error:
            if error.name != submodule:
                raise
        raise AttributeError(f"module {package!r} has no attribute {name!r}")

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | origin.keys())

    return __getattr__, __dir__
