"""Lazy package exports (PEP 562): a package ``__init__`` names what it exports
and where each name lives; the submodule is imported when the name is first
asked for, so an entry point loads only the layer it uses.  Laziness lives in
``__init__`` files only — modules import each other by full path as before.
"""

from __future__ import annotations

import sys
from importlib import import_module


def lazy_exports(package: str, exports: dict[str, str]) -> tuple:
    """Return ``(__getattr__, __dir__)`` for *package* from ``{name: submodule}``."""
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> object:
        if name not in exports:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(f"{package}.{exports[name]}"), name)
        namespace[name] = value  # cached: the next access never gets here
        return value

    def __dir__() -> list[str]:
        return sorted(namespace.keys() | exports.keys())

    # An exported name equal to its own submodule's is bound now: the import
    # system rebinds ``package.<name>`` to the module whenever anybody imports
    # that submodule, and a module ``__getattr__`` never sees that happen.
    for name, submodule in exports.items():
        if name == submodule:
            __getattr__(name)
    return __getattr__, __dir__
