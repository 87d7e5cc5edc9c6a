"""Lazy package exports (PEP 562).

A package re-exports the public names of its submodules without
importing them: the first access to a name (attribute, ``from package
import name``, ``import *``) imports the submodule that defines it and
binds the name in the package, so later accesses are plain attribute
loads.  A run therefore loads only the modules of the protocols it
deploys (docs/performance.md, "What a run imports").
"""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable


def lazy_exports(
    package: str, table: dict[str, tuple[str, ...]]
) -> tuple[Callable[[str], Any], Callable[[], list[str]], list[str]]:
    """``(__getattr__, __dir__, __all__)`` for ``package``, whose
    ``table`` maps each submodule (relative name) to the names it
    exports.

    An exported name must not equal its submodule's name: once the
    submodule is imported, the import system binds the module itself
    to that package attribute, and ``__getattr__`` is no longer asked.
    """
    source = {
        name: f"{package}.{module}"
        for module, names in table.items()
        for name in names
    }
    namespace = vars(sys.modules[package])

    def __getattr__(name: str) -> Any:
        module = source.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = namespace[name] = getattr(import_module(module), name)
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(source))

    return __getattr__, __dir__, list(source)
