"""Lazy package surfaces (PEP 562).

A package built with :func:`lazy_surface` imports nothing up front:
each public name is imported from its defining module the first time
it is read, then cached in the package's globals.  ``import repro`` so
costs a command only the layers it uses (``repro list`` and
``repro submit`` never load numpy or the simulator).
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, Iterable, List, Mapping, Tuple


def lazy_surface(
    package: str, exports: Mapping[str, Iterable[str]]
) -> Tuple[List[str], Callable[[str], object], Callable[[], List[str]]]:
    """``(__all__, __getattr__, __dir__)`` for ``package``.

    ``exports`` maps each defining module to the names the package
    re-exports from it; names listed under ``package`` itself are its
    submodules.  ``__all__`` is the names in table order.
    """
    owners: Dict[str, str] = {
        name: module for module, names in exports.items() for name in names
    }
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> object:
        module = owners.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        if module == package:
            value = importlib.import_module(f"{package}.{name}")
        else:
            value = getattr(importlib.import_module(module), name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(owners))

    return list(owners), __getattr__, __dir__
