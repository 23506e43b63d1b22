"""Lazy re-exports for package roots (PEP 562).

A package root names what it re-exports and the submodule each name
lives in; :func:`lazy_exports` turns that table into the root's module
``__getattr__`` and ``__dir__``.  ``import repro.cca`` then loads none of
the submodules, and ``from repro.cca import run_script`` imports
:mod:`repro.cca.script` when the name is first asked for.
"""

from __future__ import annotations

import importlib
import sys
from typing import Any, Callable, Mapping


def lazy_exports(package: str, table: Mapping[str, str]
                 ) -> tuple[Callable[[str], Any], Callable[[], list[str]]]:
    """The ``(__getattr__, __dir__)`` pair of the root ``package``.

    ``table`` maps each lazily exported name to the submodule, relative
    to ``package``, that defines it; a name equal to its submodule's
    name exports the submodule itself.  A resolved name is stored in the
    root's namespace, so only its first access imports.
    """
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str) -> Any:
        try:
            submodule = table[name]
        except KeyError:
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}") from None
        module = importlib.import_module(f"{package}.{submodule}")
        value = module if name == submodule else getattr(module, name)
        namespace[name] = value
        return value

    def __dir__() -> list[str]:
        return sorted(set(namespace) | set(table))

    return __getattr__, __dir__
