"""Package re-exports that import their module on first access."""

from __future__ import annotations

import sys
from importlib import import_module
from typing import Any, Callable, Dict

__all__ = ["lazy_exports"]


def lazy_exports(package: str, exports: Dict[str, str]) -> Callable[[str], Any]:
    """A module ``__getattr__`` for ``package`` that resolves ``exports``.

    ``exports`` maps each public name to the module defining it, relative
    to ``package``.  That module is imported when the name is first read
    (``from package import name`` included), and the value is then kept
    in the package namespace, so importing the package itself costs
    nothing for names a process never uses.
    """

    def __getattr__(name: str) -> Any:
        module = exports.get(name)
        if module is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        value = getattr(import_module(module, package), name)
        setattr(sys.modules[package], name, value)
        return value

    return __getattr__
