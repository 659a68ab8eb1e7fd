"""Package re-exports resolved on first use (PEP 562).

A package ``__init__`` that eagerly imports every submodule it
re-exports makes *any* import below it pay for the whole subtree: the
sharded tier's router, which needs a config dataclass and the wire
protocol, used to load numpy and the full simulator that way.  With
:func:`lazy_exports` the ``__init__`` only declares where each public
name lives; the submodule is imported the first time the name is read
(``repro.simulate``, ``from repro.pipeline import simulate``) and the
value is then bound on the package, so later reads never reach the
hook again.  Submodules stay reachable as attributes too
(``import repro; repro.pipeline.core``).

Code inside ``src/`` imports from the defining submodule, never from a
package, so what a module loads is exactly what it names.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Mapping


def lazy_exports(
    package: str, exports: Mapping[str, tuple[str, ...]]
) -> tuple[Callable[[str], object], Callable[[], list[str]]]:
    """The ``__getattr__`` and ``__dir__`` of a lazily exporting package.

    ``exports`` maps each defining module's dotted name to the names the
    package re-exports from it.  Usage, in the package ``__init__``::

        __getattr__, __dir__ = lazy_exports(__name__, {
            "repro.pipeline.core": ("CoreModel", "simulate"),
        })
    """
    origin = {name: module for module, names in exports.items()
              for name in names}

    def __getattr__(name: str) -> object:
        module = origin.get(name)
        if module is not None:
            value = getattr(importlib.import_module(module), name)
        elif name.startswith("_"):
            raise AttributeError(
                f"module {package!r} has no attribute {name!r}"
            )
        else:
            submodule = f"{package}.{name}"
            try:
                value = importlib.import_module(submodule)
            except ModuleNotFoundError as exc:
                if exc.name != submodule:
                    raise
                raise AttributeError(
                    f"module {package!r} has no attribute {name!r}"
                ) from None
        setattr(sys.modules[package], name, value)
        return value

    def __dir__() -> list[str]:
        return sorted(set(vars(sys.modules[package])) | set(origin))

    return __getattr__, __dir__


__all__ = ["lazy_exports"]
