"""Unknown-name errors for the closed backend tables.

Every string-valued backend field (technology, gate style, attack,
S-box, assessment, router, scenario) resolves through
one module-level ``dict`` of built-ins in the module that owns that
kind.  :func:`lookup` is the shared read path: a miss raises
:class:`UnknownBackendError` listing the available names.  The module
sits below every subsystem so leaf modules can use it without importing
the flow package.
"""

from __future__ import annotations

from typing import Mapping, Sequence, TypeVar

__all__ = ["UnknownBackendError", "lookup"]

T = TypeVar("T")


class UnknownBackendError(KeyError):
    """Lookup of a backend name that is not in its table."""

    def __init__(self, kind: str, name: str, available: Sequence[str]) -> None:
        self.kind = kind
        self.name = name
        self.available = tuple(available)
        super().__init__(
            f"unknown {kind} {name!r}; available: {', '.join(self.available) or '(none)'}"
        )

    def __str__(self) -> str:  # KeyError would quote the message
        return self.args[0]


def lookup(table: Mapping[str, T], kind: str, name: str) -> T:
    """``table[name]``, or :class:`UnknownBackendError` naming ``kind``."""
    try:
        return table[name]
    except KeyError:
        raise UnknownBackendError(kind, name, sorted(table)) from None
