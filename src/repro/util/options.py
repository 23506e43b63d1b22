"""Key-value option bags used throughout the toolkit.

The paper's *Database components* "store certain parameters (e.g. mesh size,
gas properties, etc), that are retrieved using a key-value pair mechanism".
:class:`Options` is the plain data structure backing those components; the
CCA-facing wrapper lives in :mod:`repro.cca.ports.parameter`.
"""

from __future__ import annotations

import os
from typing import Any, Iterator, Mapping


class Options:
    """A typed key-value store with defaults and strict lookup.

    Values are arbitrary Python objects; convenience accessors coerce to the
    requested type so rc-script string parameters interoperate with numeric
    component knobs.
    """

    def __init__(self, initial: Mapping[str, Any] | None = None) -> None:
        self._data: dict[str, Any] = dict(initial or {})

    # -- mutation ---------------------------------------------------------
    def set(self, key: str, value: Any) -> None:
        """Store ``value`` under ``key`` (overwrites silently)."""
        if not isinstance(key, str) or not key:
            raise KeyError(f"option keys must be non-empty strings, got {key!r}")
        self._data[key] = value

    def update(self, other: Mapping[str, Any]) -> None:
        """Merge all pairs from ``other`` into this bag."""
        for k, v in other.items():
            self.set(k, v)

    def remove(self, key: str) -> None:
        """Delete ``key``; raises ``KeyError`` if absent."""
        del self._data[key]

    # -- lookup -----------------------------------------------------------
    def get(self, key: str, default: Any = None) -> Any:
        return self._data.get(key, default)

    def require(self, key: str) -> Any:
        """Strict lookup; raises ``KeyError`` listing available keys."""
        try:
            return self._data[key]
        except KeyError:
            known = ", ".join(sorted(self._data)) or "<empty>"
            raise KeyError(f"missing option {key!r} (known: {known})") from None

    def get_int(self, key: str, default: int | None = None) -> int:
        value = self._data.get(key, default)
        if value is None:
            raise KeyError(f"missing integer option {key!r}")
        return int(value)

    def get_float(self, key: str, default: float | None = None) -> float:
        value = self._data.get(key, default)
        if value is None:
            raise KeyError(f"missing float option {key!r}")
        return float(value)

    def get_bool(self, key: str, default: bool | None = None) -> bool:
        value = self._data.get(key, default)
        if value is None:
            raise KeyError(f"missing boolean option {key!r}")
        if isinstance(value, str):
            lowered = value.strip().lower()
            if lowered in ("1", "true", "yes", "on"):
                return True
            if lowered in ("0", "false", "no", "off"):
                return False
            raise ValueError(f"option {key!r}={value!r} is not a boolean")
        return bool(value)

    def get_str(self, key: str, default: str | None = None) -> str:
        value = self._data.get(key, default)
        if value is None:
            raise KeyError(f"missing string option {key!r}")
        return str(value)

    # -- container protocol -------------------------------------------------
    def __contains__(self, key: str) -> bool:
        return key in self._data

    def __iter__(self) -> Iterator[str]:
        return iter(self._data)

    def __len__(self) -> int:
        return len(self._data)

    def keys(self):
        return self._data.keys()

    def items(self):
        return self._data.items()

    def as_dict(self) -> dict[str, Any]:
        """Shallow copy of the underlying mapping."""
        return dict(self._data)

    def copy(self) -> "Options":
        return Options(self._data)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return f"Options({self._data!r})"


def env_flag(name: str, default: bool) -> bool:
    """A boolean environment variable, spelled as :meth:`Options.get_bool`
    accepts (``1/true/yes/on``, ``0/false/no/off``, any case); unset or
    empty gives ``default``, anything else raises :class:`ValueError`."""
    raw = os.environ.get(name, "").strip()
    if not raw:
        return default
    return Options({name: raw}).get_bool(name)


def fast_mode() -> bool:
    """True when the ``REPRO_FAST`` environment flag requests scaled-down
    problem sizes (used by tests and smoke benches)."""
    return env_flag("REPRO_FAST", False)
