"""Content-addressed result cache.

A result is addressed by what *produced* it: the sha256 of the
rc-script text, the canonicalized parameter overrides, the execution
layout (``nprocs`` — a one-rank run stores a single result document, a
multi-rank run the per-rank list), and the code fingerprint
(:func:`repro.bench.trajectory.code_fingerprint` — commit, host,
fast-mode, Python version).  Two submissions with the same key are the
same computation, so the second one can be answered from disk; any
change to the code or environment changes the fingerprint and therefore
the key, which makes stale hits structurally impossible rather than a
TTL guess.

Entries live flat under ``<root>/<key>.json``, each written once with
the C JSON encoder and landed by an atomic ``os.replace``; a root in the
old sharded layout (``<root>/<key[:2]>/``) is refused, not migrated.
``get`` validates the envelope (schema + embedded key) and
*evicts* anything malformed — a corrupted entry degrades to a cache
miss, never to a wrong answer.
"""

from __future__ import annotations

import hashlib
import json
import os
from typing import Any, Mapping

from repro.errors import ServeError
from repro.exec import DEFAULT_BACKEND
from repro.serve.jobs import canonical_params, jsonable, write_tmp

CACHE_SCHEMA = 1


def _sha256_text(text: str) -> str:
    return hashlib.sha256(text.encode("utf-8")).hexdigest()


class ResultCache:
    """Filesystem content-addressed cache (see the module docstring)."""

    def __init__(self, root: str,
                 fingerprint: Mapping[str, Any] | None = None) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        with os.scandir(root) as entries:
            old = any(entry.is_dir() for entry in entries)
        if old:
            raise ServeError(f"{root} holds a result cache in the old "
                             f"sharded layout, which is not migrated")
        if fingerprint is None:
            from repro.bench.trajectory import code_fingerprint
            fingerprint = code_fingerprint()
        self.fingerprint = dict(fingerprint)

    # -- addressing -------------------------------------------------------
    def key(self, script: str, params: Mapping[str, Any] | None, *,
            nprocs: int = 1, backend: str = "") -> str:
        """The content address of (script, params, nprocs, backend)
        under this code.  ``nprocs`` is key material because the stored
        result shape depends on it (single document vs per-rank list);
        ``backend`` (canonical :mod:`repro.exec` name, "" treated as the
        default) because different transports are different execution
        substrates — equivalence between them is something the test
        suite *proves*, not something the cache may silently assume."""
        material = {
            "schema": CACHE_SCHEMA,
            "script_sha256": _sha256_text(script),
            "params": canonical_params(params),
            "nprocs": int(nprocs),
            "backend": str(backend) or DEFAULT_BACKEND,
            "fingerprint": self.fingerprint,
        }
        blob = json.dumps(material, sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode("utf-8")).hexdigest()

    def path(self, key: str) -> str:
        return os.path.join(self.root, f"{key}.json")

    # -- access -----------------------------------------------------------
    def get(self, key: str) -> dict[str, Any] | None:
        """The cached entry, or None.  Malformed entries are evicted."""
        path = self.path(key)
        try:
            with open(path, encoding="utf-8") as fh:
                entry = json.load(fh)
        except FileNotFoundError:
            return None
        except (OSError, ValueError):
            self._evict(path)
            return None
        if (not isinstance(entry, dict)
                or entry.get("schema") != CACHE_SCHEMA
                or entry.get("key") != key
                or "result" not in entry):
            self._evict(path)
            return None
        return entry

    def put(self, key: str, result: Any, **meta: Any) -> dict[str, Any]:
        """Store ``result`` (made JSON-safe) under ``key`` and return the
        entry; concurrent racers writing the same key both succeed —
        last ``os.replace`` wins with identical content, since the key
        *is* the content."""
        entry = {
            "schema": CACHE_SCHEMA,
            "key": key,
            "fingerprint": self.fingerprint,
            "result": jsonable(result),
            **{k: jsonable(v) for k, v in meta.items()},
        }
        path = self.path(key)
        os.replace(write_tmp(path, entry), path)
        return entry

    @staticmethod
    def _evict(path: str) -> None:
        try:
            os.unlink(path)
        except OSError:
            pass

    # -- introspection ----------------------------------------------------
    def keys(self) -> list[str]:
        return sorted(name[:-5] for name in os.listdir(self.root)
                      if name.endswith(".json"))

    def __len__(self) -> int:
        return len(self.keys())

    def __contains__(self, key: str) -> bool:
        return os.path.exists(self.path(key))
