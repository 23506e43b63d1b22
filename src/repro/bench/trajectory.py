"""Bench-trajectory store: ``BENCH_<name>.json`` at the repo root.

Every bench that calls :func:`repro.bench.reporting.save_json` also
appends one *trajectory entry* — the run's scalar KPIs plus a
fingerprint (host, commit, fast-mode flag, python version) — to a
schema-versioned ``BENCH_<name>.json`` file in the current directory
(the repo root, for a normal ``pytest benchmarks`` run).  The files are
committed: they are the repo's performance memory, the data the
regression gate (:mod:`repro.obs.regress`) compares each fresh run
against.  FLASH and Cactus both attribute their longevity to exactly
this kind of always-accumulating bench ledger.

Environment knobs: ``REPRO_TRAJECTORY=0`` disables appending entirely
(unit tests that exercise benches in odd directories use this);
``REPRO_TRAJECTORY_DIR`` redirects the files elsewhere.
"""

from __future__ import annotations

import json
import os
import platform
import socket
import subprocess
import time
from typing import Any, Mapping

from repro.util.options import env_flag

TRAJECTORY_SCHEMA = 1

#: History cap per bench — enough for years of CI at several runs/day
#: without unbounded file growth.
MAX_RUNS = 400


def enabled() -> bool:
    """Trajectory appending is on unless ``REPRO_TRAJECTORY`` says off."""
    return env_flag("REPRO_TRAJECTORY", True)


def trajectory_dir() -> str:
    """Where ``BENCH_*.json`` files live (cwd — the repo root for a
    normal bench run — unless ``REPRO_TRAJECTORY_DIR`` redirects)."""
    return os.environ.get("REPRO_TRAJECTORY_DIR", "").strip() or os.getcwd()


def trajectory_path(name: str, directory: str | None = None) -> str:
    return os.path.join(directory or trajectory_dir(), f"BENCH_{name}.json")


def _git_commit() -> str | None:
    """Short commit hash of the working tree, best-effort."""
    try:
        out = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, timeout=5.0)
    except (OSError, subprocess.SubprocessError):
        return None
    commit = out.stdout.strip()
    return commit if out.returncode == 0 and commit else None


def code_fingerprint() -> dict[str, Any]:
    """The ``{host, commit, fast, python}`` stamp identifying *which
    code on which machine* produced a result.

    Shared by the bench ledgers (every trajectory entry carries one; the
    regression gate only compares runs whose ``fast`` flags match and
    prefers same-``host`` history) and by the :mod:`repro.serve` result
    cache (identical requests are only served from cache when the code
    fingerprint matches — a commit bump invalidates every cached run).
    """
    from repro.util.options import fast_mode
    return {
        "host": socket.gethostname(),
        "commit": _git_commit(),
        "fast": fast_mode(),
        "python": platform.python_version(),
    }


def fingerprint() -> dict[str, Any]:
    """Alias for :func:`code_fingerprint` (the trajectory-entry field is
    named ``fingerprint``; new callers should use the public name)."""
    return code_fingerprint()


def extract_metrics(payload: Mapping[str, Any],
                    prefix: str = "") -> dict[str, float]:
    """Default KPI extraction: every numeric scalar in the payload,
    flattened to dotted keys.  Lists are skipped (their lengths vary
    with problem size and mode) and so are bools and the schema tag —
    benches with better-defined KPIs pass explicit ``metrics`` to
    :func:`repro.bench.reporting.save_json` instead."""
    out: dict[str, float] = {}
    for key, value in payload.items():
        if key == "schema" and not prefix:
            continue
        dotted = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[dotted] = float(value)
        elif isinstance(value, Mapping):
            out.update(extract_metrics(value, prefix=f"{dotted}."))
    return out


def load_trajectory(path: str) -> dict[str, Any] | None:
    """Parse one trajectory file; ``None`` when absent or unreadable
    (a corrupt ledger should not wedge every future bench run)."""
    try:
        with open(path, encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, ValueError):
        return None
    if not isinstance(doc, dict) or not isinstance(doc.get("runs"), list):
        return None
    return doc


def append_run(name: str, payload: Mapping[str, Any],
               metrics: Mapping[str, float] | None = None,
               directory: str | None = None,
               max_runs: int = MAX_RUNS) -> str:
    """Append one run to ``BENCH_<name>.json`` and return the path.

    ``metrics`` is the run's KPI dict (lower = better for timings; the
    regression gate flags increases).  When omitted it is extracted from
    the payload via :func:`extract_metrics`.  The write is atomic
    (tmp + rename) so a crashed bench never truncates the ledger.
    """
    path = trajectory_path(name, directory)
    doc = load_trajectory(path) or {
        "schema": TRAJECTORY_SCHEMA, "bench": name, "runs": []}
    doc["schema"] = TRAJECTORY_SCHEMA
    doc["bench"] = name
    entry = {
        "time": time.time(),
        "fingerprint": fingerprint(),
        "metrics": {k: float(v)
                    for k, v in (metrics if metrics is not None
                                 else extract_metrics(payload)).items()},
    }
    doc["runs"] = (doc["runs"] + [entry])[-max_runs:]
    parent = os.path.dirname(path)
    if parent:
        os.makedirs(parent, exist_ok=True)
    tmp = f"{path}.tmp"
    with open(tmp, "w", encoding="utf-8") as fh:
        json.dump(doc, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def discover(directory: str | None = None) -> list[str]:
    """All ``BENCH_*.json`` trajectory paths under ``directory``
    (default: :func:`trajectory_dir`), sorted by name."""
    directory = directory or trajectory_dir()
    try:
        names = os.listdir(directory)
    except OSError:
        return []
    return sorted(
        os.path.join(directory, n) for n in names
        if n.startswith("BENCH_") and n.endswith(".json"))
