"""Job model and the filesystem-backed job store.

A *job* is one request to run an assembly: an rc-script (inline text)
plus a parameter-override dict, stamped with a tenant label and a
priority.  The store keeps every job as a directory of small JSON
documents under ``<root>/<job_id>/``::

    spec.json      what was asked (script, params, tenant, knobs)
    record.json    where it is (state, timestamps, cache/batch markers)
    result.json    what came out (written once, on completion)

All writes are atomic (tmp + ``os.replace``) and state transitions are
guarded, so a crashed service leaves a store the next boot can recover:
``queued`` records are re-enqueued, ``running`` ones are re-queued too
(the run never finished — the supervised runner makes re-execution
safe), terminal states are left alone.  No sockets, no daemons: the
store *is* the service's interface with the disk, which keeps tests and
CI hermetic.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import asdict, dataclass, field
from typing import Any, Iterable, Mapping

import numpy as np

from repro.cca.script import parse_script
from repro.errors import ServeError

JOB_SCHEMA = 1

#: Job lifecycle states.
QUEUED = "queued"
RUNNING = "running"
DONE = "done"
FAILED = "failed"
CANCELLED = "cancelled"
STATES = (QUEUED, RUNNING, DONE, FAILED, CANCELLED)
#: States a job never leaves.
TERMINAL = (DONE, FAILED, CANCELLED)

_ID_RE = re.compile(r"^j-(\d{6,})$")


def jsonable(value: Any) -> Any:
    """Recursively convert a result object to plain JSON types.

    Arrays and tuples become lists, numpy scalars become Python
    numbers — float values survive the JSON round trip bitwise, which is
    what lets cached and batched results be compared for exact equality
    with fresh sequential runs.
    """
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
    if isinstance(value, np.ndarray):
        return [jsonable(v) for v in value.tolist()]
    if isinstance(value, (np.floating,)):
        return float(value)
    if isinstance(value, (np.integer,)):
        return int(value)
    if isinstance(value, (bool, int, float, str, type(None))):
        return value
    return repr(value)


def normalize_value(value: Any) -> Any:
    """Parameter values as the rc-script parser would see them: strings
    are tried as int, then float, else kept; numbers pass through.  Used
    for canonical cache keys, so ``--param Driver.t_end=0.001`` from the
    CLI and ``{"Driver.t_end": 0.001}`` from Python key identically."""
    if isinstance(value, bool):
        return value
    if isinstance(value, (int, float)):
        return value
    text = str(value)
    for conv in (int, float):
        try:
            return conv(text)
        except ValueError:
            continue
    return text


def canonical_params(params: Mapping[str, Any] | None) -> dict[str, Any]:
    """Sorted, value-normalized override dict (the cache-key form)."""
    out: dict[str, Any] = {}
    for key, value in (params or {}).items():
        key = str(key)
        if "." not in key:
            raise ServeError(
                f"parameter override key {key!r} must be "
                f"'<Instance>.<key>'")
        out[key] = normalize_value(value)
    return dict(sorted(out.items()))


def _format_value(value: Any) -> str:
    """Override value as rc-script text (``repr`` for floats keeps every
    bit through the parse round trip)."""
    if isinstance(value, float):
        return repr(value)
    return str(value)


def apply_overrides(text: str, params: Mapping[str, Any] | None) -> str:
    """The job's effective script: ``parameter`` overrides applied.

    Existing ``parameter <instance> <key> ...`` lines matching an
    override are rewritten in place — but only when they precede the
    first ``go``, since later ones do not take effect.  Overrides with
    no effective existing line (missing, or present only after the
    ``go``) are injected ahead of the first ``go``, preserving the
    directive order the assembly relies on.
    """
    params = canonical_params(params)
    if not params:
        return text
    directives = parse_script(text)
    by_line: dict[int, tuple[str, str]] = {}
    for d in directives:
        if d.verb == "parameter":
            by_line[d.line_no] = (d.args[0], d.args[1])
    go_lines = [d.line_no for d in directives if d.verb == "go"]
    first_go = min(go_lines) if go_lines else None
    lines = text.splitlines()
    seen: set[str] = set()
    for line_no, (instance, key) in by_line.items():
        if first_go is not None and line_no > first_go:
            continue  # inert line; the override is injected instead
        dotted = f"{instance}.{key}"
        if dotted in params:
            lines[line_no - 1] = (
                f"parameter {instance} {key} "
                f"{_format_value(params[dotted])}")
            seen.add(dotted)
    inject = [f"parameter {k.split('.', 1)[0]} {k.split('.', 1)[1]} "
              f"{_format_value(v)}"
              for k, v in params.items() if k not in seen]
    if inject:
        cut = (first_go - 1) if first_go is not None else len(lines)
        lines = lines[:cut] + inject + lines[cut:]
    return "\n".join(lines)


@dataclass
class JobSpec:
    """What a tenant asked for (immutable once stored)."""

    script: str
    params: dict[str, Any] = field(default_factory=dict)
    tenant: str = "default"
    priority: int = 0
    nprocs: int = 1
    retries: int = 0
    backoff: float = 0.0
    #: fault-injection spec string (see
    #: :func:`repro.resilience.runner.parse_fault_spec`); "" = none.
    #: Fault-injected jobs are never cached and never batched.
    fault: str = ""
    use_cache: bool = True
    #: execution backend name (see :mod:`repro.exec`); "" = the service
    #: default.  Stored canonicalized at submit; part of the cache key.
    backend: str = ""

    def effective_script(self) -> str:
        return apply_overrides(self.script, self.params)

    def to_json(self) -> dict[str, Any]:
        return {"schema": JOB_SCHEMA, **asdict(self)}

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "JobSpec":
        fields = {k: doc[k] for k in (
            "script", "params", "tenant", "priority", "nprocs", "retries",
            "backoff", "fault", "use_cache", "backend") if k in doc}
        return JobSpec(**fields)


@dataclass
class JobRecord:
    """Where a job is in its lifecycle (mutated through the store)."""

    job_id: str
    tenant: str = "default"
    priority: int = 0
    state: str = QUEUED
    created: float = 0.0
    started: float = 0.0
    finished: float = 0.0
    error: str = ""
    cache_hit: bool = False
    batched: bool = False
    #: jobs solved together in this job's coalesced batch (0 = ran alone)
    batch_size: int = 0
    attempts: int = 0
    restarts: int = 0
    #: canonical execution backend the job runs (ran) under
    backend: str = ""
    cache_key: str = ""
    #: batch-group key (jobs sharing it may coalesce); "" = not batchable
    signature: str = ""
    #: failed static admission (assembly-pass errors) — never ran
    rejected: bool = False
    #: admission findings (Finding.to_dict() docs): all of them for a
    #: rejected job, warnings-only for an admitted one
    findings: list = field(default_factory=list)
    #: distributed-trace id minted at submit; every span the job causes
    #: (scheduler, supervisor, backend ranks) carries it in its args
    trace_id: str = ""
    #: per-job Chrome trace artifact (written when the service traces)
    trace_path: str = ""

    def to_json(self) -> dict[str, Any]:
        return {"schema": JOB_SCHEMA, **asdict(self)}

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "JobRecord":
        fields = {k: doc[k] for k in (
            "job_id", "tenant", "priority", "state", "created", "started",
            "finished", "error", "cache_hit", "batched", "batch_size",
            "attempts", "restarts", "backend", "cache_key", "signature",
            "rejected", "findings", "trace_id", "trace_path") if k in doc}
        return JobRecord(**fields)


def _write_json(path: str, doc: Mapping[str, Any]) -> None:
    # ``dumps`` without ``indent`` runs the C encoder; ``dump`` to a
    # file, or any ``indent``, the pure-Python one
    text = json.dumps(doc, sort_keys=True) + "\n"
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(text)
    os.replace(tmp, path)


def _apply(record: JobRecord, changes: Mapping[str, Any]) -> None:
    for key, value in changes.items():
        if not hasattr(record, key):
            raise ServeError(f"unknown record field {key!r}")
        setattr(record, key, value)


def _read_json(path: str) -> dict[str, Any]:
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


class JobStore:
    """Filesystem job store (see the module docstring).

    One in-process lock guards id allocation and state transitions; the
    individual document writes are atomic, so concurrent submitters and
    worker threads never observe a torn record.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.RLock()
        #: the last serial this store allocated or saw on disk at start;
        #: ``mkdir`` settles a race with another store on the same root
        self._serial = max((int(m.group(1)) for m in map(
            _ID_RE.match, os.listdir(root)) if m), default=0)

    # -- paths ------------------------------------------------------------
    def job_dir(self, job_id: str) -> str:
        return os.path.join(self.root, job_id)

    def _doc(self, job_id: str, name: str) -> str:
        return os.path.join(self.job_dir(job_id), name)

    # -- creation ---------------------------------------------------------
    def new_job(self, spec: JobSpec, **record_fields: Any) -> JobRecord:
        """Allocate an id (atomic ``mkdir``) and persist the spec and the
        complete record — a queued one, with ``record_fields`` set —
        each in one write."""
        record = JobRecord(job_id="", tenant=spec.tenant,
                           priority=spec.priority, state=QUEUED,
                           created=time.time())
        _apply(record, record_fields)
        with self._lock:
            while True:
                self._serial += 1
                job_id = record.job_id = f"j-{self._serial:06d}"
                try:
                    os.mkdir(self.job_dir(job_id))
                    break
                except FileExistsError:
                    pass
            _write_json(self._doc(job_id, "spec.json"), spec.to_json())
            _write_json(self._doc(job_id, "record.json"), record.to_json())
            return record

    # -- reads ------------------------------------------------------------
    def job_ids(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n for n in names if _ID_RE.match(n))

    def get_spec(self, job_id: str) -> JobSpec:
        try:
            return JobSpec.from_json(_read_json(self._doc(job_id,
                                                          "spec.json")))
        except (OSError, ValueError, KeyError) as exc:
            raise ServeError(f"no job {job_id!r}: {exc}") from None

    def get_record(self, job_id: str) -> JobRecord:
        try:
            return JobRecord.from_json(
                _read_json(self._doc(job_id, "record.json")))
        except (OSError, ValueError, KeyError) as exc:
            raise ServeError(f"no job {job_id!r}: {exc}") from None

    def records(self) -> list[JobRecord]:
        out = []
        for job_id in self.job_ids():
            try:
                out.append(self.get_record(job_id))
            except ServeError:
                continue
        return out

    # -- writes -----------------------------------------------------------
    def save_record(self, record: JobRecord) -> None:
        with self._lock:
            _write_json(self._doc(record.job_id, "record.json"),
                        record.to_json())

    def transition(self, job_id: str, allowed_from: Iterable[str],
                   **changes: Any) -> JobRecord | None:
        """Guarded state change: load, check ``state in allowed_from``,
        apply ``changes``, persist — all under the store lock.  Returns
        the updated record, or None when the job is not in an allowed
        state (e.g. it was cancelled while queued)."""
        with self._lock:
            record = self.get_record(job_id)
            if record.state not in tuple(allowed_from):
                return None
            _apply(record, changes)
            self.save_record(record)
            return record

    def write_result(self, job_id: str, payload: Mapping[str, Any]) -> None:
        _write_json(self._doc(job_id, "result.json"), payload)

    def read_result(self, job_id: str) -> dict[str, Any]:
        try:
            return _read_json(self._doc(job_id, "result.json"))
        except (OSError, ValueError) as exc:
            raise ServeError(
                f"no result for job {job_id!r}: {exc}") from None
