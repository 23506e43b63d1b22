"""Job model and the filesystem-backed job store.

A *job* is one request to run an assembly: an rc-script (inline text)
plus a parameter-override dict, stamped with a tenant label and a
priority.  The store keeps each job as one JSON document,
``<root>/<job_id>.json`` = ``{spec, record, result?}``: what was asked,
where it is (state, timestamps, cache/batch markers) and, once ``done``,
what came out.

Every write replaces the whole document atomically (tmp +
``os.replace``); ``new_job`` claims its id by ``os.link``-ing its tmp
file, which fails if the id exists.  The result lands with ``done`` in
one replace, so a job is never ``running`` with a result on disk.  The
next boot recovers a crashed store: ``queued`` and ``running`` jobs are
re-enqueued (the supervised runner makes a rerun safe, and a result that
reached the cache first answers it without a solve); terminal ones are
left alone.  A crash can also leave a stray tmp file (never read) and an
unacknowledged submit.  No sockets, no daemons.  A root in the old
directory-per-job layout is refused, not migrated.
"""

from __future__ import annotations

import json
import os
import re
import threading
import time
from dataclasses import dataclass, field
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

_DOC_RE = re.compile(r"^j-(\d{6,})\.json$")
#: a job directory of the old layout
_OLD_RE = re.compile(r"^j-\d{6,}$")
#: JSON leaves, by exact type (a numpy float subclasses ``float``)
_PLAIN = (bool, int, float, str, type(None))


def jsonable(value: Any) -> Any:
    """Recursively convert a result object to plain JSON types.

    Arrays and tuples become lists, numpy scalars become Python
    numbers — float values survive the JSON round trip bitwise, which is
    what lets cached and batched results be compared for exact equality
    with fresh sequential runs.
    """
    if type(value) in _PLAIN:
        return value
    if isinstance(value, dict):
        return {str(k): jsonable(v) for k, v in value.items()}
    if isinstance(value, np.ndarray):
        value = value.tolist()
    if isinstance(value, (list, tuple)):
        return [jsonable(v) for v in value]
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
        return {"schema": JOB_SCHEMA, **vars(self)}

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
        return {"schema": JOB_SCHEMA, **vars(self)}

    @staticmethod
    def from_json(doc: Mapping[str, Any]) -> "JobRecord":
        fields = {k: doc[k] for k in (
            "job_id", "tenant", "priority", "state", "created", "started",
            "finished", "error", "cache_hit", "batched", "batch_size",
            "attempts", "restarts", "backend", "cache_key", "signature",
            "rejected", "findings", "trace_id", "trace_path") if k in doc}
        return JobRecord(**fields)


def result_payload(job_id: str, result: Any, **flags: Any) -> dict[str, Any]:
    """A done job's ``result`` document (``cache_hit`` and ``batched``
    false unless ``flags`` set them)."""
    return {"schema": JOB_SCHEMA, "job_id": job_id, "cache_hit": False,
            "batched": False, **flags, "result": result}


def _apply(record: JobRecord, changes: Mapping[str, Any]) -> None:
    for key, value in changes.items():
        if key not in JobRecord.__dataclass_fields__:
            raise ServeError(f"unknown record field {key!r}")
        setattr(record, key, value)


def write_tmp(path: str, doc: Mapping[str, Any]) -> str:
    """Write ``doc`` next to ``path`` under a private tmp name; returns
    that name.  ``dumps`` without ``indent`` runs the C encoder."""
    tmp = f"{path}.tmp.{os.getpid()}.{threading.get_ident()}"
    with open(tmp, "w", encoding="utf-8") as fh:
        fh.write(json.dumps(doc, sort_keys=True) + "\n")
    return tmp


class JobStore:
    """Filesystem job store (see the module docstring).

    One in-process lock guards id allocation and state transitions; the
    document writes are atomic, so concurrent submitters and worker
    threads never observe a torn job.
    """

    def __init__(self, root: str) -> None:
        self.root = root
        os.makedirs(root, exist_ok=True)
        self._lock = threading.RLock()
        names = os.listdir(root)
        if any(map(_OLD_RE.match, names)):
            raise ServeError(f"{root} holds jobs in the old directory-"
                             f"per-job layout, which is not migrated")
        #: the last serial this store allocated or saw on disk at start;
        #: ``os.link`` settles a race with another store on the same root
        self._serial = max((int(m.group(1)) for m in map(
            _DOC_RE.match, names) if m), default=0)

    # -- paths ------------------------------------------------------------
    def path(self, job_id: str) -> str:
        """The job's document."""
        return os.path.join(self.root, f"{job_id}.json")

    def trace_path(self, job_id: str) -> str:
        """Where the job's Chrome trace artifact is written."""
        return os.path.join(self.root, f"{job_id}.trace.json")

    # -- creation ---------------------------------------------------------
    def new_job(self, spec: JobSpec, **record_fields: Any) -> JobRecord:
        """Allocate an id and persist the spec and the complete record —
        a queued one, with ``record_fields`` set — in one document,
        claimed by an exclusive ``os.link``."""
        record = JobRecord(job_id="", tenant=spec.tenant,
                           priority=spec.priority, state=QUEUED,
                           created=time.time())
        _apply(record, record_fields)
        spec_doc = spec.to_json()
        with self._lock:
            while True:
                self._serial += 1
                job_id = record.job_id = f"j-{self._serial:06d}"
                path = self.path(job_id)
                tmp = write_tmp(path, {"spec": spec_doc,
                                       "record": record.to_json()})
                try:
                    os.link(tmp, path)
                    return record
                except FileExistsError:
                    pass
                finally:
                    os.unlink(tmp)

    # -- reads ------------------------------------------------------------
    def job_ids(self) -> list[str]:
        try:
            names = os.listdir(self.root)
        except OSError:
            return []
        return sorted(n[:-5] for n in names if _DOC_RE.match(n))

    def _load(self, job_id: str, part: str | None = None
              ) -> dict[str, Any]:
        """The job's document, or its ``part``."""
        try:
            with open(self.path(job_id), encoding="utf-8") as fh:
                doc = json.load(fh)
            return doc if part is None else doc[part]
        except (OSError, ValueError, KeyError) as exc:
            raise ServeError(f"no job {job_id!r}: {exc}") from None

    def get_spec(self, job_id: str) -> JobSpec:
        return JobSpec.from_json(self._load(job_id, "spec"))

    def get_record(self, job_id: str) -> JobRecord:
        return JobRecord.from_json(self._load(job_id, "record"))

    def records(self) -> list[JobRecord]:
        out = []
        for job_id in self.job_ids():
            try:
                out.append(self.get_record(job_id))
            except ServeError:
                continue
        return out

    def read_result(self, job_id: str) -> dict[str, Any]:
        try:
            return self._load(job_id)["result"]
        except (ServeError, KeyError) as exc:
            raise ServeError(
                f"no result for job {job_id!r}: {exc}") from None

    # -- writes -----------------------------------------------------------
    def transition(self, job_id: str, allowed_from: Iterable[str],
                   result: Mapping[str, Any] | None = None,
                   **changes: Any) -> JobRecord | None:
        """Guarded state change: load, check ``state in allowed_from``,
        apply ``changes`` (and attach ``result``), persist in one atomic
        replace — all under the store lock.  Returns the updated record,
        or None when the job is not in an allowed state (e.g. it was
        cancelled while queued)."""
        with self._lock:
            doc = self._load(job_id)
            record = JobRecord.from_json(doc["record"])
            if record.state not in tuple(allowed_from):
                return None
            _apply(record, changes)
            doc["record"] = record.to_json()
            if result is not None:
                doc["result"] = result
            path = self.path(job_id)
            os.replace(write_tmp(path, doc), path)
            return record
