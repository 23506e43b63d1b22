"""The supervised runner: run an assembly, survive failures, restart.

The paper's flame simulation ran for 58 wall-clock hours; at that scale a
run *will* see failures, and the recovery loop belongs outside the
application.  :func:`supervise` is that loop: execute an rc-script
(serial or SCMD), detect a failed attempt (a crashed rank, an injected
fault, any component exception), and re-run the same script with the
driver's ``resume`` parameter switched on so it restarts from the latest
valid application checkpoint — bounded retries, exponential backoff.

The script itself says *what* to checkpoint (the driver's
``checkpoint_path`` / ``checkpoint_interval`` parameters, see
:mod:`repro.resilience.hooks`); the runner only supervises.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass, field
from typing import Any, Iterable

from repro.cca.scmd import run_scmd
from repro.cca.script import parse_script
from repro.mpi.perfmodel import MachineModel, LOCALHOST
from repro.obs import trace as _obs
from repro.obs.metrics import get_registry as _obs_registry
from repro.resilience import faults as _faults
from repro.util.logging import get_logger

_log = get_logger("resilience.runner")

#: cap on one backoff sleep, whatever the retry count
_MAX_BACKOFF = 30.0


@dataclass
class RunReport:
    """Outcome of one supervised run."""

    ok: bool
    attempts: int
    restarts: int
    nprocs: int
    results: list[Any] = field(default_factory=list)
    failures: list[str] = field(default_factory=list)
    injected: dict[str, int] = field(default_factory=dict)

    def to_json(self) -> dict:
        """JSON-serializable summary (per-rank results reduced to the
        scalar entries of dict results — arrays stay out of metrics)."""
        summaries = []
        for result in self.results:
            if isinstance(result, dict):
                summaries.append({
                    k: v for k, v in result.items()
                    if isinstance(v, (int, float, str, bool, type(None)))})
            else:
                summaries.append(repr(result))
        return {
            "ok": self.ok,
            "attempts": self.attempts,
            "restarts": self.restarts,
            "nprocs": self.nprocs,
            "failures": self.failures,
            "injected_faults": self.injected,
            "results": summaries,
        }

    def to_metrics(self) -> list[dict]:
        """The report as schema-1 metric records (see
        :mod:`repro.obs.export`) so one consumer can read the runner's
        ``--metrics`` JSON and an obs registry snapshot alike."""
        from repro.obs.export import metric_record
        records = [
            metric_record("resilience.attempts", "counter", self.attempts),
            metric_record("resilience.restarts", "counter", self.restarts),
            metric_record("resilience.failures", "counter",
                          len(self.failures)),
            metric_record("resilience.ok", "gauge",
                          1.0 if self.ok else 0.0),
            metric_record("resilience.nprocs", "gauge", self.nprocs),
        ]
        for kind, count in sorted(self.injected.items()):
            records.append(metric_record(
                "resilience.injected_faults", "counter", count,
                labels={"kind": kind}))
        return records


@dataclass
class RunResult:
    """What one in-process supervised run produced.

    Wraps the supervision loop's :class:`RunReport` together with the
    per-rank ``go`` results and the schema-1 metrics envelope — callers
    (the :mod:`repro.serve` scheduler, the CLI's ``--metrics`` writer)
    get the final metrics dict directly instead of reading it back off
    disk.
    """

    report: RunReport

    @property
    def ok(self) -> bool:
        return self.report.ok

    @property
    def attempts(self) -> int:
        return self.report.attempts

    @property
    def restarts(self) -> int:
        return self.report.restarts

    @property
    def results(self) -> list[Any]:
        """Per-rank ``go`` results of the successful attempt (raw objects,
        arrays included — not the scalar-reduced ``to_json`` view)."""
        return self.report.results

    @property
    def failures(self) -> list[str]:
        return self.report.failures

    @property
    def injected(self) -> dict[str, int]:
        return self.report.injected

    def metrics(self) -> dict:
        """The final metrics document: the schema-1 envelope
        (:func:`repro.obs.export.wrap_metrics`) over the report's metric
        records, with the legacy report keys (``ok``/``restarts``/...)
        kept at top level for existing consumers.  This is exactly what
        the CLI's ``--metrics`` flag writes."""
        from repro.obs.export import wrap_metrics
        return {**self.report.to_json(),
                **wrap_metrics(self.report.to_metrics())}


def parse_fault_spec(spec: str) -> _faults.FaultPlan:
    """``key=value[,key=value...]`` over :class:`~repro.resilience.faults.FaultPlan` fields.

    Example: ``kill_rank=1,kill_step=3,seed=7``.
    """
    types = {f.name: f.type for f in dataclasses.fields(_faults.FaultPlan)}
    kwargs: dict[str, Any] = {}
    for item in spec.split(","):
        item = item.strip()
        if not item:
            continue
        if "=" not in item:
            raise ValueError(f"bad fault spec item {item!r} "
                             f"(expected key=value)")
        key, value = item.split("=", 1)
        key = key.strip()
        if key not in types:
            raise ValueError(
                f"unknown fault field {key!r} (have: "
                f"{', '.join(sorted(types))})")
        conv = {"int": int, "float": float, "str": str}[types[key]]
        kwargs[key] = conv(value.strip())
    return _faults.FaultPlan(**kwargs)


def run_supervised(script: str, classes: Iterable | None = None,
                   nprocs: int = 1, retries: int = 3, backoff: float = 0.0,
                   machine: MachineModel = LOCALHOST,
                   fault: str | _faults.FaultPlan | None = None,
                   tsan: bool = False,
                   backend: str | None = None) -> RunResult:
    """The in-process supervised run: :func:`supervise` plus the arming
    ceremony the CLI used to own.

    ``classes`` defaults to the stock component registry
    (:func:`repro.analysis.contracts.default_classes`).  ``fault`` arms the
    deterministic fault injector for the duration of the run — either a
    :class:`~repro.resilience.faults.FaultPlan` or a spec string for
    :func:`parse_fault_spec`; ``tsan`` arms the runtime race sanitizer.
    Both are disarmed again before returning, whatever happened.
    ``backend`` selects the execution backend for every attempt (see
    :mod:`repro.exec`); under ``mp`` the fault injector's counters
    survive worker-process boundaries, so ``kill_max_fires`` caps the
    injected kill across supervised restarts exactly as on ``threads``.

    Returns a :class:`RunResult`; inspect ``.ok`` / ``.results`` /
    ``.metrics()``.
    """
    if classes is None:
        from repro.analysis.contracts import default_classes
        classes = default_classes()
    if isinstance(fault, str):
        fault = parse_fault_spec(fault) if fault.strip() else None
    if fault is not None:
        _faults.configure(fault)
    if tsan:
        from repro.mpi import sanitizer
        sanitizer.configure()
    try:
        # supervise() records injected-fault counts into the report while
        # the plan is still armed
        report = supervise(script, classes, nprocs=nprocs, retries=retries,
                           backoff=backoff, machine=machine,
                           backend=backend)
    finally:
        if fault is not None:
            _faults.deactivate()
        if tsan:
            from repro.mpi import sanitizer
            sanitizer.deactivate()
    return RunResult(report)


def with_resume(text: str) -> str:
    """Inject ``parameter <driver> resume 1`` ahead of every ``go``.

    The retry path: the same assembly script, with each driven instance
    told to restart from its latest valid checkpoint.
    """
    directives = parse_script(text)
    go_lines = [d.line_no for d in directives if d.verb == "go"]
    if not go_lines:
        return text
    targets = list(dict.fromkeys(
        d.args[0] for d in directives if d.verb == "go"))
    lines = text.splitlines()
    cut = min(go_lines) - 1
    inject = [f"parameter {t} resume 1" for t in targets]
    return "\n".join(lines[:cut] + inject + lines[cut:])


def supervise(script: str, classes: Iterable = (), nprocs: int = 1,
              retries: int = 3, backoff: float = 0.0,
              machine: MachineModel = LOCALHOST,
              backend: str | None = None) -> RunReport:
    """Run ``script`` under supervision; see the module docstring.

    ``retries`` counts *re*-runs: the script gets at most ``retries + 1``
    attempts.  ``backoff`` seconds are slept before retry n as
    ``backoff * 2**(n-1)``, capped at 30 s.  Returns a
    :class:`RunReport`; ``ok=False`` means every attempt failed.
    """
    parse_script(script)  # fail fast on syntax, not on attempt 1
    class_list = list(classes)
    report = RunReport(ok=False, attempts=0, restarts=0, nprocs=nprocs)
    for attempt in range(retries + 1):
        report.attempts = attempt + 1
        text = script
        if attempt > 0:
            report.restarts += 1
            if backoff > 0.0:
                time.sleep(min(backoff * 2 ** (attempt - 1), _MAX_BACKOFF))
            text = with_resume(script)
        t0 = time.perf_counter()
        try:
            results = run_scmd(nprocs, text, class_list, machine=machine,
                               backend=backend)
        except Exception as exc:  # a failed attempt, whatever the layer
            first_line = str(exc).splitlines()[0] if str(exc) else ""
            report.failures.append(f"{type(exc).__name__}: {first_line}")
            _log.warning("attempt %d/%d failed: %s: %s",
                         attempt + 1, retries + 1,
                         type(exc).__name__, first_line)
            if _obs.on:
                _obs.complete("resilience.attempt", "resilience", t0,
                              attempt=attempt + 1, ok=False)
        else:
            report.ok = True
            report.results = results
            if _obs.on:
                _obs.complete("resilience.attempt", "resilience", t0,
                              attempt=attempt + 1, ok=True)
            break
    if _faults.on:
        report.injected = _faults.injected_counts()
    if _obs.on:
        reg = _obs_registry()
        reg.counter("resilience.runner_attempts").inc(report.attempts)
        reg.counter("resilience.runner_restarts").inc(report.restarts)
        reg.gauge("resilience.runner_ok").set(1 if report.ok else 0)
    return report
