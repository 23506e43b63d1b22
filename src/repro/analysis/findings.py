"""The findings model: stable codes, severities, reports.

Every analyzer pass reduces to a list of :class:`Finding` objects with a
stable ``RAxxx`` code, a severity, and (where known) a file path and line
number — the shape CI gates and editors consume.  The code table below is
the contract: codes are never renumbered, only added.

Code ranges
-----------
``RA0xx``
    Assembly wiring (rc-scripts, built frameworks and serve jobs).
``RA1xx``
    Component lifecycle linting (AST over component source).
``RA2xx``
    SCMD shared state: where module- and class-level mutables are bound
    (rank-threads share one address space).  ``RA203`` (a write to that
    state from a ``go``/``step`` method) is retired: every such write is
    an ``RA301``/``RA302`` finding.  Not reused.
``RA3xx``
    SCMD race detection (happens-before approximation over shared
    read/write sets and the rc-script wiring graph).  Both families come
    from one pass, :mod:`repro.analysis.scmd`.
``RA40x``
    Retired with the JSON manifests they kept in sync with the source;
    a component's ``PARAMS`` is now its only declaration.  Not reused.
``RA41x``
    Assembly contract checks (rc-script parameters and serve job
    overrides validated against the classes' declarations).  RA0xx and
    RA41x come from one pass, :mod:`repro.analysis.contracts`.
    ``RA417`` (required uses port unconnected) and ``RA418`` (port types
    of a connection disagree) are retired: the same defects are
    ``RA011`` and ``RA006``.  Not reused.
"""

from __future__ import annotations

import enum
import json
from dataclasses import dataclass, field


class Severity(enum.IntEnum):
    """Finding severities, ordered so ``max()`` picks the worst."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # "error" in reports, not "Severity.ERROR"
        return self.name.lower()

    @classmethod
    def parse(cls, text: str) -> "Severity":
        try:
            return cls[text.upper()]
        except KeyError:
            raise ValueError(
                f"unknown severity {text!r} (have: "
                f"{[s.name.lower() for s in cls]})") from None


#: code -> (default severity, one-line title).  The README's finding-code
#: table is generated from this dict (``python -m repro.analysis --codes``).
CODES: dict[str, tuple[Severity, str]] = {
    # -- RA0xx: assembly / wiring ------------------------------------------
    "RA001": (Severity.ERROR, "rc-script syntax error"),
    "RA002": (Severity.ERROR, "unknown component class"),
    "RA003": (Severity.ERROR, "duplicate instance name"),
    "RA004": (Severity.ERROR, "reference to unknown instance"),
    "RA005": (Severity.ERROR, "unknown uses/provides port name"),
    "RA006": (Severity.ERROR, "provides/uses port_type mismatch"),
    "RA007": (Severity.ERROR, "use before instantiate"),
    "RA008": (Severity.ERROR, "duplicate connection on a uses port"),
    "RA009": (Severity.ERROR, "go before connect (wiring after go)"),
    "RA010": (Severity.ERROR, "go target provides no go port"),
    "RA011": (Severity.ERROR,
              "unconnected uses port not registered optional"),
    "RA012": (Severity.INFO, "unconnected uses port (optional or unused)"),
    "RA013": (Severity.WARNING, "cycle in the port graph"),
    "RA014": (Severity.WARNING, "component class could not be introspected"),
    # -- RA1xx: component lifecycle ----------------------------------------
    "RA101": (Severity.ERROR, "port fetched by a name never registered"),
    "RA102": (Severity.WARNING, "port registration outside set_services"),
    "RA104": (Severity.ERROR,
              "port name drift between registration and use"),
    "RA105": (Severity.INFO, "uses port registered but never fetched"),
    "RA106": (Severity.INFO, "non-literal port name (not statically "
                             "checkable)"),
    # -- RA2xx: SCMD shared state ------------------------------------------
    "RA201": (Severity.WARNING, "module-level mutable state"),
    "RA202": (Severity.WARNING, "mutable class attribute"),
    "RA204": (Severity.INFO,
              "module-level mutable bound to a constant-style name"),
    # -- RA3xx: SCMD race detection ----------------------------------------
    "RA301": (Severity.ERROR,
              "unguarded shared write from every rank-thread"),
    "RA302": (Severity.ERROR,
              "reduction into a shared object outside a collective"),
    "RA303": (Severity.WARNING,
              "rank-guarded shared write never published by a collective"),
    "RA304": (Severity.WARNING,
              "patch-array write in an all-patches loop without an "
              "owner guard"),
    "RA305": (Severity.ERROR,
              "collective call inside a rank-dependent branch"),
    "RA306": (Severity.ERROR,
              "parameter directive after go (config mutated mid-run)"),
    "RA307": (Severity.WARNING,
              "shared object written through multiple go-reachable "
              "instances"),
    "RA308": (Severity.INFO, "rank code reads a shared mutable"),
    # -- RA41x: assembly contract checks (rc-scripts + serve jobs) ---------
    "RA411": (Severity.ERROR, "unknown parameter name for the component"),
    "RA412": (Severity.ERROR, "parameter value outside the declared range"),
    "RA413": (Severity.ERROR,
              "parameter value not among the declared choices"),
    "RA414": (Severity.ERROR, "parameter value has the wrong type"),
    "RA415": (Severity.ERROR, "required parameter never set"),
    "RA416": (Severity.WARNING,
              "parameter set on an instance whose class never reads it"),
    "RA419": (Severity.ERROR,
              "unknown execution backend for the job"),
}


@dataclass(frozen=True)
class Finding:
    """One analyzer result, pinned to a code from :data:`CODES`."""

    code: str
    message: str
    path: str | None = None
    line: int | None = None
    context: str | None = None  # instance/class/port the finding is about
    severity: Severity = field(default=Severity.ERROR)

    def __post_init__(self) -> None:
        if self.code not in CODES:
            raise ValueError(f"unknown finding code {self.code!r}")

    @property
    def title(self) -> str:
        return CODES[self.code][1]

    def format(self) -> str:
        """Compiler-style one-liner: ``path:line: RAxxx error: message``."""
        where = self.path or "<unknown>"
        if self.line is not None:
            where += f":{self.line}"
        return f"{where}: {self.code} {self.severity}: {self.message}"

    def to_dict(self) -> dict:
        return {
            "code": self.code,
            "severity": str(self.severity),
            "title": self.title,
            "message": self.message,
            "path": self.path,
            "line": self.line,
            "context": self.context,
        }


def finding(code: str, message: str, *, path: str | None = None,
            line: int | None = None, context: str | None = None,
            severity: Severity | None = None) -> Finding:
    """Build a :class:`Finding`, defaulting severity from :data:`CODES`."""
    sev = severity if severity is not None else CODES[code][0]
    return Finding(code=code, message=message, path=path, line=line,
                   context=context, severity=sev)


def unparseable(exc: SyntaxError, path: str) -> Finding:
    """The ``RA001`` finding for a Python file that does not parse."""
    return finding("RA001", f"not parseable as Python: {exc.msg}",
                   path=path, line=exc.lineno)


class Report:
    """A collection of findings with gate/formatting helpers."""

    #: JSON schema version of :meth:`to_json`.
    SCHEMA = 1

    def __init__(self, findings: list[Finding] | None = None) -> None:
        self.findings: list[Finding] = list(findings or [])

    def extend(self, more: list[Finding]) -> None:
        self.findings.extend(more)

    def sorted(self) -> list[Finding]:
        return sorted(
            self.findings,
            key=lambda f: (f.path or "", f.line or 0, f.code, f.message))

    def counts(self) -> dict[str, int]:
        out = {str(s): 0 for s in Severity}
        for f in self.findings:
            out[str(f.severity)] += 1
        return out

    def at_least(self, severity: Severity) -> list[Finding]:
        return [f for f in self.findings if f.severity >= severity]

    def exit_code(self, gate: Severity = Severity.ERROR) -> int:
        """0 when nothing at/above ``gate``, 1 otherwise (CI semantics)."""
        return 1 if self.at_least(gate) else 0

    # -- rendering -------------------------------------------------------------
    def format_text(self, min_severity: Severity = Severity.INFO) -> str:
        shown = [f for f in self.sorted() if f.severity >= min_severity]
        lines = [f.format() for f in shown]
        c = self.counts()
        lines.append(
            f"{c['error']} error(s), {c['warning']} warning(s), "
            f"{c['info']} info note(s)")
        return "\n".join(lines)

    def to_json(self) -> str:
        return json.dumps({
            "schema": self.SCHEMA,
            "counts": self.counts(),
            "findings": [f.to_dict() for f in self.sorted()],
        }, indent=2)


def codes_table() -> str:
    """The finding-code table (``--codes``; also pasted into README)."""
    lines = [f"{'code':<7} {'severity':<8} title",
             "-" * 60]
    for code in sorted(CODES):
        sev, title = CODES[code]
        lines.append(f"{code:<7} {str(sev):<8} {title}")
    return "\n".join(lines)
