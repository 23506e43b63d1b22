"""``repro.analysis`` — static validation of assemblies and components.

The paper's argument is that a component assembly is a *checkable
artifact*: ports are typed, wiring is declared in an rc-script, and the
framework refuses bad compositions before the simulation runs.  This
package is that pre-flight check for our reproduction, three passes
sharing one findings model (:mod:`repro.analysis.findings`):

* :mod:`repro.analysis.wiring` — rc-scripts and built frameworks,
  validated without executing ``go``.
* :mod:`repro.analysis.lifecycle` — AST lint of component source for
  port registration/fetch/release discipline.
* :mod:`repro.analysis.scmd_safety` — AST lint for state that aliases
  across SCMD rank-threads.
* :mod:`repro.analysis.contracts` — RA41x validates assemblies and
  serve jobs against each component class's declared contract: its
  ``PARAMS`` and the ports its ``set_services`` registers.

CLI::

    python -m repro.analysis [--format text|json] [--strict] \
        [<rc-script|.py file|directory|package|assembly> ...]

With no targets the stock surface is analyzed: the three paper
assemblies, the shipped ``IGNITION0D_SCRIPT``, and the
``repro.components`` / ``repro.apps`` packages.  Exit code 0 means
nothing at the gate severity (error, or warning with ``--strict``).
"""

from __future__ import annotations

import importlib.util
import os
from typing import Sequence, Type

from repro.analysis import (contracts, lifecycle, races, scmd_safety,
                            wiring)
from repro.analysis.findings import (
    CODES,
    Finding,
    Report,
    Severity,
    codes_table,
    finding,
)
from repro.cca.component import Component
from repro.errors import AnalysisError

__all__ = [
    "CODES",
    "Finding",
    "Report",
    "Severity",
    "codes_table",
    "finding",
    "analyze_python_file",
    "analyze_rc_file",
    "analyze_target",
    "analyze_targets",
    "default_targets",
    "contracts",
    "lifecycle",
    "races",
    "scmd_safety",
    "wiring",
]


def analyze_python_file(path: str,
                        allowlist=scmd_safety.DEFAULT_ALLOWLIST,
                        check_races: bool = False,
                        ) -> list[Finding]:
    """Lifecycle + SCMD passes (and optionally the RA3xx race pass)
    over one Python source file."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    out = (lifecycle.analyze_source(text, path)
           + scmd_safety.analyze_source(text, path, allowlist))
    if check_races:
        out += races.analyze_source_races(text, path, allowlist)
    return out


def analyze_rc_file(path: str,
                    classes: Sequence[Type[Component]] | None = None,
                    check_races: bool = False,
                    check_contracts: bool = False,
                    ) -> list[Finding]:
    """Wiring analysis (and optionally the RA3xx happens-before checks
    and/or the RA41x contract pass) of an rc-script file."""
    out = wiring.analyze_script_file(path, classes)
    if check_races:
        out += races.analyze_script_file_races(path, classes)
    if check_contracts:
        out += contracts.analyze_script_file_contracts(path)
    return out


def _module_dir(name: str) -> str | None:
    """Directory (package) or file backing an importable module name."""
    try:
        spec = importlib.util.find_spec(name)
    except (ImportError, ValueError, ModuleNotFoundError):
        return None
    if spec is None or spec.origin is None:
        return None
    if spec.submodule_search_locations:
        return list(spec.submodule_search_locations)[0]
    return spec.origin


def analyze_target(target: str,
                   classes: Sequence[Type[Component]] | None = None,
                   allowlist=scmd_safety.DEFAULT_ALLOWLIST,
                   check_races: bool = False,
                   check_contracts: bool = False,
                   ) -> list[Finding]:
    """Analyze one CLI target; raises :class:`AnalysisError` when the
    target cannot be resolved.

    Resolution order: paper assembly name, filesystem path (``.py`` →
    lifecycle+SCMD, directory → recurse, anything else → rc-script),
    importable module/package name.
    """
    if target in wiring.assembly_names():
        out = wiring.analyze_assembly(target)
        if check_contracts:
            out = out + contracts.analyze_assembly_contracts(target)
        return out
    if os.path.isdir(target):
        out = []
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith((".", "__")))
            for fn in sorted(filenames):
                full = os.path.join(dirpath, fn)
                if fn.endswith(".py"):
                    out.extend(analyze_python_file(full, allowlist,
                                                   check_races))
                elif fn.endswith(".rc"):
                    out.extend(analyze_rc_file(full, classes, check_races,
                                               check_contracts))
        return out
    if os.path.isfile(target):
        if target.endswith(".py"):
            return analyze_python_file(target, allowlist, check_races)
        return analyze_rc_file(target, classes, check_races,
                               check_contracts)
    resolved = _module_dir(target)
    if resolved is not None:
        return analyze_target(resolved, classes, allowlist, check_races,
                              check_contracts)
    raise AnalysisError(
        f"cannot resolve target {target!r}: not an assembly name "
        f"({', '.join(wiring.assembly_names())}), file, directory, or "
        f"importable module")


def default_targets() -> list[str]:
    """The stock analysis surface used when the CLI gets no targets."""
    return wiring.assembly_names() + ["repro.components", "repro.apps"]


def analyze_targets(targets: Sequence[str] | None = None,
                    classes: Sequence[Type[Component]] | None = None,
                    allowlist=scmd_safety.DEFAULT_ALLOWLIST,
                    check_races: bool = False,
                    check_contracts: bool = False) -> Report:
    """Analyze many targets into one :class:`Report`.

    With no targets, covers :func:`default_targets` plus the shipped
    ``IGNITION0D_SCRIPT`` rc-script text.
    """
    report = Report()
    if targets:
        for target in targets:
            report.extend(analyze_target(target, classes, allowlist,
                                         check_races, check_contracts))
        return report
    for target in default_targets():
        report.extend(analyze_target(target, classes, allowlist,
                                     check_races, check_contracts))
    from repro.apps.assemblies import IGNITION0D_SCRIPT

    report.extend(wiring.analyze_script(
        IGNITION0D_SCRIPT, classes, path="<IGNITION0D_SCRIPT>"))
    if check_races:
        report.extend(races.analyze_script_races(
            IGNITION0D_SCRIPT, classes, path="<IGNITION0D_SCRIPT>"))
    if check_contracts:
        report.extend(contracts.analyze_script_contracts(
            IGNITION0D_SCRIPT, path="<IGNITION0D_SCRIPT>"))
    return report
