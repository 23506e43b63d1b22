"""``repro.analysis`` — static validation of assemblies and components.

The paper's argument is that a component assembly is a *checkable
artifact*: ports are typed, wiring is declared in an rc-script, and the
framework refuses bad compositions before the simulation runs.  This
package is that pre-flight check for our reproduction, three passes
sharing one findings model (:mod:`repro.analysis.findings`), all of
them run on every call:

* :mod:`repro.analysis.contracts` — the assembly pass: rc-scripts,
  built frameworks and serve jobs, reduced to one model and checked
  without executing ``go`` against each component class's declared
  contract (its ``PARAMS`` and the ports its ``set_services``
  registers): wiring (RA0xx) and parameters (RA41x).
* :mod:`repro.analysis.lifecycle` — AST lint of component source for
  port registration/fetch/release discipline.
* :mod:`repro.analysis.scmd` — AST pass for state that aliases across
  SCMD rank-threads (RA2xx) and the races on it (RA3xx), in source
  files and over an rc-script's assembly model.

CLI::

    python -m repro.analysis [--format text|json] [--strict] \
        [<rc-script|.py file|directory|package|assembly> ...]

With no targets the stock surface is analyzed: the three paper
assemblies, the shipped ``IGNITION0D_SCRIPT``, and the
``repro.components`` / ``repro.apps`` packages.  Exit code 0 means
nothing at the gate severity (error, or warning with ``--strict``).
"""

from __future__ import annotations

import ast
import importlib.util
import os
from typing import Sequence, Type

from repro.analysis import contracts, lifecycle, scmd
from repro.analysis.findings import (
    CODES,
    Finding,
    Report,
    Severity,
    codes_table,
    finding,
    unparseable,
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
    "scmd",
]


def analyze_python_file(path: str,
                        allowlist=scmd.DEFAULT_ALLOWLIST) -> list[Finding]:
    """Lifecycle and SCMD passes over one Python source file, parsed
    once."""
    with open(path, encoding="utf-8") as fh:
        text = fh.read()
    try:
        tree = ast.parse(text, filename=path)
    except SyntaxError as exc:
        return [unparseable(exc, path)]
    return (lifecycle.analyze_tree(tree, path)
            + scmd.analyze_tree(tree, text, path, allowlist))


def _analyze_rc_text(text: str, classes: Sequence[Type[Component]] | None,
                     path: str) -> list[Finding]:
    model = contracts.model_from_script(text, path,
                                        contracts.manifests_of(classes))
    return contracts.check_model(model) + scmd.analyze_script(model, classes)


def analyze_rc_file(path: str,
                    classes: Sequence[Type[Component]] | None = None,
                    ) -> list[Finding]:
    """The assembly pass and the SCMD happens-before checks over an
    rc-script file."""
    with open(path, encoding="utf-8") as fh:
        return _analyze_rc_text(fh.read(), classes, path)


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
                   allowlist=scmd.DEFAULT_ALLOWLIST,
                   ) -> list[Finding]:
    """Analyze one CLI target; raises :class:`AnalysisError` when the
    target cannot be resolved.

    Resolution order: paper assembly name, filesystem path (``.py`` →
    lifecycle+SCMD, directory → recurse, anything else → rc-script),
    importable module/package name.
    """
    if target in contracts.assembly_names():
        return contracts.analyze_assembly(target)
    if os.path.isdir(target):
        out = []
        for dirpath, dirnames, filenames in os.walk(target):
            dirnames[:] = sorted(d for d in dirnames
                                 if not d.startswith((".", "__")))
            for fn in sorted(filenames):
                full = os.path.join(dirpath, fn)
                if fn.endswith(".py"):
                    out.extend(analyze_python_file(full, allowlist))
                elif fn.endswith(".rc"):
                    out.extend(analyze_rc_file(full, classes))
        return out
    if os.path.isfile(target):
        if target.endswith(".py"):
            return analyze_python_file(target, allowlist)
        return analyze_rc_file(target, classes)
    resolved = _module_dir(target)
    if resolved is not None:
        return analyze_target(resolved, classes, allowlist)
    raise AnalysisError(
        f"cannot resolve target {target!r}: not an assembly name "
        f"({', '.join(contracts.assembly_names())}), file, directory, or "
        f"importable module")


def default_targets() -> list[str]:
    """The stock analysis surface used when the CLI gets no targets."""
    return contracts.assembly_names() + ["repro.components", "repro.apps"]


def analyze_targets(targets: Sequence[str] | None = None,
                    classes: Sequence[Type[Component]] | None = None,
                    allowlist=scmd.DEFAULT_ALLOWLIST) -> Report:
    """Analyze many targets into one :class:`Report`.

    With no targets, covers :func:`default_targets` plus the shipped
    ``IGNITION0D_SCRIPT`` rc-script text.
    """
    report = Report()
    for target in targets or default_targets():
        report.extend(analyze_target(target, classes, allowlist))
    if not targets:
        from repro.apps.assemblies import IGNITION0D_SCRIPT

        report.extend(_analyze_rc_text(IGNITION0D_SCRIPT, classes,
                                       "<IGNITION0D_SCRIPT>"))
    return report
