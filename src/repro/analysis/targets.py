"""Resolving analysis targets and running every pass over them.

A target is a paper assembly name, an rc-script, a ``.py`` file, a
directory or an importable package; :func:`analyze_targets` is what
``python -m repro.analysis`` runs.
"""

from __future__ import annotations

import ast
import importlib.util
import os
from typing import Sequence, Type

from repro.analysis import contracts, lifecycle, scmd
from repro.analysis.findings import Finding, Report, unparseable
from repro.cca.component import Component
from repro.errors import AnalysisError


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
