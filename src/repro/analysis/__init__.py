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
* :mod:`repro.analysis.targets` — resolves what the CLI is given
  (assembly name, file, directory, package) and runs the passes on it.

CLI::

    python -m repro.analysis [--format text|json] [--strict] \
        [<rc-script|.py file|directory|package|assembly> ...]

With no targets the stock surface is analyzed: the three paper
assemblies, the shipped ``IGNITION0D_SCRIPT``, and the
``repro.components`` / ``repro.apps`` packages.  Exit code 0 means
nothing at the gate severity (error, or warning with ``--strict``).
"""

from repro.util.lazy import lazy_exports

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

# serve admission imports the assembly pass alone; the AST passes load
# with the names that need them
__getattr__, __dir__ = lazy_exports(__name__, {
    **dict.fromkeys(
        ("CODES", "Finding", "Report", "Severity", "codes_table",
         "finding"), "findings"),
    **dict.fromkeys(
        ("analyze_python_file", "analyze_rc_file", "analyze_target",
         "analyze_targets", "default_targets"), "targets"),
    "contracts": "contracts",
    "lifecycle": "lifecycle",
    "scmd": "scmd",
})
