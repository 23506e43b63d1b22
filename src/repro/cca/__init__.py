"""The CCA component framework (CCAFFEINE analog).

Implements the Common Component Architecture's *provides-uses* pattern
exactly as the paper describes (§2):

* Components derive from the data-less abstract :class:`Component` with
  one deferred method, ``setServices`` (:meth:`Component.set_services`),
  "invoked by the framework at component creation and used by the
  components to register themselves and their UsesPorts and
  ProvidesPorts".
* Ports are data-less abstract classes (:mod:`repro.cca.ports`); most are
  domain-specific and defined by this toolkit's component set.
* The :class:`Framework` instantiates components from a class registry,
  and "the process of connecting ports is just the movement of (pointers
  to) interfaces from the providing to the using component" — a method
  invocation through a uses-port costs one indirection, our analog of the
  virtual-function hop measured in Table 4.
* Applications are assembled through a script (:mod:`repro.cca.script`)
  or programmatically through the :class:`BuilderService`.
* SCMD parallelism (:mod:`repro.cca.scmd`): identical frameworks on every
  rank; the framework "lends out a properly scoped MPI communicator to
  any component" and provides no other message-passing services.

Every name below is re-exported lazily: importing this package loads
none of its modules, and a name loads the one that defines it when it
is first asked for.
"""

from repro.util.lazy import lazy_exports

__all__ = [
    "assembly_graph",
    "to_dot",
    "wiring_summary",
    "Profiler",
    "instrument",
    "parse_script_tolerant",
    "Port",
    "Component",
    "Param",
    "Services",
    "Framework",
    "ComponentRegistry",
    "BuilderService",
    "run_script",
    "parse_script",
    "run_scmd",
]

__getattr__, __dir__ = lazy_exports(__name__, {
    "Port": "port",
    "Component": "component",
    "Param": "component",
    "Services": "services",
    "Framework": "framework",
    "ComponentRegistry": "framework",
    "BuilderService": "builder",
    "run_script": "script",
    "parse_script": "script",
    "parse_script_tolerant": "script",
    "run_scmd": "scmd",
    "assembly_graph": "graph",
    "to_dot": "graph",
    "wiring_summary": "graph",
    "Profiler": "profiling",
    "instrument": "profiling",
})
