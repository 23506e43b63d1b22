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
"""

from repro.cca.port import Port
from repro.cca.component import Component, Param
from repro.cca.services import Services
from repro.cca.framework import Framework, ComponentRegistry
from repro.cca.builder import BuilderService
from repro.cca.script import run_script, parse_script, parse_script_tolerant
from repro.cca.scmd import run_scmd
from repro.cca.graph import assembly_graph, to_dot, wiring_summary
from repro.cca.profiling import Profiler, instrument

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
