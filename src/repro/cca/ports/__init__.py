"""Standard port definitions.

The paper (§4) derives the needed interface families from the subsystem
decomposition: (a) mesh manipulation (``MeshPort``), (b) Data Object
manipulation, (c) synchronized action on arrays of Data Objects
(integrators), (d) patch-array ports (RHS evaluation), (e) vector ports
(implicit integration), (f) key-value ports (databases) — plus the
framework-standard GoPort.
"""

from repro.cca.ports.go import GoPort
from repro.cca.ports.parameter import ParameterPort
from repro.cca.ports.mesh import MeshPort, RegridPort
from repro.cca.ports.dataobject import DataObjectPort
from repro.cca.ports.integrator import IntegratorPort, ODESolverPort
from repro.cca.ports.rhs import (
    DiffusivityPort,
    JacobianPort,
    PatchRHSPort,
    SpectralBoundPort,
    VectorRHSPort,
)
from repro.cca.ports.bc import BoundaryConditionPort
from repro.cca.ports.ic import InitialConditionPort, VectorICPort
from repro.cca.ports.interpolation import ProlongRestrictPort
from repro.cca.ports.diagnostics import StatisticsPort
from repro.cca.ports.flux import FluxPort, StatesPort
from repro.cca.ports.physics import (
    ChemistryPort,
    TransportPort,
    DPDtPort,
    CharacteristicsPort,
)

__all__ = [
    "GoPort",
    "ParameterPort",
    "MeshPort",
    "RegridPort",
    "DataObjectPort",
    "IntegratorPort",
    "ODESolverPort",
    "PatchRHSPort",
    "VectorRHSPort",
    "JacobianPort",
    "SpectralBoundPort",
    "DiffusivityPort",
    "BoundaryConditionPort",
    "InitialConditionPort",
    "VectorICPort",
    "ProlongRestrictPort",
    "StatisticsPort",
    "FluxPort",
    "StatesPort",
    "ChemistryPort",
    "TransportPort",
    "DPDtPort",
    "CharacteristicsPort",
]
