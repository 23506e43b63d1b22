"""Thermochemistry substrate.

The paper's ``ThermoChemistry`` component "embodies the chemical
interactions; it provides the source terms for temperature and species due
to chemistry and is a thin C++ wrapper around Fortran 77 subroutines".
This package is the from-scratch replacement for those F77 libraries:

* :mod:`repro.chemistry.nasa7` — NASA-7 polynomial thermodynamics.
* :mod:`repro.chemistry.species` / :mod:`repro.chemistry.elements` —
  species bookkeeping and molecular weights.
* :mod:`repro.chemistry.reaction` — reversible Arrhenius reactions with
  third bodies and Lindemann/Troe falloff.
* :mod:`repro.chemistry.mechanism` — vectorized net production rates and
  mixture thermodynamics over arrays of cells.
* :mod:`repro.chemistry.h2_air` — the 9-species / 19-reaction H2-air
  mechanism of the paper's ignition and flame runs (Yetter-family rates).
* :mod:`repro.chemistry.h2_lite` — the light 8-species / 5-reaction
  mechanism used for the serial-overhead study (Table 4).
* :mod:`repro.chemistry.zerod` — constant-pressure and constant-volume
  reactor right-hand sides (including the dP/dt closure of the paper's
  ``dPdt`` component).

All quantities are SI (kg, m, s, K, J, mol); mechanism input decks use the
conventional (cm^3, mol, s, cal) units and are converted on construction.
"""

from repro.chemistry.nasa7 import Nasa7, R_UNIVERSAL
from repro.chemistry.species import Species
from repro.chemistry.reaction import Arrhenius, Falloff, Reaction
from repro.chemistry.mechanism import Mechanism
from repro.chemistry.h2_air import h2_air_mechanism
from repro.chemistry.h2_lite import h2_lite_mechanism
from repro.chemistry.zerod import (
    ConstantPressureReactor,
    ConstantVolumeReactor,
)

__all__ = [
    "Nasa7",
    "R_UNIVERSAL",
    "Species",
    "Arrhenius",
    "Falloff",
    "Reaction",
    "Mechanism",
    "h2_air_mechanism",
    "h2_lite_mechanism",
    "ConstantPressureReactor",
    "ConstantVolumeReactor",
]
