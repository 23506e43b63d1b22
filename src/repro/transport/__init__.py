"""Mixture-averaged transport properties (the DRFM analog).

The paper's ``DRFMComponent`` is "a thin C++ wrapper around the Fortran77
DRFM package" (Paul, SAND98-8203) supplying mixture-averaged diffusion
coefficients; their largest, reduced by ``MaxDiffCoeffEvaluator``, is
the stability bound the RKC integrator needs.  We implement the same functional role
with kinetic-theory power-law correlations (documented substitution, see
DESIGN.md).
"""

from repro.transport.diffusion import MixtureTransport

__all__ = ["MixtureTransport"]
