"""Numerical laboratory for a frustrated J1-J3 spin model on the square lattice.

Computes renormalized chirality energies, constructs helical ground states and
recovery sequences, minimizes lattice energies under chirality boundary data,
and checks the interfacial constants and rigidity structure of the continuum
limit.
"""

from .lattice import Domain, ModelParams, ScalarGrid, SpinField
from .chirality import ChiralityPair, ThetaFields, transform
from .energy import EnergyReport, energy_H, mm_decomposition, rho

__all__ = [
    "Domain",
    "ModelParams",
    "ScalarGrid",
    "SpinField",
    "ChiralityPair",
    "ThetaFields",
    "transform",
    "EnergyReport",
    "energy_H",
    "mm_decomposition",
    "rho",
]

__version__ = "0.1.0"
