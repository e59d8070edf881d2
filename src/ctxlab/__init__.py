"""Finite-dimensional workbench for measurement contexts and their extensions.

Subpackages group by subject: ``fincat`` (finite categories, cones,
limits), ``staralg`` (matrix *-algebras, character spaces, context
families), ``ctxext`` (the product-carrier extension and its states),
``presheaf`` (spectral presheaves, valuation search, daseinisation),
``locnet`` (a toy chain net), ``gft`` (truncated Fock/Weyl sector),
``realism`` (correlation bounds), ``fixtures`` (canonical cone
instances), and ``cli``.
"""

from . import ctxext, fincat, fixtures, gft, locnet, presheaf, realism, staralg
from .errors import CapExceeded, DomainError, InputError, MixedObservableError, ToolError
from .validation import ValidationReport, Violation

__all__ = [
    "ctxext",
    "fincat",
    "fixtures",
    "gft",
    "locnet",
    "presheaf",
    "realism",
    "staralg",
    "CapExceeded",
    "DomainError",
    "InputError",
    "MixedObservableError",
    "ToolError",
    "ValidationReport",
    "Violation",
]
