"""algdeg: exact GL(n,q)-module computations on spaces of algebra structure vectors."""

__version__ = "0.1.0"

from .gfield import FieldCtx, make_field, primitive_element
from .exactla import Matrix, Subspace, GroupElement
from .structvec import StructureVector, Vector, DualVector

__all__ = [
    "FieldCtx",
    "make_field",
    "primitive_element",
    "Matrix",
    "Subspace",
    "GroupElement",
    "StructureVector",
    "Vector",
    "DualVector",
]
