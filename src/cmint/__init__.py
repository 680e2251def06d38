"""Exact arithmetic intersection numbers of modular divisors with quartic CM cycles."""

from .applications import (
    BadReductionCertificate,
    bad_reduction_primes,
    humbert_intersection,
    igusa_denominator_bounds,
)
from .bm import (
    BmEntry,
    BmReport,
    bm_full,
    bm_report,
    intersection_number,
    support_primes,
)
from .cmfield import (
    CMFieldData,
    build_cm_field,
    classify_in_reflex_cm,
    rho,
)
from .errors import CmintError, FieldRejected, InputError, InternalConsistencyError
from .logcombo import LogCombo
from .quadfield import PrimeSpot, QuadElem, QuadField, elem_norm, ord_at, splitting
from .tmatrix import TMatrix, t_matrix

__version__ = "0.1.0"

__all__ = [
    "BadReductionCertificate",
    "BmEntry",
    "BmReport",
    "CMFieldData",
    "CmintError",
    "FieldRejected",
    "InputError",
    "InternalConsistencyError",
    "LogCombo",
    "PrimeSpot",
    "QuadElem",
    "QuadField",
    "TMatrix",
    "bad_reduction_primes",
    "bm_full",
    "bm_report",
    "build_cm_field",
    "classify_in_reflex_cm",
    "elem_norm",
    "humbert_intersection",
    "igusa_denominator_bounds",
    "intersection_number",
    "ord_at",
    "rho",
    "splitting",
    "support_primes",
    "t_matrix",
]
