"""Exact arithmetic intersection numbers of modular divisors with quartic CM cycles.

Each public name loads its submodule on first use (PEP 562), so importing the
package, or one submodule such as `cmint.cli`, loads only what it runs.
"""

__version__ = "0.1.0"

__all__ = [
    "BadReductionCertificate",
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
    "build_cm_field",
    "classify_in_reflex_cm",
    "humbert_intersection",
    "igusa_denominator_bounds",
    "intersection_number",
    "ord_at",
    "report_rows",
    "rho",
    "splitting",
    "t_matrix",
]

# the submodule that defines each public name
_HOME = {
    name: module
    for module, names in (
        (
            "applications",
            "BadReductionCertificate bad_reduction_primes humbert_intersection"
            " igusa_denominator_bounds",
        ),
        ("bm", "bm_full intersection_number report_rows"),
        ("cmfield", "CMFieldData build_cm_field classify_in_reflex_cm rho"),
        ("errors", "CmintError FieldRejected InputError InternalConsistencyError"),
        ("logcombo", "LogCombo"),
        ("quadfield", "PrimeSpot QuadElem QuadField ord_at splitting"),
        ("tmatrix", "TMatrix t_matrix"),
    )
    for name in names.split()
}


def __getattr__(name):
    home = _HOME.get(name)
    if home is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from importlib import import_module

    value = getattr(import_module(f".{home}", __name__), name)
    globals()[name] = value  # later lookups skip this hook
    return value


def __dir__():
    return sorted({*globals(), *__all__})
