"""Exact computations with lower central series ideals of free associative
algebras over the rationals.

The exports are looked up in their submodules on each use (PEP 562), so
`import lcsideals` loads no submodule, and a name rebound in its submodule
is seen rebound here too: no resolved value is stored in this namespace.
"""

from importlib import import_module

__version__ = "0.1.0"

_EXPORTS = {
    "containment": (
        "ContainmentReport",
        "bound_report",
        "check_open_elements",
        "conjecture_2k_sweep",
        "conjectured_2k_index",
        "containment_index",
        "pbw_witness",
        "sl2_witness",
    ),
    "exprs": ("ExprSyntaxError", "parse_expr", "poly_to_expr"),
    "freealg": ("Poly", "bracket", "nested", "verify_identity"),
    "linalg": ("GradedSubspace",),
    "lyndon": (
        "PbwExpansion",
        "lyndon_words",
        "pbw_degree",
        "standard_bracketing",
        "straighten",
    ),
    "quotients": (
        "QuotientSpec",
        "iso_check",
        "metabelian_check",
        "quotient_dim",
        "r23_structure_dims",
        "structure_basis_r22",
    ),
    "series": (
        "DimTable",
        "IdealSpec",
        "SpanIdeal",
        "generators_S",
        "l_span",
        "m_span",
        "product_span",
    ),
}
_HOME = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_HOME)


def __getattr__(name: str):
    module = _HOME.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(import_module(f"{__name__}.{module}"), name)
