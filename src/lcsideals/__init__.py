"""Exact computations with lower central series ideals of free associative
algebras over the rationals."""

from .containment import (
    ContainmentReport,
    bound_report,
    check_open_elements,
    conjecture_2k_sweep,
    conjectured_2k_index,
    containment_index,
    pbw_witness,
    sl2_witness,
)
from .exprs import ExprSyntaxError, parse_expr, poly_to_expr
from .freealg import Poly, bracket, nested, verify_identity
from .linalg import GradedSubspace
from .lyndon import (
    PbwExpansion,
    lyndon_words,
    pbw_degree,
    standard_bracketing,
    straighten,
)
from .quotients import (
    QuotientSpec,
    iso_check,
    metabelian_check,
    quotient_dim,
    r23_structure_dims,
    structure_basis_r22,
)
from .series import (
    DimTable,
    IdealSpec,
    SpanIdeal,
    decompose_pure,
    free_permute,
    generators_S,
    l_span,
    m_span,
    n_dims,
    product_span,
)

__version__ = "0.1.0"

__all__ = [
    "ContainmentReport",
    "DimTable",
    "ExprSyntaxError",
    "GradedSubspace",
    "IdealSpec",
    "PbwExpansion",
    "Poly",
    "QuotientSpec",
    "SpanIdeal",
    "bound_report",
    "bracket",
    "check_open_elements",
    "conjecture_2k_sweep",
    "conjectured_2k_index",
    "containment_index",
    "decompose_pure",
    "free_permute",
    "generators_S",
    "iso_check",
    "l_span",
    "lyndon_words",
    "m_span",
    "metabelian_check",
    "n_dims",
    "nested",
    "parse_expr",
    "pbw_degree",
    "pbw_witness",
    "poly_to_expr",
    "product_span",
    "quotient_dim",
    "r23_structure_dims",
    "sl2_witness",
    "standard_bracketing",
    "straighten",
    "structure_basis_r22",
    "verify_identity",
]
