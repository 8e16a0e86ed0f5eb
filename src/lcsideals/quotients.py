"""Dimension computations in the quotients R_{i,j} = A_n / (M_i · M_j).

Every dimension is a difference of block dimensions, which
series.spec_dim sums over the sorted letter contents given the factors
(i, j) of I = M_i·M_j.  M_r and N_r = M_r/M_{r+1} come from the blocks of
the two-sided ideals J_r = M_r + I, built like M_r; L_r + I is no ideal,
so L_r counts dim(span(L_r ∪ I)) - dim(I).  quotient_dim names the
quotient and the series.  No coset representatives are ever constructed.
"""

from __future__ import annotations

from itertools import combinations_with_replacement
from itertools import product as iter_product
from math import comb
from typing import NamedTuple

from .freealg import Poly, Word, all_words, bracket, check_count, nested_word_chain
from .series import IdealSpec, factor_indices, l_span_chains, spec_contains, spec_dim


class _QuotientFields(NamedTuple):
    n: int
    i: int
    j: int


class QuotientSpec(_QuotientFields):
    """The PI-quotient of A_n by the product ideal M_i · M_j: an immutable
    value, equal and hashed by its fields."""

    __slots__ = ()

    def __new__(cls, n: int, i: int, j: int):
        check_count(n)
        factor_indices((i, j))
        return super().__new__(cls, n, i, j)

    def label(self) -> str:
        return f"R[{self.i},{self.j}](A_{self.n})"


SERIES_KINDS = ("L", "M", "N", "B")


def quotient_dim(spec: QuotientSpec, kind: str, r: int, d: int) -> int:
    """dim of the degree-d piece of L_r, M_r, N_r = M_r/M_{r+1} or
    B_r = L_r/L_{r+1} computed inside the quotient: series.spec_dim with
    the product ideal's factors as its mod."""
    if kind not in SERIES_KINDS:
        raise ValueError(f"series kind must be one of {SERIES_KINDS}")
    if kind == "B":
        return quotient_dim(spec, "L", r, d) - quotient_dim(spec, "L", r + 1, d)
    return spec_dim(IdealSpec(kind, spec.n, index=r), d, (spec.i, spec.j))


def iso_check(
    j: int, i_values: list[int] | range, d_max: int, n: int = 2
) -> list[dict]:
    """Graded dimension comparison of B_i and N_i inside R_{j,2}.

    Rows with i >= t, where t = 2*ceil((j+1)/2), fall under the isomorphism
    statement and are marked asserted; smaller i are reported only.
    """
    spec = QuotientSpec(n, j, 2)
    t = 2 * ((j + 1 + 1) // 2)
    rows = []
    for i in i_values:
        for d in range(d_max + 1):
            dim_b = quotient_dim(spec, "B", i, d)
            dim_n = quotient_dim(spec, "N", i, d)
            rows.append(
                {
                    "i": i,
                    "degree": d,
                    "dim_B": dim_b,
                    "dim_N": dim_n,
                    "equal": dim_b == dim_n,
                    "asserted": i >= t,
                }
            )
    return rows


def sorted_commutator_count(n: int, r: int) -> int:
    """Number of sorted index sequences (i_1 > i_2 <= i_3 <= ... <= i_r)."""
    if r < 2:
        raise ValueError("sorted commutators need length >= 2")
    total = 0
    for tail in combinations_with_replacement(range(1, n + 1), r - 1):
        total += n - tail[0]
    return total


def structure_basis_r22(n: int, r: int, d: int) -> int:
    """Size of the monomial-times-sorted-commutator basis of the degree-d
    piece of N_r inside R_{2,2}(A_n).

    For r = 1 the sortedness constraint degenerates; that layer is the
    polynomial ring, counted by commutative monomials.
    """
    if r < 1:
        raise ValueError("layer index must be >= 1")
    if r == 1:
        return comb(d + n - 1, n - 1)
    if d < r:
        return 0
    return comb(d - r + n - 1, n - 1) * sorted_commutator_count(n, r)


def sorted_commutator_words(n: int, r: int) -> list[Word]:
    """The letter sequences of the sorted commutators, for inspection."""
    out = []
    for tail in combinations_with_replacement(range(1, n + 1), r - 1):
        for head in range(tail[0] + 1, n + 1):
            out.append((head,) + tail)
    return sorted(out)


def two_row_module_dim(a: int, b: int = 0) -> int:
    """Dimension a - b + 1 of the irreducible GL_2 module for the two-row
    partition (a, b); the module sits in total degree a + b."""
    if b < 0 or a < b:
        raise ValueError("need a >= b >= 0")
    return a - b + 1


def r23_structure_dims(r: int, d_max: int) -> dict[int, int]:
    """Graded dimensions predicted for N_r(R_{2,3}(A_2)), r > 4.

    Convolution of a symmetric-algebra factor (dimension i+1 in degree i)
    with a bracket factor concentrated in total degree r: the module for
    (r-1,1) plus the module for (r-3,1) twisted by the determinant (1,1).
    """
    if r < 5:
        raise ValueError("the structure formula applies for r > 4")
    bracket_dim = two_row_module_dim(r - 1, 1) + two_row_module_dim(
        r - 3, 1
    ) * two_row_module_dim(1, 1)
    out = {}
    for d in range(d_max + 1):
        out[d] = (d - r + 1) * bracket_dim if d >= r else 0
    return out


def metabelian_check(n: int, d_max: int) -> bool:
    """Two slot-permutation facts behind the quotient computations.

    Products of two brackets of generators lie in the (2,2) product ideal,
    and swapping the two outer slots of [a, b, l] with l a pure commutator
    changes the element by a member of that ideal.  Checked for all
    monomial instances up to total degree d_max.
    """
    if d_max < 4:
        raise ValueError("instances start at degree 4")
    p22 = IdealSpec("P", n, factors=(2, 2))
    gens = [Poly.gen(n, g) for g in range(1, n + 1)]
    for p, q, u, v in iter_product(gens, repeat=4):
        elem = bracket(p, q) * bracket(u, v)
        if not elem.is_zero() and not spec_contains(p22, elem):
            return False

    # [a,[b,l]] - [b,[a,l]] = [[a,b],l] lands in M2·M2 once l is a bracket
    for total in range(4, d_max + 1):
        for da in range(1, total - 2):
            for db in range(1, total - 1 - da):
                for wa in all_words(n, da):
                    a = Poly.monomial(n, wa)
                    for wb in all_words(n, db):
                        b = Poly.monomial(n, wb)
                        for chain in l_span_chains(n, 2, total - da - db):
                            l = nested_word_chain(n, chain)
                            if l.is_zero():
                                continue
                            diff = bracket(a, bracket(b, l)) - bracket(b, bracket(a, l))
                            if not diff.is_zero() and not spec_contains(p22, diff):
                                return False
    return True
