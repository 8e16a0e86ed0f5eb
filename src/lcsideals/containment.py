"""Containment indices of products of lower central series ideals.

containment_index() computes the observed maximal s with
M_{i1}···M_{ik} ⊆ M_s degreewise up to a cutoff, together with bounds and
an explicit non-membership witness: the PBW witness, or else the first
basis row the walk found outside M_{index+1}.  Containment evidence is
stamped with the cutoff; non-containment of a homogeneous witness is
definitive because each graded component is checked exhaustively.
"""

from __future__ import annotations

from fractions import Fraction
from math import ceil
from typing import NamedTuple, Sequence

from .exprs import poly_to_expr
from .freealg import Poly
from .linalg import IntRow, introw_to_poly
from .lyndon import standard_bracketing
from .series import (
    IdealSpec,
    balanced_content,
    chain_poly,
    factor_indices,
    m_span,
    product_span,
    spec_contains,
)

Matrix = tuple[tuple[Fraction, Fraction], tuple[Fraction, Fraction]]


def bound_report(n: int, indices: Sequence[int]) -> tuple[int, int]:
    """(lower, upper) bounds on the containment index.

    Upper bound: total - k + 1, from the PBW filtration argument.  Lower
    bound: combine factors pairwise, gaining an extra degree whenever an odd
    index participates; p odd entries allow min(p, k-1) such steps.
    """
    t = factor_indices(indices)
    k = len(t)
    total = sum(t)
    p = sum(1 for i in t if i % 2 == 1)
    upper = total - k + 1
    lower = total - 2 * (k - 1) + min(p, k - 1)
    return lower, upper


def pbw_witness(n: int, indices: Sequence[int]) -> Poly:
    """A product of standard bracketings with lengths matching the tuple.

    Generators are assigned greedily left to right, wrapping around modulo
    n; each factor's letters are sorted, which yields a Lyndon word whenever
    at least two letters differ (always the case for length >= 2, n >= 2).
    Nonzero products of Lie basis elements achieve the full PBW factor
    count, hence lie outside M_{total-k+2} in their degree.
    """
    if n < 2:
        raise ValueError("witness construction needs n >= 2")
    t = factor_indices(indices)
    out = Poly.one(n)
    cursor = 0
    for length in t:
        letters = sorted(1 + (cursor + s) % n for s in range(length))
        cursor += length
        out = out * standard_bracketing(tuple(letters), n)
    return out


class ContainmentReport(NamedTuple):
    n: int
    indices: tuple[int, ...]
    cutoff: int
    index_observed: int
    upper_bound_pbw: int
    lower_bound_formula: int
    witness: Poly
    witness_degree: int
    witness_target: int
    per_degree: dict[int, int]  # degree -> maximal s verified contained

    def to_json_obj(self) -> dict:
        return {
            "n": self.n,
            "tuple": list(self.indices),
            "cutoff": self.cutoff,
            "index": self.index_observed,
            "upper": self.upper_bound_pbw,
            "lower": self.lower_bound_formula,
            "witness_expr": poly_to_expr(self.witness),
            "witness_degree": self.witness_degree,
            "witness_target": self.witness_target,
            "per_degree": [
                {
                    "degree": d,
                    "contained_in": list(range(1, s_max + 1)),
                }
                for d, s_max in sorted(self.per_degree.items())
            ],
        }


def default_cutoff(indices: Sequence[int]) -> int:
    return sum(indices) + 2


def containment_index(
    n: int, indices: Sequence[int], cutoff: int | None = None
) -> ContainmentReport:
    """Observed containment index of M_{i1}···M_{ik} in A_n up to a cutoff.

    For every degree d <= cutoff the largest s <= bound with P(d) ⊆ M_s(d)
    is found by walking down from the PBW bound (first degree) or from the
    previous degree's answer (lemma below), building only the M_s between
    start and answer.  The observed index is the least of these maxima.  No
    M_s with s <= max(t) is built at all: each factor M_i is a two-sided
    ideal, so P ⊆ M_{max t} ⊆ M_s.  Only true answers are skipped, so the
    walk, per_degree and the witness row kept below come out as if tested.

    Containment is tested on one block per degree: P(d) ⊆ M_s(d) if and only
    if P(d)[μ] ⊆ M_s(d)[μ] for the balanced content μ = (⌈d/n⌉, ..., ⌊d/n⌋)
    (balanced_content).
    1. A linear substitution of the generators is an algebra endomorphism,
       so it maps brackets to brackets: L_k, M_k and every product are
       GL_n(Q)-submodules of A_n(d) = V^{⊗d}.  That representation is
       polynomial and, in characteristic 0, semisimple; the letter-content
       blocks are its weight spaces.
    2. If U ⊄ W for two submodules, U/(U∩W) contains an irreducible V_λ,
       λ a partition of d with at most n parts.  Taking a weight space is
       exact, so U[μ] ⊄ W[μ] whenever V_λ[μ] ≠ 0, that is, whenever the
       Kostka number K_{λμ} > 0, that is, whenever λ dominates μ.
    3. μ is the least partition of d with at most n parts in dominance
       order: moving a box from a longer row to a row at least two shorter
       goes down in dominance, and this ends at μ.  So every λ dominates μ.
    (Feigin–Shoikhet for the GL_n action on these quotients; Macdonald,
    Symmetric Functions and Hall Polynomials, I.6–I.7, for Kostka numbers
    and dominance.)  The pbw_witness assigns its letters cyclically, so its
    content is μ at its own degree and its test reuses the walk's cone.

    Only the side rows of P(d)[μ] are tested, the rows it adds beside its
    left pads x_i·P(d-1)[μ - e_i] (GradedSubspace.from_pads): every s tried
    at degree d is at most per_degree[d-1], so P(d-1) ⊆ M_s(d-1) on the
    whole degree, and the pads lie in the ideal M_s(d).  At d = |t| there
    are no pads.  A side row outside M_s puts P(d) outside, and the first
    row outside is then read as before.

    The walk never goes up, and stops at the bound, by a lemma: x_1 is no
    zero divisor modulo M_s, M_s(d) ∩ x_1·A(d-1) = x_1·M_s(d-1).  The
    derivation D with D x_1 = 1, D x_i = 0 (i ≠ 1) maps L_k into L_k by
    induction, as D[a, l] = [Da, l] + [a, Dl], so D M_s ⊆ M_s by Leibniz on
    a·l·b.  Let x_1·a ∈ M_s and m the x_1-degree of a.  D^j(x_1·a) =
    x_1·D^j a + j·D^{j-1} a is in M_s, so going down from D^{m+1} a = 0,
    D^j a ∈ M_s gives D^{j-1} a ∈ M_s over Q, down to a ∈ M_s; by symmetry
    the same holds for every letter and on the right.  P is a left ideal,
    so x_1·P(d-1) ⊆ P(d), and P(d) ⊆ M_s(d) gives P(d-1) ⊆ M_s(d-1):
    per_degree never increases.  So P(d) ⊄ M_{bound+1}(d) at every degree
    follows from d = |t|, the sum of the tuple, where the witness, a product
    of k nonzero Lie elements, has PBW degree k and M_{bound+1}(|t|) lies in
    PBW filtration |t| - bound = k - 1.  Below the bound the witness is
    tested against M_{index+1} at its own degree, which makes the
    non-containment side definitive.

    If M_{index+1} holds the witness, the report takes the first (d, row),
    row first in int_rows() order, at which inside(index + 1) failed.  P
    stays in M_{index+1} below the first degree d* with per_degree = index,
    and at d* the walk comes down through index + 1: the row is the first
    row of the first degree where P leaves M_{index+1}, as a rescan finds.
    """
    t = factor_indices(indices)
    total = sum(t)
    if cutoff is None:
        cutoff = default_cutoff(t)
    if cutoff < total:
        raise ValueError(
            f"cutoff {cutoff} below the minimal degree {total} of the product"
        )
    witness = pbw_witness(n, t)  # refuses n < 2 before any span is built
    lower, upper = bound_report(n, t)

    per_degree: dict[int, int] = {}
    outside: dict[int, tuple[int, IntRow]] = {}  # s -> first (d, row) of P not in M_s
    for d in range(total, cutoff + 1):
        mu = balanced_content(n, d)

        def inside(s: int) -> bool:
            if s <= max(t):
                return True
            P, M = product_span(n, t, d, mu), m_span(n, s, d, mu)
            if all(M.contains_row(row) for row in P._side.values()):
                return True
            outside.setdefault(s, (d, P.row_outside(M)))
            return False

        per_degree[d] = next(s for s in range(per_degree.get(d - 1, upper), 0, -1) if inside(s))

    index = min(per_degree.values())

    wdeg = witness.degree()
    if index < upper and spec_contains(IdealSpec("M", n, index=index + 1), witness):
        wdeg, row = outside[index + 1]
        witness = introw_to_poly(row, n, wdeg)

    return ContainmentReport(
        n=n,
        indices=t,
        cutoff=cutoff,
        index_observed=index,
        upper_bound_pbw=upper,
        lower_bound_formula=lower,
        witness=witness,
        witness_degree=wdeg,
        witness_target=index + 1,
        per_degree=per_degree,
    )


# -- sl(2) trace witness ---------------------------------------------------

_E: Matrix = ((Fraction(0), Fraction(1)), (Fraction(0), Fraction(0)))
_F: Matrix = ((Fraction(0), Fraction(0)), (Fraction(1), Fraction(0)))
_H: Matrix = ((Fraction(1), Fraction(0)), (Fraction(0), Fraction(-1)))


def _mat_mul(a: Matrix, b: Matrix) -> Matrix:
    return tuple(
        tuple(sum(a[i][k] * b[k][j] for k in range(2)) for j in range(2))
        for i in range(2)
    )  # type: ignore[return-value]


def _mat_add(a: Matrix, b: Matrix, sign: int = 1) -> Matrix:
    return tuple(
        tuple(a[i][j] + sign * b[i][j] for j in range(2)) for i in range(2)
    )  # type: ignore[return-value]


def _mat_bracket(a: Matrix, b: Matrix) -> Matrix:
    return _mat_add(_mat_mul(a, b), _mat_mul(b, a), sign=-1)


def mat_trace(a: Matrix) -> Fraction:
    return a[0][0] + a[1][1]


def sl2_witness(i: int, j: int, n: int) -> tuple[Matrix, Fraction]:
    """Image and trace of a product of two adjoint strings under the
    evaluation into 2x2 matrices.

    Same parity of i and j: x1 -> e+f, x2 -> h, element
    ad^{i-1}(x2)(x1) · ad^{j-1}(x2)(x1).  Different parity needs n >= 3:
    x1 -> e, x2 -> h, x3 -> f, element ad^{i-1}(x2)(x1) · ad^{j-1}(x2)(x3).
    A nonzero trace certifies L_i·L_j ⊄ L_{i+j}, since length-(i+j)
    commutators of matrices are traceless.
    """
    factor_indices((i, j))
    same_parity = (i - j) % 2 == 0
    if same_parity:
        if n < 2:
            raise ValueError("same-parity witness needs n >= 2")
        first = second = _mat_add(_E, _F)
    else:
        if n < 3:
            raise ValueError("different-parity witness needs n >= 3")
        first, second = _E, _F

    def ad_power(base: Matrix, power: int, target: Matrix) -> Matrix:
        out = target
        for _ in range(power):
            out = _mat_bracket(base, out)
        return out

    value = _mat_mul(ad_power(_H, i - 1, first), ad_power(_H, j - 1, second))
    return value, mat_trace(value)


def ad_string_poly(n: int, i: int, core: int) -> Poly:
    """ad^{i-1}(x2) applied to the given generator, as an element of A_n:
    the right-normed commutator [x2, ..., x2, x_core]."""
    return chain_poly(n, (2,) * (i - 1) + (core,))


# -- open degree-6 elements on three generators ----------------------------

OPEN_ELEMENTS: tuple[tuple[str, tuple[int, ...], tuple[int, ...]], ...] = (
    ("[x1,x2]*[x3,x1,x1,x2]", (1, 2), (3, 1, 1, 2)),
    ("[x1,x2]*[x3,x2,x1,x2]", (1, 2), (3, 2, 1, 2)),
    ("[x1,x2]*[x3,x3,x3,x1]", (1, 2), (3, 3, 3, 1)),
)


def check_open_elements(cutoff: int = 6) -> list[dict]:
    """Membership of the three degree-6 test elements in M_5(A_3).

    Each element is checked in its own degree 6; with cutoff 7 the
    one-letter padded products are checked in degree 7 as well, and no other
    cutoff is accepted.  No letter is a zero divisor modulo M_5 (the lemma of
    containment_index), so the degree-7 rows must equal the degree-6 rows.
    """
    if cutoff not in (6, 7):
        raise ValueError(f"cutoff must be 6 or 7, got {cutoff}")
    n = 3
    target = IdealSpec("M", n, index=5)
    gens = [Poly.gen(n, g) for g in range(1, n + 1)]
    rows = []
    for d in range(6, cutoff + 1):
        for expr, left, right in OPEN_ELEMENTS:
            p = chain_poly(n, left) * chain_poly(n, right)
            # in degree 7: p times one generator, on either side
            elems = [p] if d == 6 else [x * p for x in gens] + [p * x for x in gens]
            contained = all(spec_contains(target, e) for e in elems)
            rows.append({"expr": expr, "degree": d, "contained": contained})
    return rows


# -- conjecture sweep for tuples of twos -----------------------------------


def conjectured_2k_index(n: int, k: int) -> int:
    """Piecewise conjectural value of the index for the k-tuple (2,...,2)."""
    if n < 2 or k < 1:
        raise ValueError("need n >= 2 and k >= 1")
    if n >= 4 and n % 2 == 0:
        return max(2 * ceil(Fraction(k, 2) - Fraction(n, 4)), 0) + 2
    if n >= 5:
        return max(2 * ceil(Fraction(k, 2) - Fraction(n, 4) + Fraction(1, 4)), 0) + 2
    return k + 1


def conjecture_2k_sweep(
    n_max: int, k_max: int, cutoff: int | None = None
) -> list[dict]:
    """Observed vs conjectured index for tuples (2,...,2), tabulated.

    Matches are reported, never asserted.  Desk scale only: the component
    dimension n^degree grows fast.
    """
    if n_max > 5 or k_max > 4:
        raise ValueError("sweep is desk-scale only: n_max <= 5, k_max <= 4")
    rows = []
    for n in range(2, n_max + 1):
        for k in range(1, k_max + 1):
            t = (2,) * k
            report = containment_index(n, t, cutoff)
            conj = conjectured_2k_index(n, k)
            rows.append(
                {
                    "n": n,
                    "k": k,
                    "observed": report.index_observed,
                    "conjectured": conj,
                    "match": report.index_observed == conj,
                    "cutoff": report.cutoff,
                }
            )
    return rows
