"""Echelonized subspaces of homogeneous components of A_n.

A GradedSubspace holds a row echelon basis of a subspace of the degree-d
component, with pivot = maximal word in lexicographic order.  Rows are
stored as sparse integer vectors (content-stripped, positive leading
coefficient); the rational rows with leading coefficient 1 are recovered on
demand.

Against reduced rows, one descending pass over the pivots of a vector
clears them all, because a reduced row brings in no other pivot.  That one
pass (_clear) is the only elimination against a reduced basis: freezing
runs it on each row in ascending pivot order, which yields the unique
reduced echelon form and makes the subspace immutable; membership runs it
on a frozen subspace; and residues(rows) runs it on each new row and
echelonizes what is left, which builds every span (from_rows), extension
(extension_dim) and left-ideal step.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Iterable, Iterator

from .freealg import Poly, Word

IntRow = dict[int, int]


def word_rank(w: Word, n: int) -> int:
    r = 0
    for letter in w:
        r = r * n + (letter - 1)
    return r


def rank_word(r: int, n: int, degree: int) -> Word:
    letters = []
    for _ in range(degree):
        letters.append(r % n + 1)
        r //= n
    return tuple(reversed(letters))


def poly_to_introw(p: Poly, n: int, degree: int) -> IntRow:
    """Clear denominators and strip content; {} for the zero element."""
    if p.n != n:
        raise ValueError("generator-count mismatch")
    if not p.terms:
        return {}
    den = 1
    for c in p.terms.values():
        den = den * c.denominator // gcd(den, c.denominator)
    row = {}
    for w, c in p.terms.items():
        if len(w) != degree:
            raise ValueError(f"degree mismatch: word {w} in degree-{degree} component")
        row[word_rank(w, n)] = int(c * den)
    return _strip(row)


def introw_to_poly(row: IntRow, n: int, degree: int) -> Poly:
    """The degree-d element with the coefficients of row."""
    return Poly(n, {rank_word(r, n, degree): c for r, c in row.items()})


def _strip(row: IntRow) -> IntRow:
    """Divide by the content and make the leading coefficient positive."""
    if not row:
        return row
    g = 0
    for v in row.values():
        g = gcd(g, v)
        if g == 1:
            break
    if row[max(row)] < 0:
        g = -g
    if g != 1:
        row = {k: v // g for k, v in row.items()}
    return row


class GradedSubspace:
    """Span of homogeneous degree-d elements, as an echelonized basis.

    Mutable (single writer) until freeze(); frozen instances are immutable
    and safe to share.
    """

    __slots__ = ("n", "degree", "_rows", "_frozen")

    def __init__(self, n: int, degree: int):
        if n < 1 or degree < 0:
            raise ValueError("need n >= 1 and degree >= 0")
        self.n = n
        self.degree = degree
        self._rows: dict[int, IntRow] = {}
        self._frozen = False

    @classmethod
    def from_rows(
        cls, n: int, degree: int, rows: Iterable[IntRow | Poly]
    ) -> "GradedSubspace":
        """Frozen echelon span of rows (IntRows or degree-d Polys)."""
        return cls(n, degree).residues(rows).freeze()

    @classmethod
    def direct_sum(
        cls, n: int, degree: int, parts: Iterable["GradedSubspace"]
    ) -> "GradedSubspace":
        """Frozen sum of frozen subspaces whose supports are pairwise
        disjoint, sharing their row dicts: reduced rows with disjoint
        supports are together again reduced, so no elimination is needed."""
        S = cls(n, degree)
        for part in parts:
            S._rows.update(part._rows)
        S._frozen = True
        return S

    # -- core reduction -------------------------------------------------

    def _clear(self, vec: IntRow, own: int = -1) -> IntRow:
        """Eliminate every pivot of vec except own, in one descending pass.

        Exact up to a positive scalar, which is all membership and rank
        need.  Valid only against reduced rows, which bring in no other
        pivot.
        """
        rows = self._rows
        for r in sorted((r for r in vec if r != own and r in rows), reverse=True):
            self._eliminate(vec, rows[r], r, vec[r])
        return vec

    def _reduce(self, vec: IntRow) -> IntRow:
        """Eliminate pivot coordinates of vec against the stored rows."""
        if self._frozen:
            return self._clear(vec)
        rows = self._rows
        while vec:
            m = max(vec)
            row = rows.get(m)
            if row is None:
                return vec
            self._eliminate(vec, row, m, vec[m])
        return vec

    @staticmethod
    def _eliminate(vec: IntRow, row: IntRow, pivot: int, c: int) -> None:
        lead = row[pivot]
        if lead != 1:
            g = gcd(c, lead)
            mult = lead // g
            if mult != 1:
                for k in list(vec):
                    vec[k] *= mult
            c = c * mult // lead
        for k, v in row.items():
            s = vec.get(k, 0) - c * v
            if s:
                vec[k] = s
            else:
                vec.pop(k, None)

    # -- construction -----------------------------------------------------

    def insert_row(self, vec: IntRow) -> bool:
        """Reduce vec and install it as a new pivot row; True if dim grew."""
        if self._frozen:
            raise RuntimeError("cannot insert into a frozen subspace")
        vec = self._reduce(vec)
        if not vec:
            return False
        self._rows[max(vec)] = _strip(vec)
        return True

    def insert(self, p: Poly) -> "GradedSubspace":
        """Grow the span by p (degree-d homogeneous or zero); returns self."""
        self.insert_row(poly_to_introw(p, self.n, self.degree))
        return self

    def freeze(self) -> "GradedSubspace":
        """Back-eliminate to reduced echelon form and make immutable."""
        if self._frozen:
            return self
        rows = self._rows
        for pivot in sorted(rows):
            rows[pivot] = _strip(self._clear(rows[pivot], pivot))
        self._frozen = True
        return self

    def residues(self, rows: Iterable[IntRow | Poly]) -> "GradedSubspace":
        """Unfrozen echelon span of the residues of rows modulo this basis.

        The stored rows must be reduced (frozen, or reduced by
        construction).  rows are IntRows or degree-d Polys; each is copied,
        so the rows of a cached span can be passed.
        """
        side = GradedSubspace(self.n, self.degree)
        for r in rows:
            if isinstance(r, Poly):
                r = poly_to_introw(r, self.n, self.degree)
            vec = self._clear(dict(r))
            if vec:
                side.insert_row(vec)
        return side

    # -- queries ----------------------------------------------------------

    @property
    def dim(self) -> int:
        return len(self._rows)

    def contains_row(self, vec: IntRow) -> bool:
        return not self._reduce(dict(vec))

    def contains(self, p: Poly) -> bool:
        """Exact membership of a degree-d homogeneous element."""
        return self.contains_row(poly_to_introw(p, self.n, self.degree))

    def row_outside(self, other: "GradedSubspace") -> IntRow | None:
        """The first stored row, in descending pivot order, not in other."""
        if self.n != other.n or self.degree != other.degree:
            raise ValueError("subspace comparison needs matching n and degree")
        return next((row for row in self.int_rows() if not other.contains_row(row)), None)

    def is_subspace_of(self, other: "GradedSubspace") -> bool:
        return self.row_outside(other) is None

    def pivot_words(self) -> list[Word]:
        return [rank_word(r, self.n, self.degree) for r in sorted(self._rows, reverse=True)]

    def int_rows(self) -> Iterator[IntRow]:
        """The stored rows, in descending pivot order."""
        for r in sorted(self._rows, reverse=True):
            yield self._rows[r]

    def row_polys(self) -> list[Poly]:
        """Basis rows as Polys with leading coefficient 1."""
        n, d = self.n, self.degree
        return [
            introw_to_poly(row, n, d).scale(Fraction(1, row[max(row)]))
            for row in self.int_rows()
        ]

    def __repr__(self) -> str:
        state = "frozen" if self._frozen else "building"
        return (
            f"GradedSubspace(n={self.n}, degree={self.degree}, "
            f"dim={self.dim}, {state})"
        )


def extension_dim(base: GradedSubspace, rows: Iterable[IntRow | Poly]) -> int:
    """dim(span(base ∪ rows)) - dim(base), without copying base."""
    if not base._frozen:
        raise ValueError("extension_dim needs a frozen base")
    return base.residues(rows).dim
