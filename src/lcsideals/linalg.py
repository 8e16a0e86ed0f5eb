"""Reduced bases of subspaces of homogeneous components of A_n.

A GradedSubspace holds a reduced basis of a subspace of the degree-d
component: each stored row is keyed by a pivot column that no other row
holds.  Rows are sparse integer vectors, content-stripped with a positive
coefficient at the pivot.  Every space built here is in reduced row echelon
form, with pivot = maximal word in lexicographic order, which makes the
basis unique; the rational rows with leading coefficient 1 are recovered on
demand.  A basis taken as reduced (from_reduced), or a union with such a
part, may be out of that order until its rows are first read in order.

Against reduced rows, one pass over the pivots of a vector clears them all,
in any order, because eliminating one pivot brings in no other.  That pass
(_clear) is the only elimination: membership runs it on the vector, and
insert_row runs it on the new row and then eliminates the new pivot from
each stored row that holds it, so the basis is reduced after every
insertion and freezing only makes it immutable.  Membership, dimension and
residues therefore work on any reduced basis; only the readers of ordered
rows (int_rows, pivot_words, row_polys, the pads of from_pads) echelonize
an unordered one, once (_echelon).  residues(rows) inserts the residues of
rows modulo a basis, which builds every span (from_rows), extension
(extension_dim) and left-ideal step (from_pads).

A left-ideal step (from_pads) is held in two tiers until its rows are read
in order: the pads, shifted copies of reduced rows one degree down and so
reduced among themselves, and the side rows, the residues of the offered
rows modulo the pads, reduced among themselves and holding no pad pivot.
The pads may hold side pivots, so the two tiers together are not reduced,
but two passes clear a vector: one over the pad pivots it holds, which
leaves no pad pivot, and then one over the side pivots it holds, which
brings none back.  What is left is zero if and only if the vector lies in
the span: a combination of the rows is zero at every pad pivot only if each
pad coefficient is, for no other row holds that pivot, and then at every
side pivot only if each side coefficient is.  So membership, dimension
(pads plus side) and residues never complete the block; the first ordered
read does, by clearing the side pivots from copies of the pad rows that
hold one.  That changes no side row, and every pad row keeps its pivot, so
the side tier is the set of rows that the block adds beside its pads.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from types import MappingProxyType
from typing import Iterable, Iterator, Mapping

from .freealg import Poly, Word

IntRow = dict[int, int]

# The side tier of every basis that holds no side rows apart, shared and
# read-only.
_NO_SIDE: Mapping[int, IntRow] = MappingProxyType({})


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
    """Span of homogeneous degree-d elements, as a reduced basis.

    _tiers is (rows, side): side holds the side rows of a left-ideal step
    (from_pads) while they are kept apart from its pads, rows; it is the
    shared empty _NO_SIDE for every other basis, and for a step once it is
    completed.  Each tier is reduced and no side row holds a pad pivot, so
    a pass over the pads and then one over the side rows clear a vector
    (_clear), and the dimension is the sum of the two.  The pair is one
    object, so a reader sees the two tiers or the completed rows, never a
    mix.  _side keeps the side rows of a step after completion too.
    _ordered true says that the basis is the reduced echelon form (pivot =
    largest word of its row); false says only that this is not yet known:
    for from_reduced, for a step with side rows apart, and for a direct_sum
    of parts of which one is unordered, until _echelon.
    Mutable (single writer) until freeze(); frozen instances are immutable
    and safe to share: echelonizing swaps in a new pair, and concurrent
    readers see either basis.
    """

    __slots__ = ("n", "degree", "_tiers", "_side", "_frozen", "_ordered", "_parts")

    def __init__(self, n: int, degree: int):
        if n < 1 or degree < 0:
            raise ValueError("need n >= 1 and degree >= 0")
        self.n = n
        self.degree = degree
        self._side: Mapping[int, IntRow] = _NO_SIDE
        self._tiers: tuple[dict[int, IntRow], Mapping[int, IntRow]] = ({}, _NO_SIDE)
        self._frozen = False
        self._ordered = True
        self._parts: tuple[GradedSubspace, ...] = ()

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
        supports are together again reduced, so no elimination is needed.
        A part with side rows apart is completed first.  The sum is
        unordered if a part is, and is then ordered part by part."""
        S = cls(n, degree)
        S._parts = parts = tuple(parts)
        for part in parts:
            if part._tiers[1]:
                part._echelon()
        # flags before rows: a part ordered meanwhile has swapped its rows first
        S._ordered = all(part._ordered for part in parts)
        for part in parts:
            S._tiers[0].update(part._tiers[0])
        S._frozen = True
        return S

    @classmethod
    def from_reduced(cls, n: int, degree: int, rows: dict[int, IntRow]) -> "GradedSubspace":
        """Frozen span of a reduced basis that need not be in echelon order:
        rows maps pivot columns to rows, and no row holds the pivot of
        another.  It is taken as it is until its rows are first read in
        order (_echelon)."""
        S = cls(n, degree)
        S._tiers = (rows, _NO_SIDE)
        S._ordered = False
        S._frozen = True
        return S

    @classmethod
    def from_pads(
        cls,
        n: int,
        degree: int,
        pads: Iterable[tuple[int, "GradedSubspace"]],
        rows: Iterable[IntRow | Poly],
    ) -> "GradedSubspace":
        """Frozen span of Σ x_i·b + span(rows) over the pairs (i, b) of pads,
        each b a subspace one degree down and each i at most once.

        The left pads of b's reduced echelon rows (b is echelonized first
        if it is not) are reduced again, with distinct pivots
        i·n^(d-1) + pivot, so they go in as copies.  The residues of
        rows modulo the pads, echelonized apart and in descending pivot
        order, are the side rows: the block is returned in two tiers,
        unordered, and completed when its rows are first read in order
        (_echelon).  With no side row the pads are the reduced echelon form.
        """
        S = cls(n, degree)
        pad_rows = S._tiers[0]
        top = n ** (degree - 1)
        for i, prev in pads:
            base = i * top
            for p, row in prev._echelon().items():
                pad_rows[base + p] = {base + r: c for r, c in row.items()}
        side = dict(sorted(S.residues(rows)._tiers[0].items(), reverse=True))
        if side:
            S._side = side
            S._tiers = (pad_rows, side)
            S._ordered = False
        return S.freeze()

    def _echelon(self) -> dict[int, IntRow]:
        """The stored rows in reduced echelon form, echelonizing them on the
        first call.  Two tiers are completed: the side pivots are cleared
        from copies of the pad rows that hold one, and the side rows join
        them unchanged.  A pad row keeps its pivot p, because a side pivot
        s in it is below p and so is every word of the side row of s; then
        no row holds another's pivot and each pivot is its row's largest
        word, which is the reduced echelon form.  A union is ordered part
        by part; any other basis is kept if each pivot is its row's largest
        word, else echelonized by from_rows in the order of its rows.
        The new rows are swapped in with an empty side tier, as one pair,
        before the flag is set, and no row dict is edited in place, because
        unions and readers share them."""
        if not self._ordered:
            rows, side = self._tiers
            if side:
                rows = {
                    p: _strip(self._clear_tier(dict(row), side))
                    if not side.keys().isdisjoint(row) else row
                    for p, row in rows.items()
                }
                rows.update(side)
            elif self._parts:
                rows = {}
                for part in self._parts:
                    rows.update(part._echelon())
            elif any(p != max(row) for p, row in rows.items()):
                rows = type(self).from_rows(self.n, self.degree, rows.values())._tiers[0]
            self._tiers = (rows, _NO_SIDE)
            self._ordered = True
        return self._tiers[0]

    # -- core reduction -------------------------------------------------

    def _clear(self, vec: IntRow) -> IntRow:
        """Eliminate every pivot of vec: one pass over the stored rows, then,
        if side rows are apart, one over theirs (see the module docstring).

        Exact up to a positive scalar, which is all membership and rank
        need.  Each tier is reduced, in echelon order or not, so eliminating
        one of its pivots never brings in or cancels another of the same
        tier, and the order of a pass is free.  The pads may hold side
        pivots, so the side pass takes its pivots after the pad pass; no
        side row holds a pad pivot, so it brings none back.
        """
        rows, side = self._tiers
        self._clear_tier(vec, rows)
        return self._clear_tier(vec, side) if side else vec

    @classmethod
    def _clear_tier(cls, vec: IntRow, rows: Mapping[int, IntRow]) -> IntRow:
        """Eliminate the pivots of the reduced rows that vec holds, in one
        pass."""
        for r in [r for r in vec if r in rows]:
            cls._eliminate(vec, rows[r], r, vec[r])
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
        """Clear vec and install it as a new pivot row; True if dim grew.

        vec becomes a stored row.  Its pivot is eliminated from the stored
        rows that hold it, which keeps the basis reduced.
        """
        if self._frozen:
            raise RuntimeError("cannot insert into a frozen subspace")
        vec = self._clear(vec)
        if not vec:
            return False
        vec = _strip(vec)
        pivot = max(vec)
        rows = self._tiers[0]
        for p, row in rows.items():
            if pivot in row:
                self._eliminate(row, vec, pivot, row[pivot])
                rows[p] = _strip(row)
        rows[pivot] = vec
        return True

    def insert(self, p: Poly) -> "GradedSubspace":
        """Grow the span by p (degree-d homogeneous or zero); returns self."""
        self.insert_row(poly_to_introw(p, self.n, self.degree))
        return self

    def freeze(self) -> "GradedSubspace":
        """Make immutable; the rows are already in reduced echelon form."""
        self._frozen = True
        return self

    def residues(self, rows: Iterable[IntRow | Poly]) -> "GradedSubspace":
        """Unfrozen echelon span of the residues of rows modulo this basis.

        rows are IntRows or degree-d Polys; each is copied, so the rows of a
        cached span can be passed.
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
        rows, side = self._tiers
        return len(rows) + len(side)

    def contains_row(self, vec: IntRow) -> bool:
        return not self._clear(dict(vec))

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
        return [rank_word(r, self.n, self.degree) for r in sorted(self._echelon(), reverse=True)]

    def int_rows(self) -> Iterator[IntRow]:
        """The reduced echelon rows, in descending pivot order."""
        rows = self._echelon()
        for r in sorted(rows, reverse=True):
            yield rows[r]

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
