"""Graded spanning sets for L_k, M_k, product ideals, and generator sets.

All subspaces are exact reduced bases of graded pieces.  Every row of every
span is multihomogeneous: brackets, left pads and products keep the letter
content c = (c_1, ..., c_n) of their words, so elimination never mixes
contents.  The unit of every build and of the cache is therefore the block
of one content, keyed (kind, n, index, degree, content); the degree-d span
is the union of its blocks, which have disjoint supports, so that union is
already a reduced basis of the whole degree, and its reduced echelon form
once each block is in echelon form.

L_1 is the whole algebra; block c of L_k(d) is spanned by brackets [m, l]
of one word m per necklace with l in block c - content(m) of L_{k-1}: the
rows [V, L_{k-1}] that M_k adds for one-letter m, and for longer m the
powers of Lyndon words (lyndon.lyndon_words), which are the necklaces.
M_k = A·L_k·A is the one-factor product ideal.  Every product
P = M_{i1}···M_{ik}, and every sum J = M_r + P (kind "M"; plain M_r is
P = 0), is built as a left ideal, P(d) = V·P(d-1) + new rows, V the span
of the generators: block c takes the left pads x_i·P(d-1)[c - e_i] and the
new rows of content c, merged by GradedSubspace.from_pads.  For a product
of two or more factors they are [V, L_{i1-1}]·R with R the product of the
other factors (see product_span); for J they are the right pads G·V, the
brackets [V, C] and the side rows of P (see m_span), which never need L_r
at its own degree.  A request for one block builds only the cone of blocks
below its content (below sorted(c) for a relabelled block; see _span).
Containment, witness and membership questions are asked of blocks alone; a
whole-degree union is built only for a caller that names no content.

Permuting the generators maps L_k, M_k and every product onto themselves
and block c onto block σ(c).  Each S_n orbit of contents holds exactly one
sorted content c_1 >= ... >= c_n, so dimensions, in A_n or in its quotient
by a product ideal, are sums over sorted contents (spec_dim, orbit_sum),
and only sorted blocks are built from candidate rows: every other block is
the relabelled image of its orbit's sorted block.
Every linear substitution of the generators maps these spans onto
themselves too, so they are GL_n-modules whose weight spaces are the
blocks, and a containment is decided on the one balanced block of each
degree (balanced_content; the proof is in containment.containment_index).
Dimensions still need every sorted block: dim U[c] = Σ_λ m_λ K_{λc} over
the irreducibles V_λ of U is triangular in the Kostka matrix, not
diagonal, so no single block gives it.  A relabelled block is a reduced
basis out of echelon order; membership, dimension and containment use it
as it is, and it is re-echelonized once, when its rows are read in order:
as left pads (from_pads copies those without elimination), as bracket or
product rows, or by a caller of int_rows.

Span closures of explicit generators, which need not be multihomogeneous,
grow by left and right padding plus new rows over whole degrees
(SpanIdeal).  The test suite cross-checks every span against brute-force
oracles and the blocks against whole-degree reference builds.
"""

from __future__ import annotations

import threading
from functools import cache
from itertools import product as iter_product
from math import factorial, prod
from operator import sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .exprs import count, read_indices
from .freealg import Poly, Rational, Word, all_words, check_count, nested_word_chain
from .linalg import GradedSubspace, IntRow, extension_dim, poly_to_introw, word_rank
from .lyndon import lyndon_words

# Right-normed pure commutator, given by its letters; length 1 = generator.
Chain = tuple[int, ...]
# Letter content (c_1, ..., c_n) of a word: how often each generator occurs.
Content = tuple[int, ...]

_lock = threading.RLock()
_span_cache: dict[tuple, GradedSubspace | dict[int, IntRow]] = {}


def clear_caches() -> None:
    with _lock:
        _span_cache.clear()
        _rank_tables.cache_clear()
    chain_poly.cache_clear()


@cache
def _empty(n: int, d: int) -> GradedSubspace:
    return GradedSubspace(n, max(d, 0)).freeze()


# -- letter contents ----------------------------------------------------------


@cache
def contents(n: int, d: int) -> tuple[Content, ...]:
    """The letter contents of the degree-d words of A_n."""
    check_count(n)
    if d < 0:
        return ()
    if n == 1:
        return ((d,),)
    return tuple((a,) + c for a in range(d, -1, -1) for c in contents(n - 1, d - a))


def sorted_contents(n: int, d: int) -> tuple[Content, ...]:
    """One content per S_n orbit: those with c_1 >= c_2 >= ... >= c_n."""
    return tuple(c for c in contents(n, d) if all(a >= b for a, b in zip(c, c[1:])))


def balanced_content(n: int, d: int) -> Content:
    """The content (⌈d/n⌉, ..., ⌊d/n⌋) of degree d: the least partition of
    d with at most n parts in dominance order."""
    q, r = divmod(d, n)
    return (q + 1,) * r + (q,) * (n - r)


def orbit_sum(n: int, d: int, block_dim: Callable[[Content], int]) -> int:
    """Σ over the contents c of degree d of block_dim(c), for a block_dim
    invariant under permutations of c: each sorted c counts |orbit(c)|
    times, n! over the factorials of its repeated entries."""
    return sum(
        factorial(n) // prod(factorial(c.count(v)) for v in set(c)) * block_dim(c)
        for c in sorted_contents(n, d)
    )


def word_content(n: int, w: Word) -> Content:
    return tuple(w.count(x) for x in range(1, n + 1))


def _less(c: Content, x: int) -> Content:
    """c - e_x: the content left after taking one letter x (0-based)."""
    return c[:x] + (c[x] - 1,) + c[x + 1 :]


def _splits(c: Content, m: int) -> Iterator[tuple[Content, Content]]:
    """The pairs (a, c - a) of contents with |a| = m."""
    for a in iter_product(*(range(x + 1) for x in c)):
        if sum(a) == m:
            yield a, tuple(map(sub, c, a))


# -- blocks and their unions ----------------------------------------------------


def _span(kind: str, n: int, index, d: int, c: Content | None):
    """Block c of the degree-d piece of L_index (kind "L"), of the product
    with factor indices index (kind "P") or of J = M_r + P (kind "M", index
    (r,) + the factors of P; J_r is P below degree r), cached; c None gives
    the union of the degree's blocks, which shares their rows.  Kinds "G"
    and "C" give side rows of the M or P block (kind, index) (_side_rows).

    Only a sorted content (c_1 >= ... >= c_n) is built from candidate rows;
    any other block, or its side rows, is the relabelled image of those of
    sorted(c), the one sorted content of its S_n orbit (see _relabel)."""
    if kind == "M" and d < index[0]:
        mod = index[1:]
        return _span(_kind(mod), n, mod, d, c) if mod else _empty(n, d)
    key = (kind, n, index, d, c)
    got = _span_cache.get(key)
    if got is not None:
        return got
    with _lock:
        got = _span_cache.get(key)
        if got is None:
            if c is None:
                blocks = [_span(kind, n, index, d, b) for b in contents(n, d)]
                got = GradedSubspace.direct_sum(n, d, blocks)
            elif (top := tuple(sorted(c, reverse=True))) != c:
                got = _span(kind, n, index, d, top)
                if kind in ("G", "C"):
                    got = _relabel(n, d, got.values(), c)
                else:
                    got = GradedSubspace.from_reduced(n, d, _relabel(n, d, got.int_rows(), c))
            elif kind == "L":
                got = _l_block(n, index, d, c)
            elif kind in ("G", "C"):
                got = _side_rows(kind, n, index, d, c)
            else:
                got = _ideal_block(kind, n, index, d, c)
            _span_cache[key] = got
        return got


def _kind(indices: tuple[int, ...]) -> str:
    """The block kind of the product with these factor indices."""
    return "P" if len(indices) > 1 else "M"


def _relabel(n: int, d: int, rows: Iterable[IntRow], c: Content) -> dict[int, IntRow]:
    """The images of the echelon rows of a sorted block, or of its side
    rows, under the letter permutation σ that maps it onto block c, keyed
    by the images of their pivots: letter i goes to the i-th index of c in
    descending order of its entry, ties in ascending order.  σ is an
    automorphism fixing every L_k and product, so the images are reduced
    rows of block c, with pivots no longer the largest words.  A block keeps
    them so (GradedSubspace.from_reduced) until its rows are read in order,
    when it is echelonized into the unique block a build of c gives.  Each
    word is mapped once, by _rank_tables, into one dict that all the rows
    read, so they share one int per word."""
    base, high, low = _rank_tables(n, d, tuple(sorted(range(n), key=lambda x: -c[x])))
    rows = list(rows)
    image = {r: high[r // base] + low[r % base] for r in {r for row in rows for r in row}}
    return {image[max(row)]: {image[r]: v for r, v in row.items()} for row in rows}


@cache
def _rank_tables(n: int, d: int, sigma: tuple[int, ...]) -> tuple[int, list[int], list[int]]:
    """σ (0-based) on the degree-d ranks: q·base + m goes to high[q] + low[m],
    low mapping the last d // 2 letters, base = n^(d // 2), high the others."""
    tables = [[0]]  # tables[e] maps the e-letter ranks
    for _ in range(d - d // 2):
        tables.append([r * n + x for r in tables[-1] for x in sigma])
    base = n ** (d // 2)
    return base, [r * base for r in tables[-1]], tables[d // 2]


def _check_content(n: int, d: int, c: Sequence[int] | None) -> Content | None:
    """c as a tuple, checked to be a letter content of degree d in A_n."""
    check_count(n)
    if c is None:
        return None
    c = tuple(c)
    if len(c) != n or sum(c) != d or min(c) < 0:
        raise ValueError(f"{c} is not a letter content of degree {d} in A_{n}")
    return c


def l_span(n: int, k: int, d: int, content: Content | None = None) -> GradedSubspace:
    """Degree-d component of L_k(A_n), echelonized, or its block of the given
    letter content (see _l_candidates)."""
    if k < 1:
        raise ValueError("lower central series index must be >= 1")
    content = _check_content(n, d, content)
    if d < 0:
        return _empty(n, d)
    return _span("L", n, k, d, content)


def _l_block(n: int, k: int, d: int, c: Content) -> GradedSubspace:
    if k == 1:  # A(0) = span(1) and A(d) = V·A(d-1)
        if d == 0:
            return GradedSubspace.from_rows(n, 0, [{0: 1}])
        return GradedSubspace.from_pads(n, d, _pads("L", n, 1, d, c), ())
    if d < k or max(c) == d:  # words in one letter commute
        return _empty(n, d)
    return GradedSubspace.from_rows(n, d, _l_candidates(n, k, d, c))


def _l_candidates(n: int, k: int, d: int, c: Content) -> Iterator[IntRow]:
    """Rows spanning block c of L_k(d): [m, l] with l in L_{k-1}(d-e) of
    content c - content(m), m one degree-e word per necklace.  For words
    a, b ≠ 1, Jacobi gives [ab, l] - [ba, l] = [a, [b, l]] - [b, [a, l]]
    with [a, l], [b, l] in L_k ⊆ L_{k-1}: rotating m changes [m, l] only by
    brackets with shorter slots, so by induction on e one rotation per class
    spans.  L_2 = [V, A] needs only e = 1: letter brackets span all monomial
    brackets by telescoping m1 m2 - m2 m1 across one-letter rotations.

    The slot e = 1 gives the rows [V, L_{k-1}(d-1)] of _letter_brackets,
    the new rows of M_k at d = k; the longer slots take the necklaces of
    _necklace_classes."""
    yield from _letter_brackets(n, k - 1, d, c)
    if k == 2:
        return
    for e in range(2, d - k + 2):
        for cm, ranks in _necklace_classes(n, e).items():
            rest = tuple(map(sub, c, cm))
            if min(rest) < 0:
                continue
            block = _span("L", n, k - 1, d - e, rest)
            if block.dim:
                for rm in ranks:
                    yield from _bracket_rows(n, block.int_rows(), d - e, rm, e)


@cache
def _necklace_classes(n: int, e: int) -> dict[Content, tuple[int, ...]]:
    """Ranks of the degree-e words that are least among their rotations,
    grouped by content in rank order.  These are the powers u^(e/|u|) of
    the Lyndon words u with |u| dividing e, in the order of the u: u < u'
    gives u^ω < u'^ω, and powers of length e differ in their first e."""
    out: dict[Content, list[int]] = {}
    for w in (u * (e // len(u)) for u in lyndon_words(n, e) if e % len(u) == 0):
        out.setdefault(word_content(n, w), []).append(word_rank(w, n))
    return {c: tuple(ranks) for c, ranks in out.items()}


def _bracket_rows(n: int, rows: Iterable[IntRow], d: int, rm: int, e: int) -> Iterator[IntRow]:
    """The nonzero brackets [m, l], m the degree-e word of rank rm, l a
    degree-d row of rows."""
    left_base = rm * n**d
    rshift = n**e
    for srow in rows:
        vec: IntRow = {left_base + r: c for r, c in srow.items()}
        for r, c in srow.items():
            key2 = r * rshift + rm
            s = vec.get(key2, 0) - c
            if s:
                vec[key2] = s
            else:
                vec.pop(key2, None)
        if vec:
            yield vec


def _letter_brackets(n: int, k: int, d: int, c: Content) -> Iterator[IntRow]:
    """The brackets [x, l] of content c, x a letter and l a row of L_k(d-1)."""
    for x, block in _pads("L", n, k, d, c):
        yield from _bracket_rows(n, block.int_rows(), d - 1, x, 1)


def _pads(kind: str, n: int, index, d: int, c: Content) -> list[tuple[int, GradedSubspace]]:
    """The pairs (x, block c - e_x one degree down) whose left pads x·b
    start block c of a left ideal."""
    return [(x, _span(kind, n, index, d - 1, _less(c, x))) for x in range(n) if c[x]]


def m_span(n: int, k: int, d: int, content: Content | None = None) -> GradedSubspace:
    """Degree-d component of the two-sided ideal M_k = A·L_k·A, or its block
    of the given letter content.

    For k >= 2 it is the one-factor product ideal, and first,
    M_k(d) = V·M_k(d-1) + [V, L_{k-1}(d-1)].  Call the right side R(d).  R is
    a left ideal by construction, and a right ideal by induction on d:
    [y,l]·x = x·[y,l] - [x,[y,l]] with [y,l] in L_k ⊆ L_{k-1}.  R lies in
    M_k, and it contains [V, L_{k-1}], which generates M_k as a two-sided
    ideal because L_k is spanned by brackets [a,l] of monomials a with l in
    L_{k-1}, and [ab,l] = a[b,l] + [a,l]b.  Hence R = M_k.

    The blocks take far fewer rows, as blocks of the two-sided ideal
    J = M_k + P, P a product ideal (0 here; see spec_dim).  Let G(d-1) be
    the rows of J(d-1) whose pivots are not those of its left pads, so
    J(d-1) = V·J(d-2) + span G(d-1), C(d-1) the residues of L_{k-1}(d-1)
    modulo J(d-1), and S(d) those rows of P(d).  Then
    J(d) = V·J(d-1) + G(d-1)·V + [V, C(d-1)] + span S(d), for the
    recursions of M_k and P give J(d) = V·J(d-1) + [V, L_{k-1}(d-1)] +
    span S(d).  Each row on the right lies in J(d): x·j and g·y in the
    ideal J, and [x, c] = [x, l] - x·j + j·x for a residue c = l - j (up to
    a scalar) of l in L_{k-1}.  Conversely, each l in L_{k-1}(d-1) is c + j
    with c in span C(d-1) and j in J(d-1), so [x, l] = [x, c] + x·j - j·x,
    and j = Σ y·j' + g with j' in J(d-2), g in span G(d-1) gives
    j·x = Σ y·(j'·x) + g·x in V·J(d-1) + G(d-1)·V.  Below degree k, J = P,
    so G(k-1)·V lies in P(k) and is left out.  Every step keeps letter
    contents, and a letter permutation fixes J, L_{k-1} and the left pads,
    so G, C and S relabel with their blocks.
    """
    if k < 1:
        raise ValueError("ideal index must be >= 1")
    if k == 1:
        return l_span(n, 1, d, content)
    return product_span(n, (k,), d, content)


def product_generators(n: int, indices: Sequence[int], d: int) -> list[IntRow]:
    """The rows that M_{i1}···M_{ik} adds at degree d to the left pads
    V·P(d-1), content block by content block (see _generator_rows)."""
    t = factor_indices(indices)
    return [row for c in contents(n, d) for row in _generator_rows(n, t, d, c)]


def _generator_rows(n: int, indices: tuple[int, ...], d: int, c: Content) -> Iterator[IntRow]:
    """The new rows of content c of P = M_{i1}···M_{ik} at degree d (see
    product_span).

    One factor k: the brackets [x, l], x a generator, l in L_{k-1}(d-1),
    the reference for the blocks of M_k (see m_span and _m_rows).
    More factors (i,)+rest: the products [x, l]·r, l in L_{i-1}(d1-1) and r
    a basis row of the product ideal of rest at degree d - d1, with d1 = 2
    only when i = 2, over the splits of c between the two.  The builders
    take the rows lazily: held as a list, they raised the peak memory of a
    containment question by a tenth.
    """
    head, rest = indices[0], indices[1:]
    if not rest:
        yield from _letter_brackets(n, head - 1, d, c)
        return
    top = d - sum(rest)
    last = min(top, 2) if head == 2 else top
    for d1 in range(head, last + 1):
        shift = n ** (d - d1)
        for c1, c2 in _splits(c, d1):
            tails = list(_span(_kind(rest), n, rest, d - d1, c2).int_rows())
            if not tails:
                continue
            for ra in _letter_brackets(n, head - 1, d1, c1):
                for rb in tails:
                    yield {
                        ka * shift + kb: va * vb
                        for ka, va in ra.items()
                        for kb, vb in rb.items()
                    }


def product_span(
    n: int, indices: Sequence[int], d: int, content: Content | None = None
) -> GradedSubspace:
    """Degree-d component of the product ideal M_{i1}···M_{ik}, or its block
    of the given letter content.

    Built as the left ideal P(d) = V·P(d-1) + product_generators(d).  Write
    P = M_i·R with R = M_{i2}···M_{ik}, a two-sided ideal of minimal degree
    |R| = i2 + ... + ik.  Then P = A·L_i·A·R = A·L_i·R.  L_i is spanned by
    brackets [ab, l] of monomials with l in L_{i-1}, and
    [ab, l]·r = a·[b, l]·r + [a, l]·(b r) with b r in R, so by induction on
    the degree of the monomial P = A·[V, L_{i-1}]·R, that is

        P(d) = V·P(d-1) + Σ_{d1=i}^{d-|R|} [V, L_{i-1}(d1-1)]·R(d-d1).

    For i = 2 only d1 = 2 is needed, because
    [x, y m]·r = [x, y]·(m r) + y·[x, m]·r with m r in R.  With one factor
    (R = A) only d1 = d is needed, by the right-ideal argument of m_span.
    Block c takes the pads x_i·P(d-1)[c - e_i] and the new rows of content c.
    """
    indices = factor_indices(indices)
    content = _check_content(n, d, content)
    if d < sum(indices):
        return _empty(n, d)
    return _span(_kind(indices), n, indices, d, content)


def _ideal_block(kind: str, n: int, index: tuple[int, ...], d: int, c: Content) -> GradedSubspace:
    """Block c of a product (kind "P") or of J (kind "M", d >= r)."""
    if kind == "P" and d < sum(index) or max(c) == d:  # words in one letter commute
        return _empty(n, d)
    rows = _m_rows(n, index, d, c) if kind == "M" else _generator_rows(n, index, d, c)
    return GradedSubspace.from_pads(n, d, _pads(kind, n, index, d, c), rows)


def _m_rows(n: int, index: tuple[int, ...], d: int, c: Content) -> Iterator[IntRow]:
    """The rows that block c of J(d) = (M_r + P)(d), index (r,) + the
    factors of P, adds to its left pads: the right pads g·y of the rows g of
    G(d-1)[c - e_y], the brackets [y, r] with the rows r of C(d-1)[c - e_y],
    and the side rows S(d)[c] of P (see m_span)."""
    if mod := index[1:]:
        yield from _span("G", n, (_kind(mod), mod), d, c).values()
    for y in range(n):
        if c[y]:
            b = _less(c, y)
            if d > index[0]:  # else G(d-1)·V lies in P(d) (see m_span)
                for row in _span("G", n, ("M", index), d - 1, b).values():
                    yield {r * n + y: v for r, v in row.items()}
            residues = _span("C", n, ("M", index), d - 1, b)
            yield from _bracket_rows(n, residues.values(), d - 1, y, 1)


def _side_rows(side: str, n: int, owner: tuple, d: int, c: Content) -> dict[int, IntRow]:
    """The side rows of block c of the degree-d piece of owner = (kind,
    index), keyed by pivot (see m_span).  G: its rows, in descending order,
    whose pivots are not those of its left pads.  C (an M owner, index
    (r,) + ...): the residues of L_{r-1}(d)[c] modulo the block."""
    kind, index = owner
    block = _span(kind, n, index, d, c)
    if side == "C":
        rows = _span("L", n, index[0] - 1, d, c).int_rows()
        rows = block.residues(rows).int_rows() if block.dim else rows
        return {max(row): row for row in rows}
    top = n ** (d - 1)
    taken = {x * top + p for x, b in _pads(kind, n, index, d, c) for p in b._echelon()}
    return {p: row for p, row in sorted(block._echelon().items(), reverse=True) if p not in taken}


# -- index tuples and ideal specifications ----------------------------------


def factor_indices(indices: Iterable[int]) -> tuple[int, ...]:
    """The factor indices of a product M_{i1}···M_{ik} as a tuple, checked."""
    t = tuple(indices)
    if not t or min(t) < 2:
        raise ValueError("factor indices must be one or more integers >= 2")
    return t


class _IdealFields(NamedTuple):
    kind: str
    n: int
    index: int
    factors: tuple[int, ...]


class IdealSpec(_IdealFields):
    """A graded ideal (or ideal quotient) of A_n named by kind and indices.

    kind "L" or "M" with index k; "N" for the layer M_k/M_{k+1}; "P" for a
    product of M-ideals with the given factor indices.  An immutable value,
    equal and hashed by its fields.
    """

    __slots__ = ()

    def __new__(cls, kind: str, n: int, index: int = 0, factors: tuple[int, ...] = ()):
        check_count(n)
        if kind in ("L", "M", "N"):
            if index < 1:
                raise ValueError("series index must be >= 1")
        elif kind == "P":
            factor_indices(factors)
        else:
            raise ValueError(f"unknown ideal kind {kind!r}")
        return super().__new__(cls, kind, n, index, factors)

    @classmethod
    def parse(cls, text: str, n: int) -> "IdealSpec":
        """Read Lk, Mk, Nk, Pi,j,... or Mi*Mj*... (any case, ASCII digits).

        Spaces may stand around the spec and around the items of a P list,
        nowhere else.
        """
        t = text.strip().upper()
        parts = t.split("*")
        try:
            if t.startswith("P"):
                kind, indices = "P", read_indices(t[1:])
            elif any(ch.isspace() for ch in t) or t[:1] not in ("L", "M", "N"):
                raise ValueError
            elif len(parts) > 1 and all(p.startswith("M") for p in parts):
                kind, indices = "P", tuple(count(p[1:]) for p in parts)
            else:
                kind, indices = t[0], (count(t[1:]),)
        except ValueError:
            raise ValueError(f"cannot parse ideal spec {text!r}") from None
        if kind == "P":
            return cls("P", n, factors=indices)
        return cls(kind, n, index=indices[0])

    def label(self) -> str:
        if self.kind == "P":
            return "*".join(f"M{i}" for i in self.factors)
        return f"{self.kind}{self.index}"


def spec_span(spec: IdealSpec, d: int, content: Content | None = None) -> GradedSubspace:
    """Degree-d piece of an L, M or P spec, or its block of the given letter
    content; an N spec names a quotient."""
    if spec.kind == "L":
        return l_span(spec.n, spec.index, d, content)
    if spec.kind == "M":
        return m_span(spec.n, spec.index, d, content)
    if spec.kind == "P":
        return product_span(spec.n, spec.factors, d, content)
    raise ValueError(f"{spec.label()} is a quotient, not a span")


def spec_contains(spec: IdealSpec, p: Poly) -> bool:
    """Membership of a homogeneous element in an L, M or P spec.  The spans
    are sums of their content blocks, so p is a member iff each part of p of
    one letter content lies in that content's block."""
    if not p.is_homogeneous():
        raise ValueError("membership is tested on homogeneous elements")
    parts: dict[Content, dict[Word, Rational]] = {}
    for w, c in p.terms.items():
        parts.setdefault(word_content(spec.n, w), {})[w] = c
    d = p.degree()
    return all(spec_span(spec, d, c).contains(Poly(spec.n, t)) for c, t in parts.items())


def spec_dim(spec: IdealSpec, d: int, mod: tuple[int, ...] = ()) -> int:
    """Degree-d dimension, summed over the sorted contents (orbit_sum), in
    A_n or, given the factor indices mod of a product ideal I (else I = 0),
    in A_n/I.  M_k counts dim J_k[c] - dim I[c] and N_k = M_k/M_{k+1}
    counts dim J_k[c] - dim J_{k+1}[c], from the blocks of the two-sided
    ideals J_k = M_k + I (see m_span): J_1 = A, and J_k(d) = I(d) for
    k > d >= 0, k >= 2.  L_k + I is no ideal, so in A_n/I an L or P block
    counts what it adds to I[c] (extension_dim)."""
    n, k = spec.n, spec.index
    if spec.kind in ("L", "P"):

        def block_dim(c: Content) -> int:
            S = spec_span(spec, d, c)
            return extension_dim(product_span(n, mod, d, c), S.int_rows()) if mod else S.dim

        return orbit_sum(n, d, block_dim)
    mod = factor_indices(mod) if mod else ()
    if k > max(d, 1):
        return 0

    def j_dim(s: int, c: Content) -> int:
        if s == 1:  # the words of content c
            return factorial(d) // prod(map(factorial, c))
        return _span("M", n, (s,) + mod, d, c).dim

    low = k + 1 if spec.kind == "N" else d + 2  # J_{d+2}(d) = I(d)
    return orbit_sum(n, d, lambda c: j_dim(k, c) - j_dim(low, c))


class DimTable:
    """Dimension table keyed by (ideal label, degree)."""

    def __init__(self, rows: dict[tuple[str, int], int] | None = None):
        self.rows = {} if rows is None else rows

    def __eq__(self, other):
        return self.rows == other.rows if isinstance(other, DimTable) else NotImplemented

    def add(self, label: str, degree: int, dim: int) -> None:
        self.rows[(label, degree)] = dim

    def get(self, label: str, degree: int) -> int:
        return self.rows[(label, degree)]

    def sorted_rows(self) -> list[tuple[str, int, int]]:
        return [
            (label, degree, dim)
            for (label, degree), dim in sorted(self.rows.items())
        ]

    def to_csv(self) -> str:
        lines = ["spec,degree,dim"]
        lines += [f"{label},{degree},{dim}" for label, degree, dim in self.sorted_rows()]
        return "\n".join(lines) + "\n"

    def to_json_obj(self) -> list[dict]:
        return [
            {"spec": label, "degree": degree, "dim": dim}
            for label, degree, dim in self.sorted_rows()
        ]


def dim_table(specs: Iterable[IdealSpec], d_max: int) -> DimTable:
    table = DimTable()
    for spec in specs:
        for d in range(d_max + 1):
            table.add(spec.label(), d, spec_dim(spec, d))
    return table


# -- spanning chains and pure-commutator machinery ------------------------


def l_span_chains(n: int, k: int, d: int) -> Iterator[tuple[Word, ...]]:
    """The defining spanning set of L_k at degree d: right-normed chains of
    monomial slots, outer slots bracketed on the left."""
    if k == 1:
        for w in all_words(n, d):
            yield (w,)
        return
    if d < k:
        return
    for e in range(1, d - k + 2):
        for m in all_words(n, e):
            for chain in l_span_chains(n, k - 1, d - e):
                yield (m,) + chain


@cache
def chain_poly(n: int, chain: Chain) -> Poly:
    """The element of a right-normed pure commutator with the given letters."""
    return nested_word_chain(n, [(l,) for l in chain])


def pure_product_poly(n: int, factors: Sequence[Chain]) -> Poly:
    """Product of right-normed pure commutators."""
    out = Poly.one(n)
    for ch in factors:
        out = out * chain_poly(n, ch)
    return out


# -- generator sets of M-ideals on two generators --------------------------


def shapes_for_index(i: int, max_parts: int | None = None) -> list[tuple[int, ...]]:
    """Length tuples (i_1..i_q), entries >= 2, with sum - q + 1 = i, and
    q <= max_parts if given."""
    if i < 2:
        raise ValueError("index must be >= 2")
    out: list[tuple[int, ...]] = []

    def build(remaining_sum: int, parts: int, prefix: tuple[int, ...]) -> None:
        if parts == 0:
            if remaining_sum == 0:
                out.append(prefix)
            return
        for v in range(2, remaining_sum - 2 * (parts - 1) + 1):
            build(remaining_sum - v, parts - 1, prefix + (v,))

    for q in range(1, i if max_parts is None else min(i, max_parts + 1)):
        build(i + q - 1, q, ())
    return sorted(out, key=lambda t: (len(t), t))


def generators_S(i: int, d_max: int) -> list[Poly]:
    """Pure-commutator products on A_2 whose shape makes them maximally
    included in M_i, instantiated with all generator choices up to d_max."""
    n = 2
    polys: list[Poly] = []
    seen: set[Poly] = set()
    # a shape with q parts has degree i + q - 1
    for shape in shapes_for_index(i, d_max - i + 1):
        per_factor = [
            [c for c in iter_product(range(1, n + 1), repeat=l)] for l in shape
        ]
        for combo in iter_product(*per_factor):
            p = pure_product_poly(n, combo)
            if not p.is_zero() and p not in seen:
                seen.add(p)
                polys.append(p)
    return polys


class SpanIdeal:
    """Graded pieces of the two-sided ideal closure of explicit homogeneous
    generators: degree d is V·span(d-1) + span(d-1)·V plus the degree-d
    generators.  two_sided=True is accepted for callers that name it; no
    other closure is built.
    """

    def __init__(self, n: int, generators: Iterable[Poly], two_sided: bool = True):
        if two_sided is not True:
            raise ValueError("SpanIdeal builds two-sided closures only")
        self.n = n
        self.by_degree: dict[int, list[Poly]] = {}
        for g in generators:
            if g.is_zero():
                continue
            if not g.is_homogeneous():
                raise ValueError("span generators must be homogeneous")
            self.by_degree.setdefault(g.degree(), []).append(g)
        self._memo: dict[int, GradedSubspace] = {}

    def span(self, d: int) -> GradedSubspace:
        got = self._memo.get(d)
        if got is not None:
            return got
        if d < 0:
            S = _empty(self.n, d)
        else:
            prev = self.span(d - 1)
            rows = [poly_to_introw(g, self.n, d) for g in self.by_degree.get(d, [])]
            rows += [
                {r * self.n + i: c for r, c in row.items()}
                for row in prev.int_rows()
                for i in range(self.n)
            ]
            S = GradedSubspace.from_pads(self.n, d, [(i, prev) for i in range(self.n)], rows)
        self._memo[d] = S
        return S
