"""Graded spanning sets for L_k, M_k, product ideals, and generator sets.

All subspaces are exact reduced bases of graded pieces.  Every row of every
span is multihomogeneous: brackets, left pads and products keep the letter
content c = (c_1, ..., c_n) of their words, so elimination never mixes
contents.  The unit of every build and of the cache is therefore the block
of one content, keyed (kind, n, index, degree, content); the degree-d span
is the union of its blocks, which have disjoint supports, so that union is
already a reduced basis of the whole degree, and its reduced echelon form
once each block is in echelon form.

Three kinds of block are written down from classes of words, in their
reduced echelon form, with no elimination (_word_class_block); w_0 below
is the least word of its class.
- L_1 = A: block c is every word of content c, so its rows are the unit
  rows of those words.
- L_2 = [A, A]: the rows w - w_0 over each rotation class of the words of
  content c.  [A, A] is spanned by the brackets [u, v] = uv - vu of words,
  and uv and vu are rotations of one word, so each bracket lies in the
  span of the differences within rotation classes.  Conversely
  a·u - u·a = [a, u] for a letter a, so w minus its rotation by one letter
  is a bracket, and any two rotations of w differ by a sum of these.
  (A/[A, A] is the span of cyclic words: Feigin–Shoikhet.)
- M_2, and J_2 = M_2 + P for every product P: the rows w - w_0 over all
  words of content c.  A/M_2 is the commutative polynomial ring
  Q[x_1, ..., x_n], since M_2 is the ideal generated by the commutators,
  and its content-c part is the one monomial x^c, the image of every word
  of content c; so block c of M_2 is the kernel of Σ a_w·w -> Σ a_w, which
  the rows w - w_0 span.  Each factor of P is an M_i with i >= 2 and lies
  in the ideal M_2, so J_2 = M_2.
Each row w - w_0 has pivot w > w_0, coefficient 1, and w_0 is no pivot, so
no row holds the pivot of another: that is the reduced echelon form.

The next layer, L_3, M_3 and J_3 = M_3 + P, is written down as kernels
of a map to differential forms (_form_block).  By Feigin–Shoikhet, A/M_3
is the algebra Ω^even of polynomial differential forms of even degree
with the product a*b = ab + da∧db, x_i -> x_i; call the quotient map φ.
Multiplied out, φ(w) is the sum over the even sets S of positions of w
that carry distinct letters of ±x^(c - e_I)·dx_I, I the letters of S and
the sign that of the permutation that sorts them in position order
(_forms).  The forms dx_I, I an even set of the s letters of c, are a
basis of block c of Ω^even: 2^(s-1) dimensions for s >= 1.
- M_3: block c is the kernel of φ on the words of content c.
- L_3 = L_2 ∩ M_3.  L_3 lies in both.  Conversely, for a = φ(u) and
  b = φ(v), φ([u, v]) = a*b - b*a = 2·da∧db, as even forms commute and
  odd ones anticommute.  φ is onto, and an exact form d(f·dx_J), J odd,
  is df∧d(x_j·dx_J') for J = {j} ∪ J', so φ(L_2) is the exact even
  forms of positive degree.  In a content c ≠ 0 the de Rham complex is
  exact (Poincaré lemma), so these are the closed ones, which
  Feigin–Shoikhet show to be as many as dim (L_2/L_3)[c].  So φ maps
  L_2[c]/L_3[c] onto a space of its own dimension, injectively, and
  block c of L_3 is the kernel of φ on the rows w - w_0 of L_2.
- J_3 = M_3 + P.  M_3 = ker φ gives J_3 = φ^-1(φ(P)).  A factor M_i,
  i >= 3, lies in M_3, so then φ(P) = 0 and J_3 = M_3.  φ(M_2) is the
  ideal Ω^{>=2} of the forms of degree >= 2: it is generated by φ(L_2),
  which lies in Ω^{>=2}, an ideal because deg a*b >= deg a + deg b; and
  for closed ω, ω' a product f*ω is fω and ω*ω' is ω∧ω', so f·dx_I,
  |I| >= 2 even, is f*(dx_i1∧dx_i2)*(dx_i3∧dx_i4)*···.  By the same two
  facts, for P = M_2^k, φ(P) = φ(M_2)^k is Ω^{>=2k}, and block c of J_3
  is the kernel of φ cut to the forms of degree below 2k.  When 2k > n
  no such form is left, and _span routes J_3 to M_3, as for a factor >= 3.
The pigeonhole bound follows: on A_n, n >= 2k, the product
[x_1, x_2]···[x_{2k-1}, x_{2k}] of M_2^k maps to 2^k·dx_1∧···∧dx_{2k} ≠ 0,
so (2, ..., 2) (k entries) has containment index exactly 2, the floor
max t; for n < 2k, M_2^k ⊆ M_3 at every degree.  The kernel is read off
the candidate rows (the words of c, or the rows of L_2) in ascending pivot
order (_kernel_rows): a row whose image depends on those of the rows
before it gives itself minus the combination of the earlier independent
rows with the same image.  Its pivot is its largest word, and the
independent rows hold no other such pivot, so that is again the reduced
echelon form, found with no elimination in word space.

A written-down block is built whole, with all its rows, and cached only
then.  A dimension needs no rows, so spec_dim counts a written-down block
that is not cached without building it (_block_dim): L_1 has one row per
word of c, J_2 one fewer, and L_3 and J_3 have their candidate rows (the
words of c, or the rows of L_2) less the rank of their images, found by
the rank pass of _kernel_rows (_rank_pass), which makes a form only for
each word it reads and stops at full rank.  A build reads the forms of
its content to the end and keeps them for the next block of that
content; a count keeps none.  So spec_dim of M_k or N_k builds no
written-down block of the degree asked: only a built block (J_4 for N_3,
the product I in A_n/I) reads the rows of those of lower degrees.

Block c of L_k(d), k >= 4, is spanned by brackets [m, l] of one word m per
necklace with l in block c - content(m) of L_{k-1}: the rows [V, L_{k-1}]
that M_k adds for one-letter m, and for longer m the powers of Lyndon
words (lyndon.lyndon_words), which are the necklaces.  M_k = A·L_k·A is the
one-factor product ideal.  Every product P = M_{i1}···M_{ik}, and every sum
J = M_r + P, r >= 4 (kind "M"; plain M_r is P = 0), is built as a left
ideal, P(d) = V·P(d-1) + new rows, V the span of the generators: block c
takes the left pads x_i·P(d-1)[c - e_i] and the new rows of content c,
merged by GradedSubspace.from_pads.  For a product of two or more factors
they are [V, L_{i1-1}]·R with R the product of the other factors (see
product_span); for J they are the right pads G·V, the brackets [V, C] and
the side rows of P (see m_span), which never need L_r at its own degree.
A request for one block builds only the cone of blocks below its content
(below sorted(c) for a relabelled block; see _span).
Containment, witness and membership questions are asked of blocks alone; a
whole-degree union is built only for a caller that names no content.

Permuting the generators maps L_k, M_k and every product onto themselves
and block c onto block σ(c).  Each S_n orbit of contents holds exactly one
sorted content c_1 >= ... >= c_n, so dimensions, in A_n or in its quotient
by a product ideal, are sums over sorted contents (spec_dim, orbit_sum),
and only sorted blocks are built from candidate rows: every other block,
but those written down, is the relabelled image of its orbit's sorted
block.
Every linear substitution of the generators maps these spans onto
themselves too, so they are GL_n-modules whose weight spaces are the
blocks, and a containment is decided on the one balanced block of each
degree (balanced_content; the proof is in containment.containment_index).
Dimensions still need every sorted block: dim U[c] = Σ_λ m_λ K_{λc} over
the irreducibles V_λ of U is triangular in the Kostka matrix, not
diagonal, so no single block gives it.  A relabelled block is a reduced
basis out of echelon order, and a block built by from_pads holds its pads
and its side rows in two tiers; membership, dimension and containment use
either as it is, and it is put in echelon order once, when its rows are
read in order: as left pads (from_pads copies those without elimination),
as bracket or product rows, as the rows to relabel, in a whole-degree
union, or by a caller of int_rows; a written-down block is found in order.
The span cache holds blocks of kind L, M and P, and the residues C (see
m_span) of sorted contents only; the side tier G of a block is its _side.
The G and C rows of an unsorted content are relabelled where read.

Span closures of explicit generators, which need not be multihomogeneous,
grow by left and right padding plus new rows over whole degrees
(SpanIdeal).  The test suite cross-checks every span against brute-force
oracles and the blocks against whole-degree reference builds.
"""

from __future__ import annotations

import threading
from functools import cache
from itertools import chain
from itertools import product as iter_product
from math import factorial, gcd, prod
from operator import add, itemgetter, mul, sub
from typing import Callable, Iterable, Iterator, NamedTuple, Sequence

from .exprs import count, read_indices
from .freealg import Poly, Rational, Word, all_words, check_count, nested_word_chain
from .linalg import GradedSubspace, IntRow, _strip, extension_dim, poly_to_introw, word_rank
from .lyndon import lyndon_words

# Right-normed pure commutator, given by its letters; length 1 = generator.
Chain = tuple[int, ...]
# Letter content (c_1, ..., c_n) of a word: how often each generator occurs.
Content = tuple[int, ...]

_lock = threading.RLock()
_span_cache: dict[tuple, GradedSubspace | dict[int, IntRow]] = {}
# The dimensions of the written-down blocks that _block_dim counted.
_dim_cache: dict[tuple, int] = {}


def clear_caches() -> None:
    with _lock:
        _span_cache.clear()
        _dim_cache.clear()
        _rank_tables.cache_clear()
        _content_words.cache_clear()
        _form_tables.clear()
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


def word_count(c: Content) -> int:
    """The number of words of content c, the dimension of its block."""
    return factorial(sum(c)) // prod(map(factorial, c))


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
    the union of the degree's blocks, which shares their rows.  Kind "C",
    for a sorted c only, gives the residues C of the M block (_residues).

    The blocks of L_1, L_2, L_3, J_2 and J_3 are written down for every
    content (_word_class_block, _form_block).  Of the others, only a sorted
    content (c_1 >= ... >= c_n) is built from candidate rows; any other
    block is the relabelled image of block sorted(c), the one sorted
    content of its S_n orbit (see _relabel), and its G and C rows are
    relabelled where read (_side_rows).  Kinds M and P take indices >= 2
    only (ValueError): J_1 = A is no ideal these recursions build."""
    key = _route(kind, n, index, d, c)
    if key is None:
        return _empty(n, d)
    kind, n, index, d, c = key
    got = _span_cache.get(key)
    if got is not None:
        return got
    with _lock:
        got = _span_cache.get(key)
        if got is None:
            if kind == "P" and min(index) < 2:
                raise ValueError(f"a product takes factor indices >= 2, not {index}")
            if c is None:
                blocks = [_span(kind, n, index, d, b) for b in contents(n, d)]
                got = GradedSubspace.direct_sum(n, d, blocks)
            elif kind == "L" and index <= 2 or kind == "M" and index[0] == 2:
                got = _word_class_block(kind, n, index, d, c)
            elif kind == "L" and index == 3 or kind == "M" and index[0] == 3:
                got = _form_block(kind, n, index, d, c)
            elif (top := tuple(sorted(c, reverse=True))) != c:
                rows = _relabel(n, d, _span(kind, n, index, d, top).int_rows(), c)
                got = GradedSubspace.from_reduced(n, d, rows)
            elif kind == "L":
                got = _l_block(n, index, d, c)
            elif kind == "C":
                got = _residues(n, index, d, c)
            else:
                got = _ideal_block(kind, n, index, d, c)
            _span_cache[key] = got
        return got


def _route(kind: str, n: int, index, d: int, c: Content | None) -> tuple | None:
    """The cache key of the block that _span gives: J = M_r + P (kind "M")
    is routed to the block that it equals, and None stands for J_r = 0
    below degree r with P = 0.  Kind M takes indices >= 2 only."""
    if kind == "M":
        if min(index) < 2:
            raise ValueError(f"J takes indices >= 2, not {index}")
        if len(index) == 2:
            # L_{k+1} ⊆ L_k gives M_{k+1} ⊆ M_k, so M_r + M_s = M_min(r, s)
            index = (min(index),)
        elif index[0] == 3 and len(index) > 2 and (max(index[1:]) > 2 or 2 * len(index) - 2 > n):
            index = (3,)  # P ⊆ M_3, so J_3 = M_3 (see the module docstring)
        if d < index[0]:  # J_r = P below degree r
            return ("P", n, index[1:], d, c) if index[1:] else None
    return kind, n, index, d, c


def _block_dim(kind: str, n: int, index, d: int, c: Content) -> int:
    """The dimension of _span(kind, n, index, d, c), counted without the
    block where it is written down and not yet cached: L_1 has one row per
    word of c, J_2 one fewer, and L_3 and J_3 the candidate rows less their
    rank (_rank_pass, which stops at full rank).  Counts are kept in
    _dim_cache; every other block is built."""
    key = _route(kind, n, index, d, c)
    if key is None:
        return 0
    got = _span_cache.get(key)
    if got is not None:
        return got.dim
    got = _dim_cache.get(key)
    if got is None:
        kind, _, index, _, _ = key
        if kind == "L" and index == 1:
            got = word_count(c)
        elif kind == "M" and index[0] == 2:
            got = word_count(c) - 1
        elif kind == "L" and index == 3 or kind == "M" and index[0] == 3:
            with _lock:
                total, pairs = _form_pairs(kind, n, index, d, c)
                got = total - len(_rank_pass(pairs).free)
        else:
            return _span(*key).dim
        _dim_cache[key] = got
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


def _word_class_block(kind: str, n: int, index, d: int, c: Content) -> GradedSubspace:
    """Block c of L_1, of L_2 or of J_2 = M_2 + P (kind "M", index (2,) +
    the factors of P), in reduced echelon form from the words of content c
    (see the module docstring)."""
    words = _content_words(c)
    if kind == "L" and index == 1:
        return GradedSubspace.from_reduced(n, d, {w: {w: 1} for w in words})
    if max(c) == d:  # words in one letter commute
        return _empty(n, d)
    if kind == "M":
        least = words[0]
        return GradedSubspace.from_reduced(n, d, {w: {w: 1, least: -1} for w in words[1:]})
    top = n ** (d - 1)
    rows: dict[int, IntRow] = {}
    for w in words:
        if w not in rows:  # w is least in its rotation class
            turned = w
            for _ in range(d - 1):
                turned = turned % top * n + turned // top
                if turned != w:
                    rows[turned] = {turned: 1, w: -1}
    return GradedSubspace.from_reduced(n, d, rows)


@cache
def _content_words(c: Content) -> tuple[int, ...]:
    """The ranks of the words of content c, ascending: x·n^(d-1) + r over the
    letters x of c in order and the ranks r of content c - e_x."""
    d = sum(c)
    if not d:
        return (0,)
    top = len(c) ** (d - 1)
    return tuple(x * top + r for x in range(len(c)) if c[x] for r in _content_words(_less(c, x)))


def _form_block(kind: str, n: int, index, d: int, c: Content) -> GradedSubspace:
    """Block c of L_3, or of J_3 = M_3 + P (kind "M", index (3,) + the k
    factors of P, each 2): the kernel of φ on block c of L_2, or on block c
    of A cut to the forms of degree below 2k (see the module docstring), in
    reduced echelon form (_kernel_rows)."""
    rows = _kernel_rows(_rank_pass(_form_pairs(kind, n, index, d, c)[1]))
    return GradedSubspace.from_reduced(n, d, rows) if rows else _empty(n, d)


def _form_pairs(
    kind: str, n: int, index, d: int, c: Content
) -> tuple[int, Iterator[tuple[IntRow, tuple[int, ...]]]]:
    """The number of candidate rows of block c of L_3 or J_3 (_form_block),
    and the pairs (row, image) of those rows with their forms, made as they
    are read (_forms): the words of c, or the rows of L_2."""
    if max(c) == d:  # words in one letter commute
        return 0, iter(())
    below = 2 * len(index) - 2 if kind == "M" and len(index) > 1 else d + 1
    support = tuple(filter(None, c))
    sets = range(1 << len(support))
    even = itemgetter(*[T for T in sets if T.bit_count() % 2 == 0 and T.bit_count() < below])
    # the forms are read first, so that a pass that reads on to the last
    # word also runs _forms to its end, which keeps their table
    images = zip(map(even, _forms(support)), _content_words(c))
    if kind == "M":
        return word_count(c), (({w: 1}, image) for image, w in images)
    l2 = _span("L", n, 2, d, c)
    return l2.dim, _l2_pairs(l2._echelon(), images)


def _l2_pairs(
    rows: dict[int, IntRow], images: Iterable[tuple[tuple[int, ...], int]]
) -> Iterator[tuple[IntRow, tuple[int, ...]]]:
    """The rows w - w_0 of a block of L_2, ascending, each with its image
    φ(w) - φ(w_0), which is 0 at T = {} and so dropped there, from the
    images of the words of the block with their words, ascending."""
    before: dict[int, tuple[int, ...]] = {}
    for image, w in images:
        before[w] = image
        if w in rows:
            row = rows[w]
            yield row, tuple(map(sub, image, before[min(row)]))[1:]


def _forms(c: Content) -> Iterator[tuple[int, ...]]:
    """The forms ψ(w) of the words w of a content c with no zero entry, in
    ascending order of the words: read from their table (_form_tables) if
    it is kept, else made as they are read from the tables of the contents
    one letter down, and the table kept once the last is read.  Entry T of
    ψ(w), T a set of letters given as a bit mask over their places in c, is
    the signed count of the sets S of positions of w that carry the letters
    of T, each once; the sign is that of the permutation that sorts the
    letters of S read in position order.  A set S of x·u either lies in u,
    or takes the first position and a set of u without x, which puts x
    before the letters of T - {x} and costs a sign for each of them below x
    (_prepend).  φ(w) is the part of ψ(w) on the even T.  A content with
    zero entries has the forms of its nonzero part, which _form_block
    reads: they depend only on the order of the letters, so a form costs
    the same in every A_n."""
    table = _form_tables.get(c)
    if table is not None:
        yield from table
        return
    if not c:
        _form_tables[c] = ((1,),)
        yield (1,)
        return
    made: list[tuple[int, ...]] = []
    for p, a in enumerate(c):
        signs, take = _prepend(len(c), p, a > 1)
        if a > 1:
            for v in _form_table(c[:p] + (a - 1,) + c[p + 1 :]):
                made.append(form := tuple(map(add, v, map(mul, signs, take(v)))))
                yield form
        else:
            for v in _form_table(c[:p] + c[p + 1 :]):
                made.append(form := tuple(map(mul, signs, take(v))))
                yield form
    _form_tables[c] = tuple(made)


# The forms of the contents whose forms were all read (_forms); a table is
# kept whole or not at all, so a reader never sees part of one.
_form_tables: dict[Content, tuple[tuple[int, ...], ...]] = {}


def _form_table(c: Content) -> tuple[tuple[int, ...], ...]:
    """The forms of the words of content c, ascending (_forms)."""
    return _form_tables.get(c) or tuple(_forms(c))


@cache
def _prepend(s: int, p: int, stays: bool) -> tuple[list[int], Callable]:
    """The tables that give ψ(x·u) from v = ψ(u), x the letter at place p of
    the s in the support of c: the sign of T ∋ x, and a map picking v at
    T - {x}.  If x stays in the support of u, ψ(x·u)[T] = v[T] +
    sign·v[T - {x}], T ∋ x (signs 0 elsewhere); if it leaves, the places
    of u above p are one lower, and ψ(x·u)[T] = sign·v[T - {x}] (signs 1
    for T ∌ x)."""
    bit, low = 1 << p, (1 << p) - 1
    Ts = range(1 << s)
    signs = [(-1) ** (T & low).bit_count() if T & bit else int(not stays) for T in Ts]
    at = [T ^ bit if stays else T & low | T >> 1 & ~low for T in Ts]
    return signs, itemgetter(*at)


class _Rank(NamedTuple):
    """The state of a rank pass: the fraction-free echelon of the images of
    free, the rows read that were independent, rest, those that were not,
    in the order read, and later, the pairs it left unread."""

    echelon: list[tuple[int, list[int]]]
    free: list[tuple[IntRow, tuple[int, ...]]]
    rest: list[tuple[IntRow, tuple[int, ...]]]
    later: Iterator[tuple[IntRow, tuple[int, ...]]]


def _rank_pass(pairs: Iterator[tuple[IntRow, tuple[int, ...]]]) -> _Rank:
    """The rank pass of _kernel_rows over pairs (row, image), given in
    ascending pivot order with images of one width: free takes each row
    whose image is independent of those before it, found by a fraction-free
    echelon of the images.  It stops at full rank, where every later row is
    dependent, and leaves them unread, so the kernel has one dimension for
    each row of pairs but those of free."""
    echelon: list[tuple[int, list[int]]] = []
    free: list[tuple[IntRow, tuple[int, ...]]] = []
    rest: list[tuple[IntRow, tuple[int, ...]]] = []
    seen: set[tuple[int, ...]] = set()
    for row, image in pairs:
        if image not in seen:
            seen.add(image)
            left = list(image)
            for q, e in echelon:
                if b := left[q]:
                    left = [e[q] * x - b * y for x, y in zip(left, e)]
            if any(left):
                echelon.append((next(q for q, x in enumerate(left) if x), left))
                free.append((row, image))
                if len(echelon) == len(image):
                    break
                continue
        rest.append((row, image))
    return _Rank(echelon, free, rest, pairs)


def _kernel_rows(state: _Rank) -> dict[int, IntRow]:
    """The kernel of row -> image on the span of the rows of a rank pass
    (_rank_pass), keyed by pivot: for each row of rest and of later, read
    on from where the pass stopped, that row minus the combination of the
    rows of free before it with the same image.  Each is in the kernel,
    its pivot is its largest word, and it holds no other such pivot, so
    the rows are reduced; there is one for each dimension of the kernel.

    The images of free are independent, so the combination of free with
    the image of a later row is unique, and takes no row of free after it.
    Fraction-free Gauss–Jordan on the images of free, each with the unit
    vector of its slot appended, then gives basis[j]: lead times the j-th
    reduced echelon image, lead at its pivot column qs[j] and 0 at the
    other columns qs, with the combination of free that gives it.  lead is
    the determinant of the images of free at the columns qs, so by
    Cramer's rule every entry is an integer and each division by the old
    lead is exact.  A row with image t takes lead times itself minus
    Σ_j t[qs[j]]·(the combination of basis[j]), a sum over the words of
    free that depends on t alone (tails, kept divided by its content
    together with lead)."""
    echelon, free, rest, later = state
    width, rank = (len(free[0][1]) if free else 0), len(free)
    lead, basis = 1, []
    for j, (_, image) in enumerate(free):
        left = [lead * v for v in image] + [0] * rank
        left[width + j] = lead
        for (q, _), aug in zip(echelon, basis):
            if a := image[q]:
                left = [x - a * y for x, y in zip(left, aug)]
        q = echelon[j][0]
        e = left[q]
        basis = [[(e * x - aug[q] * y) // lead for x, y in zip(aug, left)] for aug in basis]
        basis.append(left)
        lead = e
    slots: dict[int, list[int]] = {}
    for j, (row, _) in enumerate(free):
        for u, v in row.items():
            slots.setdefault(u, [0] * rank)[j] = v
    words = [(u, [sum(map(mul, vs, aug[width:])) for aug in basis]) for u, vs in slots.items()]
    qs = [q for q, _ in echelon]
    out: dict[int, IntRow] = {}
    tails: dict[tuple[int, ...], tuple[int, IntRow]] = {}
    for row, image in chain(rest, later):
        got = tails.get(image)
        if got is None:
            t = [image[q] for q in qs]
            tail = {u: -a for u, col in words if (a := sum(map(mul, col, t)))}
            g = gcd(lead, *tail.values()) if lead > 0 else -gcd(lead, *tail.values())
            got = tails[image] = lead // g, {u: a // g for u, a in tail.items()}
        scale, tail = got
        vec = dict(tail)
        for u, v in row.items():
            vec[u] = vec.get(u, 0) + scale * v
        if not tail.keys().isdisjoint(row):
            vec = _strip({u: v for u, v in vec.items() if v})
        out[max(row)] = vec
    return out


def _l_block(n: int, k: int, d: int, c: Content) -> GradedSubspace:
    if d < k or max(c) == d:  # words in one letter commute
        return _empty(n, d)
    return GradedSubspace.from_rows(n, d, _l_candidates(n, k, d, c))


def _l_candidates(n: int, k: int, d: int, c: Content) -> Iterator[IntRow]:
    """Rows spanning block c of L_k(d): [m, l] with l in L_{k-1}(d-e) of
    content c - content(m), m one degree-e word per necklace.  For words
    a, b ≠ 1, Jacobi gives [ab, l] - [ba, l] = [a, [b, l]] - [b, [a, l]]
    with [a, l], [b, l] in L_k ⊆ L_{k-1}: rotating m changes [m, l] only by
    brackets with shorter slots, so by induction on e one rotation per class
    spans.

    The slot e = 1 gives the rows [V, L_{k-1}(d-1)] of _letter_brackets,
    the new rows of M_k at d = k; the longer slots take the necklaces of
    _necklace_classes."""
    yield from _letter_brackets(n, k - 1, d, c)
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
    the side tier of J(d-1) (GradedSubspace.from_pads): the residues of
    its offered rows modulo its left pads, reduced, which are also its
    ordered rows whose pivots are not those of the pads.  So
    J(d-1) = V·J(d-2) + span G(d-1).  Let C(d-1) be the residues of
    L_{k-1}(d-1) modulo J(d-1), and S(d) those rows of P(d).  Then
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
    so G, C and S relabel with their blocks.  The blocks of J_2 = M_2 and
    of J_3 are written down instead (see the module docstring).
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
    """Block c of a product (kind "P") or of J (kind "M", d >= r >= 4)."""
    if kind == "P" and d < sum(index) or max(c) == d:  # words in one letter commute
        return _empty(n, d)
    rows = _m_rows(n, index, d, c) if kind == "M" else _generator_rows(n, index, d, c)
    return GradedSubspace.from_pads(n, d, _pads(kind, n, index, d, c), rows)


def _m_rows(n: int, index: tuple[int, ...], d: int, c: Content) -> Iterator[IntRow]:
    """The rows that block c of J(d) = (M_r + P)(d), index (r,) + the
    factors of P, adds to its left pads: the right pads g·y of the rows g of
    G(d-1)[c - e_y], the brackets [y, r] with the rows r of C(d-1)[c - e_y],
    and the side rows S(d)[c] of P (see m_span), for a sorted c.  A mod of
    one factor never comes here: _span routes M_r + M_s to M_min(r, s)."""
    if mod := index[1:]:
        yield from _span("P", n, mod, d, c)._side.values()
    for y in range(n):
        if c[y]:
            b = _less(c, y)
            if d > index[0]:  # else G(d-1)·V lies in P(d) (see m_span)
                for row in _side_rows("G", n, index, d - 1, b):
                    yield {r * n + y: v for r, v in row.items()}
            yield from _bracket_rows(n, _side_rows("C", n, index, d - 1, b), d - 1, y, 1)


def _side_rows(side: str, n: int, index: tuple[int, ...], d: int, c: Content) -> Iterable[IntRow]:
    """The side rows of block c of J(d), index (r,) + the factors of P (see
    m_span): G, its side tier (GradedSubspace.from_pads), the rows beside
    its left pads in descending pivot order, or C, the residues of
    L_{r-1}(d)[c] modulo it (_residues).  Both are read off sorted(c), and
    relabelled onto c if c is not sorted."""
    top = tuple(sorted(c, reverse=True))
    rows = _span("C", n, index, d, top) if side == "C" else _span("M", n, index, d, top)._side
    return rows.values() if top == c else _relabel(n, d, rows.values(), c).values()


def _residues(n: int, index: tuple[int, ...], d: int, c: Content) -> dict[int, IntRow]:
    """C: the residues of L_{r-1}(d)[c] modulo block c of J(d), index (r,)
    + the factors of P, keyed by pivot in descending order."""
    block = _span("M", n, index, d, c)
    rows = _span("L", n, index[0] - 1, d, c).int_rows()
    rows = block.residues(rows).int_rows() if block.dim else rows
    return {max(row): row for row in rows}


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
    counts what it adds to I[c] (extension_dim).  Every other block is
    counted by _block_dim, which builds no written-down block."""
    n, k = spec.n, spec.index
    if spec.kind in ("L", "P"):
        kind, index = ("L", k) if spec.kind == "L" else (_kind(spec.factors), spec.factors)

        def block_dim(c: Content) -> int:
            if not mod:
                return _block_dim(kind, n, index, d, c)
            return extension_dim(product_span(n, mod, d, c), spec_span(spec, d, c).int_rows())

        return orbit_sum(n, d, block_dim)
    mod = factor_indices(mod) if mod else ()
    if k > max(d, 1):
        return 0

    def j_dim(s: int, c: Content) -> int:
        return _block_dim("L", n, 1, d, c) if s == 1 else _block_dim("M", n, (s,) + mod, d, c)

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
