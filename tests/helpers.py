"""Shared brute-force oracles and generators for the test suite.

Everything here is deliberately independent of the optimized span
construction in the package: spans are generated from the defining
spanning sets (all monomial brackets, all two-sided monomial paddings),
counts come from first principles (rotation tests, necklace classes,
commutative monomials).  The exceptions are the references for the fast
paths, each built from the package's own spans one step down:
padded_m_span closes l_span under two-sided one-letter padding,
composed_product_span multiplies m_span bases, full_slot_l_candidates
brackets every monomial (not one per necklace) with l_span, and
whole_l_span, whole_m_span and whole_product_span build each degree in one
piece, the reference for the letter-content blocks of series, which
ascending_per_degree uses to test M_s for ascending s.  sorted_per_degree
walks up or down, without the lemma that lets containment_index walk only
down, and tests every sorted content, the reference for its one balanced
block per degree.  search_witness rescans the balanced blocks for a row
outside M_{index+1}, the reference for the row the walk of
containment_index keeps.  ref_add, ref_mul, ref_scale and
ref_bracket redo the arithmetic of Poly on plain word -> Fraction dicts,
the reference for its int-first kernel and its one-pass bracket.
ref_parse_expr is the character-at-a-time parser that builds a Poly per
factor, the reference for the tokenising parser of exprs.  RefSubspace is
the echelon before every basis was kept reduced (a while-max reduction loop
and a back-eliminating freeze), the reference for the reduced insert_row of
linalg; _left_ideal_step is the pad merge of series on it, the reference for
GradedSubspace.from_pads, and reference_block rebuilds any cached block of
series on the two, from the block's own candidate rows, the reference for the
blocks that series relabels; ref_j_block echelonizes the rows of M_r and of a
product ideal P, the reference for the blocks of J = M_r + P.  even_forms_dim
and closed_even_forms_dim are the Feigin–Shoikhet theorems
dim (A/M_3)[c] = 2^(s-1) and
dim (L_2/L_3)[c] = 2^(s-2), s the number of letters in c: closed forms that
share no code with series and reach past the brute-force oracles, and
gl_multiplicities solves the block dimensions for the multiplicities of the
irreducible GL_n-modules with a Kostka counter (kostka), which must be
counts and independent of n.  The builders that a shared builder of the
package replaced are kept as its references: adjoint_power for the
ad-strings of containment, the rotation scan _necklaces and
ref_necklace_classes for the Lyndon necklaces of series, ref_l_candidates
for the L_k candidate rows, and ref_quotient_dim, the orbit loop and N
recursion of quotients, for series.spec_dim in a quotient, and
ref_straighten_word, the last-in-first-out worklist of lyndon, for its
largest-first straightening loop, and ref_swap_pair, which multiplies out
[b_u, b_v] and peels it (lyndon_coefficients), for the one word vu that
the loop merges a first descent u > v into.  left_ideal_span closes
generators under left multiplication only.
"""

from fractions import Fraction
from functools import cache
from itertools import product as iproduct
from math import comb, factorial, gcd, prod
from operator import sub
from random import Random
from typing import Iterable

from lcsideals.containment import bound_report
from lcsideals.exprs import DIGITS, ExprSyntaxError
from lcsideals.freealg import Poly, Word, all_words, bracket, nested, nested_word_chain
from lcsideals.linalg import (
    GradedSubspace,
    IntRow,
    _strip,
    extension_dim,
    introw_to_poly,
    poly_to_introw,
    rank_word,
)
from lcsideals.lyndon import PbwMonomial, _bracketing_cached
from lcsideals.quotients import SERIES_KINDS, QuotientSpec
from lcsideals.series import (
    Content,
    _bracket_rows,
    _generator_rows,
    _l_candidates,
    _pads,
    _span,
    balanced_content,
    l_span,
    m_span,
    orbit_sum,
    product_span,
    sorted_contents,
    word_content,
)


# -- the builders that one shared builder of the package replaced ----------------


def adjoint_power(a: Poly, k: int, b: Poly) -> Poly:
    """k-fold bracket of a against b: [a,[a,...,[a,b]...]]."""
    out = b
    for _ in range(k):
        out = bracket(a, out)
    return out


@cache
def _necklaces(n: int, e: int) -> tuple[int, ...]:
    """Ranks of the degree-e words that are least among their rotations."""
    words = enumerate(iproduct(range(n), repeat=e))
    return tuple(r for r, w in words if all(w <= w[i:] + w[:i] for i in range(e)))


@cache
def ref_necklace_classes(n: int, e: int) -> dict[Content, tuple[int, ...]]:
    """_necklaces(n, e) grouped by content."""
    out: dict[Content, list[int]] = {}
    for r in _necklaces(n, e):
        out.setdefault(word_content(n, rank_word(r, n, e)), []).append(r)
    return {c: tuple(ranks) for c, ranks in out.items()}


def ref_l_candidates(n: int, k: int, d: int, c: Content):
    """Rows spanning block c of L_k(d): [m, l] with l in L_{k-1}(d-e) of
    content c - content(m), m one degree-e word per necklace, every slot
    length read off the rotation scan ref_necklace_classes."""
    for e in range(1, 2 if k == 2 else d - k + 2):
        for cm, ranks in ref_necklace_classes(n, e).items():
            rest = tuple(map(sub, c, cm))
            if min(rest) < 0:
                continue
            block = _span("L", n, k - 1, d - e, rest)
            if block.dim:
                for rm in ranks:
                    yield from _bracket_rows(n, block.int_rows(), d - e, rm, e)


def ref_quotient_dim(spec: QuotientSpec, kind: str, r: int, d: int) -> int:
    """dim of the degree-d piece of L_r, M_r, N_r = M_r/M_{r+1} or
    B_r = L_r/L_{r+1} computed inside the quotient, block by block over the
    sorted letter contents (series.orbit_sum): the product ideal and the
    series are both stable under permutations of the generators."""
    if kind not in SERIES_KINDS:
        raise ValueError(f"series kind must be one of {SERIES_KINDS}")
    if r < 1:
        raise ValueError("series index must be >= 1")
    if kind == "N":
        return ref_quotient_dim(spec, "M", r, d) - ref_quotient_dim(spec, "M", r + 1, d)
    if kind == "B":
        return ref_quotient_dim(spec, "L", r, d) - ref_quotient_dim(spec, "L", r + 1, d)
    n, series_span = spec.n, l_span if kind == "L" else m_span

    def block_dim(c: Content) -> int:
        ideal = product_span(n, (spec.i, spec.j), d, c)
        return extension_dim(ideal, series_span(n, r, d, c).int_rows())

    return orbit_sum(n, d, block_dim)


def left_ideal_span(n: int, generators: Iterable[Poly], d: int) -> GradedSubspace:
    """Degree-d piece of the left ideal A·span(generators) of homogeneous
    generators: V·(degree e-1) plus the degree-e generators, degree by
    degree, merged by GradedSubspace.from_pads."""
    gens = list(generators)
    S = _empty(n, -1)
    for e in range(d + 1):
        rows = [poly_to_introw(g, n, e) for g in gens if g.degree() == e]
        S = GradedSubspace.from_pads(n, e, [(i, S) for i in range(n)], rows)
    return S


# -- first principles --------------------------------------------------------------


def spanning_chains(n: int, k: int, d: int):
    """Right-normed chains of k monomial slots with degrees summing to d,
    generated here from first principles (independent of the package)."""
    if k == 1:
        for w in iproduct(range(1, n + 1), repeat=d):
            yield (w,)
        return
    for e in range(1, d - k + 2):
        for m in iproduct(range(1, n + 1), repeat=e):
            for chain in spanning_chains(n, k - 1, d - e):
                yield (m,) + chain


# -- reference of the PBW straightening loop ------------------------------------


def ref_is_lyndon(w: Word) -> bool:
    """The rotation test: w is nonempty and strictly smaller than every
    proper cyclic rotation."""
    if not w:
        return False
    d = len(w)
    return all(w < w[i:] + w[:i] for i in range(1, d))


def lyndon_coefficients(n: int, p: Poly) -> dict[Word, Fraction | int]:
    """Coefficients of the Lie element p in the standard-bracketing basis.

    Peels off the smallest word w left: it must be Lyndon, and as b_w is w
    plus larger words, its coefficient c is the coefficient of b_w.
    """
    rest = dict(p.terms)
    out: dict[Word, Fraction | int] = {}
    while rest:
        w = min(rest)
        if not ref_is_lyndon(w):
            raise ValueError("element is not in the free Lie algebra component")
        c = out[w] = rest[w]
        for v, b in _bracketing_cached(n, w).terms.items():
            s = rest.get(v, 0) - c * b
            if s:
                rest[v] = s
            else:
                rest.pop(v, None)
    return out


@cache
def ref_swap_pair(n: int, u: Word, v: Word) -> dict[Word, int]:
    """Lyndon-basis coefficients of [b_u, b_v]: the bracket of the two
    standard bracketings multiplied out and peeled."""
    return lyndon_coefficients(n, bracket(_bracketing_cached(n, u), _bracketing_cached(n, v)))


def ref_straighten_word(n: int, word: Word) -> dict[PbwMonomial, int]:
    """The last-in-first-out worklist: a factor sequence reached along several
    rewrite paths is rewritten once per path."""
    done: dict[PbwMonomial, int] = {}
    # Each letter is a Lyndon word, so a word is a factor sequence already.
    work: dict[PbwMonomial, int] = {tuple((l,) for l in word): 1}
    while work:
        seq, coeff = work.popitem()
        bad = next(
            (i for i in range(len(seq) - 1) if seq[i] > seq[i + 1]),
            None,
        )
        if bad is None:
            s = done.get(seq, 0) + coeff
            if s:
                done[seq] = s
            else:
                done.pop(seq, None)
            continue
        u, v = seq[bad], seq[bad + 1]
        swapped = seq[:bad] + (v, u) + seq[bad + 2 :]
        s = work.get(swapped, 0) + coeff
        if s:
            work[swapped] = s
        else:
            work.pop(swapped, None)
        for w, c in ref_swap_pair(n, u, v).items():
            merged = seq[:bad] + (w,) + seq[bad + 2 :]
            s = work.get(merged, 0) + coeff * c
            if s:
                work[merged] = s
            else:
                work.pop(merged, None)
    return done


# -- Fraction-only reference of the Poly kernel ---------------------------------


def ref_terms(p: Poly) -> dict:
    """The terms of p as a word -> Fraction dict."""
    return {w: Fraction(c) for w, c in p.terms.items()}


def _nonzero(terms: dict) -> dict:
    return {w: c for w, c in terms.items() if c}


def ref_add(a: dict, b: dict, sign: int = 1) -> dict:
    """a + sign*b."""
    out = dict(a)
    for w, c in b.items():
        out[w] = out.get(w, Fraction(0)) + Fraction(sign) * c
    return _nonzero(out)


def ref_mul(a: dict, b: dict) -> dict:
    out: dict = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            out[w1 + w2] = out.get(w1 + w2, Fraction(0)) + c1 * c2
    return _nonzero(out)


def ref_scale(a: dict, c) -> dict:
    return _nonzero({w: Fraction(c) * v for w, v in a.items()})


def ref_bracket(a: dict, b: dict) -> dict:
    return ref_add(ref_mul(a, b), ref_mul(b, a), -1)


# -- reference of the expression parser -----------------------------------------


class _RefParser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> Poly:
        out = self.parse_expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError("trailing input", self.pos)
        return out

    def parse_expr(self) -> Poly:
        negate = False
        if self._peek() == "-":
            self.pos += 1
            negate = True
        elif self._peek() == "+":
            self.pos += 1
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                acc = acc * self.parse_factor()
            elif ch in DIGITS or ch in ("x", "(", "["):
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> Poly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            self._expect(")")
            return inner
        if ch == "[":
            self.pos += 1
            args = [self.parse_expr()]
            while self._peek() == ",":
                self.pos += 1
                args.append(self.parse_expr())
            self._expect("]")
            return nested(args)
        if ch == "x":
            start = self.pos
            self.pos += 1
            d = self.text[self.pos : self.pos + 1]
            if d not in DIGITS or d == "0":
                raise ExprSyntaxError("expected generator index 1..9 after 'x'", self.pos)
            self.pos += 1
            if self.text[self.pos : self.pos + 1] in DIGITS:
                raise ExprSyntaxError("generator index must be one digit 1..9", self.pos)
            idx = int(d)
            if idx > self.n:
                raise ExprSyntaxError(
                    f"generator x{idx} exceeds configured n={self.n}", start
                )
            return Poly.gen(self.n, idx)
        if ch in DIGITS:
            num = self._read_digits()
            if self._peek() == "/":
                self.pos += 1
                if self._peek() not in DIGITS:
                    raise ExprSyntaxError("expected denominator digits", self.pos)
                den = self._read_digits()
                if den == 0:
                    raise ExprSyntaxError("zero denominator", self.pos)
                return Poly.scalar(self.n, Fraction(num, den))
            return Poly.scalar(self.n, num)
        raise ExprSyntaxError("expected a factor", self.pos)

    def _read_digits(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in DIGITS:
            self.pos += 1
        return int(self.text[start : self.pos])


def ref_parse_expr(text: str, n: int) -> Poly:
    """The parser before tokenising and gathering monomials: one Poly per
    factor, a product per juxtaposition and a new Poly per summand."""
    if not 1 <= n <= 9:
        raise ValueError("expression grammar supports n in 1..9")
    return _RefParser(text, n).parse()


def random_poly(rng: Random, n: int, max_deg: int, terms: int = 4) -> Poly:
    out = {}
    for _ in range(terms):
        d = rng.randint(0, max_deg)
        w = tuple(rng.randint(1, n) for _ in range(d))
        out[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(n, out)


def random_homogeneous(rng: Random, n: int, deg: int, terms: int = 4) -> Poly:
    out = {}
    for _ in range(terms):
        w = tuple(rng.randint(1, n) for _ in range(deg))
        out[w] = Fraction(rng.randint(-4, 4), rng.randint(1, 3))
    return Poly(n, out)


# -- reference of the echelon build ----------------------------------------------


class RefSubspace(GradedSubspace):
    """The echelon of GradedSubspace before every basis was kept reduced:
    an unfrozen basis is echelonized by the while-max loop of _reduce, which
    walks fill-in, and freeze back-eliminates each row in ascending pivot
    order with a descending _clear.  The reference for the reduced
    insert_row and the flag-only freeze of linalg."""

    __slots__ = ()

    def _clear(self, vec: IntRow, own: int = -1) -> IntRow:
        """Eliminate every pivot of vec except own, in one descending pass.

        Exact up to a positive scalar, which is all membership and rank
        need.  Valid only against reduced rows, which bring in no other
        pivot.
        """
        rows = self._tiers[0]
        for r in sorted((r for r in vec if r != own and r in rows), reverse=True):
            self._eliminate(vec, rows[r], r, vec[r])
        return vec

    def _reduce(self, vec: IntRow) -> IntRow:
        """Eliminate pivot coordinates of vec against the stored rows."""
        if self._frozen:
            return self._clear(vec)
        rows = self._tiers[0]
        while vec:
            m = max(vec)
            row = rows.get(m)
            if row is None:
                return vec
            self._eliminate(vec, row, m, vec[m])
        return vec

    def insert_row(self, vec: IntRow) -> bool:
        """Reduce vec and install it as a new pivot row; True if dim grew."""
        if self._frozen:
            raise RuntimeError("cannot insert into a frozen subspace")
        vec = self._reduce(vec)
        if not vec:
            return False
        self._tiers[0][max(vec)] = _strip(vec)
        return True

    def freeze(self) -> "RefSubspace":
        """Back-eliminate to reduced echelon form and make immutable."""
        if self._frozen:
            return self
        rows = self._tiers[0]
        for pivot in sorted(rows):
            rows[pivot] = _strip(self._clear(rows[pivot], pivot))
        self._frozen = True
        return self

    def residues(self, rows: Iterable[IntRow | Poly]) -> "RefSubspace":
        """Unfrozen echelon span of the residues of rows modulo this basis.

        The stored rows must be reduced (frozen, or reduced by
        construction).  rows are IntRows or degree-d Polys; each is copied,
        so the rows of a cached span can be passed.
        """
        side = RefSubspace(self.n, self.degree)
        for r in rows:
            if isinstance(r, Poly):
                r = poly_to_introw(r, self.n, self.degree)
            vec = self._clear(dict(r))
            if vec:
                side.insert_row(vec)
        return side

    def contains_row(self, vec: IntRow) -> bool:
        return not self._reduce(dict(vec))


def _left_ideal_step(
    n: int,
    d: int,
    pads: Iterable[tuple[int, GradedSubspace]],
    extra_rows: Iterable[IntRow],
) -> GradedSubspace:
    """Echelon basis of Σ x_i·prev + span(extra_rows) at degree d, over the
    pairs (i, prev) of pads, each prev frozen and each i at most once.

    The left pads x_i·b of prev's reduced rows are again reduced, with
    distinct pivots i·n^(d-1) + pivot(b), so they go in without elimination.
    Only the residues of the extra rows modulo the pads are echelonized
    (GradedSubspace.residues, which leaves the extra rows unchanged) before
    the two row sets are merged and frozen.

    The pad merge of series before GradedSubspace.from_pads, on RefSubspace:
    the reference for from_pads.
    """
    S = RefSubspace(n, d)
    rows = S._tiers[0]
    top = n ** (d - 1)
    for i, prev in pads:
        base = i * top
        for p, row in prev._echelon().items():
            rows[base + p] = {base + r: c for r, c in row.items()}
    rows.update(S.residues(extra_rows)._tiers[0])
    return S.freeze()


def reference_block(kind: str, n: int, index, d: int, c: tuple[int, ...]) -> GradedSubspace:
    """Block c of series._span built on RefSubspace from the same pads and
    candidate rows: L_1, product and M_s blocks by _left_ideal_step (M_s
    from the brackets [V, L_{s-1}] of its one-factor generator rows), the
    other L blocks by RefSubspace.from_rows, and the blocks of
    J = M_r + M_i···M_j by RefSubspace.from_rows of the rows of the M_r and
    product blocks (ref_j_block)."""
    if kind == "L" and index == 1:
        if d == 0:
            return RefSubspace.from_rows(n, 0, [{0: 1}])
        return _left_ideal_step(n, d, _pads("L", n, 1, d, c), ())
    if kind == "M" and len(index) > 1:
        return ref_j_block(n, index[0], index[1:], d, c)
    low = index if kind == "L" else sum(index)
    if d < low or max(c) == d:
        return _empty(n, d)
    if kind == "L":
        return RefSubspace.from_rows(n, d, _l_candidates(n, index, d, c))
    pads = _pads(kind, n, index, d, c) if d > low else ()
    return _left_ideal_step(n, d, pads, _generator_rows(n, index, d, c))


def ref_j_block(n: int, r: int, mod: tuple[int, ...], d: int, c: tuple[int, ...]):
    """Block c of J_r = M_r + P at degree d, P the product with factor
    indices mod, echelonized from the rows of block c of M_r and of P."""
    rows = [*m_span(n, r, d, c).int_rows(), *product_span(n, mod, d, c).int_rows()]
    return RefSubspace.from_rows(n, d, rows)


def taken_scan_side_rows(n: int, owner: tuple, d: int, c: tuple[int, ...]) -> dict[int, IntRow]:
    """The side rows G of block c of owner = (kind, index) by their first
    definition: the rows of the ordered block, in descending pivot order,
    whose pivots are not those of its left pads.  Reads the block in order,
    so it completes a block held in two tiers."""
    kind, index = owner
    block = _span(kind, n, index, d, c)
    top = n ** (d - 1)
    taken = {x * top + p for x, b in _pads(kind, n, index, d, c) for p in b._echelon()}
    return {p: row for p, row in sorted(block._echelon().items(), reverse=True) if p not in taken}


def oracle_l_span(n: int, k: int, d: int) -> GradedSubspace:
    """L_k degree-d piece from the defining spanning chains."""
    rows = [nested_word_chain(n, slots) for slots in spanning_chains(n, k, d)]
    return GradedSubspace.from_rows(n, d, rows)


def oracle_m_span(n: int, k: int, d: int) -> GradedSubspace:
    """M_k degree-d piece from all monomial paddings u·s·v of chains s."""
    rows = []
    for e in range(k, d + 1):
        for slots in spanning_chains(n, k, e):
            s = nested_word_chain(n, slots)
            if s.is_zero():
                continue
            for a in range(d - e + 1):
                b = d - e - a
                for u in all_words(n, a):
                    pu = Poly.monomial(n, u)
                    for v in all_words(n, b):
                        rows.append(pu * s * Poly.monomial(n, v))
    return GradedSubspace.from_rows(n, d, rows)


@cache
def padded_m_span(n: int, k: int, d: int) -> GradedSubspace:
    """M_k degree-d piece echelonized from scratch out of L_k(d) and the
    one-letter pads x_i·b, b·x_i of every row b of M_k(d-1): the two-sided
    step, the reference for the left-ideal build of series.m_span."""
    if d < k:
        return GradedSubspace(n, max(d, 0)).freeze()
    rows = [dict(r) for r in l_span(n, k, d).int_rows()]
    top = n ** (d - 1)
    for row in padded_m_span(n, k, d - 1).int_rows():
        for i in range(n):
            rows.append({i * top + r: c for r, c in row.items()})
            rows.append({r * n + i: c for r, c in row.items()})
    return GradedSubspace.from_rows(n, d, rows)


def full_slot_l_candidates(n: int, k: int, d: int):
    """The brackets [m, l] spanning L_k(d) for every degree-e monomial m and
    every row l of l_span(n, k-1, d-e): the reference for the one word per
    necklace of series.l_span (e = 1 only for L_2)."""
    for e in range(1, 2 if k == 2 else d - k + 2):
        sub = l_span(n, k - 1, d - e)
        shift, rshift = n ** (d - e), n**e
        for rm in range(n**e):
            for srow in sub.int_rows():
                vec = {rm * shift + r: c for r, c in srow.items()}
                for r, c in srow.items():
                    key = r * rshift + rm
                    vec[key] = vec.get(key, 0) - c
                    if not vec[key]:
                        del vec[key]
                if vec:
                    yield vec


def _empty(n: int, d: int) -> GradedSubspace:
    return GradedSubspace(n, max(d, 0)).freeze()


@cache
def whole_l_span(n: int, k: int, d: int) -> GradedSubspace:
    """L_k(d) echelonized in one piece out of the brackets [m, l], m one
    word per necklace, l in whole_l_span(n, k-1, d-e): the reference for the
    blocks of series.l_span."""
    if d < 0 or (k > 1 and d < k):
        return _empty(n, d)
    if k == 1:
        return GradedSubspace.from_rows(n, d, ({r: 1} for r in range(n**d)))
    rows = (
        row
        for e in range(1, 2 if k == 2 else d - k + 2)
        for rm in _necklaces(n, e)
        for row in _bracket_rows(n, whole_l_span(n, k - 1, d - e).int_rows(), d - e, rm, e)
    )
    return GradedSubspace.from_rows(n, d, rows)


def _whole_generator_rows(n: int, indices: tuple[int, ...], d: int):
    """The new rows of the product at degree d: [x, l] for one factor,
    [x, l]·r over the degree splits for more (see series.product_span)."""
    head, rest = indices[0], indices[1:]
    if not rest:
        for x in range(n):
            yield from _bracket_rows(n, whole_l_span(n, head - 1, d - 1).int_rows(), d - 1, x, 1)
        return
    top = d - sum(rest)
    for d1 in range(head, (min(top, 2) if head == 2 else top) + 1):
        tails = list(whole_product_span(n, rest, d - d1).int_rows())
        shift = n ** (d - d1)
        for x in range(n):
            for ra in _bracket_rows(n, whole_l_span(n, head - 1, d1 - 1).int_rows(), d1 - 1, x, 1):
                for rb in tails:
                    yield {
                        ka * shift + kb: va * vb
                        for ka, va in ra.items()
                        for kb, vb in rb.items()
                    }


@cache
def whole_product_span(n: int, indices: tuple[int, ...], d: int) -> GradedSubspace:
    """The product ideal at degree d as one left-ideal step over the whole
    degree: the reference for the blocks of series.product_span."""
    if d < sum(indices):
        return _empty(n, d)
    prev = whole_product_span(n, indices, d - 1)
    pads = [(x, prev) for x in range(n)]
    return _left_ideal_step(n, d, pads, _whole_generator_rows(n, indices, d))


def whole_m_span(n: int, k: int, d: int) -> GradedSubspace:
    return whole_l_span(n, 1, d) if k == 1 else whole_product_span(n, (k,), d)


def ascending_per_degree(n: int, indices: tuple[int, ...], cutoff: int) -> dict[int, int]:
    """Per degree, the largest s with P(d) ⊆ M_s(d) on the whole-degree
    reference spans, found by testing s from 2 up to the PBW bound plus one
    and stopping at the first failure: the reference for the walking search
    of containment_index, which stops at the bound by a theorem."""
    s_cap = bound_report(n, indices)[1] + 1
    per_degree = {}
    for d in range(sum(indices), cutoff + 1):
        P = whole_product_span(n, indices, d)
        s_max = 1
        for s in range(2, s_cap + 1):
            if not P.is_subspace_of(whole_m_span(n, s, d)):
                break
            s_max = s
        per_degree[d] = s_max
    return per_degree


def sorted_per_degree(n: int, indices: tuple[int, ...], cutoff: int) -> dict[int, int]:
    """Per degree, the largest s with P(d) ⊆ M_s(d) found by a walk from
    the PBW bound or the previous degree's answer, with P(d)[c] ⊆ M_s(d)[c]
    tested on every sorted content c (S_n symmetry alone) in place of the
    one balanced block.  The walk goes up as well as down: it does not use
    the lemma of containment_index that per_degree never increases."""
    upper = bound_report(n, indices)[1]
    per_degree: dict[int, int] = {}
    for d in range(sum(indices), cutoff + 1):
        blocks = sorted_contents(n, d)

        def inside(s: int) -> bool:
            return s == 1 or all(
                product_span(n, indices, d, c).is_subspace_of(m_span(n, s, d, c))
                for c in blocks
            )

        s = per_degree.get(d - 1, upper)
        if inside(s):
            s = next((u - 1 for u in range(s + 1, upper + 1) if not inside(u)), upper)
        else:
            s = next(u for u in range(s - 1, 0, -1) if inside(u))
        per_degree[d] = s
    return per_degree


def search_witness(
    n: int, t: tuple[int, ...], index: int, cutoff: int
) -> tuple[Poly, int]:
    """Fallback: scan the balanced blocks for an element outside M_{index+1}.

    P(d) ⊄ M_{index+1}(d) if and only if P(d)[μ] ⊄ M_{index+1}(d)[μ] for
    μ = balanced_content(n, d) (containment_index), so at the first degree
    where P leaves M_{index+1} some basis row of P(d)[μ], a block the walk
    has already built, lies in P but not in M_{index+1}.
    """
    for d in range(sum(t), cutoff + 1):
        mu = balanced_content(n, d)
        target = m_span(n, index + 1, d, mu)
        for row in product_span(n, t, d, mu).int_rows():
            if not target.contains_row(row):
                return introw_to_poly(row, n, d), d
    raise AssertionError("observed index admits no witness; containment logic broken")


def composed_product_span(n: int, indices: tuple[int, ...], d: int) -> GradedSubspace:
    """Product ideal piece echelonized from scratch out of the products of
    the full m_span bases of the factors over all degree compositions: the
    reference for the left-ideal build of series.product_span."""
    def rows_for(idx: tuple[int, ...], deg: int) -> list[dict[int, int]]:
        if len(idx) == 1:
            return list(m_span(n, idx[0], deg).int_rows())
        out = []
        rest = idx[1:]
        for d1 in range(idx[0], deg - sum(rest) + 1):
            shift = n ** (deg - d1)
            tails = rows_for(rest, deg - d1)
            for ra in m_span(n, idx[0], d1).int_rows():
                for rb in tails:
                    out.append(
                        {
                            ka * shift + kb: va * vb
                            for ka, va in ra.items()
                            for kb, vb in rb.items()
                        }
                    )
        return out

    return GradedSubspace.from_rows(n, d, rows_for(indices, d))


def oracle_product_span(n: int, indices: tuple[int, ...], d: int) -> GradedSubspace:
    """Product ideal piece from products of oracle M rows over compositions."""
    def rows_for(idx: tuple[int, ...], deg: int) -> list[Poly]:
        if len(idx) == 1:
            return oracle_m_span(n, idx[0], deg).row_polys()
        out = []
        rest = idx[1:]
        for d1 in range(idx[0], deg - sum(rest) + 1):
            heads = oracle_m_span(n, idx[0], d1).row_polys()
            tails = rows_for(rest, deg - d1)
            out += [h * t for h in heads for t in tails]
        return out

    return GradedSubspace.from_rows(n, d, rows_for(indices, d))


def necklace_count(n: int, d: int) -> int:
    """Cyclic equivalence classes of degree-d words, by explicit canonization."""
    seen = set()
    for w in iproduct(range(1, n + 1), repeat=d):
        seen.add(min(w[i:] + w[:i] for i in range(d)))
    return len(seen)


def commutative_monomial_count(n: int, d: int) -> int:
    return comb(d + n - 1, n - 1)


def multinomial(c: tuple[int, ...]) -> int:
    """The number of words of letter content c."""
    return factorial(sum(c)) // prod(factorial(x) for x in c)


def even_forms_dim(c: tuple[int, ...]) -> int:
    """dim (A/M_3)[c] by Feigin–Shoikhet: A/M_3 is the algebra of
    even-degree polynomial differential forms, whose content-c forms
    x^a dx_I have I an even subset of the s letters that occur in c."""
    s = sum(1 for x in c if x)
    return 2 ** (s - 1) if s else 1


def poincare_closed_even_forms(s: int) -> int:
    """Σ over even k of the closed k-forms of a content with s letters: the
    content-c de Rham complex has C(s, j) forms of degree j and is exact
    for s >= 1 (Poincaré lemma), so the closed k-forms number
    Σ_{j<k} (-1)^(k-1-j) C(s, j)."""
    return sum(
        (-1) ** (k - 1 - j) * comb(s, j) for k in range(0, s + 1, 2) for j in range(k)
    )


def closed_even_forms_dim(c: tuple[int, ...]) -> int:
    """dim (L_2/L_3)[c] by Feigin–Shoikhet: L_2/L_3 is the space of closed
    (equivalently exact) even forms of positive degree, 2^(s-2) of content
    c for s >= 2 letters, the closed form of poincare_closed_even_forms."""
    s = sum(1 for x in c if x)
    return 2 ** (s - 2) if s >= 2 else 0


def partitions(d: int, parts: int) -> list[tuple[int, ...]]:
    """The partitions of d into at most parts parts, padded with zeros to
    that length, in descending lexicographic order."""
    if parts == 0:
        return [()] if d == 0 else []
    return [
        (a,) + rest
        for a in range(d, -1, -1)
        for rest in partitions(d - a, parts - 1)
        if not rest or rest[0] <= a
    ]


@cache
def kostka(lam: tuple[int, ...], mu: tuple[int, ...]) -> int:
    """K_{λμ}, the semistandard tableaux of shape λ and content μ (λ padded
    to any length): the entries equal to the last letter form a horizontal
    strip λ/ν of size μ_last, whose removal leaves a tableau of shape ν and
    content μ without its last letter.  ν is a horizontal strip inside λ
    exactly when λ_{i+1} <= ν_i <= λ_i."""
    if not mu:
        return int(not any(lam))
    nxt = lam[1:] + (0,)
    return sum(
        kostka(nu, mu[:-1])
        for nu in iproduct(*(range(b, a + 1) for a, b in zip(lam, nxt)))
        if sum(lam) - sum(nu) == mu[-1]
    )


def gl_multiplicities(n: int, d: int, weight_dim) -> dict[tuple[int, ...], int]:
    """The multiplicities m_λ of the irreducible GL_n-modules V_λ in a
    polynomial module U of degree d, given weight_dim(μ) = dim U[μ] on the
    partitions μ (padded to n parts): dim U[μ] = Σ_{λ ⊵ μ} m_λ K_{λμ}, solved
    down the dominance order.  The descending lexicographic order extends
    dominance, and K_{μμ} = 1.  Keys are the partitions without their zeros."""
    m: dict[tuple[int, ...], int] = {}
    for mu in partitions(d, n):
        m[mu] = weight_dim(mu) - sum(v * kostka(lam, mu) for lam, v in m.items())
    return {tuple(x for x in lam if x): v for lam, v in m.items()}


def brute_lyndon_words(n: int, d_max: int) -> list[tuple[int, ...]]:
    """Lyndon words by the rotation-test definition, exhaustively."""
    out = []
    for d in range(1, d_max + 1):
        for w in iproduct(range(1, n + 1), repeat=d):
            if all(w < w[i:] + w[:i] for i in range(1, d)):
                out.append(w)
    return sorted(out)


def filtration_space(n: int, r: int, d: int) -> GradedSubspace:
    """Span of all products of at most r standard bracketings, degree d."""
    from lcsideals.lyndon import lyndon_words, standard_bracketing

    lws = [w for w in lyndon_words(n, d)]
    rows: list[Poly] = []

    def rec(remaining: int, slots: int, acc: list) -> None:
        if remaining == 0:
            p = Poly.one(n)
            for w in acc:
                p = p * standard_bracketing(w, n)
            rows.append(p)
            return
        if slots == 0:
            return
        for w in lws:
            if len(w) <= remaining:
                rec(remaining - len(w), slots - 1, acc + [w])

    rec(d, r, [])
    return GradedSubspace.from_rows(n, d, rows)


def assert_reduced(S: GradedSubspace) -> None:
    """In each tier, each stored row is keyed by a pivot column that it
    holds with a positive coefficient and no other row of the tier holds,
    and is content-stripped: a reduced basis, in echelon order or not.  No
    side row holds a pad pivot."""
    rows, side = S._tiers
    for tier in (rows, side):
        for pivot, row in tier.items():
            assert row[pivot] > 0 and gcd(*row.values()) == 1
            assert all(k == pivot or k not in tier for k in row)
    assert all(rows.keys().isdisjoint(row) for row in side.values())


def assert_echelon(S: GradedSubspace) -> None:
    """The ordered rows of S are reduced, and each is keyed by its largest
    word."""
    rows = S._echelon()
    assert_reduced(S)
    assert all(max(row) == pivot for pivot, row in rows.items())


def subspaces_equal(a: GradedSubspace, b: GradedSubspace) -> bool:
    return a.dim == b.dim and a.is_subspace_of(b)


def tuples_with_sum_at_most(total_max: int) -> list[tuple[int, ...]]:
    """All index tuples with entries >= 2 and sum <= total_max."""
    out = []

    def build(prefix: list[int], budget: int) -> None:
        if prefix:
            out.append(tuple(prefix))
        for v in range(2, budget + 1):
            build(prefix + [v], budget - v)

    build([], total_max)
    return out
