"""Lyndon words, standard bracketings, and PBW straightening.

The free Lie algebra inside A_n has a basis of standard bracketings of
Lyndon words (ordered lexicographically); nondecreasing products of those
bracketings form a PBW basis of A_n.  straighten() rewrites any element in
that basis and pbw_degree() reads off the maximal factor count, the
filtration degree in the enveloping algebra.

A word is straightened by rewriting factor sequences of Lyndon words: at
the first descent u > v, b_u·b_v = b_v·b_u + [b_u, b_v], and there
[b_u, b_v] is the one basis element -b_vu, by the standard-factorization
rule for Lyndon words (Reutenauer, Free Lie Algebras, ch. 5; Lothaire,
Combinatorics on Words, ch. 5).  Proof:

- Invariant.  In every factor sequence the loop holds, each factor f of
  length >= 2, with standard factorization f = f1·f2, has f2 >= every
  factor to its left.  This holds vacuously at the start, because every
  factor is a letter.
- Use.  At the first descent u > v, the factor v is a letter or has
  v2 >= u.  So (v, u) is the standard factorization of the Lyndon word vu,
  and [b_u, b_v] = -b_vu.
- Swap.  v loses a left neighbour.  u gains v on its left, and
  u2 > u > v, because a proper right factor of a Lyndon word is larger
  than the word.
- Merge.  vu has right factor u, and u >= the nondecreasing prefix to its
  left.  A factor further right had u and v on its left and now has vu
  there.  Also vu < u: if v is not a prefix of u, compare them at the
  first letter where they differ; if u = v·z, then z > u.  So
  f2 >= u > vu.

Every coefficient is plus or minus the one rewritten, so straightening a
word runs in ints.  Each factor sequence is rewritten once:

- Order.  Factor sequences are compared as Python tuples of words, the
  lexicographic order used above, with a proper prefix smaller.
- Each rewrite lowers it.  Both new sequences keep the prefix before the
  first descent u > v.  There the swapped sequence holds v < u and the
  merged one holds vu < u (Merge).  So both are smaller than the sequence.
- So each sequence is rewritten once.  Pending sequences are taken largest
  first, and every sequence that contributes to s is larger than s, so it
  was rewritten before s is taken.  So s is rewritten, or stored sorted,
  once and with its full coefficient, or dropped when taken if that sums
  to 0.  x2·x1^L takes L(L+1)/2 rewrites, not one per rewrite path
  (2^L - 1).
"""

from __future__ import annotations

from bisect import insort
from functools import cache

from .freealg import Poly, Rational, Word, bracket

# A PBW monomial is a nondecreasing tuple of Lyndon words.
PbwMonomial = tuple[Word, ...]


def is_lyndon(w: Word) -> bool:
    """True iff w is strictly smaller than every proper cyclic rotation.

    One pass of Duval's scan.  Before step j, w[:j] is a prefix of a power
    of the Lyndon word w[:j-i], and w[j] is compared with w[i]: a larger
    letter makes w[:j+1] Lyndon (i back to 0), an equal one continues the
    period, and a smaller one rules w out.  w is Lyndon iff its period at
    the end is its whole length."""
    if not w:
        return False
    i = 0
    for j in range(1, len(w)):
        if w[i] < w[j]:
            i = 0
        elif w[i] == w[j]:
            i += 1
        else:
            return False
    return i == 0


def lyndon_words(n: int, d: int) -> list[Word]:
    """All Lyndon words of degree <= d over 1..n, lexicographically sorted.

    Duval's generation: extend periodically, bump the last non-maximal
    letter, truncate.  It emits the words in lexicographic order.
    """
    _check_sizes(n, d)
    out: list[Word] = []
    w = [0]
    while w:
        w[-1] += 1
        out.append(tuple(w))
        m = len(w)
        while len(w) < d:
            w.append(w[len(w) - m])
        while w and w[-1] == n:
            w.pop()
    return out


def _check_sizes(n: int, d: int) -> None:
    if n < 1 or d < 1:
        raise ValueError("need n >= 1 and d >= 1")


def lyndon_factor_split(w: Word) -> tuple[Word, Word]:
    """Standard factorization w = uv with v the longest proper Lyndon suffix."""
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError(f"{w} has no proper Lyndon suffix")


def standard_bracketing(w: Word, n: int) -> Poly:
    """The Lie element obtained by recursively bracketing a Lyndon word.

    The factors come from the cache, so each sub-bracketing is built once.
    """
    if not is_lyndon(w):
        raise ValueError(f"{w} is not a Lyndon word")
    if len(w) == 1:
        return Poly.gen(n, w[0])
    u, v = lyndon_factor_split(w)
    return bracket(_bracketing_cached(n, u), _bracketing_cached(n, v))


class PbwExpansion:
    """An element written in the PBW basis.

    terms maps each PBW monomial (nondecreasing tuple of Lyndon words) to a
    nonzero rational: an int when the element has integer coefficients, as
    straightening a word produces only ints, and a Fraction where a rational
    coefficient of the element enters.  Re-expanding every factor and
    multiplying reproduces the original element exactly.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict[PbwMonomial, Rational]):
        self.n = n
        self.terms = {m: c for m, c in terms.items() if c}

    def max_factor_count(self) -> int:
        if not self.terms:
            raise ValueError("zero expansion has no factor count")
        return max(len(m) for m in self.terms)

    def to_poly(self) -> Poly:
        out = Poly.zero(self.n)
        for mono, c in self.terms.items():
            term = Poly.scalar(self.n, c)
            for factor in mono:
                term = term * _bracketing_cached(self.n, factor)
            out = out + term
        return out

    def __eq__(self, other) -> bool:
        if not isinstance(other, PbwExpansion):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __repr__(self) -> str:
        return f"PbwExpansion({self.n}, {len(self.terms)} terms)"


# -- caches ------------------------------------------------------------


def clear_caches() -> None:
    for f in (_bracketing_cached, _straighten_word):
        f.cache_clear()


@cache
def _bracketing_cached(n: int, w: Word) -> Poly:
    return standard_bracketing(w, n)


@cache
def _straighten_word(n: int, word: Word) -> dict[PbwMonomial, int]:
    """The PBW expansion of one word, each factor sequence rewritten once.

    pending sums the coefficient of each sequence not yet taken and order
    holds them ascending.  The largest is taken first: rewriting its first
    descent yields two smaller sequences, so every contribution to a
    sequence has arrived when it is taken.
    """
    done: dict[PbwMonomial, int] = {}
    # Each letter is a Lyndon word, so a word is a factor sequence already.
    start = tuple((l,) for l in word)
    pending = {start: 1}
    order = [start]
    while order:
        seq = order.pop()
        coeff = pending.pop(seq)
        if not coeff:
            continue
        bad = next((i for i in range(len(seq) - 1) if seq[i] > seq[i + 1]), None)
        if bad is None:
            done[seq] = coeff
            continue
        u, v = seq[bad], seq[bad + 1]
        head, tail = seq[:bad], seq[bad + 2 :]
        for new, c in ((head + (v, u) + tail, coeff), (head + (v + u,) + tail, -coeff)):
            if new in pending:
                pending[new] += c
            else:
                pending[new] = c
                insort(order, new)
    return done


def straighten(p: Poly) -> PbwExpansion:
    """Rewrite p in the PBW basis of nondecreasing Lyndon bracketings."""
    out: dict[PbwMonomial, Rational] = {}
    for word, coeff in p.terms.items():
        for mono, c in _straighten_word(p.n, word).items():
            out[mono] = out.get(mono, 0) + coeff * c
    return PbwExpansion(p.n, out)


def pbw_degree(p: Poly) -> int:
    """Maximal factor count over the PBW expansion of p (p nonzero)."""
    if p.is_zero():
        raise ValueError("zero polynomial has no PBW degree")
    return straighten(p).max_factor_count()


def witt_dimension(n: int, d: int) -> int:
    """Number of Lyndon words of degree exactly d over n letters."""
    _check_sizes(n, d)

    def mobius(m: int) -> int:
        out, k, mm = 1, 2, m
        while k * k <= mm:
            if mm % k == 0:
                mm //= k
                if mm % k == 0:
                    return 0
                out = -out
            k += 1
        if mm > 1:
            out = -out
        return out

    total = 0
    for e in range(1, d + 1):
        if d % e == 0:
            total += mobius(e) * n ** (d // e)
    return total // d
