"""Lyndon words, standard bracketings, and PBW straightening.

The free Lie algebra inside A_n has a basis of standard bracketings of
Lyndon words (ordered lexicographically); nondecreasing products of those
bracketings form a PBW basis of A_n.  straighten() rewrites any element in
that basis and pbw_degree() reads off the maximal factor count, the
filtration degree in the enveloping algebra.

The basis is triangular: the standard bracketing b_w of a Lyndon word w is
w plus lexicographically larger words of the same degree (Reutenauer, Free
Lie Algebras, ch. 5).  A Lie element is therefore written in the basis by
peeling: take the smallest word w left, which must be Lyndon, record its
coefficient c, subtract c*b_w, and repeat until nothing is left.  As every
b_w has integer coefficients, straightening a word runs in ints alone.
"""

from __future__ import annotations

from functools import cache

from .freealg import Poly, Rational, Word, bracket

# A PBW monomial is a nondecreasing tuple of Lyndon words.
PbwMonomial = tuple[Word, ...]


def is_lyndon(w: Word) -> bool:
    """True iff w is strictly smaller than every proper cyclic rotation."""
    if not w:
        return False
    d = len(w)
    return all(w < w[i:] + w[:i] for i in range(1, d))


def lyndon_words(n: int, d: int) -> list[Word]:
    """All Lyndon words of degree <= d over 1..n, lexicographically sorted.

    Duval's generation: extend periodically, bump the last non-maximal
    letter, truncate.
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
    return sorted(out)


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
    for f in (_bracketing_cached, _swap_pair, _straighten_word):
        f.cache_clear()


@cache
def _bracketing_cached(n: int, w: Word) -> Poly:
    return standard_bracketing(w, n)


def _lyndon_coefficients(n: int, p: Poly) -> dict[Word, Rational]:
    """Coefficients of the Lie element p in the standard-bracketing basis.

    Peels off the smallest word w left: it must be Lyndon, and as b_w is w
    plus larger words, its coefficient c is the coefficient of b_w.
    """
    rest = dict(p.terms)
    out: dict[Word, Rational] = {}
    while rest:
        w = min(rest)
        if not is_lyndon(w):
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
def _swap_pair(n: int, u: Word, v: Word) -> dict[Word, int]:
    """Lyndon-basis coefficients of [b_u, b_v], cached."""
    return _lyndon_coefficients(
        n, bracket(_bracketing_cached(n, u), _bracketing_cached(n, v))
    )


@cache
def _straighten_word(n: int, word: Word) -> dict[PbwMonomial, int]:
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
        for w, c in _swap_pair(n, u, v).items():
            merged = seq[:bad] + (w,) + seq[bad + 2 :]
            s = work.get(merged, 0) + coeff * c
            if s:
                work[merged] = s
            else:
                work.pop(merged, None)
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
