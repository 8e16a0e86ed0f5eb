"""Lyndon words, standard bracketings, and PBW straightening.

The free Lie algebra inside A_n has a basis of standard bracketings of
Lyndon words (ordered lexicographically); nondecreasing products of those
bracketings form a PBW basis of A_n.  straighten() rewrites any element in
that basis and pbw_degree() reads off the maximal factor count, the
filtration degree in the enveloping algebra.

The basis is triangular: the standard bracketing b_w of a Lyndon word w is
w plus lexicographically larger words of the same degree (Reutenauer, Free
Lie Algebras, ch. 4-5; Lothaire, Combinatorics on Words, ch. 5).  For
Lyndon u < v, [b_u, b_v] is b_uv if u is a letter or its standard
factorization u = u1·u2 has u2 >= v (then (u, v) is that of uv), and
[b_u1, [b_u2, b_v]] - [b_u2, [b_u1, b_v]] (Jacobi) otherwise.  Each step is
an identity over the integers, so any result is exact and in ints; a cycle
could only raise RecursionError.  None occurs: [b_s, b_t] has smallest word
st, so its Lyndon words w have w >= st by triangularity, and w < t by
induction on (|s| + |t|, t), as st < t.  So a Jacobi step calls pairs of
lower degree, or of equal degree with a smaller larger word: (u1, w) with
u1 < u2 < u2·v <= w < v, and (u2, w) or (w, u2) with w < v and u2 < v.

A word is straightened by rewriting factor sequences, the first descent
u > v into v u plus [b_u, b_v].  Each rewrite lowers (number of factors,
number of inversions), so taking pending sequences in decreasing order of
that key rewrites each one once, with every contribution summed: x2·x1^L
takes L(L+1)/2 rewrites, not one per rewrite path (2^L - 1).
"""

from __future__ import annotations

from functools import cache
from itertools import combinations, starmap
from operator import gt

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


@cache
def _swap_pair(n: int, u: Word, v: Word) -> dict[Word, int]:
    """[b_u, b_v] in the Lyndon basis, cached; it recurses through _rule,
    which the straightening loop never looks up."""
    if u == v:
        return {}
    if u > v:
        return {w: -c for w, c in _rule(n, v, u).items()}
    if len(u) == 1 or (split := lyndon_factor_split(u))[1] >= v:
        return {u + v: 1}
    u1, u2 = split
    out: dict[Word, int] = {}
    for inner, outer, sign in ((u2, u1, 1), (u1, u2, -1)):
        for w, c in _rule(n, inner, v).items():
            for z, e in _rule(n, outer, w).items():
                _accumulate(out, z, sign * c * e)
    return out


_rule = _swap_pair


def _inversions(seq: PbwMonomial) -> int:
    return sum(starmap(gt, combinations(seq, 2)))


def _accumulate(bucket: dict, key: tuple, c: int) -> None:
    s = bucket.get(key, 0) + c
    if s:
        bucket[key] = s
    else:
        bucket.pop(key, None)


@cache
def _straighten_word(n: int, word: Word) -> dict[PbwMonomial, int]:
    """The PBW expansion of one word, each factor sequence rewritten once.

    A factor sequence is keyed by (number of factors, number of inversions).
    Rewriting its first descent u > v yields the swapped sequence, with one
    inversion fewer, and one sequence per Lyndon word of [b_u, b_v], with
    one factor fewer, so every rewrite lowers the key.  Pending sequences
    wait in buckets by key and the largest key is emptied first: by then
    every contribution to its sequences has arrived, so each is rewritten,
    or stored once sorted, with its full coefficient.
    """
    done: dict[PbwMonomial, int] = {}
    # Each letter is a Lyndon word, so a word is a factor sequence already.
    start = tuple((l,) for l in word)
    buckets = {(len(start), _inversions(start)): {start: 1}}
    while buckets:
        count, inv = key = max(buckets)
        for seq, coeff in buckets.pop(key).items():
            if not inv:
                done[seq] = coeff
                continue
            bad = next(i for i in range(count - 1) if seq[i] > seq[i + 1])
            u, v = seq[bad], seq[bad + 1]
            swapped = seq[:bad] + (v, u) + seq[bad + 2 :]
            _accumulate(buckets.setdefault((count, inv - 1), {}), swapped, coeff)
            for w, c in _swap_pair(n, u, v).items():
                merged = seq[:bad] + (w,) + seq[bad + 2 :]
                fewer = (count - 1, _inversions(merged))
                _accumulate(buckets.setdefault(fewer, {}), merged, coeff * c)
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
