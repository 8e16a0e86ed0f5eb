"""Sparse exact arithmetic in the free associative algebra on n generators.

Elements are rational linear combinations of words; a word is a tuple of
generator indices in 1..n and the empty tuple is the unit.  All arithmetic
is exact: a coefficient is an int when it is integral and a
fractions.Fraction otherwise, and no float is accepted.  Zero coefficients
are never stored, and two equal elements compare equal structurally (an
int equals the Fraction of the same value and hashes alike).

Words and coefficients are checked once, where they enter: the Poly
constructor.  Arithmetic builds its result from operands that are already
valid, drops the zeros it makes, and skips the check.  No coefficient is
ever divided: int / int would be a float.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Word = tuple[int, ...]
Rational = int | Fraction

EMPTY_WORD: Word = ()


def word_key(w: Word) -> tuple[int, Word]:
    """Sort key realizing degree-then-lexicographic order on words."""
    return (len(w), w)


def check_word(w: Word, n: int) -> None:
    for letter in w:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside 1..{n} in word {w}")


def check_count(n: int) -> int:
    if n < 1:
        raise ValueError("generator count must be >= 1")
    return n


def check_rational(c) -> Rational:
    """c as an int if integral, else as a Fraction; TypeError for a non-rational."""
    if isinstance(c, int):
        return int(c)
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    raise TypeError(f"coefficient {c!r} is not an int or a Fraction")


class Poly:
    """An element of the free associative algebra on ``n`` generators.

    ``terms`` maps words to nonzero coefficients: ints, or Fractions for the
    values that are not integral (arithmetic may also leave an integral
    Fraction, which equals and hashes like its int).  Instances are treated
    as immutable once constructed; all operations return new objects.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Word, Rational] | None = None):
        self.n = check_count(n)
        clean: dict[Word, Rational] = {}
        if terms:
            for w, c in terms.items():
                check_word(w, n)
                c = check_rational(c)
                if c:
                    clean[w] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Poly":
        return _trusted(check_count(n), {EMPTY_WORD: 1})

    @classmethod
    def gen(cls, n: int, i: int) -> "Poly":
        if not 1 <= i <= n:
            raise ValueError(f"generator x{i} not available with n={n}")
        return _trusted(n, {(i,): 1})

    @classmethod
    def monomial(cls, n: int, word: Iterable[int], coeff: Rational = 1) -> "Poly":
        return cls(n, {tuple(word): coeff})

    @classmethod
    def scalar(cls, n: int, c: Rational) -> "Poly":
        return cls(n, {EMPTY_WORD: c})

    # -- structure ----------------------------------------------------

    def is_zero(self) -> bool:
        return not self.terms

    def degree(self) -> int:
        """Maximal word length with nonzero coefficient (zero poly -> -1)."""
        if not self.terms:
            return -1
        return max(len(w) for w in self.terms)

    def is_homogeneous(self) -> bool:
        degs = {len(w) for w in self.terms}
        return len(degs) <= 1

    def homogeneous_component(self, d: int) -> "Poly":
        return _trusted(self.n, {w: c for w, c in self.terms.items() if len(w) == d})

    def homogeneous_components(self) -> dict[int, "Poly"]:
        out: dict[int, dict[Word, Rational]] = {}
        for w, c in self.terms.items():
            out.setdefault(len(w), {})[w] = c
        return {d: _trusted(self.n, t) for d, t in sorted(out.items())}

    def coefficient(self, word: Iterable[int]) -> Rational:
        return self.terms.get(tuple(word), 0)

    # -- arithmetic ---------------------------------------------------
    # A rational operand of + and - stands for that multiple of the unit.

    def __add__(self, other) -> "Poly":
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return _trusted(self.n, _sum(self.terms, other.terms, 1))

    __radd__ = __add__

    def __sub__(self, other) -> "Poly":
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return _trusted(self.n, _sum(self.terms, other.terms, -1))

    def __rsub__(self, other) -> "Poly":
        other = self._operand(other)
        if other is NotImplemented:
            return other
        return _trusted(self.n, _sum(other.terms, self.terms, -1))

    def __neg__(self) -> "Poly":
        return _trusted(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.__rmul__(other)
        self._check_compatible(other)
        out: dict[Word, Rational] = {}
        get = out.get
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = get(w, 0) + c1 * c2
        return _trusted(self.n, {w: c for w, c in out.items() if c})

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Rational) -> "Poly":
        c = check_rational(c)
        if not c:
            return Poly(self.n)
        return _trusted(self.n, {w: c * v for w, v in self.terms.items()})

    def __eq__(self, other) -> bool:
        if not isinstance(other, Poly):
            return NotImplemented
        return self.n == other.n and self.terms == other.terms

    def __hash__(self) -> int:
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self) -> str:
        from .exprs import poly_to_expr

        if self.is_zero():
            return f"Poly({self.n}, 0)"
        return f"Poly({self.n}, {poly_to_expr(self)})"

    def _operand(self, other) -> "Poly":
        """other as a Poly on the same generators; NotImplemented if it is
        neither a Poly nor a rational."""
        if isinstance(other, Poly):
            self._check_compatible(other)
            return other
        if isinstance(other, (int, Fraction)):
            return Poly.scalar(self.n, other)
        return NotImplemented

    def _check_compatible(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(
                f"generator-count mismatch: {self.n} vs {other.n}"
            )


def _trusted(n: int, terms: dict[Word, Rational]) -> Poly:
    """The Poly holding ``terms`` as given: the caller vouches that the words
    are valid and the coefficients nonzero rationals, so nothing is checked."""
    p = Poly.__new__(Poly)
    p.n = n
    p.terms = terms
    return p


def _sum(a: dict[Word, Rational], b: dict[Word, Rational], sign: int) -> dict[Word, Rational]:
    """The terms of a + sign*b, without zeros."""
    out = dict(a)
    get = out.get
    for w, c in b.items():
        s = get(w, 0) + c if sign > 0 else get(w, 0) - c
        if s:
            out[w] = s
        else:
            del out[w]
    return out


def bracket(p: Poly, q: Poly) -> Poly:
    """Commutator pq - qp, in one pass over pairs of terms: c1*w1 and c2*w2
    put +c1c2 on w1+w2 and -c1c2 on w2+w1."""
    p._check_compatible(q)
    out: dict[Word, Rational] = {}
    get = out.get
    for w1, c1 in p.terms.items():
        for w2, c2 in q.terms.items():
            c = c1 * c2
            w = w1 + w2
            out[w] = get(w, 0) + c
            w = w2 + w1
            out[w] = get(w, 0) - c
    return _trusted(p.n, {w: c for w, c in out.items() if c})


def nested(args: Sequence[Poly]) -> Poly:
    """Right-normed commutator chain of the arguments.

    A single argument is returned unchanged; otherwise the chain folds as
    bracket(a1, nested(a2, ..., am)).
    """
    if not args:
        raise ValueError("nested commutator needs at least one argument")
    acc = args[-1]
    for a in reversed(args[:-1]):
        acc = bracket(a, acc)
    return acc


def nested_word_chain(n: int, slots: Sequence[Word]) -> Poly:
    """Right-normed commutator of monomial slots, given as words."""
    return nested([Poly.monomial(n, w) for w in slots])


IDENTITY_NAMES = ("leibniz", "jacobi", "pigeonhole", "fun1", "fun2")


def verify_identity(name: str, n: int) -> bool:
    """Check one of the built-in commutator identities over distinct generators.

    leibniz     [ab,c] = a[b,c] + [a,c]b
    jacobi      [a,[b,c]] + [c,[a,b]] + [b,[c,a]] = 0
    pigeonhole  [a,b][a,c] = a[a,b,c] + [a,b,a]c + [a,ac,b]
    fun1        [x,[y,[y,x]]] = [y,[x,[y,x]]]
    fun2        [xy,[y,x]] = [yx,[y,x]]
    """
    needed = {"leibniz": 3, "jacobi": 3, "pigeonhole": 3, "fun1": 2, "fun2": 2}
    if name not in needed:
        raise ValueError(f"unknown identity {name!r}; choose from {IDENTITY_NAMES}")
    if n < needed[name]:
        raise ValueError(f"identity {name!r} needs at least {needed[name]} generators")

    a, b = Poly.gen(n, 1), Poly.gen(n, 2)
    c = Poly.gen(n, 3) if n >= 3 else None

    if name == "leibniz":
        lhs = bracket(a * b, c)
        rhs = a * bracket(b, c) + bracket(a, c) * b
    elif name == "jacobi":
        lhs = nested([a, b, c]) + nested([c, a, b]) + nested([b, c, a])
        rhs = Poly.zero(n)
    elif name == "pigeonhole":
        lhs = bracket(a, b) * bracket(a, c)
        rhs = a * nested([a, b, c]) + nested([a, b, a]) * c + nested([a, a * c, b])
    elif name == "fun1":
        lhs = nested([a, b, b, a])
        rhs = nested([b, a, b, a])
    else:  # fun2
        lhs = bracket(a * b, bracket(b, a))
        rhs = bracket(b * a, bracket(b, a))
    return lhs == rhs


def all_words(n: int, d: int) -> Iterable[Word]:
    """All words of degree exactly d over 1..n, in lexicographic order."""
    if d == 0:
        yield EMPTY_WORD
        return
    from itertools import product

    for w in product(range(1, n + 1), repeat=d):
        yield w
