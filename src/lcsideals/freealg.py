"""Sparse exact arithmetic in the free associative algebra on n generators.

Elements are rational linear combinations of words; a word is a tuple of
generator indices in 1..n and the empty tuple is the unit.  All arithmetic
is exact (fractions.Fraction); zero coefficients are never stored (the
constructor drops them, so arithmetic need not), and two equal elements
compare equal structurally.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping, Sequence

Word = tuple[int, ...]

EMPTY_WORD: Word = ()


def word_key(w: Word) -> tuple[int, Word]:
    """Sort key realizing degree-then-lexicographic order on words."""
    return (len(w), w)


def check_word(w: Word, n: int) -> None:
    for letter in w:
        if not 1 <= letter <= n:
            raise ValueError(f"letter {letter} outside 1..{n} in word {w}")


class Poly:
    """An element of the free associative algebra on ``n`` generators.

    ``terms`` maps words to nonzero Fractions.  Instances are treated as
    immutable once constructed; all operations return new objects.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: Mapping[Word, Fraction | int] | None = None):
        if n < 1:
            raise ValueError("generator count must be >= 1")
        self.n = n
        clean: dict[Word, Fraction] = {}
        if terms:
            for w, c in terms.items():
                c = Fraction(c)
                if c:
                    check_word(w, n)
                    clean[w] = c
        self.terms = clean

    # -- constructors -------------------------------------------------

    @classmethod
    def zero(cls, n: int) -> "Poly":
        return cls(n)

    @classmethod
    def one(cls, n: int) -> "Poly":
        return cls(n, {EMPTY_WORD: Fraction(1)})

    @classmethod
    def gen(cls, n: int, i: int) -> "Poly":
        if not 1 <= i <= n:
            raise ValueError(f"generator x{i} not available with n={n}")
        return cls(n, {(i,): Fraction(1)})

    @classmethod
    def monomial(cls, n: int, word: Iterable[int], coeff: Fraction | int = 1) -> "Poly":
        return cls(n, {tuple(word): Fraction(coeff)})

    @classmethod
    def scalar(cls, n: int, c: Fraction | int) -> "Poly":
        return cls(n, {EMPTY_WORD: Fraction(c)})

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
        return Poly(self.n, {w: c for w, c in self.terms.items() if len(w) == d})

    def homogeneous_components(self) -> dict[int, "Poly"]:
        out: dict[int, dict[Word, Fraction]] = {}
        for w, c in self.terms.items():
            out.setdefault(len(w), {})[w] = c
        return {d: Poly(self.n, t) for d, t in sorted(out.items())}

    def coefficient(self, word: Iterable[int]) -> Fraction:
        return self.terms.get(tuple(word), Fraction(0))

    # -- arithmetic ---------------------------------------------------

    def __add__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) + c
        return Poly(self.n, out)

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_compatible(other)
        out = dict(self.terms)
        for w, c in other.terms.items():
            out[w] = out.get(w, 0) - c
        return Poly(self.n, out)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {w: -c for w, c in self.terms.items()})

    def __mul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        self._check_compatible(other)
        out: dict[Word, Fraction] = {}
        for w1, c1 in self.terms.items():
            for w2, c2 in other.terms.items():
                w = w1 + w2
                out[w] = out.get(w, 0) + c1 * c2
        return Poly(self.n, out)

    def __rmul__(self, other):
        if isinstance(other, (int, Fraction)):
            return self.scale(other)
        return NotImplemented

    def scale(self, c: Fraction | int) -> "Poly":
        c = Fraction(c)
        if not c:
            return Poly(self.n)
        return Poly(self.n, {w: c * v for w, v in self.terms.items()})

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

    def _check_compatible(self, other: "Poly") -> None:
        if self.n != other.n:
            raise ValueError(
                f"generator-count mismatch: {self.n} vs {other.n}"
            )


def bracket(p: Poly, q: Poly) -> Poly:
    """Commutator pq - qp."""
    return p * q - q * p


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


def adjoint_power(a: Poly, k: int, b: Poly) -> Poly:
    """k-fold bracket of a against b: [a,[a,...,[a,b]...]]."""
    out = b
    for _ in range(k):
        out = bracket(a, out)
    return out


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
