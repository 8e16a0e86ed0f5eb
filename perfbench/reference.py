"""Answer references that do not come from the package under test.

Everything here is written from the definitions, with its own arithmetic on
plain dicts (word -> Fraction), so that a defect in ``lcsideals`` cannot
make its own answers look right:

* containment indices fixed by a theorem: on ``A_2`` every product
  ``M_{i1}...M_{ik}`` has index ``sum - k + 1``; on ``A_3`` a pair with an
  odd entry has index ``m + l - 1`` (the lower bound ``m + l - 1`` from the
  odd-index containment meets the PBW upper bound ``sum - k + 1``);
* ``dim N_r(R_{2,2}(A_n))`` from the sorted-commutator count times the
  commutative monomial count, and ``dim N_r(R_{2,3}(A_2))`` from the
  ``GL_2`` formula;
* standard bracketings of Lyndon words and the re-expansion of a PBW
  expansion, used to check ``straighten`` term by term;
* the abelian image (commutative collapse) used for membership verdicts.

The containment and quotient answers are committed in ``references.json``;
``load_references`` re-derives each committed value from the formulas here
and refuses a file that disagrees.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import comb
from pathlib import Path

Word = tuple[int, ...]
Elem = dict[Word, Fraction]

REFERENCES = Path(__file__).with_name("references.json")


# -- theorem-fixed containment indices ------------------------------------


def theorem_index(n: int, indices: tuple[int, ...]) -> int:
    """Containment index of M_{i1}...M_{ik} where a theorem fixes it."""
    total, k = sum(indices), len(indices)
    if n == 2:
        return total - k + 1
    if k == 2 and any(i % 2 for i in indices):
        return total - 1
    raise ValueError(f"no theorem fixes the index of {indices} on A_{n}")


# -- quotient dimension formulas ------------------------------------------


def r22_layer_dim(n: int, r: int, d: int) -> int:
    """dim of N_r(R_{2,2}(A_n)) in degree d, r >= 2.

    Basis: a commutative monomial of degree d - r times a sorted commutator
    [x_{i1}, x_{i2}, ..., x_{ir}] with i1 > i2 <= i3 <= ... <= ir.  For the
    smallest tail letter t there are n - t choices of i1 and
    C(n - t + r - 2, r - 2) nondecreasing tails of length r - 2 from t..n.
    """
    if d < r:
        return 0
    sorted_commutators = sum((n - t) * comb(n - t + r - 2, r - 2) for t in range(1, n + 1))
    return comb(d - r + n - 1, n - 1) * sorted_commutators


def r23_layer_dim(r: int, d: int) -> int:
    """dim of N_r(R_{2,3}(A_2)) in degree d, r > 4.

    The symmetric-algebra factor has dimension e + 1 in degree e; the
    bracket factor sits in degree r as the GL_2 modules (r-1, 1) and
    (r-3, 1) (x) det, of dimensions r - 1 and r - 3.
    """
    if d < r:
        return 0
    return (d - r + 1) * ((r - 1) + (r - 3))


# -- free algebra arithmetic on plain dicts --------------------------------


def add_into(acc: Elem, other: Elem, scale=1) -> None:
    for w, c in other.items():
        s = acc.get(w, 0) + scale * c
        if s:
            acc[w] = s
        else:
            acc.pop(w, None)


def mul(a: Elem, b: Elem) -> Elem:
    out: Elem = {}
    for w1, c1 in a.items():
        for w2, c2 in b.items():
            w = w1 + w2
            s = out.get(w, 0) + c1 * c2
            if s:
                out[w] = s
            else:
                out.pop(w, None)
    return out


def bracket(a: Elem, b: Elem) -> Elem:
    out = mul(a, b)
    add_into(out, mul(b, a), -1)
    return out


def is_lyndon(w: Word) -> bool:
    """A nonempty word strictly smaller than each of its proper suffixes."""
    return bool(w) and all(w < w[i:] for i in range(1, len(w)))


@lru_cache(maxsize=None)
def lyndon_words(n: int, length: int) -> tuple[Word, ...]:
    return tuple(w for w in product(range(1, n + 1), repeat=length) if is_lyndon(w))


def standard_split(w: Word) -> tuple[Word, Word]:
    """w = uv with v the longest proper suffix that is a Lyndon word."""
    for i in range(1, len(w)):
        if is_lyndon(w[i:]):
            return w[:i], w[i:]
    raise ValueError(f"{w} has no proper Lyndon suffix")


@lru_cache(maxsize=None)
def bracketing(w: Word) -> Elem:
    """Standard bracketing of a Lyndon word; callers must not mutate it."""
    if len(w) == 1:
        return {w: Fraction(1)}
    u, v = standard_split(w)
    return bracket(bracketing(u), bracketing(v))


def bracketing_expr(w: Word) -> str:
    """The standard bracketing written in the package's expression grammar."""
    if len(w) == 1:
        return f"x{w[0]}"
    u, v = standard_split(w)
    return f"[{bracketing_expr(u)},{bracketing_expr(v)}]"


def pbw_product(words: tuple[Word, ...]) -> Elem:
    out: Elem = {(): Fraction(1)}
    for w in words:
        out = mul(out, bracketing(w))
    return out


def expand_pbw(terms: dict[tuple[Word, ...], Fraction]) -> Elem | None:
    """Sum of c * b_{w1}...b_{wm} over the terms, or None if some term is not
    a nondecreasing sequence of Lyndon words (then it is no PBW monomial)."""
    out: Elem = {}
    for mono, c in terms.items():
        if any(not is_lyndon(w) for w in mono):
            return None
        if any(mono[i] > mono[i + 1] for i in range(len(mono) - 1)):
            return None
        add_into(out, pbw_product(mono), c)
    return out


def abelian_image(elem: Elem) -> dict[Word, Fraction]:
    """Image in the polynomial ring: each word collapses to its sorted letters."""
    out: dict[Word, Fraction] = {}
    for w, c in elem.items():
        add_into(out, {tuple(sorted(w)): c})
    return out


# -- committed references ----------------------------------------------------


def load_references() -> dict:
    """The committed answer key, each value re-derived from the formulas."""
    refs = json.loads(REFERENCES.read_text())
    for q in refs["containment"]:
        want = theorem_index(q["n"], tuple(q["tuple"]))
        if q["index"] != want:
            raise ValueError(f"committed index {q} disagrees with the theorem ({want})")
    for q in refs["quotient_dims"]:
        if q["mod"] == [2, 2]:
            want = r22_layer_dim(q["n"], q["r"], q["d"])
        else:
            want = r23_layer_dim(q["r"], q["d"])
        if q["dim"] != want:
            raise ValueError(f"committed dimension {q} disagrees with the formula ({want})")
    return refs
