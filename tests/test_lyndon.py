from collections import Counter
from fractions import Fraction
from math import comb
from random import Random

import pytest

from lcsideals.freealg import Poly, all_words, bracket, nested
from lcsideals import lyndon
from lcsideals.lyndon import (
    is_lyndon,
    lyndon_factor_split,
    lyndon_words,
    pbw_degree,
    standard_bracketing,
    straighten,
    witt_dimension,
)

from helpers import (
    brute_lyndon_words,
    filtration_space,
    lyndon_coefficients,
    random_poly,
    ref_is_lyndon,
    ref_straighten_word,
    ref_swap_pair,
)


def test_lyndon_words_small_sets():
    assert set(lyndon_words(2, 2)) == {(1,), (2,), (1, 2)}
    assert set(lyndon_words(2, 3)) == {(1,), (2,), (1, 2), (1, 1, 2), (1, 2, 2)}
    assert lyndon_words(1, 5) == [(1,)]


def test_lyndon_words_match_rotation_definition():
    for n in (2, 3, 4, 5):
        assert lyndon_words(n, 5) == brute_lyndon_words(n, 5)


def test_witt_counts_up_to_degree_eight():
    for n in (2, 3):
        words = lyndon_words(n, 8)
        for d in range(1, 9):
            assert sum(1 for w in words if len(w) == d) == witt_dimension(n, d)


def test_witt_dimension_refuses_what_lyndon_words_refuses():
    # degree 0 raised ZeroDivisionError and a negative degree returned 0
    for n, d in ((2, 0), (2, -1), (0, 3)):
        for ask in (witt_dimension, lyndon_words):
            with pytest.raises(ValueError, match="need n >= 1 and d >= 1"):
                ask(n, d)


def test_standard_bracketing_examples():
    x1, x2 = Poly.gen(2, 1), Poly.gen(2, 2)
    assert standard_bracketing((1, 2), 2) == bracket(x1, x2)
    # standard factorization 1|12 and 12|2
    assert standard_bracketing((1, 1, 2), 2) == nested([x1, x1, x2])
    assert standard_bracketing((1, 2, 2), 2) == bracket(bracket(x1, x2), x2)


def test_is_lyndon_matches_the_rotation_test():
    # every word with n <= 3 letters and degree <= 8, the empty word included
    words = [w for n in (1, 2, 3) for d in range(9) for w in all_words(n, d)]
    assert len(words) == 10361
    for w in words:
        assert is_lyndon(w) == ref_is_lyndon(w), w


def test_standard_bracketing_rejects_non_lyndon():
    assert not is_lyndon((2, 1))
    with pytest.raises(ValueError):
        standard_bracketing((2, 1), 2)


def test_straighten_transposition():
    # x2x1 = x1·x2 (ordered) minus the Lyndon bracketing [x1,x2]
    p = Poly.monomial(2, (2, 1))
    e = straighten(p)
    assert e.terms == {
        ((1,), (2,)): Fraction(1),
        ((1, 2),): Fraction(-1),
    }


def test_straighten_fixes_basis_elements():
    for w in [(1, 1, 2), (1, 2), (1, 2, 2)]:
        e = straighten(standard_bracketing(w, 2))
        assert e.terms == {(w,): Fraction(1)}


def test_straighten_round_trip_randomized():
    rng = Random(8)
    for _ in range(40):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 5, terms=4)
        assert straighten(p).to_poly() == p


def test_straighten_is_linear():
    rng = Random(9)
    for _ in range(10):
        p = random_poly(rng, 2, 4, terms=3)
        q = random_poly(rng, 2, 4, terms=3)
        lhs = straighten(p + q)
        terms = dict(straighten(p).terms)
        for m, c in straighten(q).terms.items():
            s = terms.get(m, 0) + c
            if s:
                terms[m] = s
            else:
                terms.pop(m, None)
        assert lhs.terms == terms


def test_pbw_degree_examples():
    x1, x2 = Poly.gen(2, 1), Poly.gen(2, 2)
    assert pbw_degree(nested([x1, x1, x2])) == 1
    w = bracket(x1, x2)
    assert pbw_degree(w * w) == 2
    assert pbw_degree(Poly.scalar(2, 5)) == 0
    with pytest.raises(ValueError):
        pbw_degree(Poly.zero(2))


def test_pbw_degree_of_composite_slot_chain():
    n = 4
    x = [None] + [Poly.gen(n, i) for i in range(1, 5)]
    assert pbw_degree(nested([x[1], x[2], x[3] * x[4]])) == 2


def test_pbw_degree_against_filtration_oracle():
    # independent check: smallest r with membership in the span of
    # products of at most r standard bracketings
    rng = Random(10)
    cases = [
        Poly.monomial(2, (2, 1)),
        bracket(Poly.monomial(2, (1, 2)), Poly.monomial(2, (2, 1))),
        bracket(Poly.gen(2, 1), Poly.gen(2, 2)) * Poly.gen(2, 1),
    ]
    for _ in range(5):
        p = random_poly(rng, 2, 4, terms=3).homogeneous_component(3)
        if not p.is_zero():
            cases.append(p)
    for p in cases:
        d = p.degree()
        claimed = pbw_degree(p)
        assert filtration_space(2, claimed, d).contains(p)
        if claimed > 1:
            assert not filtration_space(2, claimed - 1, d).contains(p)


def test_bracketing_leading_word_is_the_lyndon_word():
    # triangularity that the rewriting rule's proof and the peel of
    # helpers.lyndon_coefficients rest on
    for n, d_max in ((2, 10), (3, 7)):
        for w in lyndon_words(n, d_max):
            b = standard_bracketing(w, n)
            assert min(b.terms) == w
            assert b.terms[w] == 1


def test_peeling_recovers_lyndon_coefficients():
    rng = Random(11)
    for n, d_max in ((2, 9), (3, 7)):
        for d in range(1, d_max + 1):
            words = [w for w in lyndon_words(n, d) if len(w) == d]
            for _ in range(3):
                chosen = rng.sample(words, min(len(words), 4))
                want = {
                    w: Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 4))
                    for w in chosen
                }
                p = Poly.zero(n)
                for w, c in want.items():
                    p = p + standard_bracketing(w, n).scale(c)
                assert lyndon_coefficients(n, p) == want


def test_peeling_rejects_non_lie_elements():
    with pytest.raises(ValueError, match="not in the free Lie algebra"):
        lyndon_coefficients(2, Poly.monomial(2, (1, 2)))
    assert lyndon_coefficients(2, Poly.zero(2)) == {}


def test_clear_caches_empties_every_cache():
    # the pbw_straighten bench workload resets with it before each question,
    # so a cache it missed would make later questions cheaper
    straighten(nested([Poly.gen(2, 2), Poly.gen(2, 1), Poly.gen(2, 1)]) * Poly.gen(2, 2))
    standard_bracketing((1, 1, 2), 2)
    caches = [f for f in vars(lyndon).values() if hasattr(f, "cache_clear")]
    known = (lyndon._bracketing_cached, lyndon._straighten_word)
    assert set(known) <= set(caches)
    assert all(f.cache_info().currsize for f in caches)
    lyndon.clear_caches()
    assert [f.cache_info().currsize for f in caches] == [0] * len(caches)


def test_standard_bracketing_builds_each_sub_bracketing_once(monkeypatch):
    calls = Counter()
    build = lyndon.standard_bracketing

    def counted(w, n):
        calls[w] += 1
        return build(w, n)

    monkeypatch.setattr(lyndon, "standard_bracketing", counted)
    lyndon.clear_caches()
    for w in lyndon_words(2, 8):
        lyndon._bracketing_cached(2, w)
    assert set(calls.values()) == {1}
    assert len(calls) == lyndon._bracketing_cached.cache_info().currsize
    lyndon.clear_caches()


def _integer_poly(rng: Random, n: int, max_deg: int) -> Poly:
    return Poly(n, {
        tuple(rng.randint(1, n) for _ in range(rng.randint(0, max_deg))): rng.randint(-4, 4)
        for _ in range(4)
    })


def test_straightening_integers_stays_in_ints():
    rng = Random(12)
    for _ in range(30):
        p = _integer_poly(rng, rng.randint(1, 3), 6)
        e = straighten(p)
        assert all(type(c) is int for c in e.terms.values())
        assert e.to_poly() == p


def test_straightening_rationals_stays_exact():
    rng = Random(13)
    two_thirds = Fraction(2, 3)
    for _ in range(20):
        p = _integer_poly(rng, rng.randint(1, 3), 6)
        e = straighten(p.scale(two_thirds))
        assert all(type(c) in (int, Fraction) for c in e.terms.values())
        assert e.terms == {m: two_thirds * c for m, c in straighten(p).terms.items()}
        assert e.to_poly() == p.scale(two_thirds)


# (n, largest |u| + |v|) of the Lyndon pairs u > v scanned: 5106 pairs, of
# which 2499 can meet at a first descent
REFERENCE_PAIRS = ((2, 10), (3, 8), (4, 6))


def test_bracket_of_a_standard_factorization_is_one_word():
    # the pairs the straightening loop can meet at a first descent u > v:
    # v is a letter or its right factor v2 is >= u, and then
    # [b_u, b_v] = -b_vu, the one word the loop merges into
    pairs = 0
    for n, s in REFERENCE_PAIRS:
        words = lyndon_words(n, s - 1)
        for u in words:
            for v in words:
                if u > v and len(u) + len(v) <= s:
                    if len(v) == 1 or lyndon_factor_split(v)[1] >= u:
                        assert ref_swap_pair(n, u, v) == {v + u: -1}, (n, u, v)
                        pairs += 1
    assert pairs == 2499
    lyndon.clear_caches()


# (n, largest degree) of the words on which the largest-first loop must match
# the last-in-first-out reference
REFERENCE_WORDS = ((2, 9), (3, 6), (4, 4))


def test_straighten_word_matches_the_worklist_reference():
    # each word once with every cache cleared before it, then all words
    # again with the caches shared
    words = [
        (n, w) for n, d_max in REFERENCE_WORDS for d in range(d_max + 1) for w in all_words(n, d)
    ]
    want = {}
    for n, w in words:
        lyndon.clear_caches()
        got = lyndon._straighten_word(n, w)
        want[n, w] = ref_straighten_word(n, w)
        assert got == want[n, w], (n, w)
    lyndon.clear_caches()
    for n, w in words:
        assert lyndon._straighten_word(n, w) == want[n, w], (n, w)
    lyndon.clear_caches()


def _x2_x1_power(length: int) -> Poly:
    return Poly.monomial(2, (2,) + (1,) * length)


@pytest.mark.parametrize("length", [8, 12, 16])
def test_each_factor_sequence_is_rewritten_once(monkeypatch, length):
    # the sequences x1^a·b_(1^k 2)·x1^b with b >= 1 are rewritten; every
    # sequence but the start is queued once, when it is first reached: the
    # L(L+1)/2 rewritten plus the L+1 sorted, less the start.  A
    # last-in-first-out worklist made 2^L - 1 rewrites
    queued = []
    insort = lyndon.insort

    def counted(order, seq):
        queued.append(seq)
        insort(order, seq)

    lyndon.clear_caches()
    monkeypatch.setattr(lyndon, "insort", counted)
    straighten(_x2_x1_power(length))
    assert len(queued) == length * (length + 1) // 2 + length
    assert len(set(queued)) == len(queued)
    monkeypatch.undo()
    lyndon.clear_caches()


def test_x2_times_a_power_of_x1_in_closed_form():
    # x2·x1^L = Σ_k (-1)^k C(L,k) · x1^(L-k) · b_(1^k 2), out of reach of the
    # worklist reference, which needs 2^L - 1 rewrites
    length = 40
    want = {
        ((1,),) * (length - k) + ((1,) * k + (2,),): (-1) ** k * comb(length, k)
        for k in range(length + 1)
    }
    assert straighten(_x2_x1_power(length)).terms == want
    assert pbw_degree(_x2_x1_power(length)) == length + 1
    lyndon.clear_caches()
