"""Randomized differential tests: the package's L, M and product spans against
the brute-force oracles, on spans and on membership of random elements.

Hypothesis runs derandomized with a small example budget, so the suite
stays deterministic and fast.
"""

from fractions import Fraction
from functools import cache

from hypothesis import given, settings
from hypothesis import strategies as st

from lcsideals.freealg import Poly
from lcsideals.series import l_span, m_span, product_span

from helpers import oracle_l_span, oracle_m_span, oracle_product_span, random_homogeneous

# the oracle pads every spanning chain on both sides: keep it small
ORACLE_RANGE = {2: (4, 6), 3: (3, 5)}  # n -> (largest k, largest degree)

cells = st.sampled_from(sorted(ORACLE_RANGE)).flatmap(
    lambda n: st.tuples(
        st.just(n),
        st.integers(2, ORACLE_RANGE[n][0]),
        st.integers(0, ORACLE_RANGE[n][1]),
    )
)

oracle = cache(oracle_m_span)


@settings(derandomize=True, deadline=None, max_examples=15)
@given(cells)
def test_m_span_equals_oracle(cell):
    got, want = m_span(*cell), oracle(*cell)
    assert got.pivot_words() == want.pivot_words()
    assert got.row_polys() == want.row_polys()


@settings(derandomize=True, deadline=None, max_examples=15)
@given(cells)
def test_l_span_equals_oracle(cell):
    # the necklace build against the brackets of every monomial slot
    got, want = l_span(*cell), oracle_l_span(*cell)
    assert got.pivot_words() == want.pivot_words()
    assert got.row_polys() == want.row_polys()


@settings(derandomize=True, deadline=None, max_examples=30)
@given(cells, st.randoms(use_true_random=False), st.booleans())
def test_m_span_membership_agrees_with_oracle(cell, rng, perturb):
    n, _, d = cell
    want = oracle(*cell)
    p = Poly.zero(n)
    for row in want.row_polys():
        p = p + row.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if perturb:
        p = p + random_homogeneous(rng, n, d)
    assert m_span(*cell).contains(p) == want.contains(p)


# products of 2 and 3 factors in the same oracle range, drawn from their
# minimal degree up: (n, factor indices, largest degree)
PRODUCT_RANGE = [
    (2, (2, 2), 7),
    (2, (2, 3), 7),
    (2, (3, 2), 7),
    (2, (2, 2, 2), 7),
    (3, (2, 2), 5),
    (3, (2, 3), 5),
    (3, (3, 2), 5),
]

product_cells = st.sampled_from(PRODUCT_RANGE).flatmap(
    lambda r: st.tuples(st.just(r[0]), st.just(r[1]), st.integers(sum(r[1]), r[2]))
)

product_oracle = cache(oracle_product_span)


@settings(derandomize=True, deadline=None, max_examples=20)
@given(product_cells)
def test_product_span_equals_oracle(cell):
    got, want = product_span(*cell), product_oracle(*cell)
    assert got.pivot_words() == want.pivot_words()
    assert got.row_polys() == want.row_polys()


@settings(derandomize=True, deadline=None, max_examples=30)
@given(product_cells, st.randoms(use_true_random=False), st.booleans())
def test_product_span_membership_agrees_with_oracle(cell, rng, perturb):
    n, _, d = cell
    want = product_oracle(*cell)
    p = Poly.zero(n)
    for row in want.row_polys():
        p = p + row.scale(Fraction(rng.randint(-3, 3), rng.randint(1, 2)))
    if perturb:
        p = p + random_homogeneous(rng, n, d)
    assert product_span(*cell).contains(p) == want.contains(p)
