from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsideals.freealg import (
    IDENTITY_NAMES,
    Poly,
    bracket,
    nested,
    verify_identity,
)

from helpers import (
    random_homogeneous,
    random_poly,
    ref_add,
    ref_bracket,
    ref_mul,
    ref_scale,
    ref_terms,
)


def gens(n):
    return [Poly.gen(n, i) for i in range(1, n + 1)]


def test_mul_examples():
    x1, x2 = gens(2)
    assert (x1 * x2).terms == {(1, 2): 1}
    p = random_poly(Random(1), 2, 3)
    assert Poly.one(2) * p == p
    assert p * Poly.one(2) == p
    assert (x1 + x2) * (x1 - x2) == (
        x1 * x1 - x1 * x2 + x2 * x1 - x2 * x2
    )


def test_mul_generator_mismatch():
    with pytest.raises(ValueError):
        Poly.gen(2, 1) * Poly.gen(3, 1)


def test_bracket_examples():
    x1, x2 = gens(2)
    assert bracket(x1, x2).terms == {(1, 2): 1, (2, 1): -1}
    p = random_poly(Random(2), 2, 3)
    assert bracket(p, p).is_zero()
    lhs = bracket(x1 * x2, x2 * x1)
    assert lhs.terms == {(1, 2, 2, 1): 1, (2, 1, 1, 2): -1}


def test_nested_examples():
    x1, x2, x3 = gens(3)
    assert nested([x1]) == x1
    assert nested([x1, x2, x3]) == bracket(x1, bracket(x2, x3))
    with pytest.raises(ValueError):
        nested([])


def test_nested_composite_slot_expansion():
    # last slot a product: expands into four two-factor terms
    n = 4
    x = [None] + [Poly.gen(n, i) for i in range(1, 5)]
    lhs = nested([x[1], x[2], x[3] * x[4]])
    rhs = (
        bracket(x[1], x[3]) * bracket(x[2], x[4])
        + x[3] * nested([x[1], x[2], x[4]])
        + bracket(x[2], x[3]) * bracket(x[1], x[4])
        + nested([x[1], x[2], x[3]]) * x[4]
    )
    assert lhs == rhs


def test_identities_all_hold_on_three_generators():
    for name in IDENTITY_NAMES:
        assert verify_identity(name, 3), name


def test_identity_errors():
    with pytest.raises(ValueError):
        verify_identity("nope", 3)
    with pytest.raises(ValueError):
        verify_identity("pigeonhole", 2)


def test_associativity_randomized():
    rng = Random(3)
    for _ in range(20):
        n = rng.randint(1, 3)
        a, b, c = (random_poly(rng, n, 5, terms=3) for _ in range(3))
        assert (a * b) * c == a * (b * c)


def test_jacobi_and_leibniz_randomized():
    rng = Random(4)
    for _ in range(20):
        n = rng.randint(2, 3)
        a, b, c = (random_poly(rng, n, 5, terms=3) for _ in range(3))
        jac = bracket(a, bracket(b, c)) + bracket(c, bracket(a, b)) + bracket(
            b, bracket(c, a)
        )
        assert jac.is_zero()
        assert bracket(a * b, c) == a * bracket(b, c) + bracket(a, c) * b


def test_bracket_bilinear_randomized():
    rng = Random(5)
    for _ in range(10):
        a, b, c = (random_poly(rng, 2, 3, terms=3) for _ in range(3))
        assert bracket(a + b, c) == bracket(a, c) + bracket(b, c)
        assert bracket(a, b + c) == bracket(a, b) + bracket(a, c)


def test_homogeneous_grading():
    rng = Random(6)
    for _ in range(10):
        da, db = rng.randint(1, 3), rng.randint(1, 3)
        a = random_homogeneous(rng, 2, da)
        b = random_homogeneous(rng, 2, db)
        if a.is_zero() or b.is_zero():
            continue
        assert (a * b).is_zero() or (a * b).degree() == da + db
        br = bracket(a, b)
        assert br.is_zero() or br.degree() == da + db


def test_poly_validation():
    with pytest.raises(ValueError):
        Poly(2, {(3,): 1})
    with pytest.raises(ValueError):
        Poly(2, {(3,): 0})
    with pytest.raises(ValueError):
        Poly(0)
    with pytest.raises(ValueError):
        Poly.one(0)
    assert Poly(2, {(1,): 0}).is_zero()
    assert Poly(2, {(1,): Fraction(0)}).is_zero()


def test_integral_coefficients_are_stored_as_ints():
    p = Poly(2, {(1,): Fraction(4, 2), (2,): 3, (1, 2): Fraction(1, 2)})
    assert [type(c) for c in p.terms.values()] == [int, int, Fraction]
    assert p.terms == {(1,): 2, (2,): 3, (1, 2): Fraction(1, 2)}
    assert type(Poly.scalar(2, Fraction(-6, 3)).terms[()]) is int
    assert type(Poly.gen(2, 1).scale(Fraction(5, 5)).terms[(1,)]) is int
    assert type(Poly.one(2).terms[()]) is int
    assert Poly.gen(2, 1).coefficient((2,)) == 0


def test_floats_are_refused():
    p = Poly.gen(2, 1)
    with pytest.raises(TypeError, match="not an int or a Fraction"):
        Poly(2, {(1,): 0.1})
    with pytest.raises(TypeError):
        Poly(2, {(1,): 0.0})
    with pytest.raises(TypeError):
        p.scale(0.1)
    with pytest.raises(TypeError):
        Poly.monomial(2, (1, 2), 0.5)
    with pytest.raises(TypeError):
        Poly.scalar(2, 2.0)


@pytest.mark.parametrize("other", [0.5, 1.0, "x1", None, [1]])
def test_non_rational_operands_are_not_implemented(other):
    p = Poly.gen(2, 1)
    for method in ("__add__", "__radd__", "__sub__", "__rsub__", "__mul__", "__rmul__"):
        assert getattr(p, method)(other) is NotImplemented, method
    with pytest.raises(TypeError):
        p * other
    with pytest.raises(TypeError):
        other * p
    with pytest.raises(TypeError):
        p + other
    with pytest.raises(TypeError):
        other + p
    with pytest.raises(TypeError):
        p - other
    with pytest.raises(TypeError):
        other - p


def test_rational_operands_are_multiples_of_the_unit():
    p = Poly.gen(2, 1) * Poly.gen(2, 2)
    half = Fraction(1, 2)
    assert p + 1 == 1 + p == p + Poly.one(2)
    assert p - half == p - Poly.scalar(2, half)
    assert 1 - p == Poly.one(2) - p
    assert p * 3 == 3 * p == p + p + p
    assert half * p == p.scale(half)
    assert sum([p, p]) == p.scale(2)
    with pytest.raises(ValueError):
        Poly.gen(2, 1) + Poly.gen(3, 1)


# -- differential: the int-first kernel against the Fraction-only reference ----------

N = 2
coefficients = st.one_of(
    st.integers(-4, 4),
    st.fractions(min_value=-4, max_value=4, max_denominator=4),
)
raw_terms = st.dictionaries(
    st.lists(st.integers(1, N), max_size=3).map(tuple), coefficients, max_size=5
)


def _well_stored(p: Poly) -> bool:
    return all(type(c) in (int, Fraction) and c != 0 for c in p.terms.values())


@settings(derandomize=True, deadline=None, max_examples=60)
@given(raw_terms)
def test_boundary_stores_ints_for_integral_values(raw):
    p = Poly(N, raw)
    assert ref_terms(p) == {w: Fraction(c) for w, c in raw.items() if c}
    for w, c in p.terms.items():
        assert type(c) is (int if Fraction(raw[w]).denominator == 1 else Fraction)


@settings(derandomize=True, deadline=None, max_examples=60)
@given(raw_terms, raw_terms, coefficients)
def test_arithmetic_matches_the_fraction_reference(raw_a, raw_b, c):
    a, b = Poly(N, raw_a), Poly(N, raw_b)
    ra, rb = ref_terms(a), ref_terms(b)
    # (a * geo) * (1 - x1) = a * (1 - x1^4): the second product cancels terms
    geo, step = Poly(N, {(1,) * k: 1 for k in range(4)}), Poly(N, {(): 1, (1,): -1})
    cases = [
        ((a * geo) * step, ref_mul(ref_mul(ra, ref_terms(geo)), ref_terms(step))),
        (a + b, ref_add(ra, rb)),
        (a - b, ref_add(ra, rb, -1)),
        (-a, ref_scale(ra, -1)),
        (a * b, ref_mul(ra, rb)),
        (a.scale(c), ref_scale(ra, c)),
        (c * a, ref_scale(ra, c)),
        (a + c, ref_add(ra, {(): Fraction(c)})),
        (bracket(a, b), ref_bracket(ra, rb)),
    ]
    for got, want in cases:
        assert ref_terms(got) == want
        assert _well_stored(got)


def test_scalar_and_unit_embedding():
    one = Poly.one(3)
    assert one.degree() == 0
    assert one.terms == {(): 1}
    assert Poly.scalar(3, 0).is_zero()


def test_public_api_exports():
    import lcsideals

    for name in lcsideals.__all__:
        assert hasattr(lcsideals, name), name
