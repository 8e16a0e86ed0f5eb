from random import Random

import pytest

from lcsideals.freealg import (
    IDENTITY_NAMES,
    Poly,
    adjoint_power,
    bracket,
    nested,
    verify_identity,
)

from helpers import random_homogeneous, random_poly


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


def test_adjoint_power():
    x1, x2 = gens(2)
    assert adjoint_power(x2, 0, x1) == x1
    assert adjoint_power(x2, 2, x1) == bracket(x2, bracket(x2, x1))


def test_poly_validation():
    with pytest.raises(ValueError):
        Poly(2, {(3,): 1})
    with pytest.raises(ValueError):
        Poly(0)
    assert Poly(2, {(1,): 0}).is_zero()


def test_scalar_and_unit_embedding():
    one = Poly.one(3)
    assert one.degree() == 0
    assert one.terms == {(): 1}
    assert Poly.scalar(3, 0).is_zero()


def test_public_api_exports():
    import lcsideals

    for name in lcsideals.__all__:
        assert hasattr(lcsideals, name), name
