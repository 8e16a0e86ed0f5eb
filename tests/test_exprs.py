from fractions import Fraction
from random import Random

import pytest

from lcsideals.exprs import ExprSyntaxError, parse_expr, poly_to_expr
from lcsideals.freealg import Poly, bracket, nested

from helpers import random_poly


def test_bracket_parse():
    assert parse_expr("[x1,x2]", 2) == bracket(Poly.gen(2, 1), Poly.gen(2, 2))


def test_right_normed_chain():
    x1, x2, x3 = (Poly.gen(3, i) for i in (1, 2, 3))
    assert parse_expr("[x1,x2,x3]", 3) == bracket(x1, bracket(x2, x3))
    assert parse_expr("[x1,x2,x3]", 3) == nested([x1, x2, x3])


def test_fraction_coefficient():
    p = parse_expr("2/3*x1*x1", 2)
    assert p.terms == {(1, 1): Fraction(2, 3)}


def test_juxtaposition_and_parens():
    assert parse_expr("x1x2", 2) == parse_expr("x1*x2", 2)
    assert parse_expr("2(x1+x2)x1", 2) == parse_expr("2*x1*x1 + 2*x2*x1", 2)
    assert parse_expr("-x1 + x1", 2).is_zero()


def test_grammar_example():
    p = parse_expr("[x1,x2]*[x1,x2] + 2/3*x1*[x2,x1,x1]", 2)
    w = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    assert p == w * w  # the second summand contains [x1,x1] = 0


def test_single_slot_bracket():
    assert parse_expr("[x1]", 2) == Poly.gen(2, 1)


def test_syntax_errors_carry_position():
    with pytest.raises(ExprSyntaxError) as err:
        parse_expr("x1 + ", 2)
    assert err.value.pos == 5
    with pytest.raises(ExprSyntaxError):
        parse_expr("[x1,x2", 2)
    with pytest.raises(ExprSyntaxError):
        parse_expr("x1 x2 )", 2)
    with pytest.raises(ExprSyntaxError, match="zero denominator") as err:
        parse_expr("1/0", 2)
    assert err.value.pos == 3


def test_generator_out_of_range():
    with pytest.raises(ExprSyntaxError):
        parse_expr("x3", 2)
    for n in (0, 10):  # the grammar reads one-digit generator indices
        with pytest.raises(ValueError, match="supports n in 1..9"):
            parse_expr("x1", n)


def test_digit_after_generator_index_is_an_error():
    # x10 once parsed as x1*0 and x12 as 2*x1
    for text in ("x10", "x12", "[x1,x23]"):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 3)
        assert text[err.value.pos].isdigit() and text[err.value.pos - 2] == "x"
    assert parse_expr("x1 2", 3) == parse_expr("2*x1", 3)


def test_space_inside_generator_is_an_error():
    # "x 1" once parsed as x1
    for text in ("x 1", "[x1 , x 2]", "x\t2"):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 2)
        assert text[err.value.pos - 1] == "x"
    assert parse_expr(" [ x1 , x2 ] ", 2) == parse_expr("[x1,x2]", 2)


def test_non_ascii_digits_are_errors():
    # str.isdigit once let "x1*٣" parse as 3*x1, and "x²" raised a bare
    # ValueError from int() with no position
    for text, pos in (("x1*٣", 3), ("٣", 0), ("x²", 1), ("2/٣", 2), ("x1 ٢", 3)):
        with pytest.raises(ExprSyntaxError) as err:
            parse_expr(text, 3)
        assert err.value.pos == pos
    assert parse_expr("x1*3", 3) == parse_expr("3*x1", 3)


def test_printer_examples():
    assert poly_to_expr(Poly.zero(2)) == "0"
    assert poly_to_expr(Poly.one(2)) == "1"
    assert poly_to_expr(Poly.scalar(2, Fraction(-2, 3))) == "-2/3"
    w = bracket(Poly.gen(2, 1), Poly.gen(2, 2))
    assert poly_to_expr(w) == "x1*x2 - x2*x1"


def test_parse_is_left_inverse_of_printer():
    rng = Random(7)
    for _ in range(50):
        n = rng.randint(1, 3)
        p = random_poly(rng, n, 4, terms=5)
        assert parse_expr(poly_to_expr(p), n) == p
