from fractions import Fraction
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lcsideals import exprs
from lcsideals.exprs import (
    MAX_NESTING,
    ExprDegreeError,
    ExprSyntaxError,
    parse_expr,
    poly_to_expr,
)
from lcsideals.freealg import Poly, bracket, nested

from helpers import random_poly, ref_bracket, ref_parse_expr, ref_terms


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


# -- the tokenising parser against the reference parser -------------------------

SPACES = ["", "", "", " ", "  ", "\t", "\n", "\u00a0", "\x1c"]
JOINS = ["*"] * 4 + [" * ", " ", " ", "\t*", "\n", ""]
# mutations: a zero or two-digit index, another script's digit, a lone x
INSERTS = list("x0123456789()[],+-*/ ") + ["x0", "x12", "\u0663", "\u00b2", "x", "\t"]


def grammar_text(rng: Random, n: int) -> str:
    """A random expression over x1..xn: spaces, juxtaposition, p/q literals,
    signs, nested ( and [.  At most four groups, so no product grows large.
    Now and then it writes x(n+1) or a zero denominator, or juxtaposes a
    digit to a generator or a number; both parsers must refuse these alike."""
    groups = [4]

    def space() -> str:
        return rng.choice(SPACES)

    def factor(depth: int) -> str:
        kind = rng.randrange(10 if depth < 2 and groups[0] else 6)
        if kind <= 2:
            top = n + 1 if rng.random() < 0.02 else n
            return f"x{rng.randint(1, top)}"
        if kind == 3:
            return str(rng.randint(0, 12))
        if kind <= 5:
            least = 0 if rng.random() < 0.02 else 1
            return f"{rng.randint(0, 9)}{space()}/{space()}{rng.randint(least, 9)}"
        groups[0] -= 1
        if kind <= 7:
            return "(" + space() + expr(depth + 1) + space() + ")"
        args = (expr(depth + 1) for _ in range(rng.randint(1, 3)))
        return "[" + (space() + "," + space()).join(args) + "]"

    def term(depth: int) -> str:
        out = factor(depth)
        for _ in range(rng.randint(0, 3)):
            out += rng.choice(JOINS) + factor(depth)
        return out

    def expr(depth: int) -> str:
        out = rng.choice(["", "", "-", "+", "- "]) + term(depth)
        for _ in range(rng.randint(0, 2)):
            out += space() + rng.choice("+-") + space() + term(depth)
        return out

    return space() + expr(0) + space()


def mutate(rng: Random, text: str) -> str:
    for _ in range(rng.randint(1, 2)):
        at = rng.randint(0, len(text))
        if text and rng.random() < 0.5:
            text = text[:at] + text[at + 1 :]
        else:
            text = text[:at] + rng.choice(INSERTS) + text[at:]
    return text


def outcome(parse, text: str, n: int):
    """The parsed Poly, or the exception's type, message and position."""
    try:
        return parse(text, n)
    except ExprSyntaxError as exc:
        return type(exc), str(exc), exc.pos


def assert_parses_alike(text: str, n: int) -> None:
    assert outcome(parse_expr, text, n) == outcome(ref_parse_expr, text, n), repr(text)


@pytest.mark.parametrize("seed", range(4))
def test_parser_matches_reference_on_seeded_texts(seed):
    rng = Random(seed)
    for _ in range(400):
        n = rng.randint(1, 3)
        text = grammar_text(rng, n)
        assert_parses_alike(text, n)
        assert_parses_alike(mutate(rng, text), n)


@settings(derandomize=True, deadline=None, max_examples=300)
@given(st.randoms(use_true_random=False), st.integers(1, 3), st.booleans())
def test_parser_matches_reference_on_generated_texts(rng, n, mutated):
    text = grammar_text(rng, n)
    assert_parses_alike(mutate(rng, text) if mutated else text, n)


@pytest.mark.parametrize(
    "text",
    [
        "", "   ", "x", "x0", "x01", "x12 ", "x1x2x3", "2x1 3x2", "x1 2/3", "2/3/4",
        "1 / 0", "1/00", "1/", "1/ x1", "--x1", "+x1", "- x1", "x1 +", "x1 ++ x2",
        "()", "[]", "[x1,]", "[,x1]", "(x1", "x1)", "[x1 x2, x3]", "(x1)(x2)3",
        "x1*\u0663", "\u0663", "x\u00b2", "2/\u0663", "x1 \u0662", "x1\u0663",
        "x1/2", "x1*", "*x1", "[x1,x2]x3[x2,x1]", "0*[x1,x2] + 0", "7/7*x1 - x1",
        "1/2*2*x1", "x1 \u00a0* x2", "x4", "[x1,x4]", "1/2 (x1 + x2) [x1, x2] x1",
    ],
)
def test_parser_matches_reference_on_edge_cases(text):
    assert_parses_alike(text, 3)


@pytest.mark.parametrize("count", range(1, 6))
def test_nested_matches_a_fold_of_the_reference_bracket(count):
    rng = Random(count)
    for _ in range(10):
        args = [random_poly(rng, 2, 2, terms=3) for _ in range(count)]
        folded = ref_terms(args[-1])
        for a in reversed(args[:-1]):
            folded = ref_bracket(ref_terms(a), folded)
        assert ref_terms(nested(args)) == folded


def test_monomial_term_builds_no_poly_product(monkeypatch):
    def refuse(self, other):
        raise AssertionError("a Poly product on the monomial path")

    monkeypatch.setattr(Poly, "__mul__", refuse)
    assert parse_expr("3*x1*x2*x3*x1", 3).terms == {(1, 2, 3, 1): 3}
    assert parse_expr("2/3 x1 x2 - 4x3 + 1/2 x2 2", 3).terms == {
        (1, 2): Fraction(2, 3), (3,): -4, (2,): 1
    }


def test_integral_literal_products_are_stored_as_int():
    p = parse_expr("1/2*2*x1 + 4/2*x2", 2)
    assert p.terms == {(1,): 1, (2,): 2}
    assert all(type(c) is int for c in p.terms.values())


def test_max_degree_counts_words_as_written():
    word = "x1" * 11
    assert parse_expr(word, 2).degree() == 11  # the library default is unlimited
    with pytest.raises(ExprDegreeError) as err:
        parse_expr(word, 2, max_degree=10)
    assert (err.value.degree, err.value.pos) == (11, 20)
    # a bracket whose words pass the cap is refused although it is zero
    with pytest.raises(ExprDegreeError) as err:
        parse_expr("[x1x1x1x1x1x1, x1x1x1x1x1x1]", 2, max_degree=10)
    assert (err.value.degree, err.value.pos) == (12, 0)
    assert parse_expr("x1x1x1x1x1 - x1x1x1x1x1", 2, max_degree=5).is_zero()
    assert parse_expr("3", 2, max_degree=0) == Poly.scalar(2, 3)
    with pytest.raises(ExprDegreeError):
        parse_expr("x1", 2, max_degree=0)


def test_max_degree_refuses_before_expanding(monkeypatch):
    with pytest.raises(ExprDegreeError, match="degree 11 exceeds max_degree=10") as err:
        parse_expr("(x1+x2)" * 12, 2, max_degree=10)
    assert err.value.pos == 70  # the eleventh factor

    def refuse(*args):
        raise AssertionError("expanded past the cap")

    # the product and the bracket that would pass the cap are never formed
    monkeypatch.setattr(Poly, "__mul__", refuse)
    monkeypatch.setattr(exprs, "nested", refuse)
    for text in ("(x1x1x1x1x1x1)(x1x1x1x1x1x1)", "[x1x1x1x1x1x1, x1x1x1x1x1x1]"):
        with pytest.raises(ExprDegreeError, match="degree 12"):
            parse_expr(text, 2, max_degree=10)


def test_nesting_is_limited():
    for open_, close in (("(", ")"), ("[", "]")):
        deepest = open_ * MAX_NESTING + "x1" + close * MAX_NESTING
        assert parse_expr(deepest, 2) == Poly.gen(2, 1)
        for depth in (MAX_NESTING + 1, 2000):
            with pytest.raises(ExprSyntaxError, match="nesting deeper than") as err:
                parse_expr(open_ * depth + "x1" + close * depth, 2)
            assert err.value.pos == MAX_NESTING
    with pytest.raises(ExprSyntaxError, match="nesting deeper than") as err:
        parse_expr(" " + "([" * MAX_NESTING, 2)
    assert err.value.pos == 1 + MAX_NESTING
    # the limit is on depth, not on the number of groups
    assert parse_expr(" + ".join(["(x1)"] * (2 * MAX_NESTING)), 2) == Poly.monomial(
        2, (1,), 2 * MAX_NESTING
    )
