"""Element-expression grammar: parsing and canonical printing.

Grammar accepted by parse_expr (n is the generator count of the result):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*'? factor)*          juxtaposition multiplies
    factor  := NUMBER | GEN | '(' expr ')' | '[' expr (',' expr)* ']'
    NUMBER  := digits ('/' digits)?           a rational literal
    GEN     := 'x' digit                      one of x1..x9, no space inside,
                                              no digit after it

Brackets denote right-normed commutator chains, nested at most
MAX_NESTING deep.  Whitespace may stand between any two tokens but not
inside one (a generator or a digit run).  The canonical printer
emits expressions this grammar parses back to the same element.
"""

from __future__ import annotations

import re
from fractions import Fraction

from .freealg import Poly, Rational, Word, _trusted, nested, word_key

# str.isdigit also accepts non-ASCII digits such as '٣' and '²'
DIGITS = frozenset("0123456789")


def read_indices(text: str) -> tuple[int, ...]:
    """A comma-separated list of indices in ASCII digits; spaces may stand
    around each item, but no sign, underscore or other digit."""
    items = [s.strip() for s in text.split(",")]
    if not all(s and DIGITS.issuperset(s) for s in items):
        raise ValueError(f"cannot parse index tuple {text!r}")
    return tuple(int(s) for s in items)


def count(text: str) -> int:
    """One item of read_indices: a non-negative integer in ASCII digits."""
    (k,) = read_indices(text)
    return k


# a generator (a glued second digit kept, to be refused), an ASCII digit
# run, or any other character but whitespace, which findall skips
_TOKEN = re.compile(r"x[1-9][0-9]?|[0-9]+|\S")
# a factor may start with one of these; "" is the end of input
_FACTOR_START = frozenset("0123456789x([")
MAX_NESTING = 100
# the generator tokens of x1..xn, for each n
_LETTERS = [{f"x{i}": i for i in range(1, n + 1)} for n in range(10)]


class ExprSyntaxError(ValueError):
    """Malformed element expression; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class ExprDegreeError(ExprSyntaxError):
    """A product whose words, as written, pass parse_expr's max_degree."""

    def __init__(self, degree: int, max_degree: int, pos: int):
        super().__init__(f"degree {degree} exceeds max_degree={max_degree}", pos)
        self.degree = degree


class _Parser:
    """Recursive descent over the token list; each level returns a terms
    dict it owns and the degree of its words as written."""

    def __init__(self, text: str, n: int, max_degree: int | None):
        self.text = text
        self.n = n
        self.letters = _LETTERS[n]
        # no more letters than characters are written
        self.cap = len(text) if max_degree is None else max_degree
        self.toks = _TOKEN.findall(text)
        self.toks.append("")  # the end of input
        self.i = 0
        self.depth = 0

    def pos(self, i: int, offset: int = 0) -> int:
        """The text position of token i, plus offset; the end for the sentinel."""
        for j, m in enumerate(_TOKEN.finditer(self.text)):
            if j == i:
                return m.start() + offset
        return len(self.text)

    def error(self, message: str, i: int, offset: int = 0) -> ExprSyntaxError:
        return ExprSyntaxError(message, self.pos(i, offset))

    def over_cap(self, degree: int, i: int) -> ExprDegreeError:
        return ExprDegreeError(degree, self.cap, self.pos(i))

    def bad_factor(self, i: int) -> ExprSyntaxError:
        t = self.toks[i]
        if t[:1] != "x":
            return self.error("expected a factor", i)
        if len(t) == 1:
            return self.error("expected generator index 1..9 after 'x'", i, 1)
        if len(t) == 3:
            return self.error("generator index must be one digit 1..9", i, 2)
        return self.error(f"generator {t} exceeds configured n={self.n}", i)

    def parse(self) -> Poly:
        terms, _ = self.expr()
        if self.toks[self.i]:
            raise self.error("trailing input", self.i)
        return _trusted(self.n, terms)

    def expr(self) -> tuple[dict[Word, Rational], int]:
        toks = self.toks
        negate = toks[self.i] == "-"
        if negate or toks[self.i] == "+":
            self.i += 1
        acc, degree = self.term()
        if negate:
            acc = {w: -c for w, c in acc.items()}
        get = acc.get
        while (op := toks[self.i]) == "+" or op == "-":
            self.i += 1
            terms, d = self.term()
            degree = max(degree, d)
            for w, c in terms.items():
                s = get(w, 0) + c if op == "+" else get(w, 0) - c
                if s:
                    acc[w] = s
                else:
                    del acc[w]
        return acc, degree

    def term(self) -> tuple[dict[Word, Rational], int]:
        """Numbers and generators gather into one coefficient and one word;
        only a parenthesised or bracketed factor costs a Poly product."""
        toks, letters, n, cap, i = self.toks, self.letters, self.n, self.cap, self.i
        coef: Rational = 1
        word: list[int] = []
        acc = None  # the product before word, once a group has been read
        degree = 0
        while True:
            t = toks[i]
            letter = letters.get(t)
            if letter:
                word.append(letter)
                degree += 1
                if degree > cap:
                    raise self.over_cap(degree, i)
                i += 1
            elif t[:1] in DIGITS:
                i += 1
                if toks[i] != "/":
                    coef *= int(t)
                else:
                    i += 1
                    if toks[i][:1] not in DIGITS:
                        raise self.error("expected denominator digits", i)
                    den = int(toks[i])
                    if den == 0:
                        raise self.error("zero denominator", i, len(toks[i]))
                    coef *= Fraction(int(t), den)
                    i += 1
            elif t == "(" or t == "[":
                self.i = i
                group, d = self.group()
                degree += d
                if degree > cap:
                    raise self.over_cap(degree, i)
                i = self.i
                if word:
                    acc = {tuple(word): 1} if acc is None else _append(acc, word)
                    word = []
                acc = group if acc is None else (_trusted(n, acc) * _trusted(n, group)).terms
            else:
                raise self.bad_factor(i)
            t = toks[i]
            if t == "*":
                i += 1
            elif t[:1] not in _FACTOR_START:
                break
        self.i = i
        if coef.denominator == 1:  # an int, or an integral Fraction
            coef = coef.numerator
        if not coef:
            return {}, degree
        if acc is None:
            return {tuple(word): coef}, degree
        if word:
            acc = _append(acc, word)
        if coef != 1:
            acc = {w: v * coef for w, v in acc.items()}
        return acc, degree

    def group(self) -> tuple[dict[Word, Rational], int]:
        """'(' expr ')' or '[' expr (',' expr)* ']', opening at the current token."""
        toks, opened = self.toks, self.i
        if self.depth == MAX_NESTING:
            raise self.error(f"nesting deeper than {MAX_NESTING} levels", opened)
        self.depth += 1
        self.i += 1
        args = [self.expr()]
        close = ")" if toks[opened] == "(" else "]"
        while close == "]" and toks[self.i] == ",":
            self.i += 1
            args.append(self.expr())
        if toks[self.i] != close:
            raise self.error(f"expected {close!r}", self.i)
        self.i += 1
        self.depth -= 1
        if len(args) == 1:
            return args[0]
        degree = sum(d for _, d in args)
        if degree > self.cap:
            raise self.over_cap(degree, opened)
        return nested([_trusted(self.n, terms) for terms, _ in args]).terms, degree


def _append(terms: dict[Word, Rational], word: list[int]) -> dict[Word, Rational]:
    """The terms of p * word."""
    tail = tuple(word)
    return {w + tail: c for w, c in terms.items()}


def parse_expr(text: str, n: int, *, max_degree: int | None = None) -> Poly:
    """Parse an element expression over generators x1..xn.

    With max_degree set, ExprDegreeError is raised as soon as a product's
    words, as written and before any cancellation, pass that degree.
    """
    if not 1 <= n <= 9:
        raise ValueError("expression grammar supports n in 1..9")
    return _Parser(text, n, max_degree).parse()


def format_fraction(c: Fraction) -> str:
    """Canonical rational rendering p/q in lowest terms, q > 0."""
    c = Fraction(c)
    if c.denominator == 1:
        return str(c.numerator)
    return f"{c.numerator}/{c.denominator}"


def poly_to_expr(p: Poly) -> str:
    """Canonical printable form; parse_expr inverts it."""
    if p.is_zero():
        return "0"
    pieces: list[tuple[str, str]] = []
    for w, c in sorted(p.terms.items(), key=lambda kv: word_key(kv[0])):
        word_part = "*".join(f"x{i}" for i in w)
        if not w:
            body = format_fraction(abs(c))
        elif abs(c) == 1:
            body = word_part
        else:
            body = f"{format_fraction(abs(c))}*{word_part}"
        sign = "-" if c < 0 else "+"
        pieces.append((sign, body))
    first_sign, first_body = pieces[0]
    out = ("-" if first_sign == "-" else "") + first_body
    for sign, body in pieces[1:]:
        out += f" {sign} {body}"
    return out
