"""Element-expression grammar: parsing and canonical printing.

Grammar accepted by parse_expr (n is the generator count of the result):

    expr    := ['-'] term (('+'|'-') term)*
    term    := factor ('*'? factor)*          juxtaposition multiplies
    factor  := NUMBER | GEN | '(' expr ')' | '[' expr (',' expr)* ']'
    NUMBER  := digits ('/' digits)?           a rational literal
    GEN     := 'x' digit                      one of x1..x9, no space inside,
                                              no digit after it

Brackets denote right-normed commutator chains.  The canonical printer
emits expressions this grammar parses back to the same element.
"""

from __future__ import annotations

from fractions import Fraction

from .freealg import Poly, nested, word_key

# str.isdigit also accepts non-ASCII digits such as '٣' and '²'
DIGITS = frozenset("0123456789")


class ExprSyntaxError(ValueError):
    """Malformed element expression; carries the offending position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


class _Parser:
    def __init__(self, text: str, n: int):
        self.text = text
        self.n = n
        self.pos = 0

    def _skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def _peek(self) -> str:
        self._skip_ws()
        return self.text[self.pos] if self.pos < len(self.text) else ""

    def _expect(self, ch: str) -> None:
        if self._peek() != ch:
            raise ExprSyntaxError(f"expected {ch!r}", self.pos)
        self.pos += 1

    def parse(self) -> Poly:
        out = self.parse_expr()
        self._skip_ws()
        if self.pos != len(self.text):
            raise ExprSyntaxError("trailing input", self.pos)
        return out

    def parse_expr(self) -> Poly:
        negate = False
        if self._peek() == "-":
            self.pos += 1
            negate = True
        elif self._peek() == "+":
            self.pos += 1
        acc = self.parse_term()
        if negate:
            acc = -acc
        while self._peek() in ("+", "-"):
            op = self._peek()
            self.pos += 1
            t = self.parse_term()
            acc = acc + t if op == "+" else acc - t
        return acc

    def parse_term(self) -> Poly:
        acc = self.parse_factor()
        while True:
            ch = self._peek()
            if ch == "*":
                self.pos += 1
                acc = acc * self.parse_factor()
            elif ch in DIGITS or ch in ("x", "(", "["):
                acc = acc * self.parse_factor()
            else:
                return acc

    def parse_factor(self) -> Poly:
        ch = self._peek()
        if ch == "(":
            self.pos += 1
            inner = self.parse_expr()
            self._expect(")")
            return inner
        if ch == "[":
            self.pos += 1
            args = [self.parse_expr()]
            while self._peek() == ",":
                self.pos += 1
                args.append(self.parse_expr())
            self._expect("]")
            return nested(args)
        if ch == "x":
            start = self.pos
            self.pos += 1
            d = self.text[self.pos : self.pos + 1]
            if d not in DIGITS or d == "0":
                raise ExprSyntaxError("expected generator index 1..9 after 'x'", self.pos)
            self.pos += 1
            if self.text[self.pos : self.pos + 1] in DIGITS:
                raise ExprSyntaxError("generator index must be one digit 1..9", self.pos)
            idx = int(d)
            if idx > self.n:
                raise ExprSyntaxError(
                    f"generator x{idx} exceeds configured n={self.n}", start
                )
            return Poly.gen(self.n, idx)
        if ch in DIGITS:
            num = self._read_digits()
            if self._peek() == "/":
                self.pos += 1
                if self._peek() not in DIGITS:
                    raise ExprSyntaxError("expected denominator digits", self.pos)
                den = self._read_digits()
                if den == 0:
                    raise ExprSyntaxError("zero denominator", self.pos)
                return Poly.scalar(self.n, Fraction(num, den))
            return Poly.scalar(self.n, num)
        raise ExprSyntaxError("expected a factor", self.pos)

    def _read_digits(self) -> int:
        self._skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos] in DIGITS:
            self.pos += 1
        return int(self.text[start : self.pos])


def parse_expr(text: str, n: int) -> Poly:
    """Parse an element expression over generators x1..xn."""
    if not 1 <= n <= 9:
        raise ValueError("expression grammar supports n in 1..9")
    return _Parser(text, n).parse()


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
