"""Parser and printer for the expression grammar.

Grammar: rational literals (`3`, `-2/5`), variable names `[a-zA-Z][a-zA-Z0-9_]*`,
operators `+ - * ^` where `^` takes a nonnegative integer literal, and
parentheses nested at most MAX_NESTING deep.  Whitespace is insignificant.

The parser builds its value from two leaf constructors, one for rational
literals and one for variables; the leaves' own + and - do the rest, and
their * and ** unless the caller passes its own product and power.  Over
Q[vars] the leaves are Polynomials; an Algebra passes its own elements, so
the expression is evaluated, and reduced, in the algebra.
"""

import operator
import re

from .errors import ParseError, quote
from .linalg import rational
from .poly import Polynomial

# five parser frames per parenthesis, well inside the default recursion limit
MAX_NESTING = 100

_TOKEN = re.compile(r"\s*(?:(\d+(?:\s*/\s*\d+)?)|([A-Za-z][A-Za-z0-9_]*)|([()+\-*^]))")


def tokenize(text):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if not m:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos:].strip()[0]!r} in {quote(text)}")
            break
        pos = m.end()
        if m.group(1):
            try:
                tokens.append(("num", rational("".join(m.group(1).split()))))
            except ValueError as exc:  # 1/0, or a literal over the interpreter's digit limit
                raise ParseError(f"{exc} in {quote(text)}") from None
        elif m.group(2):
            tokens.append(("name", m.group(2)))
        else:
            tokens.append(("op", m.group(3)))
    return tokens


class _Parser:
    def __init__(self, tokens, names, text, constant, variable, multiply, raise_to):
        self.tokens = tokens
        self.pos = self.depth = 0
        self.index = {n: i for i, n in enumerate(names)}
        self.text = text
        self.constant = constant
        self.variable = variable
        self.multiply, self.raise_to = multiply, raise_to

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else (None, None)

    def take(self):
        tok = self.peek()
        self.pos += 1
        return tok

    def expect_op(self, op):
        kind, value = self.take()
        if kind != "op" or value != op:
            raise ParseError(f"expected {op!r} in {quote(self.text)}")

    def expression(self):
        result = self.term()
        while True:
            kind, value = self.peek()
            if kind == "op" and value in "+-":
                self.pos += 1
                rhs = self.term()
                result = result + rhs if value == "+" else result - rhs
            else:
                return result

    def term(self):
        result = self.factor()
        while True:
            kind, value = self.peek()
            if kind == "op" and value == "*":
                self.pos += 1
                result = self.multiply(result, self.factor())
            else:
                return result

    def factor(self):
        negate = False
        while self.peek() == ("op", "-"):  # a loop, so no sign chain recurses
            self.pos += 1
            negate = not negate
        return -self.power() if negate else self.power()

    def power(self):
        base = self.atom()
        kind, value = self.peek()
        if kind == "op" and value == "^":
            self.pos += 1
            ekind, evalue = self.take()
            if ekind != "num" or evalue.denominator != 1 or evalue < 0:
                raise ParseError(f"exponent must be a nonnegative integer in {quote(self.text)}")
            return self.raise_to(base, int(evalue))
        return base

    def atom(self):
        kind, value = self.take()
        if kind == "num":
            return self.constant(value)
        if kind == "name":
            if value not in self.index:
                raise ParseError(f"unknown variable {value!r} in {quote(self.text)}")
            return self.variable(self.index[value])
        if kind == "op" and value == "(":
            self.depth += 1
            if self.depth > MAX_NESTING:
                raise ParseError(f"parentheses nested deeper than {MAX_NESTING} in "
                                 f"{quote(self.text)}")
            inner = self.expression()
            self.expect_op(")")
            self.depth -= 1
            return inner
        raise ParseError(f"unexpected end of expression in {quote(self.text)}")


def evaluate(text, names, constant, variable, multiply=operator.mul, raise_to=operator.pow):
    """Value of `text` built from `constant(q)` for each rational literal and
    `variable(i)` for each occurrence of names[i], with `multiply(a, b)` for
    each product and `raise_to(a, k)` for each power."""
    tokens = tokenize(text)
    if not tokens:
        raise ParseError("empty expression")
    parser = _Parser(tokens, names, text, constant, variable, multiply, raise_to)
    result = parser.expression()
    if parser.pos != len(tokens):
        raise ParseError(f"trailing input in {quote(text)}")
    return result


def parse_polynomial(text, names):
    """Parse `text` into a Polynomial over the ordered variable list `names`."""
    n = len(names)
    return evaluate(text, names, lambda q: Polynomial.constant(n, q),
                    lambda i: Polynomial.variable(n, i))


def monomial_str(mono, names):
    parts = []
    for name, e in zip(names, mono):
        if e == 1:
            parts.append(name)
        elif e > 1:
            parts.append(f"{name}^{e}")
    return "*".join(parts)


def polynomial_str(p, names):
    """Canonical printer; output re-parses to the same polynomial."""
    if not p:
        return "0"
    pieces = []
    for mono, coeff in p.sorted_terms():
        mstr = monomial_str(mono, names)
        mag = abs(coeff)
        if not mstr:
            body = str(mag)
        elif mag == 1:
            body = mstr
        else:
            body = f"{mag}*{mstr}"
        pieces.append((coeff < 0, body))
    out = ("-" if pieces[0][0] else "") + pieces[0][1]
    for negative, body in pieces[1:]:
        out += (" - " if negative else " + ") + body
    return out
