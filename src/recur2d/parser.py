"""Parser for the shift-template expression language.

Grammar (whitespace insignificant between tokens):

    expr   := '-'? term (('+' | '-') term)*
    term   := factor ('*'? factor)*          # juxtaposition multiplies
    factor := atom ('^' nat)*
    atom   := number | 'X' | 'Y' | 'I' | '(' expr ')'
    number := digits ('/' digits)?           # one token, no spaces inside

The syntax tree is flat: an expr is a :class:`Sum` of (negated, term) pairs, a
term a :class:`Product` of factors, and a factor a :class:`Pow` holding its
base and its whole '^' chain, each built and evaluated by a loop. Only
parentheses nest, so the tree is as deep as the parentheses, which stop at
124 levels. A single term, factor or exponent-free base is kept as its child.

Every error is a ParseError carrying the character position and the token
kinds that would have been acceptable there. Exponents must be non-negative
integers; '^-' raises NegativeExponentError (a ParseError subclass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NegativeExponentError, ParseError
from .field import FieldDescriptor, Scalar, parse_scalar, read_int
from .template import Template, identity, monomial, shift_x, shift_y

# Deepest parenthesis nesting accepted; the 125th open '(' is refused. This
# bounds the recursion of both the parser and the evaluator.
_MAX_PARENS = 124

# Token kinds.
NUMBER, X, Y, IDENT, PLUS, MINUS, STAR, CARET, LPAREN, RPAREN, END = (
    "number", "X", "Y", "I", "+", "-", "*", "^", "(", ")", "end")


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    pos: int


def tokenize(text: str) -> list[Token]:
    tokens: list[Token] = []
    i = 0
    n = len(text)
    single = {"+": PLUS, "-": MINUS, "*": STAR, "^": CARET,
              "(": LPAREN, ")": RPAREN, "X": X, "Y": Y, "I": IDENT}
    while i < n:
        ch = text[i]
        if ch.isspace():
            i += 1
            continue
        if ch in single:
            tokens.append(Token(single[ch], ch, i))
            i += 1
            continue
        if ch.isdigit():
            start = i
            while i < n and text[i].isdigit():
                i += 1
            if i < n and text[i] == "/":
                i += 1
                if i >= n or not text[i].isdigit():
                    raise ParseError("'/' must be followed by digits", pos=i,
                                     expected=(NUMBER,))
                while i < n and text[i].isdigit():
                    i += 1
            tokens.append(Token(NUMBER, text[start:i], start))
            continue
        raise ParseError(f"unexpected character {ch!r}", pos=i)
    tokens.append(Token(END, "", n))
    return tokens


# -- abstract syntax --------------------------------------------------------

@dataclass(frozen=True)
class Const:
    text: str
    pos: int


@dataclass(frozen=True)
class Var:
    kind: str          # X, Y or IDENT
    pos: int


@dataclass(frozen=True)
class Pow:
    base: "Expr"
    exponents: tuple[tuple[int, int], ...]     # (exponent, caret position)


@dataclass(frozen=True)
class Product:
    factors: tuple["Expr", ...]


@dataclass(frozen=True)
class Sum:
    terms: tuple[tuple[bool, "Expr"], ...]     # (negated, term)


Expr = Const | Var | Pow | Product | Sum

_ATOM_STARTERS = (NUMBER, X, Y, IDENT, LPAREN)


class _Parser:
    def __init__(self, tokens: list[Token]):
        self.tokens = tokens
        self.k = 0
        self.parens = 0
        self.consts: list[Const] = []     # in text order

    def peek(self) -> Token:
        return self.tokens[self.k]

    def advance(self) -> Token:
        tok = self.tokens[self.k]
        self.k += 1
        return tok

    def expect(self, kind: str) -> Token:
        tok = self.peek()
        if tok.kind != kind:
            raise ParseError(f"unexpected {tok.kind!r}", pos=tok.pos,
                             expected=(kind,))
        return self.advance()

    def parse(self) -> Expr:
        node = self.expr()
        tok = self.peek()
        if tok.kind != END:
            raise ParseError(f"unexpected {tok.kind!r} after expression",
                             pos=tok.pos, expected=(PLUS, MINUS, STAR, CARET, END))
        return node

    def expr(self) -> Expr:
        negated = self.peek().kind == MINUS
        if negated:
            self.advance()
        terms = [(negated, self.term())]
        while self.peek().kind in (PLUS, MINUS):
            negated = self.advance().kind == MINUS
            terms.append((negated, self.term()))
        if len(terms) == 1 and not negated:
            return terms[0][1]
        return Sum(tuple(terms))

    def term(self) -> Expr:
        factors = [self.factor()]
        while True:
            tok = self.peek()
            if tok.kind == STAR:
                self.advance()
            elif tok.kind not in _ATOM_STARTERS:    # a starter juxtaposes
                break
            factors.append(self.factor())
        return factors[0] if len(factors) == 1 else Product(tuple(factors))

    def factor(self) -> Expr:
        base = self.atom()
        exponents = []
        while self.peek().kind == CARET:
            caret = self.advance()
            tok = self.peek()
            if tok.kind == MINUS:
                raise NegativeExponentError("exponents must be non-negative",
                                            pos=tok.pos, expected=(NUMBER,))
            if tok.kind != NUMBER:
                raise ParseError(f"unexpected {tok.kind!r} as exponent",
                                 pos=tok.pos, expected=(NUMBER,))
            if "/" in tok.text:
                raise ParseError("exponents must be integers", pos=tok.pos,
                                 expected=(NUMBER,))
            self.advance()
            exponents.append((read_int(tok.text, tok.pos), caret.pos))
        return Pow(base, tuple(exponents)) if exponents else base

    def atom(self) -> Expr:
        tok = self.peek()
        if tok.kind == NUMBER:
            self.advance()
            self.consts.append(Const(tok.text, tok.pos))
            return self.consts[-1]
        if tok.kind in (X, Y, IDENT):
            self.advance()
            return Var(tok.kind, tok.pos)
        if tok.kind == LPAREN:
            self.advance()
            self.parens += 1
            if self.parens > _MAX_PARENS:
                raise ParseError("expression nests too deeply",
                                 pos=self.peek().pos)
            node = self.expr()
            self.expect(RPAREN)
            self.parens -= 1
            return node
        raise ParseError(f"unexpected {tok.kind!r}", pos=tok.pos,
                         expected=_ATOM_STARTERS)


def parse_template_expr(text: str, fd: FieldDescriptor) -> Expr:
    """Parse to an AST, then validate every numeric literal in the field.

    Validation at parse time keeps diagnostics positioned: a literal like
    "1/7" over F_7 fails here, pointing at the offending token. Literals are
    checked in text order after the whole text parses, so a syntax error
    anywhere wins over a bad literal.
    """
    parser = _Parser(tokenize(text))
    node = parser.parse()
    for const in parser.consts:
        _const_scalar(const, fd)
    return node


# Expansion budgets for '^'.  Exponents are unbounded in the grammar, so a
# hostile '(X+Y+1)^9999' or '99999^99999' would otherwise expand to millions
# of terms or megabyte integers; past these limits the result could not be
# used as an overlay anyway, so the parser refuses with a positioned error.
_MAX_POW_TERMS = 50_000
_MAX_COEFF_BITS = 1_000_000


def _scalar_bits(s: Scalar) -> int:
    v = s.value
    if isinstance(v, Fraction):
        return v.numerator.bit_length() + v.denominator.bit_length()
    return int(v).bit_length()


def _check_pow_budget(base: Template, exponent: int, pos: int,
                      fd: FieldDescriptor) -> None:
    k = len(base.terms)
    if k == 0 or exponent <= 1:
        return
    if k > 1 and math.comb(exponent + k - 1, k - 1) > _MAX_POW_TERMS:
        raise ParseError("expansion produces too many terms", pos=pos)
    if fd.p is None:   # prime-field coefficients stay bounded by the modulus
        bits = max(_scalar_bits(c) for c in base.terms.values())
        if bits * exponent > _MAX_COEFF_BITS:
            raise ParseError("expansion produces oversized coefficients",
                             pos=pos)


def _const_scalar(node: Const, fd: FieldDescriptor) -> Scalar:
    try:
        return parse_scalar(node.text, fd)
    except ParseError as e:
        raise ParseError(str(e), pos=node.pos) from None


_VARIABLES = {X: shift_x, Y: shift_y, IDENT: identity}


def expr_to_template(node: Expr, fd: FieldDescriptor) -> Template:
    """Evaluate an AST in the polynomial ring F[X, Y].

    Sums, products and '^' chains are folded left to right by loops, so
    recursion follows only the parentheses.
    """
    if isinstance(node, Const):
        return monomial(fd, 0, 0, _const_scalar(node, fd))
    if isinstance(node, Var):
        return _VARIABLES[node.kind](fd)
    if isinstance(node, Pow):
        result = expr_to_template(node.base, fd)
        for exponent, pos in node.exponents:
            _check_pow_budget(result, exponent, pos, fd)
            result = result ** exponent
        return result
    if isinstance(node, Product):
        result = expr_to_template(node.factors[0], fd)
        for factor in node.factors[1:]:
            result = result * expr_to_template(factor, fd)
        return result
    if isinstance(node, Sum):
        result = Template(fd)
        for negated, term in node.terms:
            value = expr_to_template(term, fd)
            result = result - value if negated else result + value
        return result
    raise TypeError(f"unknown expression node {node!r}")


def parse_template(text: str, fd: FieldDescriptor) -> Template:
    """Parse and evaluate a template expression over the given field."""
    return expr_to_template(parse_template_expr(text, fd), fd)
