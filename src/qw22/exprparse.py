"""Parser for the textual element language used by the CLI.

Grammar, loosest binding first:

    expr   := ('-')? term (('+' | '-') term)*
    term   := factor (('*')? factor)*          adjacency multiplies
    factor := atom ('^' ('-')? INT)?
    atom   := INT | 'q' | 'p' | 'T'
            | 'L' '[' ('-')? INT ']' | 'W' '[' ('-')? INT ']'
            | '(' expr ')'
            | 'qbr' '(' expr ',' expr ';' expr ',' expr ')'

Whitespace is insignificant.  Every canonical rendering of an element
parses back to the same element.  The evaluator is profile-aware: 'p'
needs the two-parameter profile, while 'T' only exists in the standard
one.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import (
    STANDARD,
    DeformationProfile,
    Element,
    GeneratorSymbol,
    NormalWord,
    UNIT_WORD,
    element_from,
    multiply,
    q_bracket,
)
from .errors import ArithmeticBoundError, ParseError, UnsupportedInverseError
from .laurent import EXPONENT_BOUND, LaurentPoly


# -- syntax tree -------------------------------------------------------------


class _Node(tuple):
    """An immutable syntax-tree node: equal only to a node of the same type
    with equal fields."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and tuple.__eq__(self, other)

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash((type(self), *self))


class Lit(_Node, namedtuple("Lit", "value line col")):
    __slots__ = ()


class Var(_Node, namedtuple("Var", "name line col")):
    __slots__ = ()


class Gen(_Node, namedtuple("Gen", "kind index line col")):
    __slots__ = ()


class Pow(_Node, namedtuple("Pow", "base exponent line col")):
    __slots__ = ()


class Neg(_Node, namedtuple("Neg", "child line col")):
    __slots__ = ()


class Sum(_Node, namedtuple("Sum", "left right line col")):
    __slots__ = ()


class Diff(_Node, namedtuple("Diff", "left right line col")):
    __slots__ = ()


class Prod(_Node, namedtuple("Prod", "left right line col")):
    __slots__ = ()


class QBracket(_Node, namedtuple("QBracket", "x y alpha beta line col")):
    __slots__ = ()


# -- tokenizer ---------------------------------------------------------------


_PUNCT = {
    "+": "PLUS",
    "-": "MINUS",
    "*": "STAR",
    "^": "CARET",
    "(": "LPAREN",
    ")": "RPAREN",
    "[": "LBRACKET",
    "]": "RBRACKET",
    ",": "COMMA",
    ";": "SEMI",
}


_Token = namedtuple("_Token", "kind text line col")


def _tokenize(text: str) -> list:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i += 1
            line += 1
            col = 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch.isdigit():
            j = i
            while j < n and text[j].isdigit():
                j += 1
            tokens.append(_Token("INT", text[i:j], line, col))
            col += j - i
            i = j
            continue
        if ch.isalpha():
            j = i
            while j < n and (text[j].isalnum() or text[j] == "_"):
                j += 1
            tokens.append(_Token("NAME", text[i:j], line, col))
            col += j - i
            i = j
            continue
        kind = _PUNCT.get(ch)
        if kind is None:
            raise ParseError(f"unexpected character {ch!r}", line, col)
        tokens.append(_Token(kind, ch, line, col))
        i += 1
        col += 1
    tokens.append(_Token("EOF", "", line, col))
    return tokens


# -- parser ------------------------------------------------------------------

_ATOM_STARTS = frozenset(["INT", "NAME", "LPAREN"])


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0

    def peek(self) -> _Token:
        return self.tokens[self.pos]

    def advance(self) -> _Token:
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def expect(self, kind: str, what: str) -> _Token:
        tok = self.peek()
        if tok.kind != kind:
            got = tok.text or "end of input"
            raise ParseError(f"expected {what}, found {got!r}", tok.line, tok.col)
        return self.advance()

    def parse(self):
        node = self.expr()
        tok = self.peek()
        if tok.kind != "EOF":
            raise ParseError(f"unexpected trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def expr(self):
        tok = self.peek()
        if tok.kind == "MINUS":
            self.advance()
            node = Neg(self.term(), tok.line, tok.col)
        else:
            node = self.term()
        while self.peek().kind in ("PLUS", "MINUS"):
            op = self.advance()
            rhs = self.term()
            cls = Sum if op.kind == "PLUS" else Diff
            node = cls(node, rhs, op.line, op.col)
        return node

    def term(self):
        node = self.factor()
        while True:
            tok = self.peek()
            if tok.kind == "STAR":
                self.advance()
                rhs = self.factor()
            elif tok.kind in _ATOM_STARTS:
                rhs = self.factor()
            else:
                return node
            node = Prod(node, rhs, tok.line, tok.col)

    def factor(self):
        node = self.atom()
        if self.peek().kind == "CARET":
            caret = self.advance()
            node = Pow(node, self.signed_int("an exponent"), caret.line, caret.col)
        return node

    def signed_int(self, what: str) -> int:
        sign = 1
        if self.peek().kind == "MINUS":
            self.advance()
            sign = -1
        tok = self.expect("INT", what)
        return sign * int(tok.text)

    def atom(self):
        tok = self.peek()
        if tok.kind == "INT":
            self.advance()
            return Lit(int(tok.text), tok.line, tok.col)
        if tok.kind == "LPAREN":
            self.advance()
            node = self.expr()
            self.expect("RPAREN", "')'")
            return node
        if tok.kind == "NAME":
            self.advance()
            name = tok.text
            if name in ("q", "p"):
                return Var(name, tok.line, tok.col)
            if name == "T":
                return Gen("T", 0, tok.line, tok.col)
            if name in ("L", "W"):
                self.expect("LBRACKET", "'['")
                idx = self.signed_int("a generator index")
                self.expect("RBRACKET", "']'")
                return Gen(name, idx, tok.line, tok.col)
            if name == "qbr":
                self.expect("LPAREN", "'('")
                x = self.expr()
                self.expect("COMMA", "','")
                y = self.expr()
                self.expect("SEMI", "';'")
                alpha = self.expr()
                self.expect("COMMA", "','")
                beta = self.expr()
                self.expect("RPAREN", "')'")
                return QBracket(x, y, alpha, beta, tok.line, tok.col)
            raise ParseError(f"unknown symbol {name!r}", tok.line, tok.col)
        got = tok.text or "end of input"
        raise ParseError(f"expected an element, found {got!r}", tok.line, tok.col)


def parse(text: str):
    """Parse to a syntax tree without evaluating."""
    return _Parser(text).parse()


# -- evaluation --------------------------------------------------------------


def _invert(x: Element) -> Element:
    items = x.terms()
    if len(items) != 1:
        raise UnsupportedInverseError("only single-term elements can be inverted")
    nw, c = items[0]
    if nw.letters:
        raise UnsupportedInverseError("ladder generators are not invertible")
    return Element._raw(x.profile, {NormalWord(t_exp=-nw.t_exp): c ** -1})


def _power(base: Element, k: int) -> Element:
    """x^k as the left fold (...((x*x)*x)...)*x, the grouping `*` uses;
    a single term c*T^d has the closed form c^k T^(dk).

    Past the 64-bit exponent window only a unit, a single term +-q^a p^b T^d,
    goes on, and the exponent checks of q, p and T decide.  Any other base
    would be squared or folded without end, so it raises before any
    arithmetic.
    """
    if k < 0:
        base = _invert(base)
        k = -k
    items = base.terms()
    if k > EXPONENT_BOUND and not _is_unit(items):
        raise ArithmeticBoundError(f"power {k} of a non-unit beyond the checked 64-bit window")
    if len(items) == 1 and not items[0][0].letters:
        nw, c = items[0]
        t_power = NormalWord(t_exp=nw.t_exp * k)
        return Element._raw(base.profile, {t_power: c ** k})
    out = Element.unit(base.profile)
    for _ in range(k):
        out = multiply(out, base)
    return out


def _is_unit(items) -> bool:
    if len(items) != 1:
        return False
    nw, c = items[0]
    return not nw.letters and c.is_monomial() and abs(c.items()[0][1]) == 1


def _scalar_of(el: Element, node, profile: DeformationProfile) -> LaurentPoly:
    items = el.terms()
    if not items:
        return LaurentPoly.zero(profile.nvars)
    if len(items) == 1 and items[0][0] == UNIT_WORD:
        return items[0][1]
    raise ParseError(
        "bracket weights must be scalar", node.line, node.col
    )


def _eval(node, profile: DeformationProfile) -> Element:
    if isinstance(node, Lit):
        return Element.unit(profile).scaled(node.value)
    if isinstance(node, Var):
        if node.name == "p":
            if profile is STANDARD:
                raise ParseError(
                    "the symbol 'p' needs the two-parameter profile",
                    node.line,
                    node.col,
                )
            return Element.unit(profile).scaled(LaurentPoly.p_power(1))
        return Element.unit(profile).scaled(LaurentPoly.q_power(1, profile.nvars))
    if isinstance(node, Gen):
        return element_from(GeneratorSymbol(node.kind, node.index), profile)
    if isinstance(node, Neg):
        return -_eval(node.child, profile)
    if isinstance(node, Sum):
        return _eval(node.left, profile) + _eval(node.right, profile)
    if isinstance(node, Diff):
        return _eval(node.left, profile) - _eval(node.right, profile)
    if isinstance(node, Prod):
        return multiply(_eval(node.left, profile), _eval(node.right, profile))
    if isinstance(node, Pow):
        return _power(_eval(node.base, profile), node.exponent)
    if isinstance(node, QBracket):
        x = _eval(node.x, profile)
        y = _eval(node.y, profile)
        alpha = _scalar_of(_eval(node.alpha, profile), node.alpha, profile)
        beta = _scalar_of(_eval(node.beta, profile), node.beta, profile)
        return q_bracket(x, y, alpha, beta)
    raise TypeError(f"unexpected node {node!r}")


def parse_element(text: str, profile: DeformationProfile = STANDARD) -> Element:
    """Parse and evaluate an element expression in the given profile."""
    return _eval(parse(text), profile)
