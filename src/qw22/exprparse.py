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
from itertools import repeat

from .algebra import (
    STANDARD,
    DeformationProfile,
    Element,
    GeneratorSymbol,
    NormalWord,
    UNIT_WORD,
    _check_index,
    element_from,
    product_chain,
    q_bracket,
)
from .errors import ArithmeticBoundError, ParseError, UnsupportedInverseError
from .laurent import EXPONENT_BOUND, LaurentPoly


# -- syntax tree -------------------------------------------------------------


class _Node(tuple):
    """An immutable syntax-tree node: equal only to a node of the same type
    with equal fields.  Comparison, hashing and repr walk the tree with a
    stack, so a long left-deep chain does not exhaust the recursion limit."""

    __slots__ = ()

    def _walk(self):
        """The tree in preorder: each node's type, then its fields."""
        stack = [self]
        while stack:
            x = stack.pop()
            if isinstance(x, _Node):
                yield type(x)
                stack += reversed(x)
            else:
                yield x

    def __eq__(self, other):
        return type(other) is type(self) and tuple(self._walk()) == tuple(other._walk())

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(tuple(self._walk()))

    def __repr__(self):
        out, stack = [], [self]
        while stack:
            x = stack.pop()
            if isinstance(x, _Node):  # its fields are pushed last to first
                stack.append(")")
                for i, (f, v) in reversed([*enumerate(zip(x._fields, x))]):
                    stack += v if isinstance(v, _Node) else repr(v), f"{', ' * bool(i)}{f}="
                x = f"{type(x).__name__}("
            out.append(x)
        return "".join(out)


def _node(name: str, fields: str):
    """A node type with the given fields, then the line and column."""
    return type(name, (_Node, namedtuple(name, fields + " line col")), {"__slots__": ()})


Lit = _node("Lit", "value")
Var = _node("Var", "name")
Gen = _node("Gen", "kind index")
Pow = _node("Pow", "base exponent")
Neg = _node("Neg", "child")
Sum = _node("Sum", "left right")
Diff = _node("Diff", "left right")
Prod = _node("Prod", "left right")
QBracket = _node("QBracket", "x y alpha beta")


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
_name_char = lambda ch: ch.isalnum() or ch == "_"


def _tokenize(text: str) -> list:
    tokens = []
    i, line, col = 0, 1, 1
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            i, line, col = i + 1, line + 1, 1
            continue
        if ch in " \t\r":
            i, col = i + 1, col + 1
            continue
        if ch.isdecimal() or ch.isalpha():  # an INT holds exactly the digits int() reads
            kind, more = ("INT", str.isdecimal) if ch.isdecimal() else ("NAME", _name_char)
            j = i + 1
            while j < n and more(text[j]):
                j += 1
            tokens.append(_Token(kind, text[i:j], line, col))
            col, i = col + j - i, j
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

# Each level costs the parser and evaluator a few stack frames.
MAX_DEPTH = 100


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.pos = 0
        self.depth = 0

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
        self.depth += (kind == "LPAREN") - (kind == "RPAREN")
        if self.depth > MAX_DEPTH:  # only a '(' can pass it
            raise ParseError(f"parentheses nested deeper than {MAX_DEPTH} levels", tok.line, tok.col)
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
            node = (Sum if op.kind == "PLUS" else Diff)(node, self.term(), op.line, op.col)
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
            self.expect("LPAREN", "'('")
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
                args = []  # x, y; alpha, beta
                for kind, what in (("COMMA", "','"), ("SEMI", "';'"), ("COMMA", "','"), ("RPAREN", "')'")):
                    args.append(self.expr())
                    self.expect(kind, what)
                return QBracket(*args, tok.line, tok.col)
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
    return product_chain(repeat(base._terms.items(), k), base.profile)


def _is_unit(items) -> bool:
    if len(items) != 1:
        return False
    nw, c = items[0]
    return not nw.letters and c.term_count == 1 and abs(c.items()[0][1]) == 1


def _scalar_of(el: Element, node, profile: DeformationProfile) -> LaurentPoly:
    items = el.terms()
    if not items:
        return LaurentPoly.zero(profile.nvars)
    if len(items) == 1 and items[0][0] == UNIT_WORD:
        return items[0][1]
    raise ParseError("bracket weights must be scalar", node.line, node.col)


def _factors(node, profile: DeformationProfile):
    """The factors of a left-deep product, left to right, each as the terms
    (nw, c) it multiplies by, evaluated when reached: T^d (standard profile)
    and X[n] as their words, and X[n]^k, 1 <= k in the window, as k X[n]."""
    nodes = []
    while isinstance(node, Prod):
        nodes.append(node.right)
        node = node.left
    one = LaurentPoly.one(profile.nvars)
    for node in reversed(nodes + [node]):
        base, k = (node.base, node.exponent) if isinstance(node, Pow) else (node, 1)
        if isinstance(base, Gen) and base.kind == "T" and profile is STANDARD:
            yield ((NormalWord(t_exp=k), one),)
        elif isinstance(base, Gen) and base.kind != "T" and 1 <= k <= EXPONENT_BOUND:
            yield from repeat((((0, ((base.kind, _check_index(base.index)),)), one),), k)
        else:
            el = _eval(base, profile)
            yield (el if base is node else _power(el, k))._terms.items()


def _eval(node, profile: DeformationProfile) -> Element:
    if isinstance(node, Prod) or isinstance(node, Pow) and isinstance(node.base, Gen):
        return product_chain(_factors(node, profile), profile)
    if isinstance(node, (Sum, Diff)):  # a left-deep chain of terms, added in order
        terms = []
        while isinstance(node, (Sum, Diff)):
            terms.append(node)
            node = node.left
        out = _eval(node, profile)
        for node in reversed(terms):
            right = _eval(node.right, profile)
            out = out + right if isinstance(node, Sum) else out - right
        return out
    if isinstance(node, Lit):
        return Element.unit(profile).scaled(node.value)
    if isinstance(node, Var):
        if node.name == "p":
            if profile is STANDARD:
                raise ParseError("the symbol 'p' needs the two-parameter profile", node.line, node.col)
            return Element.unit(profile).scaled(LaurentPoly.p_power(1))
        return Element.unit(profile).scaled(LaurentPoly.q_power(1, profile.nvars))
    if isinstance(node, Gen):
        return element_from(GeneratorSymbol(node.kind, node.index), profile)
    if isinstance(node, Neg):
        return -_eval(node.child, profile)
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
