"""Reference computations made apart from qw22, used to check its outputs.

Nothing here imports qw22.  Laurent polynomials are dicts
{(e_q, e_p): int}; a normal word is the key (t, l_block, w_block) with
blocks as tuples of (index, multiplicity); elements are dicts
{word: poly}, numeric elements {word: Fraction} and two-slot tensors
{(word, word): poly}.  The text readers follow the rendering rules stated
in the qw22 README and docstrings, so a corrupted rendering reads back as a
different value.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import comb

UNIT = (0, (), ())


# -- polynomials and words ----------------------------------------------------


def poly_add(a: dict, b: dict, sign: int = 1) -> dict:
    out = dict(a)
    for key, c in b.items():
        v = out.get(key, 0) + sign * c
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def poly_value(poly: dict, q, p=None) -> Fraction:
    """Exact value at rational q (and p); p defaults to 1 for q-only terms.
    The sum is taken over a common denominator in integers."""
    if not poly:
        return Fraction(0)
    q = Fraction(q)
    p = Fraction(1 if p is None else p)
    qa, qb, pa, pb = q.numerator, q.denominator, p.numerator, p.denominator
    q0 = min(eq for eq, _ in poly)
    q1 = max(eq for eq, _ in poly)
    p0 = min(ep for _, ep in poly)
    p1 = max(ep for _, ep in poly)
    num = sum(
        c * qa ** (eq - q0) * qb ** (q1 - eq) * pa ** (ep - p0) * pb ** (p1 - ep)
        for (eq, ep), c in poly.items()
    )
    return num * Fraction(qa) ** q0 / Fraction(qb) ** q1 * Fraction(pa) ** p0 / Fraction(pb) ** p1


def poly_at_one(poly: dict) -> int:
    return sum(poly.values())


def combine(terms) -> dict:
    """Sum (key, poly) pairs into a dict, dropping zero coefficients."""
    out: dict = {}
    for key, poly in terms:
        v = poly_add(out.get(key, {}), poly)
        if v:
            out[key] = v
        else:
            out.pop(key, None)
    return out


def element_diff(a: dict, b: dict) -> dict:
    return combine([*a.items(), *((word, {k: -c for k, c in poly.items()}) for word, poly in b.items())])


def is_normal_word(word) -> bool:
    _, l_block, w_block = word
    for block in (l_block, w_block):
        last = None
        for n, k in block:
            if k < 1 or (last is not None and n <= last):
                return False
            last = n
    return True


@lru_cache(maxsize=None)
def word_letters(word) -> tuple:
    """The ladder letters of a normal word, left to right, as (kind, n)."""
    _, l_block, w_block = word
    out = []
    for kind, block in (("L", l_block), ("W", w_block)):
        for n, k in block:
            out.extend([(kind, n)] * k)
    return tuple(out)


def has_ladder(word) -> bool:
    return bool(word[1] or word[2])


def word_text(word) -> str:
    t, l_block, w_block = word
    pieces = []
    if t == 1:
        pieces.append("T")
    elif t:
        pieces.append(f"T^{t}")
    for kind, block in (("L", l_block), ("W", w_block)):
        for n, k in block:
            pieces.append(f"{kind}[{n}]" if k == 1 else f"{kind}[{n}]^{k}")
    return " ".join(pieces)


def monomial_text(c: int, eq: int, ep: int = 0) -> str:
    """Magnitude text of one monomial, as qw22 prints a coefficient term."""
    pieces = []
    if abs(c) != 1 or (eq == 0 and ep == 0):
        pieces.append(str(abs(c)))
    if eq:
        pieces.append("q" if eq == 1 else f"q^{eq}")
    if ep:
        pieces.append("p" if ep == 1 else f"p^{ep}")
    return "*".join(pieces)


# -- JSON readers -------------------------------------------------------------


def poly_from_json(obj) -> dict:
    out = {}
    for term in obj["terms"]:
        key = (term["eq"], term.get("ep", 0))
        if key in out:
            raise ValueError(f"repeated exponent {key} in {obj}")
        c = int(term["c"])
        if not c:
            raise ValueError(f"zero coefficient in {obj}")
        out[key] = c
    return out


def _word_from_json(obj):
    return (obj["t"], tuple(tuple(x) for x in obj["l"]), tuple(tuple(x) for x in obj["w"]))


def element_from_json(obj) -> dict:
    out = {}
    for term in obj["terms"]:
        word = _word_from_json(term)
        if word in out:
            raise ValueError(f"repeated word {word}")
        out[word] = poly_from_json(term["coeff"])
    return out


def numeric_from_json(obj) -> dict:
    return {_word_from_json(term): Fraction(term["coeff"]) for term in obj["terms"]}


def tensor_from_json(obj) -> dict:
    out = {}
    for term in obj["terms"]:
        key = tuple(_word_from_json(slot) for slot in term["slots"])
        if key in out:
            raise ValueError(f"repeated tensor key {key}")
        out[key] = poly_from_json(term["coeff"])
    return out


# -- text readers -------------------------------------------------------------


def split_signed(text: str) -> list:
    """Split 'a + b - c' at depth-0 signs into [(sign, chunk), ...]."""
    chunks = []
    depth = 0
    start = 0
    sign = 1
    if text.startswith("-"):
        sign, start = -1, 1
    i = start
    while i < len(text):
        ch = text[i]
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif depth == 0 and text[i : i + 3] in (" + ", " - "):
            chunks.append((sign, text[start:i]))
            sign = 1 if text[i + 1] == "+" else -1
            start = i + 3
            i += 3
            continue
        i += 1
    chunks.append((sign, text[start:]))
    return chunks


def _monomial_from_text(text: str):
    c, eq, ep = 1, 0, 0
    for piece in text.split("*"):
        if piece.isdigit():
            c = int(piece)
        elif piece[0] in "qp":
            e = 1 if piece in ("q", "p") else int(piece[2:])
            if piece[1:2] not in ("", "^"):
                raise ValueError(f"bad monomial {text!r}")
            if piece[0] == "q":
                eq = e
            else:
                ep = e
        else:
            raise ValueError(f"bad monomial {text!r}")
    return (eq, ep), c


def poly_from_text(text: str) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for sign, chunk in split_signed(text):
        key, c = _monomial_from_text(chunk)
        if key in out:
            raise ValueError(f"repeated exponent in {text!r}")
        out[key] = sign * c
    return out


def word_from_text(text: str):
    t = 0
    blocks = {"L": [], "W": []}
    for piece in text.split():
        if piece == "T":
            t = 1
        elif piece.startswith("T^"):
            t = int(piece[2:])
        else:
            kind = piece[0]
            close = piece.index("]")
            n = int(piece[2:close])
            k = int(piece[close + 2 :]) if piece[close + 1 :] else 1
            blocks[kind].append((n, k))
    return (t, tuple(blocks["L"]), tuple(blocks["W"]))


def _coeff_and_rest(chunk: str):
    """Split 'coeff * rest' where coeff is '(poly)' or a monomial; no
    coefficient gives (None, chunk)."""
    if chunk.startswith("("):
        depth = 0
        for i, ch in enumerate(chunk):
            depth += (ch == "(") - (ch == ")")
            if depth == 0:
                break
        inner, rest = chunk[1:i], chunk[i + 1 :]
        if rest.startswith(" * "):
            return poly_from_text(inner), rest[3:]
        if not rest:
            return poly_from_text(inner), ""
        return None, chunk
    head, sep, rest = chunk.partition(" * ")
    if sep:
        key, c = _monomial_from_text(head)
        return {key: c}, rest
    return None, chunk


def _scaled(poly: dict, sign: int) -> dict:
    return {k: sign * c for k, c in poly.items()}


def element_from_text(text: str) -> dict:
    text = text.strip()
    if not any(mark in text for mark in ("T", "L[", "W[")):
        poly = poly_from_text(text)
        return {UNIT: poly} if poly else {}
    out = {}
    for sign, chunk in split_signed(text):
        coeff, rest = _coeff_and_rest(chunk)
        if coeff is None:
            if chunk[0] in "TLW":
                coeff, rest = {(0, 0): 1}, chunk
            else:
                key, c = _monomial_from_text(chunk)
                coeff, rest = {key: c}, ""
        word = word_from_text(rest) if rest else UNIT
        if word in out:
            raise ValueError(f"repeated word in {text!r}")
        out[word] = _scaled(coeff, sign)
    return out


def tensor_from_text(text: str) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for sign, chunk in split_signed(text):
        coeff, rest = _coeff_and_rest(chunk)
        if coeff is None or rest == "":
            coeff, rest = {(0, 0): 1}, chunk
        left, sep, right = rest.partition(") (x) (")
        if not sep or not left.startswith("(") or not right.endswith(")"):
            raise ValueError(f"bad tensor term {chunk!r}")
        slots = []
        for slot in (left[1:], right[:-1]):
            slots.append(UNIT if slot == "1" else word_from_text(slot))
        key = tuple(slots)
        if key in out:
            raise ValueError(f"repeated tensor key in {text!r}")
        out[key] = _scaled(coeff, sign)
    return out


def numeric_from_text(text: str) -> dict:
    text = text.strip()
    if text == "0":
        return {}
    out = {}
    for sign, chunk in split_signed(text):
        head, sep, rest = chunk.partition(" * ")
        if sep:
            value, word = Fraction(head), word_from_text(rest)
        elif chunk[0] in "TLW":
            value, word = Fraction(1), word_from_text(chunk)
        else:
            value, word = Fraction(chunk), UNIT
        out[word] = sign * value
    return out


def numeric_text(values: dict, order) -> str:
    """Render {word: Fraction} in the given word order, as qw22 prints it."""
    chunks = []
    for word in order:
        c = values.get(word, 0)
        if not c:
            continue
        wt = word_text(word)
        mag = -c if c < 0 else c
        body = f"{mag} * {wt}" if wt and mag != 1 else (wt or str(mag))
        if not chunks:
            chunks.append(f"-{body}" if c < 0 else body)
        else:
            chunks.append(f"- {body}" if c < 0 else f"+ {body}")
    return " ".join(chunks) if chunks else "0"


# -- maps computed from a normal form -----------------------------------------


def counit_of(element: dict) -> dict:
    """eps: the sum of the coefficients of the pure T-power words."""
    out: dict = {}
    for word, poly in element.items():
        if not has_ladder(word):
            out = poly_add(out, poly)
    return out


def counit_diagrams(tensor: dict, element: dict) -> list:
    """(eps (x) 1) delta x = 1 (x) x and (1 (x) eps) delta x = x (x) 1."""
    problems = []
    for slot, name in ((0, "(eps x 1)"), (1, "(1 x eps)")):
        kept = combine(
            (key[1 - slot], poly) for key, poly in tensor.items() if not has_ladder(key[slot])
        )
        if kept != element:
            problems.append(f"{name} delta(x) != x")
    return problems


def evaluate(element: dict, q, p=None) -> dict:
    out = {}
    for word, poly in element.items():
        v = poly_value(poly, q, p)
        if v:
            out[word] = v
    return out


# -- closed forms ---------------------------------------------------------------


def q_int_value(k: int, x) -> Fraction:
    """[k] = (x^k - x^-k) / (x - x^-1) at a rational x other than 0, 1, -1."""
    x = Fraction(x)
    return (x**k - x**-k) / (x - 1 / x)


def coproduct_power(d: int, kind: str, n: int, r: int) -> dict:
    """delta(T^d X[n]^r) = sum_i C(r,i) q^(2(n+1)(r-i) i n)
    T^(d+in) X[n]^(r-i) (x) T^(d+(r-i)n) X[n]^i: the binomial closed form,
    with the T-crossing weight q^(2(n+1)) per letter moved past."""
    out = {}
    for i in range(r + 1):
        def word(t, k):
            block = ((n, k),) if k else ()
            return (t, block, ()) if kind == "L" else (t, (), block)

        key = (word(d + i * n, r - i), word(d + (r - i) * n, i))
        out[key] = {(2 * (n + 1) * (r - i) * i * n, 0): comb(r, i)}
    return out


def antipode_power_text(d: int, kind: str, n: int, r: int) -> str:
    """S(T^d X[n]^r) = (-1)^r T^(-rn) X[n]^r T^(-rn-d), normally ordered:
    (-1)^r q^(-2r(n+1)(rn+d)) T^(-2rn-d) X[n]^r."""
    e = -2 * r * (n + 1) * (r * n + d)
    block = ((n, r),)
    word = (-2 * r * n - d, block, ()) if kind == "L" else (-2 * r * n - d, (), block)
    body = word_text(word) if e == 0 else f"{monomial_text(1, e)} * {word_text(word)}"
    return f"-{body}" if r % 2 else body


def _fused(kind_a: str, kind_b: str, index: int):
    block = ((index, 1),)
    return (0, block, ()) if kind_a == kind_b == "L" else (0, (), block)


def commutator_limit_text(kind_a: str, a: int, kind_b: str, b: int) -> str:
    """At q = 1, [X[a], Y[b]] = (b - a) Z[a+b]; Z is W when either factor
    is W, and [W[a], W[b]] = 0."""
    if kind_a == kind_b == "W":
        return "0"
    word = _fused(kind_a, kind_b, a + b)
    return numeric_text({word: Fraction(b - a)}, [word])


def bracket_eval_text(kind_m: str, n: int, m: int, x) -> str:
    """eval of qbr(L[n], X[m]; q^(n-m), q^(m-n)) at q = x: the defining
    relation gives [m - n] X[m+n], so the value is [m - n] at x."""
    word = _fused("L", kind_m, m + n)
    return numeric_text({word: q_int_value(m - n, x)}, [word])


# -- oscillator module at a rational point --------------------------------------


@lru_cache(maxsize=None)
def ladder_weight(profile: str, k: int, q, p) -> Fraction:
    """lambda_k: k (classical), q^k [k] (q-deformed),
    p^-k (q^k - p^k) / (q - p) (two-parameter)."""
    if profile == "classical":
        return Fraction(k)
    q = Fraction(q)
    if profile == "q-deformed":
        return q**k * (q**k - q**-k) / (q - 1 / q)
    p = Fraction(p)
    return p**-k * (q**k - p**k) / (q - p)


def word_action(letters, k: int, eps: int, weight):
    """Act on |k, eps> with a word of (kind, n) letters, rightmost first.
    Returns ((k', eps'), value) or None when the word annihilates it."""
    value = Fraction(1)
    for kind, n in reversed(letters):
        if kind == "W":
            if eps:
                return None
            eps = 1
        w = weight(k)
        if not w:
            return None
        value *= w
        k += n
    return (k, eps), value


def element_action(values: dict, k: int, eps: int, weight) -> dict:
    """Act on |k, eps> with a T-free element whose coefficients are
    already evaluated, {word: value} (see evaluate)."""
    out: dict = {}
    for word, coeff in values.items():
        hit = word_action(word_letters(word), k, eps, weight)
        if hit is None:
            continue
        label, value = hit
        out[label] = out.get(label, 0) + coeff * value
    return {label: v for label, v in out.items() if v}


def vector_action(values: dict, vector: dict, weight) -> dict:
    """Act with an evaluated T-free element on a vector {(k, eps): value}."""
    out: dict = {}
    for (k, eps), value in vector.items():
        for label, v in element_action(values, k, eps, weight).items():
            out[label] = out.get(label, 0) + value * v
    return {label: v for label, v in out.items() if v}
