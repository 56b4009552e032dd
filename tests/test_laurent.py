"""Exact coefficient arithmetic in Z[q, q^-1] and Z[q^-+1, p^-+1]."""

import random
import sys
from contextlib import contextmanager
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from qw22 import laurent
from qw22 import (
    ArithmeticBoundError,
    EvaluationDomainError,
    LaurentPoly,
    ProfileError,
    UnsupportedInverseError,
    q_identity_check,
    q_int,
)


def rand_poly(rng, nvars=1, span=6, terms=4):
    out = LaurentPoly.zero(nvars)
    for _ in range(rng.randint(0, terms)):
        eq = rng.randint(-span, span)
        ep = rng.randint(-span, span) if nvars == 2 else 0
        out = out + LaurentPoly.monomial(rng.randint(-9, 9), eq, ep, nvars=nvars)
    return out


def test_constants_and_predicates():
    assert LaurentPoly.zero().is_zero()
    assert LaurentPoly.one().is_one()
    assert not LaurentPoly.one().is_zero()
    assert LaurentPoly.q_power(0) == LaurentPoly.one()


def test_zero_coefficients_are_dropped():
    a = LaurentPoly({(3, 0): 5}) - LaurentPoly({(3, 0): 5})
    assert a.is_zero()
    assert a.items() == ()
    assert not a


def test_immutability():
    a = q_int(2)
    with pytest.raises(AttributeError):
        a.nvars = 2


def test_rendering_descending_exponents():
    assert str(q_int(2)) == "q + q^-1"
    assert str(q_int(2) ** 2) == "q^2 + 2 + q^-2"
    assert str(LaurentPoly.zero()) == "0"
    assert str(-q_int(2)) == "-q - q^-1"
    assert str(q_int(3, 2)) == "q^2 + q*p + p^2"
    assert str(q_int(-1, 2)) == "-q^-1*p^-1"


def test_json_form():
    assert q_int(2).to_json_obj() == {
        "terms": [{"eq": 1, "c": "1"}, {"eq": -1, "c": "1"}]
    }
    # the p exponent only appears in the two-variable profile
    assert q_int(-1, 2).to_json_obj() == {
        "terms": [{"eq": -1, "ep": -1, "c": "-1"}]
    }


def test_integer_operands_coerce():
    assert q_int(2) * 1 == q_int(2)
    assert q_int(2) + 0 == q_int(2)
    assert 2 - LaurentPoly.one() == LaurentPoly.one()
    assert str(3 * LaurentPoly.q_power(-1)) == "3*q^-1"


def test_power_rules():
    q = LaurentPoly.q_power
    assert q(3) ** -1 == q(-3)
    assert (2 * q(1)) ** 2 == 4 * q(2)
    assert q_int(5) ** 0 == LaurentPoly.one()
    with pytest.raises(UnsupportedInverseError):
        q_int(2) ** -1
    with pytest.raises(UnsupportedInverseError):
        (2 * q(1)) ** -1


def test_exponent_window_is_enforced():
    with pytest.raises(ArithmeticBoundError):
        LaurentPoly.monomial(1, 2**63)
    big = LaurentPoly.q_power(2**62)
    with pytest.raises(ArithmeticBoundError):
        big * big


def test_profiles_never_mix():
    with pytest.raises(ProfileError):
        q_int(2) + q_int(2, 2)
    with pytest.raises(ProfileError):
        q_int(2) * LaurentPoly.p_power(1)
    # a one of the other profile is no shortcut past the profile check
    for a, b in ((q_int(3), LaurentPoly.one(2)), (q_int(3, 2), LaurentPoly.one(1))):
        with pytest.raises(ProfileError):
            a * b
        with pytest.raises(ProfileError):
            b * a


def test_products_by_one_share_the_other_operand():
    for nvars in (1, 2):
        p = q_int(4, nvars) + LaurentPoly.q_power(-7, nvars)
        for one in (LaurentPoly.one(nvars), LaurentPoly.constant(1, nvars), 1):
            assert p * one is p
            assert one * p is p


def test_q_int_anchor_values():
    assert q_int(0).is_zero()
    assert q_int(1).is_one()
    assert q_int(2) == LaurentPoly.q_power(1) + LaurentPoly.q_power(-1)
    for n in range(-12, 13):
        assert q_int(-n) == -q_int(n)


def test_q_int_two_variable_is_the_exact_quotient():
    q = LaurentPoly.q_power(1, nvars=2)
    p = LaurentPoly.p_power(1)
    for n in range(-10, 11):
        # (q - p) * [n] == q^n - p^n in both directions of n
        assert (q - p) * q_int(n, 2) == LaurentPoly.monomial(
            1, n, 0, nvars=2
        ) - LaurentPoly.monomial(1, 0, n, nvars=2)
    assert q_int(-1, 2) == -LaurentPoly.monomial(1, -1, -1, nvars=2)


def test_substitute_p_inverse_collapses_to_one_variable():
    for n in range(-10, 11):
        collapsed = q_int(n, 2).substitute_p_inverse()
        assert collapsed.nvars == 1
        assert collapsed == q_int(n)
    with pytest.raises(ProfileError):
        q_int(3).substitute_p_inverse()


def test_splitting_identities():
    for m in range(-8, 9):
        for n in range(-8, 9):
            assert q_identity_check(m, n)


def test_eval_is_exact_rational():
    assert q_int(2).eval(Fraction(3, 2)) == Fraction(13, 6)
    v = q_int(3, 2).eval(Fraction(2), Fraction(1, 3))
    assert v == Fraction(4) + Fraction(2, 3) + Fraction(1, 9)
    with pytest.raises(EvaluationDomainError):
        q_int(2).eval(Fraction(0))
    with pytest.raises(ProfileError):
        q_int(2, 2).eval(Fraction(2))


def test_eval_distributes_over_ring_ops():
    rng = random.Random(7)
    qv, pv = Fraction(5, 3), Fraction(-2, 7)
    for _ in range(50):
        a = rand_poly(rng, 2)
        b = rand_poly(rng, 2)
        assert (a + b).eval(qv, pv) == a.eval(qv, pv) + b.eval(qv, pv)
        assert (a * b).eval(qv, pv) == a.eval(qv, pv) * b.eval(qv, pv)


@given(st.integers(-40, 40), st.integers(-40, 40))
def test_q_int_product_symmetry(m, n):
    assert q_int(m) * q_int(n) == q_int(n) * q_int(m)


small_poly = st.builds(
    lambda pairs: sum(
        (LaurentPoly.monomial(c, e) for e, c in pairs), LaurentPoly.zero()
    ),
    st.lists(st.tuples(st.integers(-30, 30), st.integers(-50, 50)), max_size=6),
)


@settings(deadline=None, max_examples=150)
@given(small_poly, small_poly, small_poly)
def test_ring_axioms(a, b, c):
    assert (a + b) + c == a + (b + c)
    assert a + b == b + a
    assert (a * b) * c == a * (b * c)
    assert a * b == b * a
    assert a * (b + c) == a * b + a * c


def pair_loop_product(a, b):
    """a * b summed over every pair of terms, with no fast path."""
    out = {}
    for (qa, pa), ca in a.items():
        for (qb, pb), cb in b.items():
            key = (qa + qb, pa + pb)
            out[key] = out.get(key, 0) + ca * cb
    return LaurentPoly(out, a.nvars)


@contextmanager
def packed():
    """Record (slots, bits) for every integer `_pack` builds: the highest
    lane it fills, plus one, and the lane width."""
    seen = []
    real = laurent._pack

    def spy(lanes, coeffs, bits):
        seen.append((max(lanes) + 1, bits))
        return real(lanes, coeffs, bits)

    with mock.patch.object(laurent, "_pack", spy):
        yield seen


def image_product(a, b):
    """a * b and the (slots, bits) of every piece it packed, checked to leave
    the fold's decode memo `from_image` as it was."""
    before = laurent.from_image.cache_info()
    with packed() as seen:
        got = a * b
    assert laurent.from_image.cache_info() == before
    return got, seen


def per_degree(a: LaurentPoly) -> int:
    """The pieces an operand with no run of _RUN empty lanes packs as: one
    per total degree, one with one variable."""
    return len({eq + ep for (eq, ep), _ in a.items()}) if a.nvars == 2 else 1


def dense_product(a, b):
    """`image_product` of operands with no run of _RUN empty lanes, checked
    to pack each one as one piece per total degree."""
    got, seen = image_product(a, b)
    assert len(seen) == per_degree(a) + per_degree(b)
    return got, seen


def l1(a: LaurentPoly) -> int:
    return sum(abs(c) for _, c in a.items())


def test_dense_products_cross_check_the_fast_path():
    # 30-term operands with products of many terms
    rng = random.Random(11)
    for nvars in (1, 2):
        for _ in range(5):
            a = rand_poly(rng, nvars, span=25, terms=30)
            b = rand_poly(rng, nvars, span=25, terms=30)
            assert a * b == pair_loop_product(a, b)


def test_long_operands_pack_as_the_plain_sum():
    """Past _PACK_RUN lanes, `_pack` packs sorted runs and joins them: the
    same integer as the plain sum of shifted coefficients, in any order."""
    rng = random.Random(5)
    for n in (laurent._PACK_RUN, laurent._PACK_RUN + 1, 200, 1000):
        lanes = rng.sample(range(3 * n), n)
        coeffs = [rng.choice((-1, 1)) * rng.randint(1, 2**20) for _ in lanes]
        plain = sum(c << (23 * i) for i, c in zip(lanes, coeffs))
        assert laurent._pack(lanes, coeffs, 23) == plain


def test_pieces_are_the_value_at_a_power_of_two():
    """The pieces (d, n, e, l) of `_pieces(a, bits)` of one total degree d
    sum, as n X^e, to the degree-d part of a at q -> X (one variable, where
    d is 0) or at q -> 1, p -> X (two), X = 2^bits, and their l to its l1
    norm.  Zero has no piece, with either variable count."""
    rng = random.Random(8)
    for nvars in (1, 2):
        degree = (lambda key: key[0] + key[1]) if nvars == 2 else (lambda key: 0)
        for bits in (1, 7, 30):
            x = Fraction(2) ** bits
            assert laurent._pieces(LaurentPoly.zero(nvars), bits) == []
            for _ in range(20):
                a = rand_poly(rng, nvars, terms=6)
                parts: dict = {}
                for d, n, e, l in laurent._pieces(a, bits):
                    value, norm = parts.get(d, (0, 0))
                    parts[d] = value + n * x**e, norm + l
                assert set(parts) == {degree(key) for key, _ in a.items()}
                for d, (value, norm) in parts.items():
                    part = LaurentPoly({k: c for k, c in a.items() if degree(k) == d}, nvars)
                    assert value == (part.eval(1, x) if nvars == 2 else part.eval(x))
                    assert norm == l1(part)


def test_huge_coefficients_stay_exact():
    # far beyond int64 after squaring: the lanes widen to hold the
    # coefficients, so each operand stays one packed piece
    big = LaurentPoly.zero()
    for e in range(12):
        big = big + LaurentPoly.monomial(3**40 + e, e)
    sq, seen = image_product(big, big)
    assert seen == [(12, (l1(big) ** 2).bit_length() + 2)] * 2
    assert sq == pair_loop_product(big, big)
    assert sq.items()[0][1] == (3**40 + 11) ** 2


nonzero = st.integers(-50, 50).filter(bool)


def two_var(terms: dict) -> LaurentPoly:
    return LaurentPoly(terms, 2)


# Shaped like a product of ladder weights p^-k [k]: every term has the same
# total degree e_q + e_p, and the q-span is wide.
homogeneous = st.builds(
    lambda degree, coeffs: two_var({(eq, degree - eq): c for eq, c in coeffs.items()}),
    st.integers(-20, 20),
    st.dictionaries(st.integers(-30, 30), nonzero, min_size=10, max_size=25),
)

# Corner terms at (0, 0) and (10, 10) make the total-degree span (20) wider
# than the q-span (10), so the packing stays on e_q.
non_homogeneous = st.builds(
    lambda coeffs, corner: two_var({**coeffs, (0, 0): corner, (10, 10): corner}),
    st.dictionaries(
        st.tuples(st.integers(0, 10), st.integers(0, 10)), nonzero, min_size=11, max_size=25
    ),
    nonzero,
)


def spans(a: LaurentPoly):
    qs = [eq for (eq, _), _ in a.items()]
    ps = [ep for (_, ep), _ in a.items()]
    return max(qs) - min(qs), max(ps) - min(ps)


def ordered(a, b):
    """The operands in the order the product packs them: fewer terms first."""
    return (b, a) if a.term_count > b.term_count else (a, b)


@settings(deadline=None, max_examples=60)
@given(homogeneous, homogeneous)
def test_homogeneous_products_pack_by_total_degree(a, b):
    got, seen = dense_product(a, b)
    assert got == pair_loop_product(a, b)
    # one lane per e_p: each operand packs as one piece as long as its p-span
    a, b = ordered(a, b)
    assert [slots for slots, _ in seen] == [spans(a)[1] + 1, spans(b)[1] + 1]


@settings(deadline=None, max_examples=60)
@given(non_homogeneous, non_homogeneous)
def test_non_homogeneous_products_pack_one_piece_per_degree(a, b):
    # inside the 11 x 11 box no degree has a run of _RUN empty lanes
    got, _ = dense_product(a, b)
    assert got == pair_loop_product(a, b)


@settings(deadline=None, max_examples=40)
@given(
    st.dictionaries(st.integers(-40, 40), st.integers(2**31, 2**40), min_size=10, max_size=20),
    st.dictionaries(st.integers(-40000, 40000), nonzero, min_size=10, max_size=20),
    st.booleans(),
)
def test_wide_and_large_operands_pack_in_pieces(large, wide, by_size):
    # terms at -40000 and 40000 with 10 to 20 between: each piece is about
    # as wide as its terms, not as the span.  Coefficients of 2^31 or more
    # widen every lane to the l1 bound of the product, in one run.
    if by_size:
        a = b = LaurentPoly({(e, 0): c for e, c in large.items()})
    else:
        a = LaurentPoly({(e, 0): c for e, c in {**wide, -40000: 1, 40000: 2}.items()})
        b = LaurentPoly({(-e, 0): c for e, c in wide.items()})
    got, seen = image_product(a, b)
    assert got == pair_loop_product(a, b)
    assert {bits for _, bits in seen} == {(l1(a) * l1(b)).bit_length() + 2}
    assert sum(slots for slots, _ in seen) <= laurent._RUN * (a.term_count + b.term_count)


# -- image products against the pair loop: signs, borrows and lane widths


def filled(nvars, coeff):
    """Operands with a term at every exponent of a run (one variable) or of
    a box (two variables), coefficients drawn from `coeff`."""
    if nvars == 1:
        keys = st.integers(10, 30).map(lambda n: [(e - 5, 0) for e in range(n)])
    else:
        side = st.integers(4, 6)
        keys = st.tuples(side, side).map(
            lambda wh: [(e - 2, f - 3) for e in range(wh[0]) for f in range(wh[1])]
        )
    return keys.flatmap(
        lambda ks: st.lists(coeff, min_size=len(ks), max_size=len(ks)).map(
            lambda cs: LaurentPoly(dict(zip(ks, cs)), nvars)
        )
    )


def top_key(a: LaurentPoly):
    """The key in the highest lane: greatest e_p, then greatest e_q."""
    return max(dict(a.items()), key=lambda k: (k[1], k[0]))


profiles = st.sampled_from([1, 2])


@settings(deadline=None, max_examples=40)
@given(
    profiles.flatmap(
        lambda n: st.tuples(filled(n, st.integers(-99, -1)), filled(n, st.integers(1, 99)))
    )
)
def test_negative_coefficients_in_every_slot(operands):
    # every lane of the product is negative, so is the packed product, and
    # each lane reads back with its sign flipped
    a, b = operands
    got, _ = dense_product(a, b)
    assert got == pair_loop_product(a, b)
    assert all(c < 0 for _, c in got.items())


@settings(deadline=None, max_examples=40)
@given(profiles.flatmap(lambda n: st.tuples(filled(n, nonzero), filled(n, nonzero))))
def test_negative_top_coefficient(operands):
    # the top lanes' coefficients have opposite signs: the product's top
    # lane is negative, and with it the packed product
    a, b = operands
    ta, tb = top_key(a), top_key(b)
    ca, cb = dict(a.items()), dict(b.items())
    a = LaurentPoly({**ca, ta: -abs(ca[ta])}, a.nvars)
    b = LaurentPoly({**cb, tb: abs(cb[tb])}, b.nvars)
    got, _ = dense_product(a, b)
    assert got == pair_loop_product(a, b)
    assert dict(got.items())[(ta[0] + tb[0], ta[1] + tb[1])] < 0


@settings(deadline=None, max_examples=40)
@given(
    profiles,
    st.integers(0, 20),
    st.integers(0, 2),
    st.integers(1, 2**64),
    st.integers(1, 2**64),
    st.sampled_from([(1, 1), (1, -1), (-1, 1), (-1, -1)]),
)
def test_output_coefficients_at_the_lane_bound(nvars, wider, taller, ma, mb, signs):
    # constant operands, the shorter inside the longer: the middle lanes
    # reach min(len a, len b) * max|a| * max|b|, inside the l1 bound the
    # lanes are sized for
    if nvars == 1:
        a = LaurentPoly({(e, 0): signs[0] * ma for e in range(10)})
        b = LaurentPoly({(e, 0): signs[1] * mb for e in range(10 + wider)})
    else:
        a = two_var({(e, f): signs[0] * ma for e in range(4) for f in range(4)})
        b = two_var({(e, f): signs[1] * mb for e in range(4 + wider // 7) for f in range(4 + taller)})
    got, _ = dense_product(a, b)
    assert got == pair_loop_product(a, b)
    bound = a.term_count * ma * mb
    extreme = max((c for _, c in got.items()), key=abs)
    assert extreme == signs[0] * signs[1] * bound


@settings(deadline=None, max_examples=40)
@given(
    profiles.flatmap(
        lambda n: st.lists(
            st.dictionaries(
                st.tuples(st.integers(-300, 300), st.integers(-3, 3) if n == 2 else st.just(0)),
                nonzero,
                min_size=10,
                max_size=20,
            ).map(lambda terms: LaurentPoly(terms, n)),
            min_size=2,
            max_size=2,
        )
    )
)
def test_runs_of_empty_slots(operands):
    # 10 to 20 terms spread over 601 exponents: most lanes are empty, and
    # no piece is much wider than its terms
    a, b = operands
    got, seen = image_product(a, b)
    assert got == pair_loop_product(a, b)
    assert sum(slots for slots, _ in seen) <= laurent._RUN * (a.term_count + b.term_count)


huge = st.sampled_from([1, -1]).flatmap(
    lambda sign: st.integers(-(2**20), 2**20).map(lambda d: sign * (2**200 + d))
)


@settings(deadline=None, max_examples=40)
@given(profiles.flatmap(lambda n: st.tuples(filled(n, huge), filled(n, huge | nonzero))))
def test_coefficients_near_2_to_the_200(operands):
    # lanes of 200 to 400 bits, from the l1 norms; the second operand mixes
    # huge and small terms
    a, b = operands
    for x, y in ((a, b), (a, a)):
        got, seen = dense_product(x, y)
        assert got == pair_loop_product(x, y)
        assert {bits for _, bits in seen} == {(l1(x) * l1(y)).bit_length() + 2}
        assert all(bits > 200 for _, bits in seen)


def test_far_apart_terms_pack_one_lane_each():
    """4 x 4 terms 30,000 apart: every term is its own piece, and pieces
    whose products start far apart are decoded apart."""
    a = LaurentPoly({(30000 * i, 0): i + 3 for i in range(-2, 2)})
    b = LaurentPoly({(30000 * i + 7, 0): 2 * i - 1 for i in range(-2, 2)})
    got, seen = image_product(a, b)
    assert got == pair_loop_product(a, b)
    assert [slots for slots, _ in seen] == [1] * 8


# -- the signed-digit reader


def lane_by_lane_digits(n: int, bits: int) -> list:
    """The reader as it was: one lane per step, each step shifting all that
    is left of |n|.  The reference for `_signed_digits`."""
    negative = n < 0
    if negative:
        n = -n
    mask = (1 << bits) - 1
    half = 1 << (bits - 1)
    out = []
    i = 0
    while n:
        c = n & mask
        n >>= bits
        if c:
            if c >= half:
                c -= mask + 1
                n += 1
            out.append((i, -c if negative else c))
        i += 1
    return out


def test_signed_digits_match_the_lane_by_lane_reader():
    # short and long reads, from digits at the signed bounds and runs of
    # empty lanes, and from plain random integers
    rng = random.Random(29)
    for _ in range(600):
        bits = rng.randint(2, 70)
        half = 1 << (bits - 1)
        lanes = rng.choice((1, 5, 63, 64, 65, 130, 400))
        pool = (0, 0, 0, 1, -1, half - 1, -half, rng.randrange(-half, half))
        n = sum(rng.choice(pool) << (bits * i) for i in range(lanes))
        for m in (n, -n, rng.getrandbits(bits * lanes) - rng.getrandbits(bits * lanes)):
            assert laurent._signed_digits(m, bits) == lane_by_lane_digits(m, bits)


def lines_run(f):
    """f() and the number of lines it ran in the laurent module."""
    count = 0

    def local(frame, event, arg):
        nonlocal count
        count += event == "line"
        return local

    def enter(frame, event, arg):
        return local if frame.f_code.co_filename == laurent.__file__ else None

    previous = sys.gettrace()
    sys.settrace(enter)
    try:
        out = f()
    finally:
        sys.settrace(previous)
    return out, count


def test_long_sparse_reads_skip_empty_lanes():
    """Counted, not timed: two nonzero lanes 5,000 apart read back in a few
    hundred lines; a read of one lane per step runs tens of thousands."""
    for bits in (3, 64, 401):
        digits, lines = lines_run(lambda: laurent._signed_digits(3 - (1 << (bits * 5000)), bits))
        assert digits == [(0, 3), (5000, -1)]
        assert lines < 1000, (bits, lines)


def test_64_bit_lanes_at_their_edges():
    """The fold's width, read as C int64s: digits at 2^63 - 1 and -2^63 (and
    their negations, the range of a negative n being (-2^63, 2^63]), carries
    into the extra top lane, -2^(64k), and long sparse reads of either sign."""
    top, far = 1 << 63, 1 << (64 * 5000)
    edges = {
        top - 1: [(0, top - 1)],
        top: [(0, -top), (1, 1)],
        (1 << 64) - 1: [(0, -1), (1, 1)],
        (1 << 192) - 1: [(0, -1), (3, 1)],
        top << 128: [(2, -top), (3, 1)],
        (top - 1) - (top << 64) + (1 << 128): [(0, top - 1), (1, -top), (2, 1)],
    }
    for n, digits in edges.items():
        assert laurent._signed_digits(n, 64) == digits
        assert laurent._signed_digits(-n, 64) == [(i, -c) for i, c in digits]
    for k in range(6):
        assert laurent._signed_digits(-(1 << 64 * k), 64) == [(k, -1)]
    for n in [*edges, -(1 << 320), 3 - far, top + (top - 1) * far]:
        for m in (n, -n):
            assert laurent._signed_digits(m, 64) == lane_by_lane_digits(m, 64)
    for n in (3 - far, far - 3, top * (1 + far), -top * (1 + far)):
        digits, lines = lines_run(lambda: laurent._signed_digits(n, 64))
        assert [i for i, _ in digits] in ([0, 5000], [0, 1, 5000, 5001]), digits
        assert lines < 1000, (n.bit_length(), lines)


@settings(deadline=None, max_examples=80)
@given(
    st.dictionaries(
        st.tuples(st.integers(-40, 40), st.integers(-40, 40)), nonzero, min_size=1, max_size=12
    ),
    st.integers(0, 50),
    st.sampled_from(["q+", "q-", "p+", "p-"]),
)
def test_monomial_shift_checks_the_exponent_window(terms, margin, edge):
    # a monomial at `margin` inside one end of the window, times a
    # polynomial, on either side
    bound = laurent.EXPONENT_BOUND
    e = bound - margin if edge[1] == "+" else -(bound - margin)
    shift = (e, 0) if edge[0] == "q" else (0, e)
    m = LaurentPoly.monomial(-3, *shift, nvars=2)
    poly = LaurentPoly(terms, 2)
    cases = [lambda: m * poly, lambda: poly * m]
    out = [(e + eq, ep) if edge[0] == "q" else (eq, e + ep) for eq, ep in terms]
    if all(abs(x) <= bound for key in out for x in key):
        for result in cases:
            assert result() == pair_loop_product(m, poly)
    else:
        for result in cases:
            with pytest.raises(ArithmeticBoundError, match="left the checked 64-bit window"):
                result()


def test_eval_at_one_sums_the_coefficients():
    rng = random.Random(3)
    for nvars in (1, 2):
        p = 1 if nvars == 2 else None
        for _ in range(40):
            a = rand_poly(rng, nvars)
            b = rand_poly(rng, nvars)
            general = sum(
                (c * Fraction(1) ** eq * Fraction(1) ** ep for (eq, ep), c in a.items()),
                Fraction(0),
            )
            got = a.eval(1, p)
            assert type(got) is Fraction and got == general
            assert (a * b).eval(1, p) == got * b.eval(1, p)
    for n in range(-12, 13):
        assert q_int(n).eval(1) == n
        assert q_int(n, 2).eval(1, 1) == n
        # p = 1 alone is not the shortcut: the general path still runs
        assert q_int(n, 2).eval(1, 2) == sum(Fraction(2) ** i for i in range(n)) - sum(
            Fraction(2) ** (-1 - i) for i in range(-n)
        )
    with pytest.raises(ProfileError):
        q_int(3, 2).eval(1)
    with pytest.raises(ProfileError):
        q_int(3).eval(1, 1)
    with pytest.raises(EvaluationDomainError):
        q_int(3, 2).eval(1, 0)
