"""Field arithmetic: construction, examples, axioms, and I/O round trips."""

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from circmds.field import (
    BadSyntax,
    DegreeMismatch,
    GF2m,
    OutOfRange,
    Reducible,
    ZeroInverse,
    get_field,
    is_irreducible,
)

GF4 = get_field(2, 0x7)
GF8 = get_field(3, 0xB)
GF16 = get_field(4, 0x13)
F11D = get_field(8, 0x11D)
F11B = get_field(8, 0x11B)


# -- construction -------------------------------------------------------------


def test_known_polys_construct():
    assert F11D.m == 8 and F11D.order == 256
    assert F11B.poly == 0x11B


def test_reducible_rejected():
    with pytest.raises(Reducible):
        GF2m(4, 0x18)  # x^4 + x^3 has x as a factor


def test_degree_mismatch():
    with pytest.raises(DegreeMismatch):
        GF2m(8, 0x1D)  # top bit not set
    with pytest.raises(DegreeMismatch):
        GF2m(4, 0x11D)  # degree 8 polynomial for m=4
    with pytest.raises(DegreeMismatch):
        GF2m(0, 0x1)
    with pytest.raises(DegreeMismatch):
        GF2m(17, (1 << 17) | 1)


@pytest.mark.parametrize("m,poly,expect", [
    (8, 0x11D, True),
    (8, 0x11B, True),
    (4, 0x18, False),
    (4, 0x13, True),
    (2, 0x7, True),
    (2, 0x5, False),   # x^2 + 1 = (x+1)^2
    (1, 0x3, True),
    (1, 0x2, True),
])
def test_is_irreducible(m, poly, expect):
    assert is_irreducible(poly, m) is expect


def _mobius(d: int) -> int:
    mu, p = 1, 2
    while d > 1:
        if d % p == 0:
            d //= p
            if d % p == 0:
                return 0
            mu = -mu
        p += 1
    return mu


def test_irreducible_counts_follow_gauss():
    # Gauss: (1/m) * sum over d | m of mu(d) * 2^(m/d) polynomials of
    # degree m are irreducible over GF(2)
    gauss = [sum(_mobius(d) << m // d for d in range(1, m + 1) if m % d == 0) // m
             for m in range(1, 13)]
    assert gauss == [2, 1, 2, 3, 6, 9, 18, 30, 56, 99, 186, 335]
    counts = [sum(is_irreducible(poly, m) for poly in range(1 << m, 2 << m)) for m in range(1, 13)]
    assert counts == gauss


# -- multiplication --------------------------------------------------------------


def test_mul_identity():
    for a in range(GF8.order):
        assert GF8.mul(a, 0x01) == a


def test_mul_x_times_x7_in_aes_field():
    # x * x^7 = x^8 = x^4 + x^3 + x + 1 after one reduction step
    assert F11B.mul(0x02, 0x80) == 0x1B


def test_mul_x_times_x_plus_1():
    # (x)(x+1) = x^2 + x, no reduction needed
    assert F11D.mul(0x02, 0x03) == 0x06


@pytest.mark.parametrize("gf", [GF4, GF8, GF16])
def test_mul_matches_shift_reduce_exhaustively(gf):
    for a in range(gf.order):
        for b in range(gf.order):
            assert gf.mul(a, b) == gf.mul_raw(a, b)


@pytest.mark.parametrize("gf", [F11D, F11B])
def test_mul_matches_shift_reduce_sampled(gf):
    import random

    rng = random.Random(0xC0FFEE)
    for _ in range(2000):
        a = rng.randrange(gf.order)
        b = rng.randrange(gf.order)
        assert gf.mul(a, b) == gf.mul_raw(a, b)


def test_gf2_16_field_works():
    gf = get_field(16, 0x1100B)  # x^16 + x^12 + x^3 + x + 1
    assert gf.mul(gf.inv(0x1234), 0x1234) == 1
    assert gf.mul(2, 1 << 15) == gf.mul_raw(2, 1 << 15)


# -- inverse ---------------------------------------------------------------------


def test_inv_one():
    assert F11D.inv(0x01) == 0x01


def test_inv_x_in_aes_field_vs_scan_oracle():
    # oracle: the unique c with mul_raw(0x02, c) == 1 among all 255 candidates
    matches = [c for c in range(1, F11B.order) if F11B.mul_raw(0x02, c) == 1]
    assert matches == [0x8D]
    assert F11B.inv(0x02) == 0x8D


def test_inv_zero_raises():
    with pytest.raises(ZeroInverse):
        F11D.inv(0x00)


@pytest.mark.parametrize("gf", [GF4, GF8, GF16, F11D, F11B])
def test_inv_round_trip(gf):
    for a in range(1, gf.order):
        assert gf.mul(a, gf.inv(a)) == 1


# -- powers ----------------------------------------------------------------------


def test_pow_zero_exponent():
    assert F11D.pow(0x37, 0) == 1
    assert F11D.pow(0x00, 0) == 1


def test_pow_group_order():
    for a in range(1, GF16.order):
        assert GF16.pow(a, GF16.order - 1) == 1


def test_pow_x_eighth_vs_repeated_mul():
    acc = 1
    for _ in range(8):
        acc = F11D.mul_raw(acc, 0x02)
    assert acc == 0x1D
    assert F11D.pow(0x02, 8) == 0x1D


@pytest.mark.parametrize("gf", [GF4, GF8, GF16])
def test_pow_frobenius_fixed_points(gf):
    # a^(2^m) == a for every a
    for a in range(gf.order):
        assert gf.pow(a, gf.order) == a


def test_pow_negative_rejected():
    with pytest.raises(ValueError):
        F11D.pow(0x02, -1)


# -- axioms (property-based) ------------------------------------------------------

el = st.integers(min_value=0, max_value=255)


@given(a=el, b=el, c=el)
@settings(max_examples=300)
def test_axioms_f11d(a, b, c):
    gf = F11D
    assert gf.mul(a, b) == gf.mul(b, a)
    assert gf.mul(gf.mul(a, b), c) == gf.mul(a, gf.mul(b, c))
    assert (a ^ b) ^ c == a ^ (b ^ c)
    assert gf.mul(a, b ^ c) == gf.mul(a, b) ^ gf.mul(a, c)
    # Frobenius: squaring is additive in characteristic 2
    assert gf.pow(a ^ b, 2) == gf.pow(a, 2) ^ gf.pow(b, 2)
    if a != 0:
        assert gf.mul(a, gf.inv(a)) == 1


# -- element parsing and formatting ------------------------------------------------


def test_parse_format_round_trip():
    assert F11D.parse_element("0x06") == 0x06
    assert F11D.format_element(0x06) == "0x06"
    assert F11D.parse_element("0xE2") == 0xE2  # a^7+a^6+a^5+a, bits 1110_0010
    assert F11D.parse_element("0xe2") == 0xE2
    assert F11D.parse_element("E2") == 0xE2


def test_parse_out_of_range():
    with pytest.raises(OutOfRange):
        F11D.parse_element("0x100")


def test_parse_bad_syntax():
    with pytest.raises(BadSyntax):
        F11D.parse_element("0xZZ")
    with pytest.raises(BadSyntax):
        F11D.parse_element("")


@pytest.mark.parametrize("gf", [GF4, GF8, F11D])
def test_round_trip_all_elements(gf):
    for a in range(gf.order):
        assert gf.parse_element(gf.format_element(a)) == a


def test_format_element_refuses_out_of_range_before_and_after_names_are_cached():
    # names are kept per field from their first use; every miss is range
    # checked, so -1 and q raise with the cache empty and with it full, and
    # the cache never holds more than the q names
    gf = GF2m(3, 0xB)  # a fresh instance: get_field's is shared
    for _ in range(2):
        for bad in (-1, gf.order):
            with pytest.raises(OutOfRange):
                gf.format_element(bad)
        assert [gf.format_element(a) for a in range(gf.order)] == [f"0x{a:X}" for a in range(gf.order)]
    assert len(gf._names) == gf.order


def test_format_width_follows_degree():
    assert GF4.format_element(3) == "0x3"
    assert GF16.format_element(3) == "0x3"
    assert F11D.format_element(3) == "0x03"
    assert get_field(16, 0x1100B).format_element(3) == "0x0003"


# -- misc ---------------------------------------------------------------------------


def test_x_primitivity():
    assert F11D.x_is_primitive() is True
    assert F11B.x_is_primitive() is False
    assert F11B.element_order(2) == 51


def test_gf2_edge_field():
    gf = get_field(1, 0x3)
    assert gf.mul(1, 1) == 1
    assert gf.inv(1) == 1


def test_fields_cached_and_picklable():
    import pickle

    assert get_field(8, 0x11D) is get_field(8, 0x11D)
    gf = pickle.loads(pickle.dumps(F11D))
    assert gf is F11D
