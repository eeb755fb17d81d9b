"""Unit tests for exact arithmetic in K = Q(i, sqrt 2, sqrt 5)."""

from fractions import Fraction

import pytest

from conic_census.field import (
    I,
    I_SQRT2,
    I_SQRT5,
    I_SQRT10,
    ONE,
    SQRT2,
    SQRT5,
    SQRT10,
    ZERO,
    KElem,
    kelem,
    sqrt_in_k,
)


def test_generator_squares():
    assert I * I == kelem(-1)
    assert SQRT2 * SQRT2 == kelem(2)
    assert SQRT5 * SQRT5 == kelem(5)
    assert SQRT10 == SQRT2 * SQRT5
    assert I_SQRT2 == I * SQRT2
    assert I_SQRT5 == I * SQRT5
    assert I_SQRT10 == I * SQRT10


def test_ring_identities():
    a = (ONE + SQRT2) * (SQRT5 - I)
    b = SQRT5 - I + SQRT10 - I_SQRT2
    assert a == b
    assert a - a == ZERO
    assert a * ZERO == ZERO
    assert a * ONE == a


def test_inverse():
    # (1 + s2)(s2 - 1) = 1
    a = ONE + SQRT2
    assert a.inverse() == SQRT2 - ONE
    assert a * a.inverse() == ONE
    b = kelem(Fraction(3, 7)) + I_SQRT10
    assert b * b.inverse() == ONE
    with pytest.raises(ZeroDivisionError):
        ZERO.inverse()


def test_division_and_pow():
    a = SQRT10 / SQRT2
    assert a == SQRT5
    assert (ONE + I) ** 2 == 2 * I
    assert (ONE + I) ** 0 == ONE


def test_as_fraction():
    assert kelem(Fraction(-7, 3)).as_fraction() == Fraction(-7, 3)
    with pytest.raises(ValueError):
        SQRT2.as_fraction()


def test_text_round_trip():
    a = kelem(Fraction(3, 2)) - I / 7 + SQRT10 * Fraction(5, 11)
    text = a.to_text()
    assert " " not in text
    assert text.count(",") == 7
    assert KElem.from_text(text) == a
    assert KElem.from_text(ZERO.to_text()) == ZERO


def test_from_text_rejects_malformed():
    with pytest.raises(ValueError):
        KElem.from_text("1,0,0")
    with pytest.raises(ValueError):
        KElem.from_text("a,0,0,0,0,0,0,0")
    with pytest.raises((ValueError, ZeroDivisionError)):
        KElem.from_text("1/0,0,0,0,0,0,0,0")


def test_str_uses_radical_names():
    assert str(SQRT2) == "s2"
    assert str(-SQRT5) == "-s5"
    assert str(I * SQRT10) == "i*s10"
    assert str(ONE + ONE) == "2"
    assert str(ZERO) == "0"


def test_sqrt_in_k():
    cases = {
        2: SQRT2,
        5: SQRT5,
        10: SQRT10,
        -1: I,
        -2: I_SQRT2,
        -5: I_SQRT5,
        0: ZERO,
        Fraction(9, 4): kelem(Fraction(3, 2)),
        Fraction(2, 5): SQRT10 / 5,
    }
    for value, want in cases.items():
        got = sqrt_in_k(kelem(value))
        assert got is not None
        assert got == want or got == -want
        assert got * got == kelem(value)
    assert sqrt_in_k(kelem(3)) is None
    assert sqrt_in_k(kelem(7)) is None


def test_kelem_coercion():
    assert kelem(2) == ONE + ONE
    assert kelem(Fraction(1, 3)) * 3 == ONE
    assert kelem(SQRT5) is SQRT5 or kelem(SQRT5) == SQRT5


def test_hashable():
    seen = {ONE: "a", SQRT2: "b"}
    assert seen[kelem(1)] == "a"
    assert seen[SQRT10 / SQRT5] == "b"


def _from_coords(coords):
    """The element with these 8 rational coordinates, through the text form."""
    return KElem.from_text(",".join(map(str, coords)))


def _oracle_inverse(x):
    """1/x as the product of its seven nontrivial conjugates over the norm."""
    y = ONE
    for t in range(1, 8):
        y = y * x.galois(t)
    return y * kelem(1 / (x * y).as_fraction())


def test_inverse_matches_conjugate_product():
    import random

    rng = random.Random(29)
    xs = [x for x in _seeded_elements(11, 80) if x]
    for mask in range(1, 256):
        coords = [
            Fraction(rng.choice((-1, 1)) * rng.randint(1, 9), rng.randint(1, 9))
            if mask >> j & 1
            else 0
            for j in range(8)
        ]
        x = _from_coords(coords)
        assert x.mask == mask
        xs.append(x)
    for _ in range(20):
        big = Fraction(rng.randint(1, 10**30), rng.randint(10**40, 10**41))
        xs.append(kelem(big))
        xs.append(_from_coords([big * rng.randint(-5, 5) for _ in range(7)] + [big]))
    for x in xs:
        inv = x.inverse()
        assert inv == _oracle_inverse(x)
        assert x * inv == ONE


def _seeded_elements(seed, count):
    """Elements with zero, integral and rational coordinates over mixed denominators."""
    import random

    rng = random.Random(seed)
    out = [ZERO, ONE, -I, kelem(Fraction(-5, 6))]
    while len(out) < count:
        coords = [
            Fraction(rng.randint(-12, 12), rng.choice((1, 1, 2, 3, 4, 7, 10, 12)))
            if rng.random() < 0.4
            else 0
            for _ in range(8)
        ]
        out.append(_from_coords(coords))
    return out


def test_dot_equals_sum_of_products():
    from conic_census.field import dot

    xs = _seeded_elements(7, 60)
    ys = _seeded_elements(8, 60)
    for n in range(0, 60, 3):
        want = ZERO
        for x, y in zip(xs[n : n + 7], ys[n : n + 7]):
            want = want + x * y
        assert dot(xs[n : n + 7], ys[n : n + 7]) == want
    assert dot([], []) == ZERO


def test_text_form_matches_reduced_fractions():
    for x in _seeded_elements(9, 80) + [kelem(-3), -SQRT2 / 4]:
        text = x.to_text()
        assert text == ",".join(str(Fraction(n, x.den)) for n in x.num)
        assert KElem.from_text(text) == x


@pytest.mark.parametrize(
    "token", ["1e6000", "3_000", " 3", "3 ", "\u0663", "+3", "1/-2", "0x10", "1.5", ""]
)
def test_from_text_accepts_only_plain_rationals(token):
    with pytest.raises(ValueError):
        KElem.from_text(",".join([token] + ["0"] * 7))
