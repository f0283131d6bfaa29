import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from seqlab.errors import SeqLabError
from seqlab.primes import factorize, is_prime
from seqlab.rational import (
    divisors,
    format_rational,
    iroot,
    is_rational_square,
    parse_rational,
    rational_sqrt,
    squarefree_decompose,
)


def test_parse_rational():
    assert parse_rational("3") == 3
    assert parse_rational("-19/3") == Fraction(-19, 3)
    assert parse_rational(" 6 / 5 ") == Fraction(6, 5)
    with pytest.raises(ValueError):
        parse_rational("1/0")
    with pytest.raises(ValueError):
        parse_rational("x")
    assert parse_rational("-2.5e-3") == Fraction(-1, 400)
    assert parse_rational("9" * 1000) == 10**1000 - 1
    for text in ("1e999999999", "1e1_000_000_000", "1e-1001", "1" + "0" * 1000):
        with pytest.raises(ValueError):
            parse_rational(text)


def test_format_rational():
    assert format_rational(Fraction(8)) == "8"
    assert format_rational(Fraction(-19, 3)) == "-19/3"
    assert format_rational(Fraction(4, 2)) == "2"
    for x in (Fraction(10**5000), Fraction(1, 10**5000)):  # past Python's int printing limit
        with pytest.raises(SeqLabError, match="too many digits"):
            format_rational(x)


@given(st.fractions(max_denominator=40))
def test_parse_format_roundtrip(x):
    assert parse_rational(format_rational(x)) == x


def test_rational_sqrt_exact():
    assert rational_sqrt(Fraction(64, 25)) == Fraction(8, 5)
    assert rational_sqrt(Fraction(0)) == 0
    assert rational_sqrt(Fraction(2)) is None
    assert rational_sqrt(Fraction(4, 7)) is None
    assert rational_sqrt(Fraction(-9)) is None


@given(st.fractions(min_value=0, max_value=100, max_denominator=30))
def test_rational_sqrt_squares(x):
    r = rational_sqrt(x * x)
    assert r == abs(x)
    assert is_rational_square(x * x)


def test_factorize():
    assert factorize(1) == {}
    assert factorize(12) == {2: 2, 3: 1}
    assert factorize(-98) == {2: 1, 7: 2}
    assert factorize(9973) == {9973: 1}
    # a prime cofactor ends trial division, which could not reach the root of p64
    p64 = 2**64 - 59
    assert factorize(p64) == {p64: 1}
    assert factorize(-2**3 * 3 * 7**2 * 1_000_003 * p64) == {2: 3, 3: 1, 7: 2, 1_000_003: 1, p64: 1}
    assert factorize(999_983 * 1_000_003) == {999_983: 1, 1_000_003: 1}
    with pytest.raises(ValueError):
        factorize(0)


@given(st.integers(min_value=1, max_value=100000))
def test_factorize_reconstructs(n):
    prod = 1
    for p, e in factorize(n).items():
        assert is_prime(p)
        prod *= p ** e
    assert prod == n


def test_divisors():
    assert divisors(12) == [1, 2, 3, 4, 6, 12]
    assert divisors(1) == [1]


def test_squarefree_decompose():
    # n = a * P**2 with a squarefree, sign on a
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(4) == (1, 2)
    assert squarefree_decompose(-4) == (-1, 2)
    assert squarefree_decompose(18) == (2, 3)
    assert squarefree_decompose(-75) == (-3, 5)


@given(st.integers(min_value=-20000, max_value=20000).filter(lambda n: n != 0))
def test_squarefree_decompose_reconstructs(n):
    a, p = squarefree_decompose(n)
    assert a * p * p == n
    assert all(e == 1 for e in factorize(a).values())


@pytest.mark.parametrize("r", [2, 3, 5, 7, 11, 13])
def test_iroot_brackets_the_real_root(r):
    rng = random.Random(r)
    for n in [0, 1] + [rng.randrange(10 ** rng.randint(1, 200)) for _ in range(300)]:
        q = iroot(n, r)
        assert q ** r <= n < (q + 1) ** r, (n, r, q)
    for _ in range(50):
        q = rng.randrange(1, 10 ** rng.randint(1, 40))
        assert iroot(q ** r, r) == q
        assert iroot(q ** r - 1, r) == q - 1
