"""Exact rational helpers built on fractions.Fraction.

Fraction already keeps values in lowest terms with a positive denominator,
so this module only adds the pieces the rest of the package needs: the
"a/b" serialization used by the CLI and file formats, exact roots and
square testing, and the divisor list and squarefree decomposition of an
integer, both built on `primes.factorize`.
"""

from __future__ import annotations

from fractions import Fraction
from math import isqrt
from typing import List, Optional, Tuple

from .errors import SeqLabError
from .primes import factorize


_TOO_LONG = 10**1000  # the least value of over 1000 digits


def parse_rational(text: str) -> Fraction:
    """Parse "a/b" (or plain "a") into a Fraction, ignoring whitespace.

    Raises ValueError on malformed input, including a zero denominator and
    parts of over 1000 digits ("1e999999999"), which keeps what the sweeps
    print within the 4300 digits Python prints of an int.
    """
    text = text.replace(" ", "")
    exponent = text.lower().partition("e")[2].replace("_", "")
    if exponent.lstrip("+-").isdigit() and abs(int(exponent)) > 1000:
        raise ValueError("exponent out of range in %r" % text)
    try:
        x = Fraction(text)
    except ZeroDivisionError:
        raise ValueError("zero denominator in %r" % text)
    if max(abs(x.numerator), x.denominator) >= _TOO_LONG:
        raise ValueError("more than 1000 digits in %r" % text)
    return x


def format_rational(x: Fraction) -> str:
    """Serialize a Fraction as "a/b", omitting "/b" when the denominator is 1.

    Raises SeqLabError past the number of digits Python prints of an int.
    """
    if type(x) is not Fraction:
        x = Fraction(x)
    try:
        if x.denominator == 1:
            return str(x.numerator)
        return "%d/%d" % (x.numerator, x.denominator)
    except ValueError:
        raise SeqLabError("value has too many digits to print") from None


def iroot(n: int, r: int) -> int:
    """The integer r-th root floor(n**(1/r)) of n >= 0, by Newton's method.

    Starting above the root, each step q -> ((r - 1)*q + n // q**(r - 1)) // r
    stays at or above it until q**r <= n.
    """
    if n < 0 or r < 1:
        raise ValueError("iroot needs n >= 0 and r >= 1")
    if n < 2:
        return n
    q = 1 << -(-n.bit_length() // r)
    while True:
        nxt = ((r - 1) * q + n // q ** (r - 1)) // r
        if nxt >= q:
            return q
        q = nxt


def rational_sqrt(x: Fraction) -> Optional[Fraction]:
    """The nonnegative exact square root of x, or None if x is not a square.

    A reduced fraction is a rational square iff numerator and denominator are
    both perfect squares (they share no prime, so no cross-cancellation can
    rescue a non-square part).
    """
    x = Fraction(x)
    if x < 0:
        return None
    num, den = x.numerator, x.denominator
    rn, rd = isqrt(num), isqrt(den)
    if rn * rn == num and rd * rd == den:
        return Fraction(rn, rd)
    return None


def is_rational_square(x: Fraction) -> bool:
    return rational_sqrt(x) is not None


def divisors(n: int) -> List[int]:
    """All positive divisors of |n|, sorted ascending."""
    if n == 0:
        raise ValueError("0 has no finite divisor list")
    ds = [1]
    for p, e in factorize(n).items():
        ds = [d * p ** k for d in ds for k in range(e + 1)]
    return sorted(ds)


def squarefree_decompose(n: int) -> Tuple[int, int]:
    """Write n = a * P**2 with a squarefree (a carries the sign of n).

    Returns (a, P) with P > 0. n must be nonzero.
    """
    if n == 0:
        raise ValueError("0 has no squarefree decomposition")
    a, p_part = (1 if n > 0 else -1), 1
    for p, e in factorize(n).items():
        p_part *= p ** (e // 2)
        if e % 2:
            a *= p
    return a, p_part
