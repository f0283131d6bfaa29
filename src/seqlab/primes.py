"""Prime enumeration for the divisor experiments.

A plain sieve of Eratosthenes; a count-based request sieves once, up to
Rosser's bound on the n-th prime.  Windows in this package are always odd
primes: 2 never belongs to the admissible set of any parameter.
"""

from __future__ import annotations

from math import gcd, isqrt, log, prod
from typing import List


def primes_below(bound: int) -> List[int]:
    """All primes p < bound, ascending."""
    if bound <= 2:
        return []
    sieve = bytearray([1]) * bound
    sieve[0:2] = b"\x00\x00"
    for p in range(2, isqrt(bound - 1) + 1):
        if sieve[p]:
            sieve[p * p :: p] = bytearray(len(range(p * p, bound, p)))
    return [p for p in range(bound) if sieve[p]]


def odd_primes_below(bound: int) -> List[int]:
    return [p for p in primes_below(bound) if p > 2]


def first_odd_primes(count: int) -> List[int]:
    """The first `count` odd primes 3, 5, 7, ...

    The last of them is the prime p_n with n = count + 1, and
    p_n < n*(ln n + ln ln n) for n >= 6 (Rosser 1941); p_5 = 11.
    """
    if count <= 0:
        return []
    n = count + 1
    bound = int(n * (log(n) + log(log(n)))) + 2 if n >= 6 else 12
    return odd_primes_below(bound)[:count]


# A gcd with the product of these primes settles every n < 43**2.  Above
# that, the first k of them as strong-pseudoprime bases decide every n below
# the paired bound, and all thirteen every n < EXACT_BELOW (Jaeschke 1993;
# Sorenson and Webster 2017).
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
EXACT_BELOW = 3317044064679887385961981
_SMALL_PRODUCT = prod(_SMALL_PRIMES)
_MR_BOUNDS = (
    (2047, 1), (1373653, 2), (25326001, 3), (3215031751, 4),
    (2152302898747, 5), (3474749660383, 6), (341550071728321, 7),
    (3825123056546413051, 9), (318665857834031151167461, 12),
)


def is_prime(n: int) -> bool:
    """Primality by small-prime gcd, then deterministic Miller-Rabin.

    Exact for every n < EXACT_BELOW (about 3.3 * 10**24); above that it is
    a strong probable-prime test to the thirteen bases 2, 3, ..., 41.
    """
    if n < 43 * 43:
        return n in _SMALL_PRIMES or (n > 1 and gcd(n, _SMALL_PRODUCT) == 1)
    if gcd(n, _SMALL_PRODUCT) != 1:
        return False
    k = len(_SMALL_PRIMES)
    for bound, count in _MR_BOUNDS:
        if n < bound:
            k = count
            break
    s = ((n - 1) & -(n - 1)).bit_length() - 1
    d = (n - 1) >> s
    for a in _SMALL_PRIMES[:k]:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True
