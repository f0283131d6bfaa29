"""Prime enumeration for the divisor experiments.

One sieve of Eratosthenes that records smallest prime factors; a
count-based request sieves once, up to Rosser's bound on the n-th prime.
Windows in this package are always odd primes: 2 never belongs to the
admissible set of any parameter.

The last sieve's smallest-prime-factor table stays behind: `known_prime`
and `sieve_factors` read it for the window's primes p and for p +- 1, in
place of Miller-Rabin and trial division.  It holds one 16-bit entry per
odd n below the sieve's bound, so a sweep's window bounds it: 114 KB for
the first 10 000 odd primes, 16 MB for below:16000000.  A sieve past
TABLE_BELOW, which no window reaches, keeps no table.
"""

from __future__ import annotations

import sys
from itertools import compress
from math import gcd, isqrt, log, prod
from typing import List, Optional, Tuple

TABLE_BELOW = 1 << 24  # above both window caps: first:1000000 sieves to 16 441 814

# (bound, spf) of the last sieve: for odd n < bound, spf[n // 2] is the
# least prime factor of n, or 0 when n is 1 or a prime.  One tuple, so a
# reader never pairs one sieve's bound with another's table.  Which table
# is kept changes how fast an answer comes, never the answer.
_table = (0, memoryview(b"").cast("H"))


def primes_below(bound: int) -> List[int]:
    """All primes p < bound, ascending.  Keeps the sieve's table."""
    global _table
    if bound <= 2:
        return []
    half = bound // 2  # the odd n = 2*i + 1 < bound
    spf = memoryview(bytearray(2 * half)).cast("H") if bound <= TABLE_BELOW else None
    odd = bytearray([1]) * half
    odd[0] = 0
    # odd q from sqrt(bound) down, composite q included: the last q written
    # to an odd multiple n >= q*q is the least divisor of n above 1, a prime
    root = isqrt(bound - 1)
    for q in range(root - 1 + root % 2, 2, -2):
        start, k = q * q // 2, len(range(q * q // 2, half, q))
        odd[start::q] = bytes(k)
        if spf is not None:
            spf[start::q] = memoryview(q.to_bytes(2, sys.byteorder) * k).cast("H")
    if spf is not None:
        _table = (bound, spf)
    return [2] + list(compress(range(1, bound, 2), odd))


def odd_primes_below(bound: int) -> List[int]:
    return primes_below(bound)[1:]


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


def known_prime(n: int) -> bool:
    """is_prime(n), read off the last sieve's table when n is odd and below its bound."""
    bound, spf = _table
    if n & 1 and 0 < n < bound:
        return n > 1 and not spf[n >> 1]
    return is_prime(n)


def sieve_factors(n: int) -> Optional[List[Tuple[int, int]]]:
    """The prime factorization of n >= 1 as ascending (q, e) pairs, from the
    last sieve's table; None when the odd part of n is not below its bound.

    So every p +- 1 of an odd prime p < bound is covered.
    """
    bound, spf = _table
    twos = (n & -n).bit_length() - 1
    m = n >> twos
    if m >= bound:
        return None
    out = [(2, twos)] if twos else []
    while m > 1:
        q = spf[m >> 1] or m
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        out.append((q, e))
    return out


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
