"""Primes for the divisor experiments: enumeration, primality, factoring.

One sieve of Eratosthenes that records smallest prime factors; a
count-based request sieves once, up to Rosser's bound on the n-th prime.
Windows in this package are always odd primes: 2 never belongs to the
admissible set of any parameter.

The largest sieve's smallest-prime-factor table stays behind, and only
this module reads it: `is_prime` answers from it for odd n below its
bound, and `factorize` when the odd part of n is, so a sweep's rows find
p's primality and the factors of p +- 1 there.  Elsewhere they fall back
to Miller-Rabin and to trial division.  The table holds one 16-bit entry
per odd n below the bound, so the largest window bounds it: 114 KB for the
first 10 000 odd primes, 16 MB for below:16000000.  A sieve no larger
than the kept one builds no table, so no caller can shrink it; nor does a
sieve past TABLE_BELOW, which no window reaches.
"""

from __future__ import annotations

import sys
from itertools import compress
from math import gcd, isqrt, log, prod
from typing import Dict, List

TABLE_BELOW = 1 << 24  # above both window caps: first:1000000 sieves to 16 441 814

# (bound, spf) of the largest sieve: for odd n < bound, spf[n // 2] is the
# least prime factor of n, or 0 when n is 1 or a prime.  One tuple, so a
# reader never pairs one sieve's bound with another's table.  Which table
# is kept changes how fast an answer comes, never the answer.
_table = (0, memoryview(b"").cast("H"))


def primes_below(bound: int) -> List[int]:
    """All primes p < bound, ascending.  Keeps the sieve's table if it is
    the largest so far."""
    global _table
    if bound <= 2:
        return []
    half = bound // 2  # the odd n = 2*i + 1 < bound
    spf = memoryview(bytearray(2 * half)).cast("H") if _table[0] < bound <= TABLE_BELOW else None
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


def is_prime(n: int) -> bool:
    """Whether n is prime: off the sieve table when n is odd and below its
    bound, else by `_miller_rabin`."""
    bound, spf = _table
    if n & 1 and 0 < n < bound:
        return n > 1 and not spf[n >> 1]
    return _miller_rabin(n)


def factorize(n: int) -> Dict[int, int]:
    """The prime factorization {q: e} of |n|, q ascending; factorize(0) is an
    error.  Off the sieve table when the odd part of n is below its bound,
    else by `_trial_division`."""
    if n == 0:
        raise ValueError("cannot factorize 0")
    n = abs(n)
    bound, spf = _table
    twos = (n & -n).bit_length() - 1
    m = n >> twos
    if m >= bound:
        return _trial_division(n)
    out = {2: twos} if twos else {}
    while m > 1:
        q = spf[m >> 1] or m
        e = 0
        while m % q == 0:
            m //= q
            e += 1
        out[q] = e
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


def _miller_rabin(n: int) -> bool:
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


def _trial_division(n: int) -> Dict[int, int]:
    """The prime factorization of n >= 1 by trial division over 2, 3 and
    6k +- 1.  Division stops early once the cofactor is a prime that
    `_miller_rabin` decides exactly; a larger probable prime is still
    trial-divided."""
    out: Dict[int, int] = {}
    for q in (2, 3):
        while n % q == 0:
            out[q] = out.get(q, 0) + 1
            n //= q
    f = 5
    done = n < EXACT_BELOW and _miller_rabin(n)
    while not done and f * f <= n:
        for q in (f, f + 2):
            if n % q == 0:
                while n % q == 0:
                    out[q] = out.get(q, 0) + 1
                    n //= q
                done = n < EXACT_BELOW and _miller_rabin(n)
        f += 6
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out
