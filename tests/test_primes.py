"""Prime enumeration and primality against each other and known hard cases."""

import pytest

from seqlab import primes
from seqlab.primes import (
    _miller_rabin,
    _trial_division,
    factorize,
    first_odd_primes,
    is_prime,
    odd_primes_below,
    primes_below,
)

EMPTY = (0, memoryview(b"").cast("H"))  # the table before any sieve


def test_is_prime_agrees_with_sieve():
    """Miller-Rabin itself, not the table the sieve leaves behind."""
    sieved = sorted(primes_below(200_000))
    assert [n for n in range(-3, 200_000) if _miller_rabin(n)] == sieved
    assert [n for n in range(-3, 200_000) if is_prime(n)] == sieved


def test_is_prime_large_cases():
    large_primes = (1_000_003, 2**31 - 1, 999_999_999_989, 2**61 - 1, 10**18 + 9, 2**89 - 1)
    for p in large_primes:
        assert is_prime(p) and _miller_rabin(p)
        assert not is_prime(p * p) and not _miller_rabin(p * p)
    carmichael = (561, 1105, 1729, 2465, 41041, 825265, 321197185, 5394826801, 232250619601)
    # the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    strong_pseudoprimes = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461,
    )
    for n in carmichael + strong_pseudoprimes:  # below a table's bound too
        assert not is_prime(n) and not _miller_rabin(n), n


def test_first_odd_primes_is_a_prefix_of_one_sieve():
    odd = primes_below(30_000)[1:]
    assert len(odd) > 3_000
    for k in range(-1, 3_001):
        assert first_odd_primes(k) == odd[: max(k, 0)], k


def test_sieve_table_matches_is_prime_and_factorize(monkeypatch):
    """Every n < 20 000 from the table of one sieve; at its edge (bound - 1,
    bound, bound + 1) the table or the fallback gives the same answers."""
    for bound in (20_000, 20_012):  # 20 011 is prime
        monkeypatch.setattr(primes, "_table", EMPTY)
        primes_below(bound)
        assert primes._table[0] == bound
        for n in list(range(-3, 20_000)) + [bound - 1, bound, bound + 1]:
            assert is_prime(n) == _miller_rabin(n), n
            if n:
                assert list(factorize(n).items()) == list(_trial_division(abs(n)).items()), n
    assert factorize(2 * 20_011) == {2: 1, 20_011: 1}
    with pytest.raises(ValueError):
        factorize(0)


def test_sieve_keeps_one_bounded_table(monkeypatch):
    """The largest sieve's table stays; a smaller sieve cannot shrink it."""
    monkeypatch.setattr(primes, "_table", EMPTY)
    primes_below(5_000)
    table = primes._table
    assert table[0] == 5_000 and len(table[1]) == 2_500
    primes_below(300)
    odd_primes_below(5_000)
    first_odd_primes(10)
    assert primes._table is table
    primes_below(6_000)  # a larger sieve replaces it
    assert primes._table[0] == 6_000 and len(primes._table[1]) == 3_000
    assert primes.TABLE_BELOW >= 16_441_814  # what first:1000000 sieves to
    monkeypatch.setattr(primes, "TABLE_BELOW", 7_000)
    primes_below(8_000)  # past TABLE_BELOW: no table
    assert primes._table[0] == 6_000
