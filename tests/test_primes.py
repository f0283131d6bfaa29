"""Prime enumeration and primality against each other and known hard cases."""

from seqlab import modp, primes
from seqlab.primes import first_odd_primes, is_prime, known_prime, primes_below, sieve_factors
from seqlab.rational import factorize


def test_is_prime_agrees_with_sieve():
    sieved = set(primes_below(200_000))
    assert [n for n in range(-3, 200_000) if is_prime(n)] == sorted(sieved)


def test_is_prime_large_cases():
    large_primes = (1_000_003, 2**31 - 1, 999_999_999_989, 2**61 - 1, 10**18 + 9, 2**89 - 1)
    for p in large_primes:
        assert is_prime(p)
        assert not is_prime(p * p)
    carmichael = (561, 1105, 1729, 2465, 41041, 825265, 321197185, 5394826801, 232250619601)
    # the least strong pseudoprimes to the first 1, 2, ..., 12 prime bases
    strong_pseudoprimes = (
        2047, 1373653, 25326001, 3215031751, 2152302898747, 3474749660383,
        341550071728321, 3825123056546413051, 318665857834031151167461,
    )
    for n in carmichael + strong_pseudoprimes:
        assert not is_prime(n), n


def test_first_odd_primes_is_a_prefix_of_one_sieve():
    odd = primes_below(30_000)[1:]
    assert len(odd) > 3_000
    for k in range(-1, 3_001):
        assert first_odd_primes(k) == odd[: max(k, 0)], k


def test_sieve_table_matches_is_prime_and_factorize():
    """Every n < 20 000 from the table of one sieve; at its edge (bound - 1,
    bound, bound + 1) the table or the fallback gives the same answers."""
    for bound in (20_000, 20_012):  # 20 011 is prime
        primes_below(bound)
        for n in list(range(-3, 20_000)) + [bound - 1, bound, bound + 1]:
            assert known_prime(n) == is_prime(n), n
            if n < 1:
                continue
            odd_part = n >> ((n & -n).bit_length() - 1)
            got = sieve_factors(n)
            assert got == (None if odd_part >= bound else list(factorize(n).items())), n
            assert list(modp._factors(n)) == list(factorize(n).items()), n
    assert sieve_factors(20_013) is None and sieve_factors(2 * 20_011) == [(2, 1), (20_011, 1)]


def test_sieve_keeps_one_bounded_table():
    primes_below(5_000)
    assert primes._table[0] == 5_000 and len(primes._table[1]) == 2_500
    primes_below(300)  # the latest sieve replaces the table
    assert primes._table[0] == 300 and len(primes._table[1]) == 150
    assert sieve_factors(301) is None
    assert primes.TABLE_BELOW >= 16_441_814  # what first:1000000 sieves to
