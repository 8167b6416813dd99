"""Tests for trial division, prime search, and primitive roots."""

import math

import pytest

from wordcode.errors import ParameterError
from wordcode.numtheory import (
    FIELD_BITS_MAX,
    _trial_division,
    find_field_prime,
    find_primitive_root,
)


def trial_division_oracle(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


# The scan's trial division is the one proof that a field prime is prime.
def test_trial_division_pinned_values():
    assert _trial_division(2)[0]
    assert _trial_division(67)[0]
    assert not _trial_division(65)[0]


def test_trial_division_matches_oracle_over_prefix():
    for n in range(2, 2000):
        assert _trial_division(n)[0] == trial_division_oracle(n)


def test_trial_division_large_values():
    assert _trial_division(4294967291)[0]          # largest prime below 2^32
    assert not _trial_division(4294967295)[0]      # 3 * 5 * 17 * 257 * 65537


def test_find_field_prime_pinned():
    assert find_field_prime(4).P == 17
    assert find_field_prime(6).P == 67
    assert find_field_prime(8).P == 257


def test_find_field_prime_minimality_and_window():
    # The window is proven here, not at run time, for every B in range.
    for b in range(2, FIELD_BITS_MAX + 1):
        fp = find_field_prime(b)
        assert (1 << b) <= fp.P < (1 << (b + 1))
        assert trial_division_oracle(fp.P)
        for n in range(1 << b, fp.P):
            assert not trial_division_oracle(n)
        if b >= 8:
            assert fp.P - (1 << b) + 1 <= (1 << math.ceil(0.525 * b)) + 1


def test_field_prime_records_its_trial_divisions():
    # Every B a build reaches at w <= 8192, at both levels.
    for b in range(2, 14):
        fp = find_field_prime(b)
        assert fp.trial_steps == sum(_trial_division(n)[1]
                                     for n in range(1 << b, fp.P + 1))


def test_find_field_prime_range():
    with pytest.raises(ParameterError):
        find_field_prime(1)
    with pytest.raises(ParameterError):
        find_field_prime(25)


def test_primitive_root_pinned():
    assert find_primitive_root(find_field_prime(4)) == 3
    assert find_primitive_root(find_field_prime(6)) == 2


def test_primitive_root_generates_whole_group():
    # The field primes of B = 2, 4, 6, 8 and 12.
    for b, p in ((2, 5), (4, 17), (6, 67), (8, 257), (12, 4099)):
        prime = find_field_prime(b)
        assert prime.P == p
        alpha = find_primitive_root(prime)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * alpha % p
            seen.add(x)
        assert seen == set(range(1, p))


def test_primitive_root_is_smallest():
    for b in (4, 6, 8):
        prime = find_field_prime(b)
        p = prime.P
        alpha = find_primitive_root(prime)
        for a in range(2, alpha):
            order = 1
            x = a % p
            while x != 1:
                x = x * a % p
                order += 1
            assert order < p - 1, f"{a} already generates mod {p}"


def test_every_field_prime_has_a_root_search():
    for b in range(2, FIELD_BITS_MAX + 1):
        prime = find_field_prime(b)
        p = prime.P
        # A generator is a quadratic non-residue.
        assert pow(find_primitive_root(prime), (p - 1) // 2, p) == p - 1
