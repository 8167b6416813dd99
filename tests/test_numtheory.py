"""Tests for primality, prime search, and primitive roots."""

import math

import pytest

from wordcode.errors import ParameterError
from wordcode.numtheory import (
    FIELD_BITS_MAX,
    ROOT_PRIME_MAX,
    _trial_division,
    find_field_prime,
    find_primitive_root,
    is_prime,
)


def trial_division_oracle(n):
    if n < 2:
        return False
    return all(n % d for d in range(2, math.isqrt(n) + 1))


def test_is_prime_pinned_values():
    assert not is_prime(0)
    assert not is_prime(1)
    assert is_prime(2)
    assert is_prime(67)
    assert not is_prime(65)


def test_is_prime_matches_oracle_over_prefix():
    for n in range(2000):
        assert is_prime(n) == trial_division_oracle(n)


def test_is_prime_large_values():
    assert is_prime(4294967291)          # largest prime below 2^32
    assert not is_prime(4294967295)      # 3 * 5 * 17 * 257 * 65537
    with pytest.raises(ParameterError):
        is_prime(1 << 32)
    with pytest.raises(ParameterError):
        is_prime(-1)


def test_find_field_prime_pinned():
    assert find_field_prime(4).P == 17
    assert find_field_prime(6).P == 67
    assert find_field_prime(8).P == 257


def test_find_field_prime_minimality_and_window():
    for b in range(2, 17):
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
    assert find_primitive_root(17) == 3
    assert find_primitive_root(67) == 2
    assert find_primitive_root(3) == 2


def test_primitive_root_generates_whole_group():
    for p in (3, 17, 67, 257, 4099):
        alpha = find_primitive_root(p)
        seen = set()
        x = 1
        for _ in range(p - 1):
            x = x * alpha % p
            seen.add(x)
        assert seen == set(range(1, p))


def test_primitive_root_is_smallest():
    for p in (17, 67, 257):
        alpha = find_primitive_root(p)
        for a in range(2, alpha):
            order = 1
            x = a % p
            while x != 1:
                x = x * a % p
                order += 1
            assert order < p - 1, f"{a} already generates mod {p}"


def test_every_field_prime_has_a_root_search():
    # find_field_prime(24) is 2^24 + 43; every field prime must lie in
    # find_primitive_root's range.
    for b in range(2, FIELD_BITS_MAX + 1):
        p = find_field_prime(b).P
        assert p < ROOT_PRIME_MAX
        # A generator is a quadratic non-residue.
        assert pow(find_primitive_root(p), (p - 1) // 2, p) == p - 1
    with pytest.raises(ParameterError, match=rf"\[2, {ROOT_PRIME_MAX}\)"):
        find_primitive_root(ROOT_PRIME_MAX)


def test_primitive_root_rejects_composite():
    with pytest.raises(ParameterError):
        find_primitive_root(65)
