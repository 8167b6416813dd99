"""Prime field scaffolding: prime search and primitive roots.

Everything here is deliberately small-range and deterministic.  The
field primes live just above 2^B for B ≤ 24, so trial division is both
fast enough and trivially auditable; no probabilistic test is involved.
The scan's trial division is the one proof that P is prime, and the
tests check the prime-gap window of every scan over the whole range.
Smallest-prime and smallest-root tie-breaking keeps every construction
reproducible byte for byte.
"""

from __future__ import annotations

import math

from .errors import ParameterError
from .wordram import Record

FIELD_BITS_MAX = 24


def _trial_division(n: int) -> tuple[bool, int]:
    """(n is prime, divisors tried) for n >= 2: 2, then odd d up to the
    square root, until one divides n.  `find_field_prime` sums the tries
    of its scan."""
    if n % 2 == 0:
        return n == 2, 1
    steps = 1
    for d in range(3, math.isqrt(n) + 1, 2):
        steps += 1
        if n % d == 0:
            return False, steps
    return True, steps


class FieldPrime(Record):
    """Smallest prime P at or above 2^B, plus the `trial_steps` trial
    divisions the scan made over every candidate in [2^B, P].  The
    prime-scan charge reads the steps."""

    _fields = ("P", "trial_steps")


def find_field_prime(B: int) -> FieldPrime:
    """Scan upward from 2^B to the first prime, recording the trial
    divisions.  Bertrand's postulate puts one below 2^(B+1); the tests
    check the scan length P - 2^B + 1 against the prime-gap window
    2^ceil(0.525*B) + 1 for every B ≥ 8 in range.
    """
    if not 2 <= B <= FIELD_BITS_MAX:
        raise ParameterError(f"field size B must be in [2, {FIELD_BITS_MAX}], got {B}")
    n, steps = 1 << B, 0
    while True:
        prime, tried = _trial_division(n)
        steps += tried
        if prime:
            return FieldPrime(n, steps)
        n += 1


def _prime_factors(n: int) -> list[int]:
    """Distinct prime factors by trial division, ascending."""
    out = []
    d = 2
    while d * d <= n:
        if n % d == 0:
            out.append(d)
            while n % d == 0:
                n //= d
        d += 1 if d == 2 else 2
    if n > 1:
        out.append(n)
    return out


def find_primitive_root(prime: FieldPrime) -> int:
    """Smallest generator of the cyclic group of units mod the field
    prime P, which `find_field_prime` proved prime.

    A candidate a generates iff a^((P-1)/q) != 1 for every prime q
    dividing P-1; that check needs only the distinct factors.
    """
    p = prime.P
    factors = _prime_factors(p - 1)
    for a in range(2, p):
        if all(pow(a, (p - 1) // q, p) != 1 for q in factors):
            return a
