"""Prime field scaffolding: primality, prime search, primitive roots.

Everything here is deliberately small-range and deterministic.  The
field primes live just above 2^B for B ≤ 24, so trial division is both
fast enough and trivially auditable; no probabilistic test is involved.
Smallest-prime and smallest-root tie-breaking keeps every construction
reproducible byte for byte.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import ParameterError

IS_PRIME_MAX = 1 << 32
FIELD_BITS_MAX = 24
# A field prime lies in [2^B, 2^(B+1)), so every one has a root search.
ROOT_PRIME_MAX = 1 << (FIELD_BITS_MAX + 1)


def is_prime(n: int) -> bool:
    """Trial division up to the square root.  Valid for n < 2**32."""
    if not 0 <= n < IS_PRIME_MAX:
        raise ParameterError(f"is_prime range is [0, 2**32), got {n}")
    return n >= 2 and _trial_division(n)[0]


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


@dataclass(frozen=True)
class FieldPrime:
    """Smallest prime P at or above 2^B, plus the `trial_steps` trial
    divisions the scan made over every candidate in [2^B, P].  The
    prime-scan charge reads the steps."""

    P: int
    trial_steps: int


def find_field_prime(B: int) -> FieldPrime:
    """Scan upward from 2^B to the first prime.

    The trial divisions are recorded.  For B ≥ 8 the scan length
    P - 2^B + 1 is checked against the window 2^ceil(0.525*B) + 1 that
    the prime-gap bound promises; a violation would mean the arithmetic
    here is broken, not the math.
    """
    if not 2 <= B <= FIELD_BITS_MAX:
        raise ParameterError(f"field size B must be in [2, {FIELD_BITS_MAX}], got {B}")
    start, steps = 1 << B, 0
    for n in range(start, 1 << (B + 1)):
        prime, tried = _trial_division(n)
        steps += tried
        if prime:
            break
    else:
        raise ParameterError(f"no prime in [2^{B}, 2^{B + 1})")
    scan = n - start + 1
    if B >= 8 and scan > (1 << math.ceil(0.525 * B)) + 1:
        raise ParameterError(
            f"prime scan for B={B} walked {scan} candidates, past the window bound"
        )
    return FieldPrime(n, steps)


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


def find_primitive_root(p: int) -> int:
    """Smallest generator of the multiplicative group mod p.

    A candidate a generates iff a^((p-1)/q) != 1 for every prime q
    dividing p-1; that check needs only the distinct factors.
    """
    if not 2 <= p < ROOT_PRIME_MAX:
        raise ParameterError(f"prime must be in [2, {ROOT_PRIME_MAX}), got {p}")
    if not is_prime(p):
        raise ParameterError(f"{p} is not prime")
    if p == 2:
        return 1
    factors = _prime_factors(p - 1)
    for a in range(2, p):
        if all(pow(a, (p - 1) // q, p) != 1 for q in factors):
            return a
    raise ParameterError(f"no primitive root below {p}; {p} cannot be prime")
