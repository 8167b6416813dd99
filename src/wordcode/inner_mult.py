"""Inner code: multiply by a constant, exhaustively chosen.

A single multiplier m turns any (B+1)-bit value v into the 4(B+1)-bit
codeword v*m.  The search scans m = 1, 2, ... and keeps the first one
whose images of all pairs of distinct (B+1)-bit values differ in at
least T = ceil(delta*B) bit positions.  Keeping m below 2^(3(B+1))
means every product fits its 4(B+1)-bit slot, so one whole-word
multiplication encodes every slot of a packed word at once.

At the default threshold the answers are tabled, so building or loading
a code at the default delta runs no scan and imports no numpy; any
other threshold scans with the numpy kernels.
"""

from __future__ import annotations

import math
import reprlib
from fractions import Fraction

from .errors import (
    CodeValidationError,
    LayoutError,
    MultiplierNotFoundError,
    ParameterError,
)
from .outer_rs import _index
from .wordram import FieldLayout, OpLedger, OpList, Record, WideInt

B_MAX = 10

# The full scan finds a multiplier for this delta at every supported B,
# so it is the default everywhere, and any smaller delta succeeds too.
DEFAULT_DELTA = Fraction(1, 2)


class InnerCode(Record):
    """A verified multiplier m for B-bit message symbols, found for the
    Fraction delta at threshold ceil(delta * B)."""

    _fields = ("B", "m", "delta", "threshold")


def _delta(value) -> Fraction:
    """A caller's delta as a Fraction; anything `Fraction` refuses is a
    ParameterError naming delta."""
    try:
        return Fraction(value)
    except (TypeError, ValueError, ArithmeticError):
        raise ParameterError(
            f"delta must be a rational number, got {reprlib.repr(value)}") from None


def threshold_for(b: int, delta: Fraction) -> int:
    """ceil(delta * B), for a delta already parsed by `_delta`."""
    return math.ceil(delta * b)


# What the scan finds at the default threshold ceil(B/2), B = 1..B_MAX,
# keyed by (B, threshold); any delta with that threshold has the same
# answer.  The tests rescan and re-verify every entry.
_TABLED_MULTIPLIERS = {
    (b, threshold_for(b, DEFAULT_DELTA)): m
    for b, m in enumerate((1, 1, 3, 3, 23, 29, 185, 185, 2669, 2807), start=1)
}


# The largest threshold a multiplier reaches at B = 1..8, by full scans
# (the tests rescan B <= 6); past B = 8 the 4(B+1)-bit codeword bounds it.
_REACHABLE_THRESHOLDS = dict(enumerate((4, 5, 5, 7, 8, 8, 9, 10), start=1))


def _charge_scan(ledger: OpLedger, b: int, candidates: int):
    """Model cost of scanning `candidates` multipliers, full pairs each.

    The charge is a closed form in the candidate count alone, so it does
    not depend on how the kernel prefilters or exits early.
    """
    values = 1 << (b + 1)
    pairs = values * (values - 1) // 2
    ledger.charge("mul", b + 1, 3 * (b + 1), count=candidates * values)
    ledger.charge("bitwise", 4 * (b + 1), count=candidates * pairs)
    ledger.charge("cmp", 4 * (b + 1), count=candidates * pairs)


def _search_domain(b, delta) -> tuple[int, Fraction, int]:
    """(B, delta, threshold) when B is an index in [1, B_MAX], delta is
    positive and some multiplier reaches the threshold (at most
    `_REACHABLE_THRESHOLDS[B]`, or the 4(B+1)-bit codeword above B = 8);
    else the search's refusal, a ParameterError or MultiplierNotFoundError."""
    b = _index(b, "B")
    if b > B_MAX:
        raise ParameterError(
            f"no inner code is searchable for {b}-bit symbols; "
            f"the word size needs a level-2 construction")
    if b < 1:
        raise ParameterError(f"B must be at least 1, got {b}")
    delta = _delta(delta)
    if delta <= 0:
        raise ParameterError(f"delta must be positive, got {delta}")
    t = threshold_for(b, delta)
    if t > _REACHABLE_THRESHOLDS.get(b, 4 * (b + 1)):
        raise MultiplierNotFoundError(b, delta, DEFAULT_DELTA)
    return b, delta, t


def _verify_multiplier(m: int, b: int, delta: Fraction) -> None:
    """The search's refusals (`_search_domain`); then CodeValidationError
    unless m lies in [1, 2^(3(B+1))) and, where no tabled entry covers
    (B, threshold_for(B, delta)), its `_kernels.pair_min_distance`, a
    scan with none of the search's cuts, reaches that threshold.  At a tabled threshold the tests have
    measured the entry, and a stored m other than the entry fails the
    rebuild-and-compare of `deserialize`."""
    b, delta, t = _search_domain(b, delta)
    if not 1 <= m < 1 << (3 * (b + 1)):
        raise CodeValidationError(
            f"multiplier {reprlib.repr(m)} outside [1, 2^{3 * (b + 1)}) for B={b}")
    if (b, t) in _TABLED_MULTIPLIERS:
        return
    from . import _kernels

    dist = _kernels.pair_min_distance(m, b)
    if dist < t:
        raise CodeValidationError(
            f"multiplier {m} has pair distance {dist}, below threshold "
            f"{reprlib.repr(t)} for B={b}")


def find_multiplier(b: int, delta, ledger: OpLedger | None = None) -> InnerCode:
    """Smallest m in [1, 2^(3(B+1))) with pair distance >= ceil(delta*B).

    The search owns its domain (`_search_domain`), and when no multiplier
    reaches the threshold it reports `DEFAULT_DELTA` as a delta that
    succeeds at this B.  A tabled threshold takes its entry and any other
    scans (`_kernels.scan_multiplier`, reached through the module object);
    the ledger is charged the scan's closed form either way.  A scanned
    answer `_verify_multiplier` refuses is a kernel fault.
    """
    b, delta, t = _search_domain(b, delta)
    m = _TABLED_MULTIPLIERS.get((b, t))
    if m is None:
        from . import _kernels

        m_hi = 1 << (3 * (b + 1))
        m = _kernels.scan_multiplier(b, 1, m_hi, t)
        if m == -1:
            if ledger is not None:
                _charge_scan(ledger, b, m_hi - 1)
            raise MultiplierNotFoundError(b, delta, DEFAULT_DELTA)
        _verify_multiplier(m, b, delta)
    if ledger is not None:
        _charge_scan(ledger, b, m)
    return InnerCode(b, m, delta, t)


class _MultPlan:
    """inner_encode's multiplier, output width and charged operations on
    one (InnerCode, layout), with the checks that depend only on them;
    an encode resolves it once per code."""

    __slots__ = ("m", "bits", "mask", "ops")

    def __init__(self, ic: InnerCode, layout: FieldLayout):
        if layout.slot_width < 4 * (ic.B + 1):
            raise LayoutError(
                f"slot width {layout.slot_width} below product bound "
                f"{4 * (ic.B + 1)} bits"
            )
        m_bits = WideInt(ic.m, 3 * (ic.B + 1)).bits  # m must fit its word
        self.m = ic.m
        self.bits = layout.total_bits
        self.mask = (1 << self.bits) - 1
        # One whole-word multiply, then one mask over the product.
        self.ops = OpList((("mul", self.bits, m_bits),
                           ("bitwise", self.bits + m_bits, 0)))

    def apply(self, v: int) -> int:
        """Every slot of v times m, cut back to the layout."""
        return (v * self.m) & self.mask


def inner_encode(word: WideInt, plan: _MultPlan, ledger: OpLedger | None = None) -> WideInt:
    """f_2: one whole-word multiply by m, then cut back to the layout;
    the plan is `_MultPlan(ic, layout)`.

    Requires each slot value below 2^(B+1); products then stay below
    2^(4(B+1)) <= 2^S and cannot carry across slot boundaries, which is
    what makes the single multiplication equal the per-slot map.
    """
    if word.bits > plan.bits:
        raise LayoutError(
            f"word of {word.bits} bits does not fit layout "
            f"({plan.bits} bits)"
        )
    if ledger is not None:
        ledger.post(plan.ops)
    return WideInt(plan.apply(word.value), plan.bits)
