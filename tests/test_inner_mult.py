"""Inner multiplier code: search, verification, encoding."""

import math
from fractions import Fraction

import numpy as np
import pytest

from _oracles import pair_min_distance_oracle, scan_multiplier_oracle
from wordcode import _kernels
from wordcode.errors import (
    CodeValidationError,
    LayoutError,
    MultiplierNotFoundError,
    ParameterError,
)
from wordcode.inner_mult import (
    B_MAX,
    DEFAULT_DELTA,
    InnerCode,
    _REACHABLE_THRESHOLDS,
    _MultPlan,
    _TABLED_MULTIPLIERS,
    find_multiplier,
    inner_encode,
    threshold_for,
)
from wordcode.wordram import FieldLayout, OpLedger, WideInt, pack_fields, unpack_fields


# Search results at delta = 1/2, frozen after the first full run.
FROZEN_MULTIPLIERS = {
    3: 3,
    4: 3,
    5: 23,
    6: 29,
    7: 185,
    8: 185,
    9: 2669,
    10: 2807,
}


def test_threshold_for():
    assert threshold_for(6, Fraction(1, 2)) == 3
    assert threshold_for(10, Fraction(1, 3)) == 4
    assert threshold_for(4, 1) == 4


def test_pair_min_distance_matches_oracle():
    # The distance find_multiplier verifies its answer with.
    for b in (3, 4):
        for m in (1, 3, 13, 19, 255):
            assert _kernels.pair_min_distance(m, b) == pair_min_distance_oracle(m, b)


def test_frozen_multiplier_table():
    for b, expected in FROZEN_MULTIPLIERS.items():
        ic = find_multiplier(b, Fraction(1, 2), OpLedger(64))
        assert ic.m == expected
        assert ic.threshold == math.ceil(b / 2)
        assert ic.delta == Fraction(1, 2)


def test_found_multiplier_passes_exhaustive_oracle():
    for b in (4, 6):
        ic = find_multiplier(b, DEFAULT_DELTA, OpLedger(64))
        assert pair_min_distance_oracle(ic.m, b) >= ic.threshold


def test_returned_multiplier_is_smallest():
    for b in (3, 4, 5):
        ic = find_multiplier(b, Fraction(1, 2), OpLedger(64))
        assert ic.m == scan_multiplier_oracle(b, 1, 1 << (3 * (b + 1)), ic.threshold)


def test_default_delta_succeeds_at_every_b():
    # A failed search reports DEFAULT_DELTA as achievable; that holds
    # because it succeeds at every searchable B.
    for b in range(1, B_MAX + 1):
        assert find_multiplier(b, DEFAULT_DELTA, OpLedger(64)).delta == DEFAULT_DELTA


def test_reachable_thresholds_are_the_largest_reached():
    # A full scan reaches each tabled threshold and none reaches one
    # more.  B = 7 and 8 take seconds to minutes, so they were proven
    # once by the same two scans.
    assert sorted(_REACHABLE_THRESHOLDS) == list(range(1, 9))
    for b in range(1, 7):
        t, m_hi = _REACHABLE_THRESHOLDS[b], 1 << (3 * (b + 1))
        m = _kernels.scan_multiplier(b, 1, m_hi, t)
        assert m != -1 and pair_min_distance_oracle(m, b) >= t, b
        assert _kernels.scan_multiplier(b, 1, m_hi, t + 1) == -1, b


def test_impossible_threshold_rejected(monkeypatch):
    # ceil(6*4) = 24 bits demanded of a 20-bit code, and thresholds one
    # past the largest reachable at B = 7 and 8: refused as a failed
    # search would be, before any scan.
    def no_scan(*args):
        raise AssertionError("scanned an unreachable threshold")

    monkeypatch.setattr(_kernels, "scan_multiplier", no_scan)
    with pytest.raises(MultiplierNotFoundError) as exc_info:
        find_multiplier(4, 6, OpLedger(64))
    assert exc_info.value.achievable == Fraction(1, 2)
    assert str(exc_info.value) == "no multiplier reaches delta=6 for B=4; delta=1/2 succeeds"
    for b, delta in ((7, Fraction(10, 7)), (8, Fraction(11, 8))):
        with pytest.raises(MultiplierNotFoundError) as exc_info:
            find_multiplier(b, delta, OpLedger(64))
        assert str(exc_info.value) == (
            f"no multiplier reaches delta={delta} for B={b}; delta=1/2 succeeds")


def test_search_exhaustion_raises_not_found(monkeypatch):
    # 15 of 16 bits at b=3 is past the largest reachable threshold, 5.
    with pytest.raises(MultiplierNotFoundError) as exc_info:
        find_multiplier(3, 5, OpLedger(64))
    err = exc_info.value
    assert err.bits == 3
    assert err.delta == Fraction(5)
    assert err.achievable == Fraction(1, 2)
    assert str(err) == "no multiplier reaches delta=5 for B=3; delta=1/2 succeeds"
    # A scan that finds nothing raises the same error, charged for every
    # one of the 2^15 - 1 candidates.
    monkeypatch.setattr(_kernels, "scan_multiplier", lambda *args: -1)
    led = OpLedger(64)
    with pytest.raises(MultiplierNotFoundError,
                       match="no multiplier reaches delta=3/4 for B=4; delta=1/2 succeeds"):
        find_multiplier(4, Fraction(3, 4), led)
    candidates, pairs = (1 << 15) - 1, 32 * 31 // 2
    assert led.mul == candidates * 32
    assert led.bitwise == led.cmp == candidates * pairs


def test_find_multiplier_rejects_bad_args():
    with pytest.raises(ParameterError, match="B must be at least 1, got 0"):
        find_multiplier(0, Fraction(1, 2), OpLedger(64))
    with pytest.raises(ParameterError,
                       match="no inner code is searchable for 11-bit symbols; "
                             "the word size needs a level-2 construction"):
        find_multiplier(B_MAX + 1, Fraction(1, 2), OpLedger(64))
    with pytest.raises(ParameterError, match="delta must be positive"):
        find_multiplier(4, 0, OpLedger(64))
    with pytest.raises(ParameterError, match="delta must be positive"):
        find_multiplier(4, Fraction(-1, 2), OpLedger(64))
    # B is read as an index, as the word size is.
    for b, name in ((4.0, "float"), ("4", "str"), (None, "NoneType"), (True, "bool")):
        with pytest.raises(ParameterError, match=f"B must be an integer, not {name}"):
            find_multiplier(b, Fraction(1, 2), OpLedger(64))
    ic = find_multiplier(np.int64(4), Fraction(1, 2), OpLedger(64))
    assert type(ic.B) is int and ic == find_multiplier(4, Fraction(1, 2), OpLedger(64))


def test_scan_answer_failing_verification_is_a_fault(monkeypatch):
    # m = 1 keeps images 1 bit apart, below the untabled threshold 3 at B=4.
    monkeypatch.setattr(_kernels, "scan_multiplier", lambda *args: 1)
    with pytest.raises(CodeValidationError,
                       match="multiplier 1 has pair distance 1, below threshold 3 for B=4"):
        find_multiplier(4, Fraction(3, 4), OpLedger(64))


def test_tabled_multipliers_are_what_the_scan_finds():
    # Every entry is the scan's answer at its threshold, and the
    # verifier's uncut pair scan reaches that threshold: this is the
    # check that building or loading at a tabled threshold skips.
    assert sorted(_TABLED_MULTIPLIERS) == [(b, threshold_for(b, DEFAULT_DELTA))
                                           for b in range(1, B_MAX + 1)]
    for (b, t), m in _TABLED_MULTIPLIERS.items():
        assert m == _kernels.scan_multiplier(b, 1, 1 << (3 * (b + 1)), t), b
        assert _kernels.pair_min_distance(m, b) >= t, b


def test_only_untabled_thresholds_scan(monkeypatch):
    # B=4 at delta 3/4 needs threshold 3, which no entry covers: it scans
    # and verifies.  Any delta with a tabled threshold takes the entry.
    calls = []
    scan, verify = _kernels.scan_multiplier, _kernels.pair_min_distance

    def recording_scan(*args):
        calls.append(args)
        return scan(*args)

    def recording_verify(*args):
        calls.append(("verify",) + args)
        return verify(*args)

    monkeypatch.setattr(_kernels, "scan_multiplier", recording_scan)
    monkeypatch.setattr(_kernels, "pair_min_distance", recording_verify)
    ic = find_multiplier(4, Fraction(3, 4), OpLedger(64))
    assert (ic.m, ic.threshold) == (23, 3)
    assert calls == [(4, 1, 1 << 15, 3), ("verify", 23, 4)]
    calls.clear()
    for delta in (DEFAULT_DELTA, Fraction(3, 8), Fraction(1, 4) + Fraction(1, 100)):
        assert find_multiplier(4, delta, OpLedger(64)).m == 3
    assert calls == []


@pytest.mark.parametrize("value", ["abc", "1/0", [1], None,
                                   float("nan"), float("inf")])
def test_find_multiplier_parses_delta(value):
    # Whatever Fraction refuses is one ParameterError naming delta.
    with pytest.raises(ParameterError, match="delta must be a rational number"):
        find_multiplier(4, value, OpLedger(64))


def test_find_multiplier_deterministic():
    a = find_multiplier(6, Fraction(1, 2), OpLedger(64))
    b = find_multiplier(6, Fraction(1, 2), OpLedger(64))
    assert a == b


def test_search_charges_closed_form():
    # b=4 finds m=3: three candidates scanned, each charged at the full
    # pair count regardless of how the kernel actually early-exits.
    led = OpLedger(64)
    find_multiplier(4, Fraction(1, 2), led)
    pairs = 32 * 31 // 2
    assert led.mul == 3 * 32
    assert led.bitwise == 3 * pairs
    assert led.cmp == 3 * pairs
    assert led.add == led.sub == led.shift == 0


def test_inner_encode_zero():
    ic = InnerCode(4, 13, Fraction(1, 2), 2)
    layout = FieldLayout(20, 2, 5)
    out = inner_encode(WideInt(0, 40), _MultPlan(ic, layout), OpLedger(64))
    assert int(out) == 0
    assert out.bits == 40


def test_inner_encode_pinned_slots():
    ic = InnerCode(4, 13, Fraction(1, 2), 2)
    layout = FieldLayout(20, 2, 5)
    word = pack_fields([6, 15], layout)
    out = inner_encode(word, _MultPlan(ic, layout), OpLedger(64))
    wide = FieldLayout(20, 2, 20)
    assert unpack_fields(out, wide) == [78, 195]


def test_inner_encode_matches_per_slot_oracle():
    import random
    rng = random.Random(20260817)
    ic = find_multiplier(6, Fraction(1, 2), OpLedger(64))
    layout = FieldLayout(30, 6, 7)
    wide = FieldLayout(30, 6, 28)
    plan = _MultPlan(ic, layout)
    led = OpLedger(64)
    for _ in range(200):
        vals = [rng.randrange(128) for _ in range(6)]
        out = inner_encode(pack_fields(vals, layout), plan, led)
        assert unpack_fields(out, wide) == [v * ic.m for v in vals]
        assert out.bits == layout.total_bits


def test_mult_plan_rejects_narrow_layout():
    ic = InnerCode(6, 29, Fraction(1, 2), 3)
    with pytest.raises(LayoutError, match="below product bound"):
        _MultPlan(ic, FieldLayout(20, 2, 5))


def test_mult_plan_rejects_a_multiplier_past_its_word():
    # m below 2^(3(B+1)) keeps every product inside its 4(B+1)-bit slot.
    layout = FieldLayout(28, 3, 7)
    top = 1 << 21
    assert _MultPlan(InnerCode(6, top - 1, Fraction(1, 2), 3), layout).m == top - 1
    with pytest.raises(LayoutError, match=r"multiplier 2097152 does not fit 21 bits \(B=6\)"):
        _MultPlan(InnerCode(6, top, Fraction(1, 2), 3), layout)


def test_inner_encode_cost_value_independent():
    ic = InnerCode(6, 29, Fraction(1, 2), 3)
    layout = FieldLayout(30, 6, 7)
    plan = _MultPlan(ic, layout)
    seen = set()
    for vals in ([0] * 6, [127] * 6, [5, 0, 99, 1, 2, 3]):
        led = OpLedger(64)
        inner_encode(pack_fields(vals, layout), plan, led)
        seen.add(tuple(sorted(led.as_dict().items())))
    assert len(seen) == 1
    (only,) = seen
    # One 3x1-word multiply, then a mask that cuts the product back to
    # the 180-bit layout, its own width.
    assert dict(only) == {"add": 0, "sub": 0, "mul": 3, "shift": 0,
                          "bitwise": 3, "cmp": 0}
