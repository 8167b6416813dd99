"""Tests for wide integers, the operation ledger, and packed-field math."""

import random

import numpy as np
import pytest
from hypothesis import assume, example, given, settings, strategies as st

from _oracles import parallel_mod_reference, wide_trunc
from wordcode import ecc_core, outer_rs, wordram
from wordcode.errors import LayoutError
from wordcode.outer_rs import derive_params
from wordcode.wordram import (
    FieldLayout,
    OpLedger,
    OpList,
    Record,
    WideInt,
    _ParallelModPlan,
    _reciprocal_any_width,
    div_by_const,
    pack_fields,
    parallel_mod,
    repeat_bits,
    unpack_fields,
    wide_mul,
    wide_or,
    wide_shl,
)


def minimal_shift_oracle(divisor, value_bits):
    """Independent re-derivation: smallest k whose ceil-magic is exact."""
    top = (1 << value_bits) - 1
    k = 1
    while True:
        magic = -(-(1 << k) // divisor)
        if (magic * divisor - (1 << k)) * top < (1 << k):
            return magic, k
        k += 1


# Reciprocals up to this many value bits are checked on every dividend.
EXHAUSTIVE_BITS_MAX = 24


# ---------------------------------------------------------------------------
# WideInt basics


def test_wideint_bounds():
    WideInt(0, 0)
    WideInt(255, 8)
    with pytest.raises(LayoutError):
        WideInt(256, 8)
    with pytest.raises(LayoutError):
        WideInt(-1, 8)
    with pytest.raises(LayoutError):
        WideInt(1, 0)
    with pytest.raises(LayoutError):
        WideInt(0, -1)


def test_wideint_identity_includes_width():
    assert WideInt(1, 8) == WideInt(1, 8)
    assert WideInt(1, 8) != WideInt(1, 16)
    assert hash(WideInt(1, 8)) != hash(WideInt(1, 16))


def test_wideint_immutable():
    x = WideInt(3, 4)
    with pytest.raises(AttributeError):
        x.value = 5


def test_records_compare_hash_and_show_their_fields_and_refuse_changes():
    layout = FieldLayout(20, 3, 7)
    assert FieldLayout._fields == ("slot_width", "slot_count", "value_bound")
    assert layout == FieldLayout(20, 3, 7) and hash(layout) == hash((20, 3, 7))
    assert layout != FieldLayout(20, 3, 8)
    assert repr(layout) == "FieldLayout(slot_width=20, slot_count=3, value_bound=7)"

    class Other(Record):
        _fields = FieldLayout._fields

    assert layout != Other(20, 3, 7)
    with pytest.raises(TypeError, match="takes 3 fields, got 2"):
        Other(20, 3)
    for change in (lambda: setattr(layout, "slot_count", 4),
                   lambda: delattr(layout, "slot_count")):
        with pytest.raises(AttributeError, match="FieldLayout is immutable"):
            change()
    assert layout.slot_count == 3


def test_wideint_hex_round_trip():
    x = WideInt(0xABC, 12)
    assert x.to_hex() == "abc"
    assert WideInt(int(x.to_hex(), 16), 12) == x
    assert WideInt(0x5, 12).to_hex() == "005"
    assert WideInt(0, 0).to_hex() == ""


# ---------------------------------------------------------------------------
# Ledger charges


def test_words_rounding():
    led = OpLedger(64)
    assert led.words(0) == 0
    assert led.words(1) == 1
    assert led.words(64) == 1
    assert led.words(65) == 2
    assert led.words(180) == 3


def test_mul_charge_is_product_of_words():
    led = OpLedger(64)
    wide_mul(WideInt(1, 130), WideInt(1, 65), led)
    assert led.mul == 3 * 2
    assert led.total() == 6


def test_linear_ops_charge_max_words():
    led = OpLedger(64)
    a, b = WideInt(0, 130), WideInt(0, 10)
    wide_or(a, b, led)
    wide_or(b, a, led)
    wide_trunc(a, 10, led)   # one mask over the whole operand
    assert led.bitwise == 3 + 3 + 3
    assert led.total() == led.bitwise


def test_shift_charges_shifted_in_bits():
    led = OpLedger(64)
    wide_shl(WideInt(1, 60), 10, led)   # 70 bits moved
    assert led.shift == 2
    wide_shl(WideInt(1, 60), 4, led)    # 64 bits moved
    assert led.shift == 3


def test_charge_rejects_unknown_kind_and_negative_count():
    led = OpLedger(64)
    with pytest.raises(ValueError, match="unknown op kind 'div'"):
        led.charge("div", 64)
    with pytest.raises(ValueError, match="negative count -1"):
        led.charge("add", 64, count=-1)
    assert led.total() == 0


@pytest.mark.parametrize("kind", ["add", "sub", "mul", "shift", "bitwise", "cmp"])
def test_counted_charge_equals_single_charges(kind):
    for word_bits, bits_a, bits_b in ((64, 130, 65), (8, 3, 17), (10, 0, 0)):
        for k in (0, 1, 5):
            bulk, single = OpLedger(word_bits), OpLedger(word_bits)
            bulk.charge(kind, bits_a, bits_b, count=k)
            for _ in range(k):
                single.charge(kind, bits_a, bits_b)
            assert bulk == single
            assert bulk.total() == bulk.as_dict()[kind] == k * bulk.op_units(
                kind, bits_a, bits_b)


def test_ledgers_are_equal_by_word_size_and_counts():
    a, b = OpLedger(64), OpLedger(64)
    assert a == b and a != OpLedger(32)
    a.charge("add", 64)
    assert a != b
    assert repr(a) == "OpLedger(word_bits=64, add=1, sub=0, mul=0, shift=0, bitwise=0, cmp=0)"
    with pytest.raises(TypeError):
        hash(a)
    with pytest.raises(LayoutError, match="word size must be positive"):
        OpLedger(0)


def test_ledger_determinism():
    def run():
        led = OpLedger(32)
        x = WideInt(0x1234, 16)
        y = wide_mul(x, x, led)
        y = wide_shl(y, 5, led)
        wide_trunc(y, 8, led)
        return led.as_dict()

    assert run() == run()


def test_wide_ops_values():
    assert wide_mul(WideInt(3, 4), WideInt(5, 4)) == WideInt(15, 8)
    assert wide_mul(WideInt(0, 4), WideInt(9, 4)) == WideInt(0, 8)
    big = WideInt((1 << 64) + 1, 65)
    assert wide_mul(big, big).value == (1 << 128) + (1 << 65) + 1
    assert wide_shl(WideInt(3, 2), 5) == WideInt(96, 7)
    with pytest.raises(ValueError):
        wide_shl(WideInt(3, 2), -1)
    assert wide_or(WideInt(0b1010, 4), WideInt(0b1, 9)) == WideInt(0b1011, 9)
    assert wide_trunc(WideInt(0x1ff, 9), 4) == WideInt(0xf, 4)


# ---------------------------------------------------------------------------
# Packed fields


def test_pack_pinned_examples():
    empty = FieldLayout(20, 0, 20)
    assert pack_fields([], empty) == WideInt(0, 0)
    single = FieldLayout(20, 1, 20)
    assert pack_fields([0xA], single).value == 0xA
    two = FieldLayout(20, 2, 20)
    assert pack_fields([6, 15], two).value == 15 * 2**20 + 6
    assert unpack_fields(WideInt(15 * 2**20 + 6, 40), two) == [6, 15]
    assert unpack_fields(WideInt(0, 40), two) == [0, 0]


def test_pack_unpack_exhaustive_small():
    layout = FieldLayout(4, 2, 3)
    for a in range(8):
        for b in range(8):
            word = pack_fields([a, b], layout)
            assert unpack_fields(word, layout) == [a, b]


def test_pack_unpack_random_round_trip():
    rng = random.Random(1)
    for _ in range(300):
        s = rng.randrange(2, 40)
        n = rng.randrange(0, 9)
        v = rng.randrange(0, s + 1)
        layout = FieldLayout(s, n, v)
        vals = [rng.randrange(1 << v) for _ in range(n)]
        assert unpack_fields(pack_fields(vals, layout), layout) == vals


def test_pack_unpack_match_per_slot_shifts():
    rng = random.Random(6)
    for s, n in ((1, 9), (7, 300), (64, 257), (65, 254), (130, 33), (200, 3)):
        layout = FieldLayout(s, n, s)
        mask = (1 << s) - 1
        vals = [rng.getrandbits(s) for _ in range(n)]
        assert int(pack_fields(vals, layout)) == sum(
            v << (i * s) for i, v in enumerate(vals))
        # Every slot bit set at random, plus bits above the layout.
        word = WideInt(rng.getrandbits(n * s + 70), n * s + 70)
        assert unpack_fields(word, layout) == [
            (word.value >> (i * s)) & mask for i in range(n)]


@settings(max_examples=200, deadline=None)
@given(unit=st.integers(0, (1 << 40) - 1), period=st.integers(1, 80),
       count=st.integers(0, 300))
def test_repeat_bits_matches_per_copy_or(unit, period, count):
    want = 0
    for j in range(count):
        want |= unit << (j * period)
    assert repeat_bits(unit, period, count) == want


def test_pack_unpack_ledger_charges():
    # One shift per slot past slot 0 and one OR per slot to pack; one
    # shift and one mask of the whole word per slot to unpack.
    for s, n, v, bits in ((20, 6, 9, 200), (64, 100, 22, 6400), (65, 3, 65, 195)):
        layout = FieldLayout(s, n, v)
        led = OpLedger(64)
        pack_fields([(1 << v) - 1] * n, layout, led)
        assert led.shift == sum(led.words(v + i * s) for i in range(1, n))
        assert led.bitwise == n * led.words(n * s)
        assert led.total() == led.shift + led.bitwise
        led = OpLedger(64)
        unpack_fields(WideInt(0, bits), layout, led)
        assert led.shift == led.bitwise == n * led.words(bits)
        assert led.total() == 2 * n * led.words(bits)


def test_pack_rejects_out_of_bound():
    layout = FieldLayout(8, 2, 4)
    with pytest.raises(LayoutError):
        pack_fields([16, 0], layout)
    with pytest.raises(LayoutError):
        pack_fields([0], layout)


def test_unpack_rejects_a_word_shorter_than_its_layout():
    layout = FieldLayout(8, 2, 4)
    assert unpack_fields(WideInt(0x0302, 16), layout) == [2, 3]
    with pytest.raises(LayoutError, match="word of 15 bits shorter than layout"):
        unpack_fields(WideInt(0x0302, 15), layout)


def test_layout_validation():
    with pytest.raises(LayoutError):
        FieldLayout(0, 1, 0)
    with pytest.raises(LayoutError):
        FieldLayout(8, -1, 4)
    with pytest.raises(LayoutError):
        FieldLayout(8, 1, 9)
    # The one check of a reciprocal's range: no layout bound is negative.
    with pytest.raises(LayoutError):
        FieldLayout(8, 1, -1)


# ---------------------------------------------------------------------------
# Reciprocal division


def test_reciprocal_matches_minimal_shift_oracle():
    for divisor, v in [(3, 8), (17, 12), (67, 20), (257, 16), (8209, 20)]:
        rec = _reciprocal_any_width(divisor, v)
        magic, k = minimal_shift_oracle(divisor, v)
        assert (rec.magic, rec.shift) == (magic, k)
        assert rec.magic == -(-(1 << rec.shift) // divisor)


def test_reciprocal_any_width_matches_minimal_shift_oracle_above_cap():
    # The generator's power reciprocal at w=8192 and the convolution
    # layout's bound at w=1024 both lie past the exhaustive width.
    p8192, p1024 = derive_params(8192), derive_params(1024)
    for divisor, v in [(p8192.P, 2 * p8192.P.bit_length()),
                       (p1024.P, p1024.conv_layout().value_bound)]:
        assert v > EXHAUSTIVE_BITS_MAX
        rec = _reciprocal_any_width(divisor, v)
        assert (rec.magic, rec.shift) == minimal_shift_oracle(divisor, v)
        assert (rec.divisor, rec.value_bits) == (divisor, v)


def test_reciprocal_67_20_regression():
    # Smallest exact shift for this pair; frozen after exhaustive check.
    rec = _reciprocal_any_width(67, 20)
    assert (rec.magic, rec.shift) == (1001625, 26)


def test_reciprocal_power_of_two_divisor():
    rec = _reciprocal_any_width(2, 4)
    for c in range(16):
        assert div_by_const(c, rec) == (c >> 1, c & 1)


def test_div_by_const_pinned_values():
    rec = _reciprocal_any_width(67, 20)
    assert div_by_const(0, rec) == (0, 0)
    assert div_by_const(67, rec) == (1, 0)
    assert div_by_const(1000000, rec) == (14925, 25)
    top = 2**20 - 1
    assert div_by_const(top, rec) == (top // 67, top % 67)


def test_div_by_const_random_against_host_division():
    rng = random.Random(2)
    rec = _reciprocal_any_width(257, 22)
    for _ in range(5000):
        c = rng.randrange(1 << 22)
        assert div_by_const(c, rec) == divmod(c, 257)


def test_div_by_const_range_check():
    rec = _reciprocal_any_width(67, 8)
    with pytest.raises(ValueError):
        div_by_const(256, rec)
    with pytest.raises(ValueError):
        div_by_const(-1, rec)


def test_div_by_const_charges_two_muls_shift_sub():
    rec = _reciprocal_any_width(67, 20)
    led = OpLedger(64)
    div_by_const(12345, rec, led)
    assert led.mul == 2 and led.shift == 1 and led.sub == 1
    assert led.add == 0 and led.bitwise == 0


def test_reciprocals_exact_on_every_dividend(monkeypatch):
    # Every (divisor, width) up to EXHAUSTIVE_BITS_MAX that building the
    # codes requests, plus the pairs pinned above, on all of [0, 2**width).
    requested = {}

    def recording(divisor, value_bits):
        rec = _reciprocal_any_width(divisor, value_bits)
        requested[divisor, value_bits] = rec
        return rec

    monkeypatch.setattr(wordram, "_reciprocal_any_width", recording)
    monkeypatch.setattr(outer_rs, "_reciprocal_any_width", recording)
    for w, level in ((64, 1), (256, 1), (512, 1), (1024, 2), (8192, 2)):
        ecc_core.build_code(w, None, level)
    checked = {pair: rec for pair, rec in requested.items()
               if pair[1] <= EXHAUSTIVE_BITS_MAX}
    assert len(checked) >= 10
    for pair in ((3, 8), (17, 12), (67, 20), (257, 16), (8209, 20), (2, 4), (257, 22)):
        checked[pair] = _reciprocal_any_width(*pair)
    chunk = 1 << 20
    for (divisor, bits), rec in sorted(checked.items()):
        top = (1 << bits) - 1
        assert (top * rec.magic).bit_length() <= 64  # uint64 products stay exact.
        magic, shift, d = np.uint64(rec.magic), np.uint64(rec.shift), np.uint64(divisor)
        for lo in range(0, top + 1, chunk):
            c = np.arange(lo, min(lo + chunk, top + 1), dtype=np.uint64)
            bad = np.flatnonzero((c * magic) >> shift != c // d)
            assert bad.size == 0, f"{divisor} over {bits} bits fails at c={lo + bad[0]}"


@settings(deadline=None, max_examples=30, database=None)
@given(divisor=st.integers(2, 1 << 64), bits=st.integers(0, 20_000),
       seed=st.integers(0, 2**32))
@example(divisor=3, bits=20_000, seed=0)
@example(divisor=(1 << 61) - 1, bits=19_999, seed=1)
def test_reciprocal_exact_at_any_width(divisor, bits, seed):
    rec = _reciprocal_any_width(divisor, bits)
    assert (rec.divisor, rec.value_bits) == (divisor, bits)
    # The certificate, re-checked on its own.
    top = (1 << bits) - 1
    error = rec.magic * divisor - (1 << rec.shift)
    assert rec.magic == -(-(1 << rec.shift) // divisor)
    assert 0 <= error and error * top < 1 << rec.shift
    extremes = [c for c in (0, 1, divisor - 1, divisor, top - 1, top) if 0 <= c <= top]
    rng = random.Random(seed)
    for c in extremes + [rng.getrandbits(bits) for _ in range(20)]:
        assert (c * rec.magic) >> rec.shift == c // divisor
        assert div_by_const(c, rec) == divmod(c, divisor)


# ---------------------------------------------------------------------------
# parallel_mod


def test_parallel_mod_pinned_slots():
    layout = FieldLayout(16, 3, 7)
    plan = _ParallelModPlan(layout, 67)
    led = OpLedger(64)
    word = pack_fields([100, 3, 68], layout)
    out = parallel_mod(word, plan, led)
    assert unpack_fields(out, layout) == [33, 3, 1]
    zero = WideInt(0, layout.total_bits)
    assert parallel_mod(zero, plan, led) == zero


def test_parallel_mod_matches_reference_exhaustive_per_slot():
    layout = FieldLayout(30, 4, 12)
    plan = _ParallelModPlan(layout, 17)
    led = OpLedger(64)
    for value in range(1 << 12):
        word = pack_fields([value] * 4, layout)
        packed = parallel_mod(word, plan, led)
        ref = parallel_mod_reference(word, layout, 17)
        assert packed == ref, f"mismatch at slot value {value}"


def test_parallel_mod_matches_reference_random_words():
    rng = random.Random(3)
    layout = FieldLayout(30, 6, 20)
    plan = _ParallelModPlan(layout, 67)
    led = OpLedger(64)
    for _ in range(2000):
        vals = [rng.randrange(1 << 20) for _ in range(6)]
        word = pack_fields(vals, layout)
        assert parallel_mod(word, plan, led) == parallel_mod_reference(word, layout, 67)
        assert unpack_fields(parallel_mod(word, plan, led), layout) == [v % 67 for v in vals]


def test_parallel_mod_single_and_empty_layouts():
    led = OpLedger(64)
    one = FieldLayout(30, 1, 20)
    word = pack_fields([999999], one)
    assert unpack_fields(parallel_mod(word, _ParallelModPlan(one, 67), led), one) == [999999 % 67]
    empty = FieldLayout(30, 0, 20)
    assert parallel_mod(WideInt(0, 0), _ParallelModPlan(empty, 67), led) == WideInt(0, 0)


def test_parallel_mod_ignores_bits_above_layout():
    layout = FieldLayout(16, 2, 7)
    word = pack_fields([100, 68], layout)
    widened = WideInt(word.value | (0x5 << 32), 40)
    assert unpack_fields(parallel_mod(widened, _ParallelModPlan(layout, 67), OpLedger(64)),
                         layout) == [33, 1]


def test_parallel_mod_cost_independent_of_values():
    layout = FieldLayout(30, 6, 20)
    plan = _ParallelModPlan(layout, 67)
    rng = random.Random(4)
    costs = set()
    for _ in range(50):
        word = pack_fields([rng.randrange(1 << 20) for _ in range(6)], layout)
        led = OpLedger(64)
        parallel_mod(word, plan, led)
        costs.add(tuple(sorted(led.as_dict().items())))
    assert len(costs) == 1


def test_parallel_mod_cost_independent_of_slot_count():
    # Same total words, more slots: charge must not grow with slot count.
    # The pass count depends on the layout, so each pair takes the same
    # number of passes.
    def cost(layout):
        led = OpLedger(64)
        parallel_mod(WideInt(0, layout.total_bits), _ParallelModPlan(layout, 67), led)
        return led.total()

    for passes, lay_few, lay_many in [(2, FieldLayout(30, 6, 20), FieldLayout(12, 15, 8)),
                                      (1, FieldLayout(60, 3, 20), FieldLayout(20, 9, 8))]:
        assert len(_ParallelModPlan(lay_few, 67).parities) == passes
        assert len(_ParallelModPlan(lay_many, 67).parities) == passes
        assert cost(lay_many) <= cost(lay_few) + 1

    # One pass charges less than the two-pass plan of the same layout
    # would: that plan declares the same pass twice and an OR.
    plan = _ParallelModPlan(FieldLayout(60, 3, 20), 67)
    led_one, led_two = OpLedger(64), OpLedger(64)
    led_one.post(plan.ops)
    led_two.post(OpList(plan.ops.ops * 2 + (("bitwise", plan.bits, 0),)))
    assert led_one.total() < led_two.total()


@pytest.mark.parametrize("divisor, value_bits",
                         [(67, 20), (17, 12), (3, 10), (5, 16), (257, 18), (8191, 30),
                          (7, 3), (67, 6)])
def test_parallel_mod_pass_rule_at_its_edge(divisor, value_bits):
    # One pass exactly when the quotient window shift + qbits fits a
    # slot: at the window's own width, and two passes one bit below it.
    rec = _reciprocal_any_width(divisor, value_bits)
    top = (1 << value_bits) - 1
    edge = rec.shift + max((top // divisor).bit_length(), 1)
    assert value_bits < edge
    rng = random.Random(divisor * value_bits)
    for width, passes in ((edge, 1), (edge - 1, 2)):
        for count in (1, 2, 7):
            layout = FieldLayout(width, count, value_bits)
            plan = _ParallelModPlan(layout, divisor)
            led = OpLedger(64)
            assert len(plan.parities) == min(passes, count)
            words = [pack_fields([top] * count, layout)]
            words += [pack_fields([rng.randrange(top + 1) for _ in range(count)], layout)
                      for _ in range(50)]
            for word in words:
                above = rng.getrandbits(24) << layout.total_bits
                for w in (word, WideInt(word.value | above, layout.total_bits + 24)):
                    assert parallel_mod(w, plan, led) == \
                        parallel_mod_reference(w, layout, divisor), (width, count)


def test_parallel_mod_rejects_small_divisor_and_reduces_tight_layout():
    layout = FieldLayout(30, 2, 20)
    # The one check of a reciprocal's divisor, on both routes.
    with pytest.raises(LayoutError, match="divisor must be at least 2, got 1"):
        parallel_mod(WideInt(0, 60), _ParallelModPlan(layout, 1), OpLedger(64))
    with pytest.raises(LayoutError, match="divisor must be at least 2, got 1"):
        parallel_mod_reference(WideInt(0, 60), layout, 1)
    # Slots only a bit wider than the divisor need no spare field bits.
    tight = FieldLayout(8, 2, 8)
    plan = _ParallelModPlan(tight, 67)
    led = OpLedger(64)
    for v in range(256):
        word = pack_fields([v, 255 - v], tight)
        assert unpack_fields(parallel_mod(word, plan, led), tight) == [v % 67, (255 - v) % 67]


@settings(deadline=None, max_examples=300, database=None)
@given(data=st.data())
def test_parallel_mod_matches_reference_on_random_layouts(data):
    width = data.draw(st.integers(4, 96), label="slot_width")
    count = data.draw(st.integers(0, 12), label="slot_count")
    # Bounds at or just under the slot width are the layouts the plan
    # must judge most finely.
    slack = data.draw(st.integers(0, 2) | st.integers(0, width), label="slack")
    bound = width - slack
    divisor = data.draw(st.integers(2, (1 << width) - 1), label="divisor")
    layout = FieldLayout(width, count, bound)
    try:
        plan = _ParallelModPlan(layout, divisor)
    except LayoutError:
        assume(False)
    top = (1 << bound) - 1
    values = data.draw(st.lists(st.integers(0, top) | st.just(top),
                                min_size=count, max_size=count), label="values")
    above = data.draw(st.integers(0, (1 << 16) - 1), label="bits above the layout")
    word = WideInt(int(pack_fields(values, layout)) | above << layout.total_bits,
                   layout.total_bits + 16)
    packed = parallel_mod(word, plan, OpLedger(64))
    assert packed == parallel_mod_reference(word, layout, divisor)
    assert unpack_fields(packed, layout) == [v % divisor for v in values]


@settings(deadline=None, max_examples=300, database=None)
@given(value_bits=st.integers(0, 2_000), divisor=st.integers(2, 1 << 70))
@example(value_bits=8, divisor=67)
@example(value_bits=6, divisor=67)
def test_slot_product_fits_quotient_window(value_bits, divisor):
    # Why the plan checks only shift + qbits: the certificate bounds the
    # largest slot product by the quotient window.
    rec = _reciprocal_any_width(divisor, value_bits)
    top = (1 << value_bits) - 1
    qbits = max((top // divisor).bit_length(), 1)
    prod_bits = (top * rec.magic).bit_length()
    assert prod_bits <= rec.shift + qbits
    if top >= divisor:
        assert prod_bits == rec.shift + qbits


def test_reference_route_charges_linearly_but_packed_does_not():
    lay6 = FieldLayout(30, 6, 20)
    lay12 = FieldLayout(30, 12, 20)
    packed6, packed12, ref6, ref12 = (OpLedger(64) for _ in range(4))
    parallel_mod(WideInt(0, 180), _ParallelModPlan(lay6, 67), packed6)
    parallel_mod(WideInt(0, 360), _ParallelModPlan(lay12, 67), packed12)
    parallel_mod_reference(WideInt(0, 180), lay6, 67, ref6)
    parallel_mod_reference(WideInt(0, 360), lay12, 67, ref12)
    assert ref12.total() >= 2 * ref6.total() - 8
    assert packed12.total() <= 2 * packed6.total()
