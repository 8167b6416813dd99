"""Tests for parameter derivation, split5, the generator, and f_1."""

import random

import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from _oracles import parallel_mod_reference, symbolic_generator
from wordcode import _kernels
from wordcode.bulk import min_weight_multiple_check
from wordcode.ecc_core import build_code
from wordcode.errors import ParameterError
from wordcode.numtheory import find_field_prime, find_primitive_root
from wordcode.outer_rs import (
    W_MAX,
    _RsPlan,
    _SplitPlan,
    _W_INTERNAL_MIN,
    _derive_params_any,
    _gen_layout,
    build_generator,
    derive_params,
    rs_encode,
    split5,
)
from wordcode.inner_mult import InnerCode, _MultPlan
from wordcode.wordram import (
    FieldLayout,
    OpLedger,
    WideInt,
    _ParallelModPlan,
    pack_fields,
    parallel_mod,
    repeat_bits,
    unpack_fields,
)


def ceil_div(a, b):
    return -(-a // b)


def msg_layout(p):
    """A message word's layout: blocks_per_word B-bit blocks at stride S."""
    return FieldLayout(p.S, p.blocks_per_word, p.B)


def split5_reassemble(word, p):
    """Inverse of split5: the key back from its five message words."""
    blocks = [0] * p.n_blocks
    region_mask = (1 << p.word_in_bits) - 1
    for i in range(5):
        region = (word.value >> (i * p.word_out_bits)) & region_mask
        for t, val in enumerate(unpack_fields(WideInt(region, p.word_in_bits),
                                              msg_layout(p))):
            j = i + 5 * t
            if j < p.n_blocks:
                blocks[j] = val
            else:
                assert val == 0, f"nonzero phantom block {j} in word {i + 1}"
    acc = 0
    for val in blocks:
        acc = (acc << p.B) | val
    return WideInt(acc >> (p.n_blocks * p.B - p.w), p.w)


def symbolic_poly_mul(msg, gen, P, out_len):
    out = [0] * out_len
    for i, m in enumerate(msg):
        for j, g in enumerate(gen):
            out[i + j] = (out[i + j] + m * g) % P
    return out


def regions(word, p):
    """The five message words of a split5 result, word i from region i.

    Also checks that no bit is set outside the five words.
    """
    assert word.bits == 4 * p.word_out_bits + p.word_in_bits
    mask = (1 << p.word_in_bits) - 1
    words = tuple(WideInt((word.value >> (i * p.word_out_bits)) & mask, p.word_in_bits)
                  for i in range(5))
    assert sum(wd.value << (i * p.word_out_bits) for i, wd in enumerate(words)) == word.value
    return words


def blocks_of(x, w, p):
    """Most-significant-first B-bit blocks of x, zero-padded at the tail."""
    padded = x << (p.n_blocks * p.B - w)
    return [(padded >> ((p.n_blocks - 1 - j) * p.B)) & ((1 << p.B) - 1)
            for j in range(p.n_blocks)]


# ---------------------------------------------------------------------------
# derive_params


def test_derive_params_pinned_w64():
    p = derive_params(64)
    assert (p.B, p.P, p.alpha) == (6, 67, 2)
    assert (p.n_blocks, p.blocks_per_word, p.r_deg) == (11, 3, 3)
    assert (p.S, p.out_slots, p.word_out_bits) == (30, 6, 180)


def test_derive_params_pinned_w16_w10():
    p = derive_params(16)
    assert (p.B, p.P, p.alpha) == (4, 17, 3)
    assert (p.n_blocks, p.blocks_per_word, p.r_deg, p.S, p.out_slots) == (4, 1, 1, 20, 2)
    p = derive_params(10)
    assert (p.B, p.P, p.r_deg) == (4, 17, 1)


def test_derive_params_range():
    with pytest.raises(ParameterError):
        derive_params(9)
    with pytest.raises(ParameterError):
        derive_params(W_MAX + 1)
    with pytest.raises(ParameterError, match="word size must be an integer, not float"):
        derive_params(64.0)
    derive_params(10)
    derive_params(8192)


def test_derive_params_formulas_and_invariants():
    widths = list(range(10, 130)) + [200, 256, 500, 1000, 1024, 2048, 4096, 8191, 8192]
    for w in widths:
        p = derive_params(w)
        b = max((w - 1).bit_length(), 1)
        assert p.B == b
        assert p.P == find_field_prime(b).P
        assert p.alpha == find_primitive_root(p.prime)
        assert p.n_blocks == ceil_div(w, b)
        assert p.blocks_per_word == ceil_div(p.n_blocks, 5)
        assert p.r_deg == ceil_div(w, 5 * b)
        assert p.r_deg >= 1
        assert p.S == max(5 * b, 4 * (b + 1))
        assert p.out_slots == p.blocks_per_word + p.r_deg
        assert p.conv_value_bound() <= p.S
        assert p.blocks_per_word + p.r_deg <= p.P - 1


def test_derive_params_deterministic():
    assert derive_params(777) == derive_params(777)


# ---------------------------------------------------------------------------
# split5


def test_split5_pinned_examples():
    p = derive_params(16)
    words = regions(split5(WideInt(0xABCD, 16), _SplitPlan(p)), p)
    slot0 = [unpack_fields(wd, msg_layout(p))[0] for wd in words]
    assert slot0 == [0xA, 0xB, 0xC, 0xD, 0]

    p = derive_params(64)
    split = _SplitPlan(p)
    words = regions(split5(WideInt(1 << 63, 64), split), p)
    assert unpack_fields(words[0], msg_layout(p)) == [0b100000, 0, 0]
    assert all(wd.value == 0 for wd in words[1:])

    assert all(wd.value == 0 for wd in regions(split5(WideInt(0, 64), split), p))


def test_split5_block_placement_random():
    rng = random.Random(0)
    for w in (10, 16, 37, 64, 120, 256, 1024):
        p = derive_params(w)
        layout = msg_layout(p)
        split = _SplitPlan(p)
        for _ in range(25):
            x = rng.getrandbits(w)
            expect = blocks_of(x, w, p)
            words = regions(split5(WideInt(x, w), split), p)
            for i, wd in enumerate(words):
                slots = unpack_fields(wd, layout)
                for t, val in enumerate(slots):
                    j = i + 5 * t
                    assert val == (expect[j] if j < p.n_blocks else 0)


def test_split5_reassembly_round_trip():
    rng = random.Random(1)
    for w in (10, 16, 64, 256, 4096):
        p = derive_params(w)
        split = _SplitPlan(p)
        for _ in range(30):
            x = WideInt(rng.getrandbits(w), w)
            assert split5_reassemble(split5(x, split), p) == x


def test_split5_on_internal_mini_params():
    # Level-2 inner codes run the same splitter at word sizes 5..14.
    rng = random.Random(2)
    for w in (5, 7, 11, 13, 14):
        p = _derive_params_any(w)
        split = _SplitPlan(p)
        for _ in range(30):
            x = WideInt(rng.getrandbits(w), w)
            assert split5_reassemble(split5(x, split), p) == x


def test_split5_uses_only_shifts_and_masks():
    p = derive_params(64)
    led = OpLedger(64)
    split5(WideInt(0x123456789ABCDEF0, 64), _SplitPlan(p), led)
    assert led.mul == 0 and led.add == 0 and led.sub == 0 and led.cmp == 0
    assert led.shift > 0 and led.bitwise > 0


def test_split5_cost_independent_of_value():
    rng = random.Random(3)
    for w in (16, 64, 1024):
        split = _SplitPlan(derive_params(w))
        costs = set()
        for _ in range(40):
            led = OpLedger(w)
            split5(WideInt(rng.getrandbits(w), w), split, led)
            costs.add(tuple(sorted(led.as_dict().items())))
        assert len(costs) == 1


def test_split5_rejects_oversized_key():
    p = derive_params(16)
    with pytest.raises(ParameterError):
        split5(WideInt(0, 17), _SplitPlan(p))


# Inner word sizes 5..14 (level 2) plus public ones whose words carry
# several blocks.
MANY_KEY_WIDTHS = (5, 7, 9, 11, 13, 14, 16, 37, 64)


def split5_one_at_a_time(keys, p):
    """Each key's split5 on its own, key s placed at s * 5 * word_out_bits."""
    stride = 5 * p.word_out_bits
    split = _SplitPlan(p)
    return sum(split5(WideInt(k, p.w), split).value << (s * stride)
               for s, k in enumerate(keys))


@settings(max_examples=150, deadline=None)
@given(data=st.data(),
       w=st.sampled_from(MANY_KEY_WIDTHS),
       count=st.integers(1, 70) | st.sampled_from([1, 2, 3, 5, 6, 7, 9, 13, 33, 127]))
@example(data=None, w=14, count=1270)
def test_split5_many_keys_equals_one_key_at_a_time(data, w, count):
    # Counts that are not powers of two leave a partial last group in
    # some spread round; so does the w=8192 level-2 count, 1270.
    p = _derive_params_any(w)
    stride = 5 * p.word_out_bits
    if data is None:
        rng = random.Random(count)
        s_in, vb = 65, w
        keys = [rng.getrandbits(w) for _ in range(count)]
    else:
        vb = data.draw(st.integers(1, w), label="value_bound")
        s_in = data.draw(st.integers(vb, min(stride, 4 * w)), label="input stride")
        keys = data.draw(st.lists(st.integers(0, (1 << vb) - 1),
                                  min_size=count, max_size=count), label="keys")
    layout = FieldLayout(s_in, count, vb)
    got = split5(pack_fields(keys, layout), _SplitPlan(p, layout))
    assert got.value == split5_one_at_a_time(keys, p)
    assert got.bits == (count - 1) * stride + 4 * p.word_out_bits + p.word_in_bits


def test_split5_many_keys_cost_independent_of_values():
    rng = random.Random(4)
    for w, count, s_in in ((14, 1270, 65), (5, 85, 20), (11, 7, 35), (64, 3, 64)):
        p = _derive_params_any(w)
        layout = FieldLayout(s_in, count, w)
        split = _SplitPlan(p, layout)
        costs = set()
        for keys in ([0] * count, [(1 << w) - 1] * count,
                     [rng.getrandbits(w) for _ in range(count)]):
            led = OpLedger(8192)
            split5(pack_fields(keys, layout), split, led)
            costs.add(tuple(sorted(led.as_dict().items())))
        assert len(costs) == 1
        assert led.mul == led.add == led.sub == led.cmp == 0


def test_split5_one_key_layout_charges_like_a_plain_key():
    for w in (5, 14, 16, 64, 1024):
        p = _derive_params_any(w)
        x = WideInt((1 << w) - 1, w)
        plain, laid_out = OpLedger(w), OpLedger(w)
        want = split5(x, _SplitPlan(p), plain)
        assert split5(x, _SplitPlan(p, FieldLayout(w, 1, w)), laid_out) == want
        assert laid_out == plain


def test_split5_charges_placements_at_live_width():
    # The five placements act on the n_blocks * B bits left after the
    # reversal's padding is dropped, not the power-of-two width.
    for w, total in ((10, 120), (16, 73), (64, 122), (200, 107), (256, 88),
                     (1024, 142), (8192, 172)):
        led = OpLedger(w)
        split5(WideInt(0, w), _SplitPlan(derive_params(w)), led)
        assert led.total() == total, w


def test_split5_many_keys_rejects_bad_words():
    p = _derive_params_any(14)
    layout = FieldLayout(65, 4, 14)
    split = _SplitPlan(p, layout)
    with pytest.raises(ParameterError, match="does not hold 4 keys"):
        split5(WideInt(1 << 14, 260), split)
    with pytest.raises(ParameterError, match="does not hold 4 keys"):
        split5(WideInt(0, 261), split)
    with pytest.raises(ParameterError, match="do not fit"):
        split5(WideInt(0, 60), _SplitPlan(p, FieldLayout(15, 4, 15)))
    with pytest.raises(ParameterError, match="do not fit"):
        split5(WideInt(0, 0), _SplitPlan(p, FieldLayout(65, 0, 14)))


# ---------------------------------------------------------------------------
# build_generator


def test_generator_pinned_coefficients():
    assert build_generator(derive_params(16)).coeffs == (14, 1)
    assert build_generator(derive_params(64)).coeffs == (3, 56, 53, 1)


def test_generator_matches_symbolic_oracle():
    for w in (10, 16, 32, 64, 256, 1024):
        p = derive_params(w)
        got = build_generator(p).coeffs
        want = symbolic_generator(p.P, p.alpha, p.r_deg)
        assert list(got) == want, f"generator mismatch at w={w}"


def test_generator_monic_and_r_deg_one_form():
    for w in (10, 16, 19):
        p = derive_params(w)
        g = build_generator(p)
        assert g.coeffs[-1] == 1
        if p.r_deg == 1:
            assert g.coeffs == (p.P - p.alpha, 1)


def test_generator_packed_form_matches_coeffs():
    for w in (16, 64, 256):
        p = derive_params(w)
        g = build_generator(p)
        assert tuple(unpack_fields(g.z_packed, _gen_layout(p))) == g.coeffs


def test_generator_product_slots_stay_below_the_layout_bound():
    # build_generator reduces z * (gamma - a_i) without unpacking it.  Slot
    # k of that product is z_k * (P - a_i) + z_{k-1} <= (P-1)^2 + (P-1),
    # below P^2 <= 2^(2(B+1)) and so below the 2(B+1)+1-bit value bound.
    # Widths with the same B share P and alpha, and their generator steps
    # are a prefix of the widest one's, so replaying the widest width of
    # each B checks every product slot of every generator a build expands.
    for b in sorted({(w - 1).bit_length() for w in range(_W_INTERNAL_MIN, W_MAX + 1)}):
        p = _derive_params_any(min(1 << b, W_MAX))
        layout = _gen_layout(p)
        assert p.P < 1 << (b + 1)
        assert 2 * (b + 1) < layout.value_bound <= p.S
        z = [p.P - p.alpha, 1]
        for i in range(2, p.r_deg + 1):
            a = pow(p.alpha, i, p.P)
            raw = [c * (p.P - a) + (z[k - 1] if k else 0) for k, c in enumerate(z + [0])]
            assert max(raw) <= (p.P - 1) ** 2 + (p.P - 1)
            z = [c % p.P for c in raw]
        assert z[-1] == 1, b
        assert tuple(z) == build_generator(p).coeffs, b


def test_generator_cost_linear_in_r_deg():
    totals = {}
    for w in (256, 1024, 4096):
        p = derive_params(w)
        led = OpLedger(w)
        build_generator(p, led)
        totals[w] = led.total() / p.r_deg
    values = list(totals.values())
    assert max(values) <= 2.5 * min(values), totals
    assert max(values) < 64


# ---------------------------------------------------------------------------
# rs_encode


def test_rs_encode_pinned_values():
    p = derive_params(16)
    rs = _RsPlan(p, p.word_in_bits, build_generator(p).z_packed)
    x_word = regions(split5(WideInt(0xF000, 16), _SplitPlan(p)), p)[0]
    assert unpack_fields(x_word, msg_layout(p)) == [15]
    assert unpack_fields(rs_encode(x_word, rs), p.out_layout()) == [6, 15]

    zero = WideInt(0, p.word_in_bits)
    assert rs_encode(zero, rs).value == 0

    p = derive_params(64)
    one = WideInt(1, p.word_in_bits)
    rs = _RsPlan(p, one.bits, build_generator(p).z_packed)
    assert unpack_fields(rs_encode(one, rs), p.out_layout()) == [3, 56, 53, 1, 0, 0]


def test_rs_encode_matches_symbolic_oracle():
    rng = random.Random(4)
    for w in (16, 64):
        p = derive_params(w)
        rs = _RsPlan(p, msg_layout(p).total_bits, build_generator(p).z_packed)
        oracle_gen = symbolic_generator(p.P, p.alpha, p.r_deg)
        for _ in range(10_000):
            msg = [rng.randrange(1 << p.B) for _ in range(p.blocks_per_word)]
            x_word = pack_fields(msg, msg_layout(p))
            got = unpack_fields(rs_encode(x_word, rs), p.out_layout())
            assert got == symbolic_poly_mul(msg, oracle_gen, p.P, p.out_slots)


def test_rs_encode_linearity_over_field():
    rng = random.Random(5)
    p = derive_params(64)
    g = build_generator(p)
    rs = _RsPlan(p, msg_layout(p).total_bits, g.z_packed)
    for _ in range(300):
        mx = [rng.randrange(1 << p.B) for _ in range(p.blocks_per_word)]
        my = [rng.randrange(1 << p.B) for _ in range(p.blocks_per_word)]
        fx = unpack_fields(rs_encode(pack_fields(mx, msg_layout(p)), rs), p.out_layout())
        fy = unpack_fields(rs_encode(pack_fields(my, msg_layout(p)), rs), p.out_layout())
        diff_msg = [(a - b) % p.P for a, b in zip(mx, my)]
        want = symbolic_poly_mul(diff_msg, list(g.coeffs), p.P, p.out_slots)
        assert [(a - b) % p.P for a, b in zip(fx, fy)] == want


def test_rs_encode_five_regions_equal_five_single_words():
    # One pass over the split word gives each word's own residues, in
    # place: nothing carries from one region into the next.
    rng = random.Random(7)
    params = [derive_params(w) for w in (10, 16, 37, 64, 256, 1024)]
    params += [_derive_params_any(w) for w in range(5, 15)]
    for p in params:
        z = build_generator(p).z_packed
        split = _SplitPlan(p)
        rs, rs_one = _RsPlan(p, split.out_bits, z), _RsPlan(p, p.word_in_bits, z)
        for x in [0, (1 << p.w) - 1] + [rng.getrandbits(p.w) for _ in range(20)]:
            word = split5(WideInt(x, p.w), split)
            got = rs_encode(word, rs)
            want = 0
            for i, wd in enumerate(regions(word, p)):
                want |= rs_encode(wd, rs_one).value << (i * p.word_out_bits)
            assert got == WideInt(want, 5 * p.word_out_bits), (p.w, x)


def test_rs_encode_cost_constant_per_w():
    rng = random.Random(6)
    for w in (16, 64, 1024):
        p = derive_params(w)
        split = _SplitPlan(p)
        rs = _RsPlan(p, split.out_bits, build_generator(p).z_packed)
        costs = set()
        for _ in range(30):
            x = WideInt(rng.getrandbits(w), w)
            led = OpLedger(w)
            rs_encode(split5(x, split, led), rs, led)
            costs.add(tuple(sorted(led.as_dict().items())))
        assert len(costs) == 1


def plain_product(a, b):
    """Coefficients of the product of coefficient lists a and b, from one
    plain-int multiply with 64-bit fields (every coefficient here is far
    below 2^64)."""
    field = 64
    pa = sum(c << (i * field) for i, c in enumerate(a))
    pb = sum(c << (i * field) for i, c in enumerate(b))
    data = (pa * pb).to_bytes((len(a) + len(b)) * field // 8, "little")
    return [int.from_bytes(data[k * 8:(k + 1) * 8], "little")
            for k in range(len(a) + len(b) - 1)]


def distinct_conv_shapes():
    """One width for every distinct (B, blocks_per_word, r_deg) over the
    internal widths _W_INTERNAL_MIN..W_MAX.

    On the way it checks, at every width, the two shape facts `_SplitPlan`
    relies on.  A word of several blocks has comb stride 5B equal to the
    slot stride S, so one shift places the word.  And the key stride
    5 * word_out_bits is at least 1.5 times the reversal width r, so no
    round of a many-key split reads the next key; r depends on n_blocks,
    which the shape key leaves out.
    """
    shapes = {}
    for w in range(_W_INTERNAL_MIN, W_MAX + 1):
        p = _derive_params_any(w)
        assert p.blocks_per_word == 1 or p.S == 5 * p.B, w
        r = (1 << (p.n_blocks - 1).bit_length()) * p.B
        assert 5 * p.word_out_bits >= r + r // 2, w
        shapes.setdefault((p.B, p.blocks_per_word, p.r_deg), p)
    return list(shapes.values())


def test_conv_value_bound_is_sufficient_and_attained():
    # A message word's slots are B-bit blocks and the generator's
    # coefficients lie in [0, P): the all-(2^B - 1) message times an
    # all-(P - 1) polynomial of the generator's degree reaches the bound
    # exactly, and every real generator stays below it.  The bound fits
    # the stride S and the code length stays within the cyclic bound
    # P - 1 at every width, so derivation checks neither.
    shapes = distinct_conv_shapes()
    assert len(shapes) > 100
    for p in shapes:
        bound = p.conv_value_bound()
        msg = [(1 << p.B) - 1] * p.blocks_per_word
        worst = max(plain_product(msg, [p.P - 1] * (p.r_deg + 1)))
        assert worst.bit_length() == bound, (p.w, p.B)
        assert max(plain_product(msg, build_generator(p).coeffs)) < 1 << bound, p.w
        assert bound <= p.S
        assert p.blocks_per_word + p.r_deg <= p.P - 1, p.w


def test_real_conv_layouts_reduce_the_all_top_word_exactly():
    # Each width picks its own pass count from its conv layout, so walk
    # the real layouts: every slot at 2^value_bound - 1, packed against
    # the slot-at-a-time reference.
    widths = list(range(5, 15)) + list(range(10, W_MAX + 1, 11)) + [W_MAX]
    passes = set()
    for w in widths:
        p = _derive_params_any(w)
        layout = p.conv_layout(5)
        word = WideInt(repeat_bits((1 << layout.value_bound) - 1, layout.slot_width,
                                   layout.slot_count), layout.total_bits)
        plan = _ParallelModPlan(layout, p.P)
        packed = parallel_mod(word, plan)
        assert packed == parallel_mod_reference(word, layout, p.P), w
        assert set(unpack_fields(packed, layout)) == {((1 << layout.value_bound) - 1) % p.P}
        passes.add(len(plan.parities))
    assert passes == {1, 2}


def test_conv_layouts_of_the_benchmarked_codes_take_one_pass():
    # rs_encode's reduction runs once over every slot at these widths,
    # at both stages of level 2.
    for w in (64, 256, 512, 1024):
        assert len(build_code(w)[0]._plans.rs.mod.parities) == 1, w
    for w in (1024, 8192):
        plans = build_code(w, level=2)[0]._plans
        assert len(plans.rs.mod.parities) == 1, w
        assert len(plans.inner.rs.mod.parities) == 1, w


# ---------------------------------------------------------------------------
# min_weight_multiple_check


def test_min_weight_pinned_w16():
    p = derive_params(16)
    g = build_generator(p)
    assert min_weight_multiple_check(g, p, "exhaustive") == 2


def test_min_weight_exhaustive_w10_and_w64():
    for w in (10, 16):
        p = derive_params(w)
        g = build_generator(p)
        assert min_weight_multiple_check(g, p, "exhaustive") >= p.r_deg + 1
    p = derive_params(64)
    g = build_generator(p)
    assert min_weight_multiple_check(g, p, "exhaustive") >= 4


def test_min_weight_random_mode():
    p = derive_params(64)
    g = build_generator(p)
    assert min_weight_multiple_check(g, p, "random", samples=50_000, seed=0) >= 4
    p = derive_params(256)
    g = build_generator(p)
    assert min_weight_multiple_check(g, p, "random", samples=20_000, seed=0) >= p.r_deg + 1


def test_min_weight_exhaustive_cap():
    p = derive_params(256)   # 257**7 messages is far past 2**20
    g = build_generator(p)
    with pytest.raises(ParameterError, match="random"):
        min_weight_multiple_check(g, p, "exhaustive")


def test_poly_mul_mod_matches_symbolic_oracle():
    # The convolution behind `batch_residues` and the min-weight check.
    # All-(P-1) messages give the largest uint64 sums; against an
    # all-(P-1) generator at w=8192 that is 127 products of 8208 * 8208
    # in one slot, past 2^32.
    rng = random.Random(17)
    for w in (10, 64, 256, 1024, 8192):
        p = derive_params(w)
        gen, bpw = list(build_generator(p).coeffs), p.blocks_per_word
        if w == 8192:
            assert (bpw, p.P) == (127, 8209)
        msgs = [[p.P - 1] * bpw, [0] * bpw, [1] + [0] * (bpw - 1)]
        msgs += [[rng.randrange(p.P) for _ in range(bpw)] for _ in range(5)]
        want = [symbolic_poly_mul(m, gen, p.P, p.out_slots) for m in msgs]
        cols = np.array(msgs, dtype=np.uint64).T
        assert _kernels.poly_mul_mod(cols, gen, p.P).T.tolist() == want, w
        # Leading axes are independent batches, as the five split words are.
        got = _kernels.poly_mul_mod(np.stack([cols, cols[:, ::-1]]), gen, p.P)
        assert got[1].T.tolist() == want[::-1], w
        top = [p.P - 1] * len(gen)
        assert (_kernels.poly_mul_mod(cols[:, :1], top, p.P)[:, 0].tolist()
                == symbolic_poly_mul(msgs[0], top, p.P, p.out_slots)), w


def test_min_weight_bad_mode_and_samples():
    p = derive_params(16)
    g = build_generator(p)
    with pytest.raises(ParameterError,
                       match="mode must be 'exhaustive' or 'random', got 'bogus'"):
        min_weight_multiple_check(g, p, "bogus")
    with pytest.raises(ParameterError):
        min_weight_multiple_check(g, p, "random", samples=0)
    with pytest.raises(ParameterError, match="seed must be non-negative"):
        min_weight_multiple_check(g, p, "random", samples=10, seed=-1)
    with pytest.raises(ParameterError, match="samples must be an integer, not float"):
        min_weight_multiple_check(g, p, "random", samples=10.0)
    with pytest.raises(ParameterError, match="seed must be an integer, not float"):
        min_weight_multiple_check(g, p, "random", samples=10, seed=1.5)


# ---------------------------------------------------------------------------
# Plan-declared charges


def op_by_op(word_bits, *op_lists):
    """A ledger charged one declared operation at a time."""
    led = OpLedger(word_bits)
    for ops in op_lists:
        for kind, bits_a, bits_b in ops.ops:
            led.charge(kind, bits_a, bits_b)
    return led


@pytest.mark.parametrize("w", [10, 64, 256, 1024, 8192])
def test_plan_posts_equal_op_by_op_charges(w):
    # The outer plans of w, then the inner code's plans over all of w's
    # residues, as level 2 runs them: posted at ledger word sizes other
    # than the plan's own code too.
    p = derive_params(w)
    layout = p.out_layout(5)
    q = _derive_params_any(p.B + 1)
    split, inner_split = _SplitPlan(p), _SplitPlan(q, layout)
    g = build_generator(p)
    rs = _RsPlan(p, split.out_bits, g.z_packed)
    plans = [split, rs.mod, rs, inner_split,
             _ParallelModPlan(q.conv_layout(5 * layout.slot_count), q.P),
             _RsPlan(q, inner_split.out_bits, build_generator(q).z_packed),
             _MultPlan(InnerCode(q.B, 1, 1, 1), q.out_layout(5 * layout.slot_count))]
    for word_bits in (8, 10, 64, w, q.w, 8192):
        for plan in plans:
            led = OpLedger(word_bits)
            led.post(plan.ops)
            led.post(plan.ops)
            assert led == op_by_op(word_bits, plan.ops, plan.ops), (word_bits, type(plan))
            assert word_bits in plan.ops.units

    # The stages charge exactly what their plans declare.
    x = WideInt((1 << w) - 1, w)
    for word_bits in (8, w):
        led = OpLedger(word_bits)
        words = split5(x, split, led)
        assert led == op_by_op(word_bits, split.ops)
        led = OpLedger(word_bits)
        rs_encode(words, rs, led)
        assert led == op_by_op(word_bits, rs.ops, rs.mod.ops)
        led = OpLedger(word_bits)
        split5(WideInt(0, layout.total_bits), inner_split, led)
        assert led == op_by_op(word_bits, inner_split.ops)
