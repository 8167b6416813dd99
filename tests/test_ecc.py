"""Full-code assembly: build, encode, distance, serialization."""

import functools
import json
import math
import operator
import random
from collections import Counter
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from wordcode import _kernels
from wordcode.errors import (
    CodecError,
    CodecFormatError,
    CodecVersionError,
    CodeValidationError,
    MultiplierNotFoundError,
    ParameterError,
)
from wordcode.bulk import (
    _batch_encode,
    _chunk_keys,
    _key_rows,
    _sample_keys,
    distance_report,
)
from wordcode.ecc_core import (
    CostReport,
    EccCode,
    _charge_param_search,
    _encode_nested,
    _hex_key,
    _key_value,
    build_code,
    deserialize,
    encode,
    serialize,
)
from wordcode._kernels import paired_min_hamming
from wordcode.inner_mult import InnerCode, _MultPlan, find_multiplier, inner_encode
from wordcode.numtheory import _prime_factors, _trial_division
from wordcode.outer_rs import (
    GeneratorPoly,
    W_MAX,
    W_MIN,
    _RsPlan,
    _SplitPlan,
    _derive_params_any,
    build_generator,
    derive_params,
    rs_encode,
    split5,
)
from wordcode.wordram import (
    FieldLayout,
    OpLedger,
    WideInt,
    _Traced,
    _traced_ops,
    unpack_fields,
)

BENCH_MODEL = Path(__file__).resolve().parents[1] / "BENCH_model.json"
KINDS = ("add", "sub", "mul", "shift", "bitwise", "cmp")


def encode_oracle(code, x):
    """Pipeline recomputed with plain list arithmetic, no packed tricks."""
    p = code.params
    pad = p.n_blocks * p.B - p.w
    xp = x << pad
    blocks = [(xp >> ((p.n_blocks - 1 - j) * p.B)) & ((1 << p.B) - 1)
              for j in range(p.n_blocks)]
    cw = 0
    if code.level == 1:
        seg_bits = p.word_out_bits
    else:
        seg_bits = code.inner_ecc.codeword_bits
    seg_index = 0
    for i in range(5):
        msg = [blocks[j] for j in range(i, p.n_blocks, 5)]
        conv = [0] * p.out_slots
        for t, mv in enumerate(msg):
            for k, gc in enumerate(code.gen.coeffs):
                conv[t + k] += mv * gc
        residues = [v % p.P for v in conv]
        if code.level == 1:
            seg = 0
            for s, val in enumerate(residues):
                seg |= (val * code.inner.m) << (s * p.S)
            cw |= seg << (seg_index * seg_bits)
            seg_index += 1
        else:
            for val in residues:
                cw |= encode_oracle(code.inner_ecc, val) << (seg_index * seg_bits)
                seg_index += 1
    return cw


FROZEN_W10_EXHAUSTIVE_MIN_BITS = 4


def test_build_pinned_w64_level1():
    code, _ = build_code(64, None, 1)
    p = code.params
    assert (p.B, p.P, p.alpha) == (6, 67, 2)
    assert code.gen.coeffs == (3, 56, 53, 1)
    assert code.inner.m == 29
    assert code.codeword_bits == 900
    assert code.level == 1
    assert code.delta_prime_bound == Fraction(4 * 3, 900)


def test_build_pinned_w16_level1():
    code, _ = build_code(16, None, 1)
    assert code.codeword_bits == 5 * 2 * 20 == 200


def test_build_pinned_w64_level2():
    code, _ = build_code(64, None, 2)
    assert code.level == 2
    inner = code.inner_ecc
    assert inner.params.w == 7
    assert inner.level == 1
    assert code.codeword_bits == 5 * 6 * inner.codeword_bits
    assert inner.codeword_bits == 160


def test_build_rejects_bad_args():
    with pytest.raises(ParameterError):
        build_code(9, None, 1)
    # The word-size cap holds at both levels; level 1 alone would also
    # refuse W_MAX + 1 for its symbol width (B_MAX).
    for level in (1, 2):
        with pytest.raises(ParameterError,
                           match=rf"word size must be in \[{W_MIN}, {W_MAX}\], "
                                 rf"got {W_MAX + 1}$"):
            build_code(W_MAX + 1, None, level)
    with pytest.raises(ParameterError):
        build_code(64, None, 3)
    # w and level go through operator.index, delta through Fraction; a
    # failure of either is a ParameterError naming the argument.
    for args, msg in (((64.0,), "word size must be an integer, not float"),
                      (("64",), "word size must be an integer, not str"),
                      ((64, None, 1.0), "level must be an integer, not float"),
                      ((True,), "word size must be an integer, not bool"),
                      ((64, None, True), "level must be an integer, not bool"),
                      ((64, float("nan")), "delta must be a rational number"),
                      ((64, float("inf")), "delta must be a rational number"),
                      ((64, "1/0"), "delta must be a rational number"),
                      ((64, [1]), "delta must be a rational number"),
                      ((64, float("nan"), 2), "delta must be a rational number")):
        with pytest.raises(ParameterError, match=msg):
            build_code(*args)
    assert build_code(np.int64(64), None, np.int8(2)) == build_code(64, None, 2)
    # No level-1 code past B_MAX, whatever the delta: the symbols are too
    # wide for the multiplier search.
    with pytest.raises(ParameterError, match="no inner code is searchable for 13-bit"):
        build_code(8192, None, 1)
    with pytest.raises(ParameterError, match="11-bit symbols; the word size needs a level-2"):
        build_code(2048, "1/2", 1)


def test_build_not_found_attaches_achievable_delta():
    with pytest.raises(MultiplierNotFoundError) as exc_info:
        build_code(10, 2, 1)
    err = exc_info.value
    assert err.bits == 4
    assert err.achievable == Fraction(1, 2)
    assert str(err).endswith("; delta=1/2 succeeds")
    code, _ = build_code(10, err.achievable, 1)
    assert code.inner.delta == err.achievable
    # The reported delta succeeds but need not be the largest: a failed
    # search at delta=2 says nothing about the deltas below it, and 4/3
    # still reaches its threshold at w=64 (B=6).
    with pytest.raises(MultiplierNotFoundError):
        build_code(64, 2)
    code, _ = build_code(64, Fraction(4, 3))
    assert (code.inner.B, code.inner.threshold, code.inner.m) == (6, 8, 429_579)


def test_build_explicit_delta():
    code, _ = build_code(16, Fraction(1, 3), 1)
    assert code.inner.delta == Fraction(1, 3)
    assert code.inner.threshold == 2
    assert code.delta == Fraction(1, 3)


def test_build_deterministic():
    a, ra = build_code(64, None, 1)
    b, rb = build_code(64, None, 1)
    assert a == b
    assert ra == rb


def test_ecc_code_pairing_enforced():
    # The level is derived from the one inner stage a code carries, so
    # only both stages or neither can disagree with it.
    assert EccCode._fields == ("params", "gen", "inner", "inner_ecc")
    code, _ = build_code(16, None, 1)
    for inner, inner_ecc in ((code.inner, code), (None, None)):
        with pytest.raises(ParameterError, match="exactly one inner stage"):
            EccCode(code.params, code.gen, inner, inner_ecc)


def test_encode_zero_is_zero():
    for level in (1, 2):
        code, _ = build_code(64, None, level)
        out = encode(code, WideInt(0, 64))
        assert int(out) == 0
        assert out.bits == code.codeword_bits


def test_encode_pinned_w16_word4_segment():
    # x=0x000F puts all its bits in block 4, which feeds word 4; its RS
    # residues are [6, 15], then the multiplier scales both slots.
    code, _ = build_code(16, None, 1)
    m = code.inner.m
    assert m == 3
    out = int(encode(code, 0x000F))
    seg = (out >> (3 * code.params.word_out_bits)) & ((1 << 40) - 1)
    slots = unpack_fields(WideInt(seg, 40), FieldLayout(20, 2, 20))
    assert slots == [6 * m, 15 * m]


def test_encode_matches_oracle_level1():
    rng = random.Random(20260817)
    for w, keys in ((10, 120), (16, 120), (64, 120), (200, 120), (256, 3), (1024, 3)):
        code, _ = build_code(w, None, 1)
        for _ in range(keys):
            x = rng.randrange(1 << w)
            assert int(encode(code, x)) == encode_oracle(code, x), (w, x)


def test_encode_matches_oracle_level2():
    rng = random.Random(99)
    for w, keys in ((10, 25), (64, 25), (256, 3), (1024, 3), (2048, 3), (8192, 3)):
        code, _ = build_code(w, None, 2)
        for _ in range(keys):
            x = rng.randrange(1 << w)
            assert int(encode(code, x)) == encode_oracle(code, x), (w, x)


def test_encode_level2_packed_matches_nested_batch_and_oracle():
    # The packed level-2 encode against the per-residue route, the batch
    # encoder and the list-arithmetic oracle.
    rng = random.Random(20261018)
    for w in (10, 64, 256, 1024, 2048, 8192):
        code, _ = build_code(w, None, 2)
        # The outer reduction takes two passes only at w = 1706-2048 (B=11).
        assert len(code._plans.rs.mod.parities) == (2 if w == 2048 else 1), w
        keys = [0, (1 << w) - 1, rng.getrandbits(w), rng.getrandbits(w)]
        rows = _batch_encode(code, _key_rows(keys, w))
        for x, row in zip(keys, rows):
            cw = encode(code, x)
            assert cw.bits == code.codeword_bits
            assert cw == _encode_nested(code, x, OpLedger(w)), (w, x)
            assert int(cw) == encode_oracle(code, x), (w, x)
            assert int(cw) == sum(int(v) << (64 * t) for t, v in enumerate(row)), (w, x)


@functools.cache
def _route_code(w, level):
    """Codes the plain and ledgered routes are compared on; w=5 is the
    level-1 inner code of the level-2 w=10 code (below the public W_MIN)."""
    if w == 5:
        return build_code(10, None, 2)[0].inner_ecc
    return build_code(w, None, level)[0]


ROUTE_CODES = [(5, 1), (10, 1), (16, 1), (64, 1), (256, 1), (1024, 1),
               (10, 2), (16, 2), (64, 2), (2048, 2), (8192, 2)]


def _check_routes(code, x):
    w = code.params.w
    led = OpLedger(w)
    plain = encode(code, x)
    ledgered = encode(code, x, led)
    assert plain == ledgered, (w, code.level, x)
    assert plain.bits == code.codeword_bits
    if code.level == 2:
        assert plain == _encode_nested(code, x, OpLedger(w)), (w, x)


@pytest.mark.parametrize("w, level", ROUTE_CODES)
def test_plain_encode_equals_ledgered_route(w, level):
    # The plain route chains the plans' `apply`; the ledgered route calls
    # every stage by name.  Bit for bit equal, and the ledger of the
    # ledgered route is what the CostReport probe charged.
    code = _route_code(w, level)
    rng = random.Random(f"routes-{w}-{level}")
    keys = [0, 1, (1 << w) - 1, 1 << (w - 1)] + [rng.getrandbits(w) for _ in range(6)]
    for x in keys:
        _check_routes(code, x)
    led = OpLedger(w)
    encode(code, keys[-1], led)
    probe = OpLedger(w)
    encode(code, 0, probe)
    assert led == probe


@settings(deadline=None, max_examples=60, database=None)
@given(data=st.data())
def test_plain_encode_equals_ledgered_route_on_any_key(data):
    w, level = data.draw(st.sampled_from(ROUTE_CODES))
    _check_routes(_route_code(w, level), data.draw(st.integers(0, (1 << w) - 1)))


class _Valued(_Traced):
    """A `_Traced` stand-in that also carries its value, and checks that
    the value fits the width the rules trace for it."""

    __slots__ = ("value",)

    def __init__(self, value, bits, log):
        super().__init__(bits, log)
        assert value.bit_length() <= bits, (value.bit_length(), bits)
        self.value = value

    def _twin(name, fn):
        # The rule runs on a plain stand-in, so it sees no twin method.
        def method(self, other):
            plain = _Traced(self.bits, self.log)
            traced = getattr(plain, name)(other)
            if traced is plain:
                return self
            return _Valued(fn(self.value, getattr(other, "value", other)),
                           traced.bits, self.log)
        return method

    __and__ = _twin("__and__", operator.and_)
    __or__ = __ror__ = _twin("__or__", operator.or_)
    __xor__ = _twin("__xor__", operator.xor)
    __sub__ = _twin("__sub__", operator.sub)
    __mul__ = _twin("__mul__", operator.mul)
    __lshift__ = _twin("__lshift__", operator.lshift)
    __rshift__ = _twin("__rshift__", operator.rshift)
    del _twin


def _run_valued(ops, apply, *args):
    """apply on one `_Valued` per (value, bits) pair: its records must be
    the plan's traced `ops`; returns the value."""
    log = []
    out = apply(*(_Valued(value, bits, log) for value, bits in args))
    assert tuple(log) == ops.ops
    return out.value


@pytest.mark.parametrize("w, level", [(10, 1), (16, 1), (64, 1), (256, 1), (1024, 1),
                                      (10, 2), (64, 2), (1024, 2), (2048, 2), (8192, 2)])
def test_every_stage_operand_fits_its_traced_width(w, level):
    # Each stage plan's charge is traced once from widths alone; running
    # the same `apply` on values shows every operand and result within
    # its traced width, the same records, and the plain result.
    code = _route_code(w, level)
    rng = random.Random(f"widths-{w}-{level}")
    for x in [0, (1 << w) - 1] + [rng.getrandbits(w) for _ in range(3)]:
        plans, v, levels = code._plans, x, 0
        while True:
            levels += 1
            split, rs = plans.split, plans.rs
            top = (split.symbols.slot_count - 1) * split.symbols.slot_width
            v = _run_valued(split.ops, split.apply, (v, top + split.symbols.value_bound))
            prod = _run_valued(rs.ops, operator.mul, (v, split.out_bits), (rs.z, rs.z_bits))
            v = _run_valued(rs.mod.ops, rs.mod.apply, (prod, split.out_bits + rs.z_bits))
            if plans.inner is None:
                break
            plans = plans.inner
        v = _run_valued(plans.mult.ops, plans.mult.apply, (v, plans.mult.bits))
        assert levels == level
        assert v == code._plans.run(x)


def test_traced_ops_follow_the_width_rules():
    for apply, record, bits in [
            (lambda a, b: a & b, ("bitwise", 5, 0), 5),
            (lambda a, b: a & 0x3F, ("bitwise", 6, 0), 6),
            (lambda a, b: a | b, ("bitwise", 9, 0), 9),
            (lambda a, b: b | 0x3FF, ("bitwise", 10, 0), 10),
            (lambda a, b: a ^ b, ("bitwise", 9, 0), 9),
            (lambda a, b: b - a, ("sub", 9, 0), 9),
            (lambda a, b: a * b, ("mul", 9, 5), 14),
            (lambda a, b: a * 185, ("mul", 9, 8), 17),
            (lambda a, b: a << 3, ("shift", 9, 3), 12),
            (lambda a, b: a >> 3, ("shift", 9, 0), 6)]:
        log = []
        out = apply(_Traced(9, log), _Traced(5, log))
        assert (log, out.bits) == ([record], bits)
    # An OR into the literal accumulator 0 is free and keeps the operand.
    log = []
    a = _Traced(9, log)
    assert (0 | a) is a and (a | 0) is a and log == []
    assert _traced_ops(lambda a, b: a * b, 9, 5).ops == (("mul", 9, 5),)

    # A multiply plan whose `apply` masks twice gains exactly that mask.
    ic, layout = InnerCode(6, 185, 1, 1), FieldLayout(28, 10, 7)

    class MaskTwice(_MultPlan):
        def apply(self, v):
            return super().apply(v) & self.mask

    plain, gained = _MultPlan(ic, layout), MaskTwice(ic, layout)
    assert gained.apply(12345) == plain.apply(12345)
    assert Counter(gained.ops.ops) - Counter(plain.ops.ops) == Counter(
        {("bitwise", layout.total_bits, 0): 1})
    assert len(gained.ops.ops) == len(plain.ops.ops) + 1


@pytest.mark.parametrize("w, level, inner", [(64, 1, False), (64, 2, False),
                                             (64, 2, True)])
def test_both_routes_refuse_a_generator_too_narrow_for_the_reduction(w, level, inner):
    # rs reduces the product of its input and the packed generator; a
    # product narrower than the reduction's layout is a width fault that
    # only the plans see, so the plain route refuses it as the ledgered
    # route's parallel_mod would.
    code = _route_code(w, level)
    short = lambda c: EccCode(  # noqa: E731
        c.params, GeneratorPoly(c.gen.coeffs, WideInt(1, 1)), c.inner, c.inner_ecc)
    bad = (EccCode(code.params, code.gen, None, short(code.inner_ecc)) if inner
           else short(code))
    for ledger in (None, OpLedger(w)):
        with pytest.raises(CodeValidationError, match="do not chain"):
            encode(bad, 1, ledger)


def test_encode_nested_rejects_level1():
    code, _ = build_code(16, None, 1)
    with pytest.raises(ParameterError, match="level-2"):
        _encode_nested(code, 0, OpLedger(16))


def test_encode_accepts_narrower_wideint():
    code, _ = build_code(64, None, 1)
    assert int(encode(code, WideInt(5, 10))) == int(encode(code, 5))


def test_encode_rejects_out_of_range():
    code, _ = build_code(16, None, 1)
    with pytest.raises(ParameterError):
        encode(code, 1 << 16)
    with pytest.raises(ParameterError):
        encode(code, -1)
    with pytest.raises(ParameterError):
        encode(code, WideInt(0, 17))


def test_encode_key_rule():
    # One rule for every key: a WideInt no wider than w, or anything
    # operator.index accepts in [0, 2^w); anything else is a ParameterError.
    code, _ = build_code(16, None, 1)
    want = encode(code, 5)
    for key in (np.uint64(5), np.int32(5), np.uint8(5), WideInt(5, 3)):
        assert encode(code, key) == want
    assert encode(code, np.uint64(0xFFFF)) == encode(code, 0xFFFF)
    # A bool is refused, as in a description's integer fields.
    for bad in (5.0, np.float64(5), "5", None, [5], Fraction(5), True, False,
                np.bool_(True)):
        with pytest.raises(ParameterError, match="must be an integer or a WideInt"):
            encode(code, bad)
    with pytest.raises(ParameterError, match=r"outside \[0, 2\^16\)"):
        encode(code, np.uint64(1 << 16))
    with pytest.raises(ParameterError, match=r"outside \[0, 2\^16\)"):
        encode(code, np.int64(-1))


def test_hex_key_checks_digits_then_range():
    # A hex key's spelling and its range are both `_hex_key`'s rules.
    assert _hex_key("3ff", 10, "value") == 1023
    with pytest.raises(ParameterError, match=r"^value must be exactly 3 lowercase hex digits$"):
        _hex_key("03ff", 10, "value")
    with pytest.raises(ParameterError, match=r"^value outside \[0, 2\^10\)$"):
        _hex_key("fff", 10, "value")


@pytest.mark.parametrize("w", [10, 63, 64, 65, 128, 256, 1000])
def test_key_array_matches_key_value(w):
    # The bulk intake keeps the per-key rule: the same values, or the
    # same error naming the same first bad key.  The cases include keys
    # one limb too wide, keys that fit the limbs but not w, a bad key
    # after many good ones, and numpy arrays of every rank and kind.
    top = (1 << w) - 1
    limb_top = 1 << (64 * -(-w // 64))
    cases = [[], [0, 1, top], [3, -1, 4], [5, 1 << w, 6], [7, 1 << 64, -2],
             [(1 << 64) | 1], [1, 1.5], [2.0], [1, "2"], [None], [True, False, 3],
             [np.uint64(5), 9], [4, WideInt(1, w + 1)], [WideInt(top, w), 0],
             [-1, 2.5], [top, limb_top], [top, limb_top - 1], [2, True],
             [top, np.int64(-1)], [top, np.uint64(7)], [WideInt(3, w), top],
             list(range(40)) + [top + 1], list(range(40)) + [-3],
             np.array([0, 5, min(top, 2**64 - 1)], dtype=np.uint64),
             np.array([3, 2**63 + 1], dtype=np.uint64), np.array([3, 250], dtype=np.uint8),
             np.array([3, -1]), np.array([[1, 2]], dtype=np.uint64), np.array([1.0, 2.0])]
    for keys in cases:
        try:
            want = [_key_value(k, w, f"key {i}") for i, k in enumerate(keys)]
        except ParameterError as exc:
            with pytest.raises(ParameterError) as got:
                _key_rows(keys, w)
            assert (type(got.value), str(got.value)) == (type(exc), str(exc)), keys
            continue
        arr = _key_rows(keys, w)
        assert arr.dtype == np.uint64
        assert arr.shape == (len(keys), -(-w // 64))
        rows = arr.astype("<u8")
        assert [int.from_bytes(r.tobytes(), "little") for r in rows] == want, keys


@pytest.mark.parametrize("w", [10, 63, 64, 65, 256, 1000])
def test_key_array_takes_plain_ints_in_bulk(monkeypatch, w):
    # Valid plain ints never reach the per-key loop, at any width.
    import wordcode.bulk as bulk

    def per_key(*_):
        raise AssertionError("per-key loop on plain ints")

    rng = random.Random(w)
    keys = [0, (1 << w) - 1] + [rng.getrandbits(w) for _ in range(100)]
    want = _key_rows(keys, w)
    monkeypatch.setattr(bulk, "_key_value", per_key)
    assert np.array_equal(_key_rows(keys, w), want)


@pytest.mark.parametrize("w", [10, 63, 64, 256])
def test_key_rows_take_integer_arrays_in_bulk(monkeypatch, w):
    # A rank-1 integer ndarray of valid keys, unsigned or signed (what
    # np.array(list_of_ints) gives), never reaches the per-key loop and
    # gives the rows of the list of the same keys; bad keys in arrays
    # are in test_key_array_matches_key_value.
    import wordcode.bulk as bulk

    rng = random.Random(w)
    keys = [0, (1 << min(w, 64)) - 1] + [rng.getrandbits(min(w, 64)) for _ in range(100)]
    cases = [np.array(keys, dtype=np.uint64), np.array(keys[2:], dtype=np.uint64)[::2],
             np.array([k & 0xFF for k in keys], dtype=np.uint8),
             np.array([k & 0x3FF for k in keys], dtype=np.uint16),
             np.array([k >> 2 for k in keys]), np.array([k & 0x7F for k in keys], dtype=np.int8),
             np.array([], dtype=np.uint32)]
    want = [_key_rows([int(k) for k in arr], w) for arr in cases]

    def per_key(*_):
        raise AssertionError("per-key loop on an integer array")

    monkeypatch.setattr(bulk, "_key_value", per_key)
    for arr, rows in zip(cases, want):
        got = _key_rows(arr, w)
        assert got.dtype == np.uint64 and np.array_equal(got, rows)


def test_encode_cost_value_independent_and_matches_report():
    code, report = build_code(64, None, 1)
    rng = random.Random(5)
    costs = set()
    for _ in range(20):
        led = OpLedger(64)
        encode(code, rng.randrange(1 << 64), led)
        costs.add(tuple(sorted(led.as_dict().items())))
    assert len(costs) == 1
    assert dict(costs.pop()) == report.encode_ops


def test_ledger_totals_match_bench_model():
    # Every row of the committed `wordcode bench` table rebuilds to the
    # same totals; a ledgered encode on warm plans charges the same.
    table = json.loads(BENCH_MODEL.read_text(encoding="ascii"))
    rows = [(1, row) for row in table["level_1"]] + [(2, row) for row in table["level_2"]]
    assert [(level, row["w"]) for level, row in rows] == [
        (1, 64), (1, 256), (1, 1024), (2, 64), (2, 256), (2, 1024), (2, 4096), (2, 8192)]
    for level, row in rows:
        w = row["w"]
        code, report = build_code(w, None, level)
        got = (report.construction_total(), report.encode_total(), code.codeword_bits)
        assert got == (row["construction_ops"], row["encode_ops"], row["codeword_bits"]), \
            (w, level)
        led = OpLedger(w)
        encode(code, (1 << w) - 1, led)
        assert led.as_dict() == report.encode_ops, (w, level)


@pytest.mark.parametrize("w, level", [(64, 1), (256, 1), (64, 2), (1024, 2)])
def test_resolved_plans_are_invisible(w, level):
    used, _ = build_code(w, None, level)   # its probe encode resolved the plans
    fresh = deserialize(serialize(used))    # rebuilt, not yet encoded
    assert "_plans" in vars(used) and "_plans" not in vars(fresh)
    assert "_plans" not in EccCode._fields
    assert used is not fresh
    assert used == fresh and hash(used) == hash(fresh)
    assert serialize(used) == serialize(fresh)
    assert deserialize(serialize(used)) == used
    rng = random.Random(f"plans-{w}-{level}")
    for x in (0, (1 << w) - 1, rng.getrandbits(w), rng.getrandbits(w)):
        led_used, led_fresh = OpLedger(w), OpLedger(w)
        assert encode(used, x, led_used) == encode(fresh, x, led_fresh)
        assert led_used == led_fresh
    assert fresh._plans is not used._plans
    assert used == fresh and hash(used) == hash(fresh)
    assert serialize(fresh) == serialize(used)
    assert deserialize(serialize(fresh)) == fresh == used


def test_encode_cost_endpoint_comparison():
    _, r64 = build_code(64, None, 1)
    _, r1024 = build_code(1024, None, 1)
    assert r1024.encode_total() <= r64.encode_total()


def test_codeword_length_formulas_and_rate_trend():
    prev_ratio = None
    for w in (64, 256, 1024, 4096, 8192):
        code, _ = build_code(w, None, 2)
        p = code.params
        assert code.codeword_bits == 5 * p.out_slots * code.inner_ecc.codeword_bits
        lvl1_bits = 5 * p.out_slots * p.S
        ratio = lvl1_bits / w
        assert ratio <= 15
        if prev_ratio is not None:
            assert ratio < prev_ratio
        prev_ratio = ratio
    assert prev_ratio < 10.1


def test_generator_phase_isolated_in_report():
    for w in (64, 1024):
        _, report = build_code(w, None, 1)
        led = OpLedger(w)
        build_generator(derive_params(w), led)
        assert report.generator_ops == led.as_dict()


PHASE_CODES = [(w, 1) for w in (10, 16, 64, 256, 1024)] + [(w, 2) for w in (10, 64, 1024, 8192)]


def _kind_sum(phases):
    return {k: sum(ops[k] for ops in phases.values()) for k in KINDS}


@pytest.mark.parametrize("w, level", PHASE_CODES)
def test_phases_sum_to_report_totals(w, level):
    # Every total is the per-kind sum of its phases, and each phase is
    # what its own step charges when run alone into a fresh ledger at w.
    code, report = build_code(w, None, level)
    assert report.construction_ops == _kind_sum(report.build_phases)
    assert report.encode_ops == _kind_sum(report.encode_phases)
    assert report.generator_ops == report.build_phases["generator"]
    assert isinstance(report, CostReport)

    def alone(step, *args, **kw):
        led = OpLedger(w)
        out = step(*args, ledger=led, **kw)
        return out, led.as_dict()

    builds, encodes = {}, {}
    x = WideInt(random.Random(w).getrandbits(w), w)
    p = code.params
    ic, prefix = code, ""
    words, encodes["split5"] = alone(split5, x, _SplitPlan(p))
    resid, encodes["rs_encode"] = alone(
        rs_encode, words, _RsPlan(p, words.bits, code.gen.z_packed))
    layout = p.out_layout(5)
    if level == 2:
        ic, prefix = code.inner_ecc, "inner."
        q = ic.params
        words, encodes["inner.split5"] = alone(split5, resid, _SplitPlan(q, layout))
        resid, encodes["inner.rs_encode"] = alone(
            rs_encode, words, _RsPlan(q, words.bits, ic.gen.z_packed))
        layout = q.out_layout(5 * layout.slot_count)
    cw, encodes[prefix + "inner_encode"] = alone(
        inner_encode, resid, _MultPlan(ic.inner, layout))
    assert cw == encode(code, x)
    for c, pre in [(code, "")] + ([(ic, prefix)] if level == 2 else []):
        cp = _derive_params_any(c.params.w)
        _, builds[pre + "param_search"] = alone(_charge_param_search, cp)
        _, builds[pre + "generator"] = alone(build_generator, cp)
    _, builds[prefix + "multiplier_scan"] = alone(
        find_multiplier, ic.params.B, ic.delta)
    assert report.build_phases == builds
    assert report.encode_phases == encodes
    assert list(report.build_phases) == list(builds)
    assert list(report.encode_phases) == list(encodes)


def param_search_replay(p, word_bits):
    """The param-search charge replayed candidate by candidate, word
    units worked out by hand: each prime-scan candidate n's trial
    divisions at words(n.bit_length()), then the root search one
    candidate root at a time."""
    led = OpLedger(word_bits)
    for n in range(1 << p.B, p.P + 1):
        steps = _trial_division(n)[1]
        nw = led.words(n.bit_length())
        led.mul += steps * nw * nw
        led.cmp += steps * nw
    pw = led.words(p.P.bit_length())
    for _ in range(2, p.alpha + 1):
        for q in _prime_factors(p.P - 1):
            # Square-and-multiply with a reduction per step.
            led.mul += 2 * ((p.P - 1) // q).bit_length() * pw * pw
    return led


@pytest.mark.parametrize("b", range(2, 14))
def test_param_search_charge_equals_per_candidate_replay(b):
    # Every B a build reaches at w <= 8192, at both levels.
    p = _derive_params_any(1 << b)
    for word_bits in (1, 3, b, b + 1, 1 << b, 64):
        led = OpLedger(word_bits)
        _charge_param_search(p, led)
        assert led == param_search_replay(p, word_bits)
        assert led.mul > 0 and led.cmp > 0


def test_probe_encode_must_charge_its_phases(monkeypatch):
    # A ledgered encode that charges anything its plans do not declare
    # fails the build.
    import wordcode.ecc_core as ecc_core

    def overcharging(word, plan, ledger):
        ledger.charge("bitwise", 1)
        return inner_encode(word, plan, ledger)

    monkeypatch.setattr(ecc_core, "inner_encode", overcharging)
    for level in (1, 2):
        with pytest.raises(CodeValidationError, match="probe encode charged"):
            build_code(64, None, level)


def test_level2_construction_cost_trend():
    ratios = []
    for w in (256, 1024, 4096):
        _, report = build_code(w, None, 2)
        ratios.append(report.construction_total() / w)
    assert ratios[0] > ratios[1] > ratios[2]


def test_generator_phase_within_constant_of_w_over_log_w():
    for w in (256, 1024, 4096):
        _, report = build_code(w, None, 2)
        assert report.generator_total() <= 12 * (w / math.log2(w))


def test_cost_report_shape():
    _, report = build_code(16, None, 1)
    for ops in (report.construction_ops, report.encode_ops, report.generator_ops):
        assert set(ops) == {"add", "sub", "mul", "shift", "bitwise", "cmp"}
    assert report.construction_total() > report.generator_total() > 0


def test_distance_exhaustive_w10_frozen():
    code, _ = build_code(10, None, 1)
    rep = distance_report(code, "exhaustive")
    assert rep["min_bits"] == FROZEN_W10_EXHAUSTIVE_MIN_BITS
    assert rep["pairs_checked"] == (1 << 10) * ((1 << 10) - 1) // 2
    assert rep["min_bits"] >= code.guaranteed_min_bits()
    assert rep["min_relative"] == rep["min_bits"] / code.codeword_bits


def test_distance_exhaustive_level2_w10():
    code, _ = build_code(10, None, 2)
    rep = distance_report(code, "exhaustive")
    assert rep["min_bits"] >= code.guaranteed_min_bits()


@pytest.mark.parametrize("level, min_bits", [(1, 4), (2, 10)])
def test_distance_exhaustive_w12_frozen(level, min_bits):
    # Frozen; a change means the codewords or the pair scoring changed.
    code, _ = build_code(12, None, level)
    rep = distance_report(code, "exhaustive")
    assert rep["min_bits"] == min_bits
    assert rep["pairs_checked"] == (1 << 12) * ((1 << 12) - 1) // 2


def test_distance_exhaustive_rejected_above_w12():
    code, _ = build_code(16, None, 1)
    with pytest.raises(ParameterError):
        distance_report(code, "exhaustive")


def _weakened(code: EccCode) -> EccCode:
    """The code with its innermost multiplier replaced by 1, which keeps
    the construction's floor but not its distance."""
    if code.level == 1:
        i = code.inner
        return EccCode(code.params, code.gen, InnerCode(i.B, 1, i.delta, i.threshold), None)
    return EccCode(code.params, code.gen, None, _weakened(code.inner_ecc))


@pytest.mark.parametrize("level, found", [(1, 3), (2, 7)])
def test_distance_report_rejects_a_code_below_its_floor(level, found):
    code = _weakened(build_code(10, None, level)[0])
    floor = code.guaranteed_min_bits()
    assert found < floor
    for kwargs in ({"mode": "exhaustive"},
                   {"mode": "random", "samples": 20_000, "seed": 0}):
        with pytest.raises(CodeValidationError,
                           match=f"distance {found} bits violates the guaranteed floor {floor}"):
            distance_report(code, **kwargs)


def test_distance_random_deterministic_by_seed():
    code, _ = build_code(64, None, 1)
    a = distance_report(code, "random", samples=5000, seed=3)
    b = distance_report(code, "random", samples=5000, seed=3)
    assert a == b
    assert a["pairs_checked"] == 5000
    assert a["min_bits"] >= code.guaranteed_min_bits()


def test_distance_random_level2():
    code, _ = build_code(64, None, 2)
    rep = distance_report(code, "random", samples=400, seed=1)
    assert rep["min_bits"] >= code.guaranteed_min_bits()


def test_distance_random_wide_word():
    code, _ = build_code(200, None, 1)
    rep = distance_report(code, "random", samples=200, seed=2)
    assert rep["min_bits"] >= code.guaranteed_min_bits()


def test_distance_random_wide_pinned():
    # Minimums recorded with the keys drawn as Python ints (w > 64) or as
    # a 1-D uint64 array (w <= 64); sampling every width as limb rows
    # must draw the very same keys.
    pinned = {(256, 0): 475, (256, 1): 467, (200, 0): 343, (200, 1): 334,
              (64, 0): 105, (64, 1): 102, (16, 0): 5}
    for (w, seed), min_bits in pinned.items():
        code, _ = build_code(w, None, 1)
        rep = distance_report(code, "random", samples=2000, seed=seed)
        assert rep == {"min_bits": min_bits,
                       "min_relative": min_bits / code.codeword_bits,
                       "pairs_checked": 2000}


def test_distance_random_redraws_equal_wide_keys(monkeypatch):
    # An equal pair would measure 0 bits and fail the floor, so only a
    # row-wise redraw lets this report through.
    xs = np.arange(12, dtype=np.uint64).reshape(3, 4)
    ys = xs + np.uint64(100)
    ys[0, :3] = xs[0, :3]  # three limbs of four agree: a distinct key
    ys[1] = xs[1]          # every limb agrees: the same key
    draws = [xs, ys, xs[1:2] + np.uint64(200)]

    class ScriptedRng:
        def integers(self, low, high, size, dtype):
            assert np.shape(draws[0]) == size
            return draws.pop(0).copy()

    code, _ = build_code(256, None, 1)
    monkeypatch.setattr(np.random, "default_rng", lambda seed: ScriptedRng())
    rep = distance_report(code, "random", samples=3, seed=0)
    assert draws == [] and rep["pairs_checked"] == 3


def random_distance_on_rows(code, samples, seed):
    """The random mode scored on joined codewords: `_batch_encode` limb
    rows, whose limbs are fields at stride 64."""
    w = code.params.w
    rng = np.random.default_rng(seed)
    xs, ys = _sample_keys(rng, w, samples), _sample_keys(rng, w, samples)
    dup = (xs == ys).reshape(samples, -1).all(axis=1)
    while dup.any():
        ys[dup] = _sample_keys(rng, w, int(dup.sum()))
        dup = (xs == ys).reshape(samples, -1).all(axis=1)
    return paired_min_hamming(_batch_encode(code, xs).T, _batch_encode(code, ys).T)


@pytest.mark.parametrize("w, level", [(10, 1), (64, 1), (100, 1), (1024, 1),
                                      (10, 2), (64, 2), (1024, 2), (8192, 2)])
def test_distance_random_fields_match_limb_rows(w, level):
    # Field-by-field scoring equals scoring the joined codewords, over
    # runs that span several field chunks where the code allows.
    code, _ = build_code(w, None, level)
    samples = min(2 * _chunk_keys(code) + 3, 2000)
    for seed in (0, 1, 2):
        rep = distance_report(code, "random", samples=samples, seed=seed)
        assert rep["min_bits"] == random_distance_on_rows(code, samples, seed)


def test_distance_rejects_bad_mode_and_samples():
    code, _ = build_code(16, None, 1)
    with pytest.raises(ParameterError,
                       match="mode must be 'exhaustive' or 'random', got 'Random'"):
        distance_report(code, "Random")
    with pytest.raises(ParameterError):
        distance_report(code, "random", samples=0)
    with pytest.raises(ParameterError, match="seed must be non-negative"):
        distance_report(code, "random", samples=10, seed=-1)
    for kwargs, msg in (({"samples": 10.0}, "samples must be an integer, not float"),
                        ({"samples": "10"}, "samples must be an integer, not str"),
                        ({"seed": 1.5}, "seed must be an integer, not float"),
                        ({"samples": True}, "samples must be an integer, not bool"),
                        ({"seed": False}, "seed must be an integer, not bool")):
        with pytest.raises(ParameterError, match=msg):
            distance_report(code, "random", **kwargs)
    assert (distance_report(code, "random", samples=np.int64(50), seed=np.uint8(3))
            == distance_report(code, "random", samples=50, seed=3))


def test_serialize_round_trip():
    for w, level in ((10, 1), (16, 1), (64, 1), (256, 1), (10, 2), (64, 2)):
        code, _ = build_code(w, None, level)
        again = deserialize(serialize(code))
        assert again == code


def test_serialize_deterministic_and_bounded():
    for w in (64, 256):
        for level in (1, 2):
            code, _ = build_code(w, None, level)
            blob = serialize(code)
            assert blob == serialize(code)
            assert len(blob) * 8 < 64 * w


def test_serialized_shape():
    code, _ = build_code(64, None, 2)
    obj = json.loads(serialize(code))
    assert set(obj) == {"version", "level", "w", "B", "P", "alpha", "r_deg",
                        "S", "g_coeffs", "m", "delta_num", "delta_den", "inner"}
    assert obj["version"] == 1
    assert obj["m"] is None
    assert obj["inner"]["m"] == 3
    assert obj["inner"]["inner"] is None
    assert obj["delta_num"] == 1 and obj["delta_den"] == 2


def test_deserialize_rejects_malformed():
    code, _ = build_code(16, None, 1)
    blob = serialize(code)
    with pytest.raises(CodecFormatError):
        deserialize(b"not json at all")
    with pytest.raises(CodecFormatError, match="not a text description"):
        deserialize(b"\xff")
    with pytest.raises(CodecFormatError):
        deserialize(blob[: len(blob) // 2])
    with pytest.raises(CodecFormatError):
        deserialize(b"[1, 2, 3]")
    obj = json.loads(blob)
    del obj["P"]
    with pytest.raises(CodecFormatError):
        deserialize(json.dumps(obj))
    obj = json.loads(blob)
    obj["surprise"] = 1
    with pytest.raises(CodecFormatError):
        deserialize(json.dumps(obj))
    obj = json.loads(blob)
    obj["m"] = None
    with pytest.raises(CodecFormatError):
        deserialize(json.dumps(obj))
    obj = json.loads(blob)
    obj["delta_den"] = 0
    with pytest.raises(CodecFormatError):
        deserialize(json.dumps(obj))
    for key, value in (("m", True), ("w", 16.0), ("P", True), ("g_coeffs", [14, 1.0])):
        obj = json.loads(blob)
        obj[key] = value
        with pytest.raises(CodecFormatError):
            deserialize(json.dumps(obj))
    # Integers past Python's digit limit and nesting past the recursion
    # limit both fail inside the JSON parser.
    with pytest.raises(CodecFormatError):
        deserialize(blob.replace(b'"w":16', b'"w":1' + b"0" * 5000))
    with pytest.raises(CodecFormatError):
        deserialize(b"[" * 100_000)
    with pytest.raises(CodecFormatError):
        deserialize('{"inner":' * 100_000)


def test_deserialize_rejects_malformed_inner():
    code, _ = build_code(64, None, 2)
    blob = serialize(code)
    obj = json.loads(blob)
    del obj["inner"]["S"]
    with pytest.raises(CodecFormatError):
        deserialize(json.dumps(obj))
    for key, value in (("w", 7.0), ("m", True), ("version", 1.0)):
        obj = json.loads(blob)
        obj["inner"][key] = value
        with pytest.raises(CodecFormatError):
            deserialize(json.dumps(obj))
    obj = json.loads(blob)
    obj["inner"]["version"] = 2
    with pytest.raises(CodecVersionError):
        deserialize(json.dumps(obj))
    # Messages name the level by the field's path; the top level's do not.
    for where in ("inner", None):
        obj = json.loads(blob)
        (obj if where is None else obj[where])["w"] = 7.0
        field = "w" if where is None else f"{where}.w"
        with pytest.raises(CodecFormatError) as exc:
            deserialize(json.dumps(obj))
        assert str(exc.value) == f"field {field!r} must be an integer"
    obj = json.loads(blob)
    del obj["inner"]["S"]
    with pytest.raises(CodecFormatError) as exc:
        deserialize(json.dumps(obj))
    assert str(exc.value) == "missing fields: ['inner.S']"


def test_deserialize_rejects_unknown_version():
    code, _ = build_code(16, None, 1)
    obj = json.loads(serialize(code))
    obj["version"] = 2
    with pytest.raises(CodecVersionError):
        deserialize(json.dumps(obj))


def test_deserialize_rejects_tampered_values():
    code, _ = build_code(16, None, 1)
    blob = serialize(code)

    def tampered(**changes):
        obj = json.loads(blob)
        obj.update(changes)
        return json.dumps(obj)

    with pytest.raises(CodeValidationError):
        deserialize(tampered(P=19))
    with pytest.raises(CodeValidationError):
        deserialize(tampered(alpha=5))
    with pytest.raises(CodeValidationError):
        deserialize(tampered(g_coeffs=[1, 1]))
    with pytest.raises(CodeValidationError):
        deserialize(tampered(m=5))
    with pytest.raises(CodeValidationError):
        deserialize(tampered(w=9999))
    # A non-reduced delta names the same code but is not its description.
    with pytest.raises(CodeValidationError, match="delta_num=2"):
        deserialize(tampered(delta_num=2, delta_den=4))
    with pytest.raises(CodeValidationError, match="stored m=5 but w=16 rebuilds m=3"):
        deserialize(tampered(m=5))


def test_deserialize_verifies_stored_multiplier_before_rebuilding(monkeypatch):
    # A stored delta out of reach would make the rebuild scan every
    # candidate; the stored m is checked against it first.  The check
    # starts with the search's own refusals, so a delta outside the
    # search's domain is refused before any pair distance is measured.
    def no_scan(*args):
        raise AssertionError("deserialize scanned for a multiplier")

    def no_pair_distance(*args):
        raise AssertionError("deserialize measured a pair distance")

    obj = json.loads(_description(256, 1))
    monkeypatch.setattr(_kernels, "scan_multiplier", no_scan)
    obj["delta_num"], obj["delta_den"] = 9, 8
    with pytest.raises(CodeValidationError,
                       match="multiplier 185 has pair distance 4, below threshold 9 for B=8"):
        deserialize(json.dumps(obj))
    monkeypatch.setattr(_kernels, "pair_min_distance", no_pair_distance)
    for num, refusal in ((0, "delta must be positive, got 0"),
                         (-1, "delta must be positive, got -1"),
                         (2, "no multiplier reaches delta=2 for B=8"),
                         (3, "no multiplier reaches delta=3 for B=8")):
        obj["delta_num"], obj["delta_den"] = num, 1
        with pytest.raises(CodeValidationError, match=refusal):
            deserialize(json.dumps(obj))
    for m in (0, -1, 1 << 33, 1 << 70):
        obj = json.loads(_description(256, 1))
        obj["m"] = m
        with pytest.raises(CodeValidationError, match=r"outside \[1, 2\^27\) for B=8"):
            deserialize(json.dumps(obj))


def test_deserialize_derives_each_level_once(monkeypatch):
    # One prime scan and root search per code level: the stored-m check
    # and the rebuild share the level-1 parameters.
    import wordcode.ecc_core as ecc_core

    blobs = {level: serialize(build_code(64, None, level)[0]) for level in (1, 2)}
    derived = []

    def counting(w):
        derived.append(w)
        return _derive_params_any(w)

    monkeypatch.setattr(ecc_core, "_derive_params_any", counting)
    for level, widths in ((1, [64]), (2, [64, 7])):
        derived.clear()
        deserialize(blobs[level])
        assert derived == widths, level


def test_deserialize_rejects_tampered_level2():
    code, _ = build_code(64, None, 2)
    blob = serialize(code)
    obj = json.loads(blob)
    obj["inner"]["w"] = 10
    with pytest.raises(CodeValidationError):
        deserialize(json.dumps(obj))
    obj = json.loads(blob)
    obj["m"] = 29
    with pytest.raises(CodeValidationError):
        deserialize(json.dumps(obj))
    obj = json.loads(blob)
    obj["inner"] = None
    with pytest.raises(CodecFormatError):
        deserialize(json.dumps(obj))
    obj = json.loads(blob)
    obj["delta_num"], obj["delta_den"] = 1, 3
    with pytest.raises(CodeValidationError):
        deserialize(json.dumps(obj))
    # Level 2 inside level 2, one deep and many deep: the comparison
    # rejects both, without descending the nesting.
    obj = json.loads(blob)
    obj["inner"] = json.loads(blob)
    with pytest.raises(CodeValidationError, match="inner.level=2"):
        deserialize(json.dumps(obj))
    nested = json.loads(blob)
    for _ in range(200):
        outer = json.loads(blob)
        outer["inner"] = nested
        nested = outer
    with pytest.raises(CodeValidationError, match="inner.level=2"):
        deserialize(json.dumps(nested))


@functools.cache
def _description(w, level):
    return serialize(build_code(w, None, level)[0])


def _int_paths(obj, path=()):
    """Paths to every integer of a description, nested ones included."""
    if isinstance(obj, dict):
        items = obj.items()
    elif isinstance(obj, list):
        items = enumerate(obj)
    else:
        return [path] if type(obj) is int else []
    return [p for key, value in items for p in _int_paths(value, path + (key,))]


@settings(deadline=None, max_examples=80, database=None)
@given(data=st.data())
def test_deserialize_accepts_exactly_what_rebuilds(data):
    # One integer field moved by +-k: either the description is rejected,
    # or it names a code (w=16 -> 15 rebuilds the same fields) whose own
    # description is the tampered one, byte for byte.
    obj = json.loads(_description(*data.draw(st.sampled_from([(16, 1), (64, 2)]))))
    path = data.draw(st.sampled_from(_int_paths(obj)))
    k = data.draw(st.integers(-8, 8).filter(bool))
    target = obj
    for key in path[:-1]:
        target = target[key]
    target[path[-1]] += k
    tampered = json.dumps(obj, separators=(",", ":")).encode("ascii")
    try:
        code = deserialize(tampered)
    except CodecError:
        return
    assert serialize(code) == tampered
