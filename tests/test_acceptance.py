"""Acceptance gate: ten end-to-end checks, one verdict line each.

Run with `pytest tests/test_acceptance.py -s` to see the verdict lines.
Every check either passes against an independent oracle or fails
loudly; nothing here consults the implementation for expected values
except where a regression constant was frozen from a previous
exhaustive run.
"""

import json
import math
import random
import time
from contextlib import contextmanager
from fractions import Fraction

import numpy as np
import pytest

from _oracles import parallel_mod_reference, symbolic_generator
from wordcode.bulk import min_weight_multiple_check
from wordcode.ecc_core import (
    build_code,
    deserialize,
    distance_report,
    encode,
    serialize,
)
from wordcode.errors import (
    CodecFormatError,
    CodecVersionError,
    CodeValidationError,
)
from wordcode.inner_mult import find_multiplier
from wordcode.outer_rs import build_generator, derive_params
from wordcode.sighash import build_signature, cap_constant, verify_injective
from wordcode.wordram import (
    FieldLayout,
    OpLedger,
    WideInt,
    _ParallelModPlan,
    parallel_mod,
)


@contextmanager
def verdict(num: int, name: str):
    started = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"criterion {num:02d} ({name}): FAIL "
              f"[{time.monotonic() - started:.1f}s]")
        raise
    print(f"criterion {num:02d} ({name}): PASS "
          f"[{time.monotonic() - started:.1f}s]")


@pytest.fixture(scope="module")
def code64():
    code, report = build_code(64, None, 1)
    return code, report


def _pack_rows(rows: np.ndarray, layout: FieldLayout):
    """64-bit slots let numpy's little-endian byte order do the packing."""
    assert layout.slot_width == 64
    for row in rows:
        value = int.from_bytes(row.astype("<u8").tobytes(), "little")
        yield WideInt(value, layout.total_bits)


def test_criterion_01_parallel_mod_equivalence():
    with verdict(1, "parallel-mod equivalence"):
        started = time.monotonic()
        mismatches = 0
        for divisor, v in ((17, 12), (67, 20), (257, 22)):
            # Exhaustive: every value in [0, 2^v) appears in some slot.
            slots = 4096
            layout = FieldLayout(64, slots, v)
            plan = _ParallelModPlan(layout, divisor)
            ledger = OpLedger(64)
            total = 1 << v
            for lo in range(0, total, slots):
                vals = np.arange(lo, min(lo + slots, total), dtype=np.uint64)
                if vals.shape[0] < slots:
                    pad = np.zeros(slots - vals.shape[0], dtype=np.uint64)
                    vals = np.concatenate([vals, pad])
                for word in _pack_rows(vals[None, :], layout):
                    fast = parallel_mod(word, plan, ledger)
                    slow = parallel_mod_reference(word, layout, divisor)
                    if fast != slow:
                        mismatches += 1
            # Plus 10^5 random packed words in a narrower layout.
            layout = FieldLayout(64, 8, v)
            plan = _ParallelModPlan(layout, divisor)
            ledger = OpLedger(64)
            rng = np.random.default_rng(1000 + divisor)
            rows = rng.integers(0, 1 << v, size=(100_000, 8), dtype=np.uint64)
            for word in _pack_rows(rows, layout):
                if parallel_mod(word, plan, ledger) != \
                        parallel_mod_reference(word, layout, divisor):
                    mismatches += 1
        elapsed = time.monotonic() - started
        assert mismatches == 0
        assert elapsed < 60.0


def test_criterion_02_generator_matches_symbolic_oracle():
    with verdict(2, "generator coefficients"):
        for w in (10, 16, 32, 64, 256):
            p = derive_params(w)
            g = build_generator(p, OpLedger(w))
            oracle = symbolic_generator(p.P, p.alpha, p.r_deg)
            assert list(g.coeffs) == oracle, f"w={w}"
            if w == 64:
                assert list(g.coeffs) == [3, 56, 53, 1]


def test_criterion_03_outer_distance_bch_bound():
    with verdict(3, "outer distance bound"):
        for w in (10, 16):
            p = derive_params(w)
            g = build_generator(p, OpLedger(w))
            best = min_weight_multiple_check(g, p, mode="exhaustive")
            assert best >= p.r_deg + 1
        for w in (64, 256):
            p = derive_params(w)
            g = build_generator(p, OpLedger(w))
            best = min_weight_multiple_check(g, p, mode="random",
                                             samples=100_000, seed=0)
            assert best >= p.r_deg + 1


def test_criterion_04_inner_code_exists():
    with verdict(4, "inner code search"):
        for b in (4, 5, 6, 7, 8):
            started = time.monotonic()
            inner = find_multiplier(b, Fraction(1, 2), OpLedger(64))
            assert time.monotonic() - started < 60.0
            assert inner.threshold == math.ceil(b / 2)
            # Independent re-scan over every pair, plain ints only.
            out_bits = 4 * (b + 1)
            mask = (1 << out_bits) - 1
            codes = [(x * inner.m) & mask for x in range(1 << b)]
            worst = out_bits
            for i in range(len(codes)):
                for j in range(i + 1, len(codes)):
                    d = bin(codes[i] ^ codes[j]).count("1")
                    if d < worst:
                        worst = d
            assert worst >= inner.threshold


def test_criterion_05_end_to_end_distance(code64):
    with verdict(5, "end-to-end distance"):
        started = time.monotonic()
        code10, _ = build_code(10, None, 1)
        report = distance_report(code10, "exhaustive")
        floor = code10.guaranteed_min_bits()
        assert report["pairs_checked"] == (1 << 10) * ((1 << 10) - 1) // 2
        assert report["min_bits"] >= floor > 0
        # Frozen after the first exhaustive run; a change means the
        # construction itself changed.
        assert report["min_bits"] == 4

        code, _ = code64
        report = distance_report(code, "random", samples=1_000_000, seed=0)
        assert report["min_bits"] >= code.guaranteed_min_bits()
        assert time.monotonic() - started < 120.0


def test_criterion_06_constant_time_encode(code64):
    with verdict(6, "constant-time encode"):
        totals = {}
        for w in (64, 1024):
            code, _ = (code64 if w == 64 else build_code(w, None, 1))
            rng = random.Random(w)
            ledgers = set()
            for _ in range(1000):
                ledger = OpLedger(w)
                encode(code, WideInt(rng.randrange(1 << w), w), ledger)
                ledgers.add(tuple(sorted(ledger.as_dict().items())))
            assert len(ledgers) == 1, f"w={w}: encode cost varies with input"
            totals[w] = sum(dict(next(iter(ledgers))).values())
        assert totals[1024] <= totals[64]


def test_criterion_06_constant_time_encode_level2():
    # Criterion 06 at level 2, the level whose construction criterion 07
    # checks: both of the paper's claims on one code.
    with verdict(6, "constant-time encode, level 2"):
        totals = {}
        for w in (256, 1024, 4096, 8192):
            code, report = build_code(w, None, 2)
            rng = random.Random(w)
            ledgers = set()
            for _ in range(1000):
                ledger = OpLedger(w)
                encode(code, WideInt(rng.randrange(1 << w), w), ledger)
                ledgers.add(tuple(sorted(ledger.as_dict().items())))
            assert len(ledgers) == 1, f"w={w}: level-2 encode cost varies with input"
            assert dict(next(iter(ledgers))) == report.encode_ops
            totals[w] = sum(dict(next(iter(ledgers))).values())
        assert totals[256] >= totals[1024] >= totals[4096] >= totals[8192], totals


def test_criterion_07_sublinear_construction():
    with verdict(7, "sublinear construction"):
        per_word = []
        gen_ratios = []
        for w in (256, 1024, 4096):
            _, report = build_code(w, None, 2)
            per_word.append(report.construction_total() / w)
            gen_ratios.append(report.generator_total() / (w / math.log2(w)))
        assert per_word[0] > per_word[1] > per_word[2]
        assert max(gen_ratios) <= 12.0
        assert max(gen_ratios) / min(gen_ratios) <= 2.0


def test_criterion_08_codeword_size_formulas(code64):
    with verdict(8, "codeword size formulas"):
        ratios = {}
        for w in (10, 16, 64, 256, 1024):
            code, _ = (code64 if w == 64 else build_code(w, None, 1))
            p = code.params
            assert code.codeword_bits == 5 * p.out_slots * p.S
            ratios[w] = code.codeword_bits / w
        for w in (256, 1024, 4096):
            code, _ = build_code(w, None, 2)
            p = code.params
            inner = code.inner_ecc
            assert code.codeword_bits == \
                5 * p.out_slots * inner.codeword_bits
            q = inner.params
            assert inner.codeword_bits == 5 * q.out_slots * q.S
        assert all(ratios[w] <= 15.0 for w in (64, 256, 1024))
        assert ratios[64] > ratios[256] > ratios[1024]


def test_criterion_09_signature_hash(code64):
    with verdict(9, "signature hash"):
        code, _ = code64
        cap_bits = cap_constant(code) * math.log2(1000)
        for seed in (101, 202, 303):
            rng = random.Random(seed)
            keys = set()
            while len(keys) < 1000:
                keys.add(rng.randrange(1 << 64))
            keys = sorted(keys)
            started = time.monotonic()
            fn = build_signature(code, keys)
            assert time.monotonic() - started < 60.0
            assert verify_injective(fn, keys)
            assert len(fn.positions) <= cap_bits


def test_criterion_10_serialization(code64):
    with verdict(10, "serialization"):
        cases = [code64[0], build_code(256, None, 1)[0],
                 build_code(64, None, 2)[0], build_code(256, None, 2)[0]]
        for code in cases:
            blob = serialize(code)
            again = deserialize(blob)
            assert again == code
            assert serialize(again) == blob
            w = code.params.w
            rng = random.Random(w + code.level)
            for _ in range(5):
                x = WideInt(rng.randrange(1 << w), w)
                assert encode(again, x) == encode(code, x)
            if w in (64, 256):
                assert len(blob) * 8 < 64 * w

        blob = serialize(code64[0])
        obj = json.loads(blob)

        with pytest.raises(CodecFormatError):
            deserialize(b"{not json")
        versioned = dict(obj)
        versioned["version"] = 2
        with pytest.raises(CodecVersionError):
            deserialize(json.dumps(versioned).encode())
        tampered = dict(obj)
        tampered["m"] = tampered["m"] + 1
        with pytest.raises(CodeValidationError):
            deserialize(json.dumps(tampered).encode())

        classes = {CodecFormatError, CodecVersionError, CodeValidationError}
        assert len(classes) == 3
