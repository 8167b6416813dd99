"""Accelerated kernels against pure-Python oracles.

Model-level correctness of what they compute is covered by the module
tests that consume them.
"""

import math

import numpy as np
from hypothesis import example, given, settings, strategies as st

from wordcode import _kernels


def pair_min_distance_oracle(m, bits):
    mask = (1 << (4 * (bits + 1))) - 1
    codes = [(a * m) & mask for a in range(1 << (bits + 1))]
    return min(bin(x ^ y).count("1")
               for i, x in enumerate(codes) for y in codes[i + 1:])


def scan_multiplier_oracle(bits, m_lo, m_hi, threshold):
    for m in range(m_lo, m_hi):
        if pair_min_distance_oracle(m, bits) >= threshold:
            return m
    return -1


def test_scan_multiplier_backends_agree():
    for bits in (3, 4):
        for t in (1, 2, 3):
            assert (_kernels.scan_multiplier(bits, 1, 4000, t)
                    == scan_multiplier_oracle(bits, 1, 4000, t))
    assert _kernels.scan_multiplier(3, 1, 3, 3) == -1
    assert scan_multiplier_oracle(3, 1, 3, 3) == -1
    # At B=5, T=3 every nonzero image of 7, 14, 15 and 21 weighs at
    # least 3 bits, yet two of their images lie closer: the weight
    # prefilter alone would accept them, the pair check must not.
    assert _kernels.scan_multiplier(5, 1, 4096, 3) == 23
    assert scan_multiplier_oracle(5, 1, 4096, 3) == 23
    assert _kernels.scan_multiplier(5, 7, 8, 3) == -1
    assert _kernels.scan_multiplier(5, 8, 4096, 3) == 23


def test_scan_multiplier_across_block_boundaries(monkeypatch):
    # With the cap set to 64 candidates per block at B=3, blocks start at
    # offsets 0, 64, 128, ... from m_lo.  At B=3, T=5 the first
    # qualifying m is 557, so windows ending there put the answer, or
    # m_hi, on each side of a boundary.  The default cap holds every
    # window in one block.
    first = 557
    assert scan_multiplier_oracle(3, 1, first + 1, 5) == first
    for cap in (_kernels._SCAN_BLOCK_ENTRIES, 64 * 16):
        monkeypatch.setattr(_kernels, "_SCAN_BLOCK_ENTRIES", cap)
        for edge in (64, 192, 448):
            for k in (edge - 1, edge, edge + 1):
                lo = first - k
                # The answer at offset k from m_lo.
                assert _kernels.scan_multiplier(3, lo, lo + 600, 5) == first, (cap, k)
                # m_hi just below, at and just above the answer.
                for hi in (first, first + 1):
                    assert (_kernels.scan_multiplier(3, lo, hi, 5)
                            == scan_multiplier_oracle(3, lo, hi, 5)), (cap, k, hi)
            # m_hi on a boundary, the window empty of answers.
            lo = first - edge - 5
            assert _kernels.scan_multiplier(3, lo, lo + edge, 5) == -1
        # Empty and reversed windows.
        assert _kernels.scan_multiplier(3, first, first, 5) == -1
        assert _kernels.scan_multiplier(3, first + 1, first, 5) == -1
        # A later answer at B=4, T=6 (4887), in windows across many blocks.
        for lo in (4887 - 448, 4887 - 447, 4887 - 1000):
            assert _kernels.scan_multiplier(4, lo, 5000, 6) == 4887


def test_pair_min_distance_backends_agree():
    for bits in (3, 4, 5):
        for m in (1, 13, 977, 4095):
            assert (_kernels.pair_min_distance(m, bits)
                    == pair_min_distance_oracle(m, bits))


def test_min_pairwise_hamming_backends_agree():
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 1 << 63, size=(64, 5), dtype=np.uint64)
    assert _kernels.min_pairwise_hamming(rows) > 0
    # Duplicate a row: the minimum collapses to zero.
    rows[10] = rows[42]
    assert _kernels.min_pairwise_hamming(rows) == 0


def test_min_pairwise_hamming_matches_oracle():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 1 << 63, size=(20, 3), dtype=np.uint64)
    best = 1 << 30
    for i in range(19):
        for j in range(i + 1, 20):
            d = sum(bin(int(rows[i, t]) ^ int(rows[j, t])).count("1")
                    for t in range(3))
            best = min(best, d)
    assert _kernels.min_pairwise_hamming(rows) == best


def test_paired_min_hamming_matches_oracle():
    # Keys as columns of fields below 2^width: the distance of a pair is
    # that of its two codewords, the fields joined by Python shifts.
    rng = np.random.default_rng(13)
    for width, count in ((20, 9), (63, 4), (1, 70)):
        a = rng.integers(0, 1 << width, size=(count, 100), dtype=np.uint64)
        b = rng.integers(0, 1 << width, size=(count, 100), dtype=np.uint64)
        pairs = zip(join_oracle(a.T.tolist(), width), join_oracle(b.T.tolist(), width))
        expected = min(bin(x ^ y).count("1") for x, y in pairs)
        assert _kernels.paired_min_hamming(a, b) == expected
    assert _kernels.paired_min_hamming(a[:, :0], b[:, :0]) == 1 << 62


def _batch_keys(rng, w, n):
    """0, 1, 2^w - 1 and n seeded full-range keys, as Python ints."""
    draws = rng.integers(0, 1 << 64, size=(n, -(-w // 64)), dtype=np.uint64)
    rand = [sum(int(c) << (64 * t) for t, c in enumerate(row)) % (1 << w)
            for row in draws]
    return [0, 1, (1 << w) - 1] + rand


def join_oracle(rows, width):
    """Field f of each row at bit f * width, by Python shifts and ORs."""
    out = []
    for row in rows:
        acc = 0
        for f, v in enumerate(row):
            acc |= v << (f * width)
        out.append(acc)
    return out


@st.composite
def join_inputs(draw):
    width = draw(st.integers(1, 63))
    # The (limb, offset) pattern of the fields repeats every `period`
    # fields; counts off that multiple end the run mid-pattern.
    period = 64 // math.gcd(width, 64)
    count = draw(st.integers(1, 3 * period).filter(lambda c: c % period))
    keys = draw(st.sampled_from([0, 1, 2, 7]))
    value = st.integers(0, (1 << width) - 1)
    rows = draw(st.lists(st.lists(value, min_size=count, max_size=count),
                         min_size=keys, max_size=keys))
    return width, count, rows


# Full fields set every bit of the run, so a lost spill or a field ORed
# into the wrong limb shows; 1 and 63 are the extreme widths.
@example((63, 65, [[(1 << 63) - 1] * 65] * 2))
@example((1, 65, [[1] * 65]))
@example((40, 9, [[(1 << 40) - 1] * 9] * 3))
@settings(max_examples=100, deadline=None)
@given(join_inputs())
def test_join_fields_matches_shift_or_oracle(case):
    width, count, rows = case
    limbs = -(-count * width // 64)
    fields = np.array(rows, dtype=np.uint64).reshape(len(rows), count).T
    out = _kernels.join_fields(fields, width, limbs)
    assert out.shape == (len(rows), limbs)
    got = [sum(int(limb) << (64 * t) for t, limb in enumerate(row)) for row in out]
    assert got == join_oracle(rows, width)


def test_batch_encode_backends_agree():
    from wordcode import ecc_core

    # The batch path against the scalar encoder, bit for bit, at both
    # levels: a 1-D uint64 array up to w=64, `_key_rows` limb rows
    # everywhere.
    rng = np.random.default_rng(19)
    cases = [(w, 1, 60) for w in (10, 16, 63, 64, 65, 100, 256, 1024)]
    cases += [(10, 2, 12), (64, 2, 8), (256, 2, 4), (1024, 2, 3), (8192, 2, 2)]
    cases = [(w, level, _batch_keys(rng, w, n)) for w, level, n in cases]
    cases.append((64, 1, []))
    # Batches one chunk and three keys long.
    for w, level in ((1024, 1), (8192, 2)):
        code, _ = ecc_core.build_code(w, None, level)
        cases.append((w, level, _batch_keys(rng, w, ecc_core._chunk_keys(code))))
    # All-ones keys give every block its largest value, so the
    # convolution sums peak: the widest w of each level-1 block width,
    # and the widest level-2 code.
    cases += [(w, 1, [(1 << w) - 1] * 2) for w in (16, 32, 64, 128, 256, 512, 1024)]
    cases.append((8192, 2, [(1 << 8192) - 1]))
    for w, level, keys in cases:
        code, _ = ecc_core.build_code(w, None, level)
        spellings = [ecc_core._key_rows(keys, w)]
        if w <= 64:
            spellings.append(np.array(keys, dtype=np.uint64))
        expected = [int(ecc_core.encode(code, k)) for k in keys]
        for arr in spellings:
            rows = ecc_core._batch_encode(code, arr)
            assert rows.shape == (len(keys), -(-code.codeword_bits // 64))
            assert rows.dtype == np.uint64
            for k, row, want in zip(keys, rows, expected):
                batch = sum(int(limb) << (64 * t) for t, limb in enumerate(row))
                assert batch == want, (w, level, hex(k))
