"""Accelerated kernels against pure-Python oracles.

Model-level correctness of what they compute is covered by the module
tests that consume them.
"""

import math

import numpy as np
import pytest
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
    # Blocks start at m_lo and double from _SCAN_FIRST_BLOCK candidates
    # up to the cap.  With the first block patched to 4 candidates and
    # the cap to 16 candidates at B=3 (16 values) the blocks hold 4, 8, 16, 16, ... candidates and end at offsets
    # 4, 12, 28, 44, ...: the end of the first block, a doubling edge,
    # and an edge between two blocks at the cap.  At B=3, T=5 the first
    # qualifying m is 557, so windows ending there put the answer, or
    # m_hi, on each side of every edge.  The default cap keeps 4 and 12
    # as edges.
    first = 557
    assert scan_multiplier_oracle(3, 1, first + 1, 5) == first
    monkeypatch.setattr(_kernels, "_SCAN_FIRST_BLOCK", 4)
    for entries in (_kernels._SCAN_BLOCK_ENTRIES, 16 * 16):
        monkeypatch.setattr(_kernels, "_SCAN_BLOCK_ENTRIES", entries)
        for edge in (4, 12, 44):
            for k in (edge - 1, edge, edge + 1):
                lo = first - k
                # The answer at offset k from m_lo.
                assert _kernels.scan_multiplier(3, lo, lo + 600, 5) == first, (entries, k)
                # m_hi just below, at and just above the answer.
                for hi in (first, first + 1):
                    assert (_kernels.scan_multiplier(3, lo, hi, 5)
                            == scan_multiplier_oracle(3, lo, hi, 5)), (entries, k, hi)
            # m_hi on a boundary, the window empty of answers.
            lo = first - edge - 5
            assert _kernels.scan_multiplier(3, lo, lo + edge, 5) == -1
        # Empty and reversed windows.
        assert _kernels.scan_multiplier(3, first, first, 5) == -1
        assert _kernels.scan_multiplier(3, first + 1, first, 5) == -1
        # A later answer at B=4, T=6 (4887), in windows across many blocks.
        for lo in (4887 - 448, 4887 - 447, 4887 - 1000):
            assert _kernels.scan_multiplier(4, lo, 5000, 6) == 4887


def _row_distance(m, bits, i):
    """Least distance from image i of m to every later image."""
    mask = (1 << (4 * (bits + 1))) - 1
    codes = [(a * m) & mask for a in range(1 << (bits + 1))]
    return min(bin(codes[i] ^ y).count("1") for y in codes[i + 1:])


def test_scan_multiplier_rejects_a_close_pair_in_a_deep_row(monkeypatch):
    # Each m below clears rows 0 and 1 (every pair (0, v) and (1, v)),
    # yet has a close pair in a later row: 153 at B=7 and 155 at B=5
    # in row 7, past the first block of deep rows (2 to 5); 163 at B=7
    # in row 2.  The oracle found them; the scan must reject them.  At
    # T=4, 185 is the first m to qualify from 1 on at B=7 (it is B=7's
    # frozen multiplier) and from 155 on at B=5.
    cases = [(7, 4, 153, 7, 185), (7, 4, 163, 2, 185), (5, 4, 155, 7, 185)]
    for bits, t, m, row, answer in cases:
        assert _row_distance(m, bits, 0) >= t and _row_distance(m, bits, 1) >= t
        assert _row_distance(m, bits, row) < t
        assert min(_row_distance(m, bits, i) for i in range(row)) >= t
    assert scan_multiplier_oracle(5, 155, 186, 4) == 185
    # Small column chunks in rows 0 and 1, and one deep row per call.
    for columns, entries in ((32, 1 << 16), (1, 1), (3, 200)):
        monkeypatch.setattr(_kernels, "_SCAN_FIRST_COLUMNS", columns)
        monkeypatch.setattr(_kernels, "_ROW_CHUNK_ENTRIES", entries)
        for bits, t, m, row, answer in cases:
            assert _kernels.scan_multiplier(bits, m, m + 1, t) == -1, (columns, m)
            assert _kernels.scan_multiplier(bits, m, answer + 1, t) == answer


def test_scan_multiplier_up_to_the_no_wrap_bound(monkeypatch):
    # Below m = 2^(3(B+1)) no product wraps the 4(B+1)-bit mask, which
    # row 0's odd-v shortcut needs, so the scan takes m_hi up to that
    # bound and rejects a larger one.  Above it the shortcut would be
    # wrong: at B=2, T=2, m=683 has only odd images of weight >= 2 and
    # clears every row but 0.  Up to the bound, each m is checked alone
    # and in windows ending at the bound, at every threshold up to the
    # code length; column chunks of 1, 2, 4, ... values put chunk edges
    # inside rows 0 and 1.
    assert scan_multiplier_oracle(2, 683, 684, 2) == -1
    with pytest.raises(ValueError):
        _kernels.scan_multiplier(2, 683, 684, 2)
    for bits in (1, 2):
        bound = 1 << (3 * (bits + 1))
        ms = range(max(1, bound - 300), bound)
        for t in range(1, 4 * (bits + 1) + 1):
            accepted = [m for m in ms if pair_min_distance_oracle(m, bits) >= t]
            for columns in (_kernels._SCAN_FIRST_COLUMNS, 1):
                monkeypatch.setattr(_kernels, "_SCAN_FIRST_COLUMNS", columns)
                got = [m for m in ms if _kernels.scan_multiplier(bits, m, m + 1, t) == m]
                assert got == accepted, (bits, t, columns)
                for lo in (ms.start, bound - 16, bound - 1, bound):
                    want = next((m for m in accepted if lo <= m), -1)
                    assert (_kernels.scan_multiplier(bits, lo, bound, t)
                            == want), (bits, t, columns, lo)
            for lo, hi in ((1, bound + 1), (bound, bound + 1), (bound + 5, 1 << 40)):
                with pytest.raises(ValueError):
                    _kernels.scan_multiplier(bits, lo, hi, t)


def test_pair_min_distance_backends_agree(monkeypatch):
    # The closest pairs of 325 (B=3), 607 (B=4) and 277 (B=5) all lie
    # in row 0, and those of 4526 (B=3) only in rows 8 and up.
    cases = [(bits, m) for bits in (3, 4, 5) for m in (1, 13, 977, 4095)]
    cases += [(3, 325), (4, 607), (5, 277), (3, 4526)]
    for bits, m in cases:
        assert (_kernels.pair_min_distance(m, bits)
                == pair_min_distance_oracle(m, bits)), (bits, m)
    # Row blocks of one row, of three rows (more per block as the rows
    # shorten), and of the whole triangle, at 64 and 128 values.
    for bits in (5, 6):
        values = 1 << (bits + 1)
        for entries in (1, values - 1, values, values + 1, 3 * values,
                        values * values):
            monkeypatch.setattr(_kernels, "_ROW_CHUNK_ENTRIES", entries)
            for m in (1, 23, 29, 277, 977, 4095):
                assert (_kernels.pair_min_distance(m, bits)
                        == pair_min_distance_oracle(m, bits)), (bits, entries, m)


def all_pairs_min(rows):
    """Least distance over all pairs of limb rows, scored as exhaustive
    `distance_report` scores them: keys as contiguous columns, each
    key's one column broadcast against every later key's."""
    cols = np.ascontiguousarray(rows.T)
    return min(_kernels.paired_min_hamming(cols[:, i:i + 1], cols[:, i + 1:])
               for i in range(cols.shape[1] - 1))


def test_broadcast_pair_scoring_sees_a_duplicate():
    rng = np.random.default_rng(7)
    rows = rng.integers(0, 1 << 63, size=(64, 5), dtype=np.uint64)
    assert all_pairs_min(rows) > 0
    # Duplicate a row: the minimum collapses to zero.
    rows[10] = rows[42]
    assert all_pairs_min(rows) == 0


def test_broadcast_pair_scoring_matches_oracle():
    rng = np.random.default_rng(11)
    rows = rng.integers(0, 1 << 63, size=(20, 3), dtype=np.uint64)

    def dist(i, j):
        return sum(bin(int(rows[i, t]) ^ int(rows[j, t])).count("1") for t in range(3))

    assert all_pairs_min(rows) == min(dist(i, j) for i in range(19) for j in range(i + 1, 20))
    # The broadcast column may sit on either side.
    cols = rows.T
    assert (_kernels.paired_min_hamming(cols[:, 1:], cols[:, :1])
            == min(dist(0, j) for j in range(1, 20)))


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
    assert _kernels.paired_min_hamming(a[:, :1], b[:, :0]) == 1 << 62


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
    from wordcode import bulk, ecc_core

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
        cases.append((w, level, _batch_keys(rng, w, bulk._chunk_keys(code))))
    # All-ones keys give every block its largest value, so the
    # convolution sums peak: the widest w of each level-1 block width,
    # and the widest level-2 code.
    cases += [(w, 1, [(1 << w) - 1] * 2) for w in (16, 32, 64, 128, 256, 512, 1024)]
    cases.append((8192, 2, [(1 << 8192) - 1]))
    for w, level, keys in cases:
        code, _ = ecc_core.build_code(w, None, level)
        spellings = [bulk._key_rows(keys, w)]
        if w <= 64:
            spellings.append(np.array(keys, dtype=np.uint64))
        expected = [int(ecc_core.encode(code, k)) for k in keys]
        for arr in spellings:
            rows = bulk._batch_encode(code, arr)
            assert rows.shape == (len(keys), -(-code.codeword_bits // 64))
            assert rows.dtype == np.uint64
            for k, row, want in zip(keys, rows, expected):
                batch = sum(int(limb) << (64 * t) for t, limb in enumerate(row))
                assert batch == want, (w, level, hex(k))
