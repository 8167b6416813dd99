"""Accelerated kernels against pure-Python oracles.

Model-level correctness of what they compute is covered by the module
tests that consume them.
"""

import numpy as np

from wordcode import _kernels


def popcount_rows_oracle(a, b):
    return [bin(int(x) ^ int(y)).count("1") for x, y in zip(a, b)]


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
    rng = np.random.default_rng(13)
    a = rng.integers(0, 1 << 63, size=(100, 4), dtype=np.uint64)
    b = rng.integers(0, 1 << 63, size=(100, 4), dtype=np.uint64)
    per_limb = [popcount_rows_oracle(a[:, t], b[:, t]) for t in range(4)]
    expected = min(sum(row) for row in zip(*per_limb))
    assert _kernels.paired_min_hamming(a, b) == expected


def _batch_keys(rng, w, n):
    """0, 1, 2^w - 1 and n seeded full-range keys, as Python ints."""
    draws = rng.integers(0, 1 << 64, size=(n, -(-w // 64)), dtype=np.uint64)
    rand = [sum(int(c) << (64 * t) for t, c in enumerate(row)) % (1 << w)
            for row in draws]
    return [0, 1, (1 << w) - 1] + rand


def test_batch_encode_backends_agree():
    from wordcode import ecc_core

    # The batch path against the scalar encoder, bit for bit, at both
    # levels: uint64 keys up to w=64, Python-int keys everywhere.
    rng = np.random.default_rng(19)
    cases = [(w, 1, 60) for w in (10, 16, 63, 64, 65, 100, 256, 1024)]
    cases += [(10, 2, 12), (64, 2, 8), (256, 2, 4)]
    for w, level, n in cases:
        code, _ = ecc_core.build_code(w, None, level)
        keys = _batch_keys(rng, w, n)
        spellings = [np.array(keys, dtype=object)]
        if w <= 64:
            spellings.append(np.array(keys, dtype=np.uint64))
        expected = [int(ecc_core.encode(code, k)) for k in keys]
        for arr in spellings:
            rows = ecc_core._batch_encode(code, arr)
            assert rows.shape == (len(keys), -(-code.codeword_bits // 64))
            for k, row, want in zip(keys, rows, expected):
                batch = sum(int(limb) << (64 * t) for t, limb in enumerate(row))
                assert batch == want, (w, level, k)
