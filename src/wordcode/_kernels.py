"""Hot loops behind the model-level API, vectorised with numpy.

Everything here is a bit-exact accelerator for searches and bulk
measurements: multiplier scans, all-pairs Hamming minima, and a batched
level-1 encoder for word sizes up to 64.  None of it touches the
operation ledger; model costs are always charged by the calling layer
from closed-form counts, so how a kernel orders or cuts short its work
never changes a ledger.  `np.bitwise_count` needs NumPy 2.0 or later.
"""

from __future__ import annotations

import numpy as np

# Size of one prefilter block in `scan_multiplier`, counted in
# multiplier-by-value products: 1M uint64 entries, about 8 MB.
_SCAN_BLOCK_ENTRIES = 1 << 20


def backend_name() -> str:
    return "numpy"


def _pair_codes(m: int, b_bits: int):
    out_bits = 4 * (b_bits + 1)
    mask = np.uint64((1 << out_bits) - 1)
    vals = np.arange(1 << (b_bits + 1), dtype=np.uint64)
    return (vals * np.uint64(m)) & mask


def _codes_min_distance(codes, stop_below: int) -> int:
    n = codes.shape[0]
    best = 1 << 30
    for i in range(n - 1):
        d = int(np.bitwise_count(codes[i + 1:] ^ codes[i]).min())
        if d < best:
            best = d
            if best < stop_below:
                return best
    return best


def pair_min_distance(m: int, b_bits: int) -> int:
    return _codes_min_distance(_pair_codes(m, b_bits), 0)


def scan_multiplier(b_bits: int, m_lo: int, m_hi: int, threshold: int) -> int:
    """Smallest m in [m_lo, m_hi) whose images are pairwise >= threshold apart.

    Returns -1 when no m qualifies.  The pair (0, v) is at distance
    weight(v*m), so a block of candidates is first cut down, in one
    vectorised step, to those whose nonzero images all weigh at least
    `threshold`; only the survivors, in ascending order, get the full
    pair check.
    """
    values = 1 << (b_bits + 1)
    out_mask = np.uint64((1 << (4 * (b_bits + 1))) - 1)
    nonzero = np.arange(1, values, dtype=np.uint64)
    block = max(1, _SCAN_BLOCK_ENTRIES // values)
    for lo in range(m_lo, m_hi, block):
        ms = np.arange(lo, min(lo + block, m_hi), dtype=np.uint64)
        weights = np.bitwise_count((ms[:, None] * nonzero) & out_mask)
        for m in ms[weights.min(axis=1) >= threshold]:
            # Not `pair_min_distance`: a profile of that name should
            # time only the independent verification of the result.
            if _codes_min_distance(_pair_codes(int(m), b_bits),
                                   threshold) >= threshold:
                return int(m)
    return -1


def min_pairwise_hamming(limbs: np.ndarray, stop_below: int = 0) -> int:
    n = limbs.shape[0]
    best = 1 << 62
    for i in range(n - 1):
        d = int(np.bitwise_count(limbs[i + 1:] ^ limbs[i]).sum(axis=1).min())
        if d < best:
            best = d
            if best < stop_below:
                return best
    return best


def paired_min_hamming(a: np.ndarray, b: np.ndarray) -> int:
    if a.shape[0] == 0:
        return 1 << 62
    best = 1 << 62
    chunk = 1 << 16
    for lo in range(0, a.shape[0], chunk):
        d = np.bitwise_count(a[lo:lo + chunk] ^ b[lo:lo + chunk]).sum(axis=1).min()
        best = min(best, int(d))
    return best


def batch_encode_small(keys, w, b_bits, n_blocks, bpw, out_slots, s_bits,
                       prime, mult, g_coeffs, out_limbs):
    """Level-1 encode of many w-bit keys at once, w ≤ 64."""
    keys = np.asarray(keys, dtype=np.uint64)
    n = keys.shape[0]
    pad = n_blocks * b_bits - w
    block_mask = np.uint64((1 << b_bits) - 1)
    blocks = np.empty((n, n_blocks), dtype=np.int64)
    for j in range(n_blocks):
        shift = (n_blocks - 1 - j) * b_bits - pad
        if shift >= 0:
            blocks[:, j] = ((keys >> np.uint64(shift)) & block_mask).astype(np.int64)
        else:
            keep = np.uint64((1 << (b_bits + shift)) - 1)
            blocks[:, j] = ((keys & keep) << np.uint64(-shift)).astype(np.int64)
    g = np.asarray(g_coeffs, dtype=np.int64)
    out = np.zeros((n, out_limbs), dtype=np.uint64)
    word_bits = out_slots * s_bits
    for i in range(5):
        conv = np.zeros((n, out_slots), dtype=np.int64)
        for t in range(bpw):
            j = i + 5 * t
            if j >= n_blocks:
                break
            col = blocks[:, j]
            for k in range(g.shape[0]):
                conv[:, t + k] += col * int(g[k])
        sym = (conv % prime).astype(np.uint64) * np.uint64(mult)
        for k in range(out_slots):
            off = i * word_bits + k * s_bits
            idx, lo = off >> 6, off & 63
            out[:, idx] |= (sym[:, k] << np.uint64(lo)) & np.uint64(0xFFFFFFFFFFFFFFFF)
            if lo + s_bits > 64:
                out[:, idx + 1] |= sym[:, k] >> np.uint64(64 - lo)
    return out
