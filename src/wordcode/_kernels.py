"""Hot loops behind the model-level API, vectorised with numpy.

Everything here is a bit-exact accelerator for searches and bulk
measurements: multiplier scans, all-pairs Hamming minima, and the
pieces of the batch encoder (Reed-Solomon residues of many keys at
once, and bit-level joins of fields into limb rows), which serve every
word size at both levels.  None of it touches the operation ledger;
model costs are always charged by the calling layer from closed-form
counts, so how a kernel orders or cuts short its work never changes a
ledger.  `np.bitwise_count` needs NumPy 2.0 or later.
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


def limbs_to_bits(rows: np.ndarray, nbits: int) -> np.ndarray:
    """Low `nbits` bits of little-endian uint64 limb rows, one uint8 per bit."""
    raw = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw[:, :-(-nbits // 8)], axis=1, count=nbits,
                         bitorder="little")


def bits_to_limbs(bits: np.ndarray, limbs: int) -> np.ndarray:
    """Rows of bits (column j = bit j) as little-endian uint64 limb rows."""
    packed = np.packbits(bits, axis=1, bitorder="little")
    out = np.zeros((bits.shape[0], 8 * limbs), dtype=np.uint8)
    out[:, :packed.shape[1]] = packed
    return out.view("<u8")


def batch_residues(key_rows, w, b_bits, n_blocks, bpw, prime, g_coeffs):
    """Reed-Solomon residues of the 5 split words of many keys at once.

    Each row of `key_rows` is a w-bit key in little-endian uint64 limbs.
    Bit unpacking cuts its blocks (most significant first, the last one
    zero-padded at its low end); word i carries blocks i, i+5, ...; one
    int64 product with the banded generator matrix convolves all five
    words of every key, and `% prime` reduces the coefficients.  Returns
    int64 residues of shape (keys, 5, bpw + r_deg).
    """
    n = key_rows.shape[0]
    bits = np.zeros((n, n_blocks * b_bits), dtype=np.uint8)
    bits[:, n_blocks * b_bits - w:] = limbs_to_bits(key_rows, w)
    # Chunk c of the padded key, counted from its low end, is block
    # n_blocks - 1 - c.
    weights = 1 << np.arange(b_bits, dtype=np.int64)
    chunks = bits.reshape(n, n_blocks, b_bits) @ weights
    msg = np.zeros((n, 5 * bpw), dtype=np.int64)
    msg[:, :n_blocks] = chunks[:, ::-1]
    g = np.asarray(g_coeffs, dtype=np.int64)
    band = np.zeros((bpw, bpw + g.size - 1), dtype=np.int64)
    for t in range(bpw):
        band[t, t:t + g.size] = g
    return (msg.reshape(n, bpw, 5).transpose(0, 2, 1) @ band) % prime


def concat_fields(rows: np.ndarray, field_width: int, limbs: int) -> np.ndarray:
    """Join the fields of every key into one limb row.

    `rows` has shape (keys, fields, field limbs); field f of a key, which
    must fit in `field_width` bits, lands at bit f * field_width.
    """
    n, fields, field_limbs = rows.shape
    bits = limbs_to_bits(rows.reshape(n * fields, field_limbs), field_width)
    return bits_to_limbs(bits.reshape(n, fields * field_width), limbs)
