"""Hot loops behind the model-level API, vectorised with numpy.

Everything here is a bit-exact accelerator for searches and bulk
measurements: multiplier scans, the one pair scorer (least Hamming
distance over paired key columns), the one banded convolution mod P,
and the two pieces of the batch encoder, which serve every word size at
both levels: Reed-Solomon residues of many keys at once, with blocks
cut straight from the key limbs, and the join of fields below 2^S,
S < 64, at stride S into limb rows.  None of it touches the operation
ledger; model costs are always charged by the calling layer from
closed-form counts, so how a kernel orders or cuts short its work never
changes a ledger.  `np.bitwise_count` needs NumPy 2.0 or later.
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


def paired_min_hamming(a: np.ndarray, b: np.ndarray) -> int:
    """Least Hamming distance between columns a[:, k] and b[:, k].

    Keys are columns, as `batch_residues` returns them: row f holds
    field f of every key, or limb f of every joined codeword.  Either
    side may be one column, broadcast against every column of the
    other.  Fields of one key must not share a bit position once joined
    (they sit at disjoint strides), so a key pair's distance is the sum
    over rows of popcount(a ^ b).  No pair gives 2^62.
    """
    dist = np.bitwise_count(a ^ b).sum(axis=0)
    return int(dist.min()) if dist.size else 1 << 62


def limbs_to_bits(rows: np.ndarray, nbits: int) -> np.ndarray:
    """Low `nbits` bits of little-endian uint64 limb rows, one uint8 per bit."""
    raw = np.ascontiguousarray(rows, dtype="<u8").view(np.uint8)
    return np.unpackbits(raw[:, :-(-nbits // 8)], axis=1, count=nbits,
                         bitorder="little")


def batch_residues(key_cols, w, b_bits, n_blocks, bpw, prime, g_coeffs):
    """Reed-Solomon residues of the 5 split words of many keys at once.

    Keys are columns: row t of `key_cols` holds little-endian uint64
    limb t of every key, so each step below runs along whole rows.
    Blocks are B-bit cuts, most significant first, the last one
    zero-padded at its low end: shifting the keys up by that padding
    puts block i at bit (n_blocks - 1 - i) * B, and as B < 64 a block
    straddles at most two limbs, so two gathers, shifts and a mask cut
    every block.  Word j carries blocks j, j + 5, ...; its residue is
    the banded convolution of its blocks with the generator, reduced
    mod `prime` (`poly_mul_mod`).  Returns uint64 residues of shape
    (5 * (bpw + r_deg), keys), word j's slot k in row j * (bpw + r_deg) + k.
    """
    limbs, n = key_cols.shape
    pad = n_blocks * b_bits - w
    keys = np.zeros((limbs + 1, n), dtype=np.uint64)
    keys[:limbs] = key_cols << np.uint64(pad)
    if pad:
        keys[1:] |= key_cols >> np.uint64(64 - pad)
    # Row j * bpw + t of the message holds block 5t + j; blocks past
    # n_blocks are zero.
    block = (5 * np.arange(bpw) + np.arange(5)[:, None]).ravel()
    start = (n_blocks - 1 - np.minimum(block, n_blocks - 1)) * b_bits
    q, off = start // 64, (start % 64).astype(np.uint64)[:, None]
    msg = keys[q] >> off
    cross = np.flatnonzero(off[:, 0] + np.uint64(b_bits) > 64)
    msg[cross] |= keys[q[cross] + 1] << (np.uint64(64) - off[cross])
    msg &= np.uint64((1 << b_bits) - 1)
    msg[block >= n_blocks] = 0
    return poly_mul_mod(msg.reshape(5, bpw, n), g_coeffs, prime).reshape(-1, n)


def poly_mul_mod(msg: np.ndarray, g_coeffs, prime: int) -> np.ndarray:
    """Products of uint64 messages with the generator, reduced mod `prime`.

    Message coefficients run along axis -2, lowest degree first, and
    keys along axis -1, so the banded convolution is one multiply-add
    per generator coefficient over whole rows.  A sum has at most
    bpw = msg.shape[-2] terms, each below max(msg) * prime, so for
    messages below 2^B or below `prime` it is exact in uint64 at every
    word size (below 2^55 at w = 2^20).  Returns shape
    (..., bpw + len(g_coeffs) - 1, keys), every entry in [0, prime).
    """
    *lead, bpw, n = msg.shape
    acc = np.zeros((*lead, bpw + len(g_coeffs) - 1, n), dtype=np.uint64)
    for i, c in enumerate(g_coeffs):
        acc[..., i:i + bpw, :] += msg * np.uint64(c)
    p = np.uint64(prime)
    acc -= acc // p * p
    return acc


def join_fields(fields: np.ndarray, width: int, limbs: int) -> np.ndarray:
    """Join the fields of every key into one little-endian limb row.

    Keys are columns of `fields`: row f holds field f of every key,
    below 2^width with width < 64, which lands at bit f * width of its
    key's row.  Fields f and f + period, period = ceil(64 / width),
    start in different limbs, so each of `period` OR passes writes
    distinct limbs; one more pass ORs in the high parts that spill into
    the next limb, at most one per limb.  Returns (keys, limbs).
    """
    count, n = fields.shape
    start = np.arange(count) * width
    q, off = start // 64, (start % 64).astype(np.uint64)[:, None]
    out = np.zeros((limbs, n), dtype=np.uint64)
    period = -(-64 // width)
    for j in range(period):
        out[q[j::period]] |= fields[j::period] << off[j::period]
    spill = np.flatnonzero(off[:, 0] + np.uint64(width) > 64)
    out[q[spill] + 1] |= fields[spill] >> (np.uint64(64) - off[spill])
    return out.T
