"""Hot loops behind the model-level API, vectorised with numpy.

Everything here is a bit-exact accelerator for searches and bulk
measurements: the multiplier scan and its verifier, the one pair scorer
(least Hamming distance over paired key columns), the one banded
convolution mod P, and the two pieces of the batch encoder, which serve
every word size at both levels: Reed-Solomon residues of many keys at
once, with blocks cut straight from the key limbs, and the join of
fields below 2^S, S < 64, at stride S into limb rows.  None of it
touches the operation ledger; model costs are always charged by the
calling layer from closed-form counts, so how a kernel orders or cuts
short its work never changes a ledger.  `np.bitwise_count` needs NumPy
2.0 or later.

The scan's work tracks its answer.  Candidate blocks double from
`_SCAN_FIRST_BLOCK` up to a cap, in one work buffer allocated per scan.
Below m = 2^(3(B+1)) a product of m and a (B+1)-bit value fits its
4(B+1)-bit slot, so an even value's image weighs what its odd part's
does, and the (0, v) stage needs only odd v.  The verifier,
`pair_min_distance`, checks every pair in blocks of rows, without the
scan's staged cuts.
"""

from __future__ import annotations

import numpy as np

# Largest candidate block in `scan_multiplier`, counted in
# multiplier-by-value products: 1M uint64 entries, about 8 MB.
_SCAN_BLOCK_ENTRIES = 1 << 20
# Candidates in a scan's first block, and values in the first column
# chunk of its row-0 and row-1 stages; both double from there.
_SCAN_FIRST_BLOCK = 4
_SCAN_FIRST_COLUMNS = 32
# Most pair distances per numpy call in a row check.
_ROW_CHUNK_ENTRIES = 1 << 16

# Allocate and free two 8 MB blocks at import; np.empty touches no page,
# so this costs microseconds.  glibc maps the first on its own, and
# freeing that mapping raises its dynamic mmap threshold to 8 MB.  The
# bulk paths' ~1 MB temporaries (random `distance_report`, batch-encode
# chunks) then reuse heap memory instead of mapping and faulting in
# fresh pages on every call, which made them about twice as slow.  The
# second block comes from the heap, and numpy advises huge pages for any
# block of 4 MB or more, so the heap range that those temporaries reuse
# may be backed by huge pages; without it the keyset benchmark ran about
# 3 % slower.
for _ in range(2):
    np.empty(_SCAN_BLOCK_ENTRIES, dtype=np.uint64)


def backend_name() -> str:
    return "numpy"


def _pair_codes(m: int, b_bits: int):
    out_bits = 4 * (b_bits + 1)
    mask = np.uint64((1 << out_bits) - 1)
    vals = np.arange(1 << (b_bits + 1), dtype=np.uint64)
    return (vals * np.uint64(m)) & mask


def _row_min(codes, first, stop_below, rows, work, counts) -> int:
    """Least distance from each image i >= first to every later image.

    Rows go several per numpy call: rows [a, a + r) against images
    [a, n) as one (r, n - a) block of at most `_ROW_CHUNK_ENTRIES`
    distances (one row if a row is longer), in the uint64 `work` and
    uint8 `counts` buffers, each of at least n entries.  The block's
    diagonal (an image against itself) is set out of reach; a pair
    j < i inside it repeats a pair of row j and does no harm.  The
    first block has at most `rows` rows and each later one twice as
    many, so a candidate with a close pair in an early row is dropped
    after little work.  Returns as soon as the least distance seen is
    below `stop_below`; 255 when there is no pair.
    """
    n = codes.size
    best = 255
    a = first
    while a < n - 1 and best >= stop_below:
        width = n - a
        r = min(rows, max(1, min(work.size, _ROW_CHUNK_ENTRIES) // width),
                n - 1 - a)
        x = work[:r * width].reshape(r, width)
        np.bitwise_xor(codes[a:a + r, None], codes[a:], out=x)
        d = counts[:r * width].reshape(r, width)
        np.bitwise_count(x, out=d)
        np.fill_diagonal(d, 255)
        best = min(best, int(d.min()))
        a, rows = a + r, 2 * rows
    return best


def pair_min_distance(m: int, b_bits: int) -> int:
    """Least distance over all pairs of images of m: every row, in
    blocks of rows, with no early exit.  It makes none of the scan's
    staged cuts (rows 0 and 1, odd values), so it checks the scan's
    answer by a second route."""
    codes = _pair_codes(m, b_bits)
    size = max(_ROW_CHUNK_ENTRIES, codes.size)
    return _row_min(codes, 0, 0, codes.size, np.empty(size, dtype=np.uint64),
                    np.empty(size, dtype=np.uint8))


def _far_from_row(ms, vs, row, threshold, work, counts):
    """The candidates in `ms` whose image of every v in `vs` lies at
    least `threshold` bits from their image of `row` (0 or 1).

    No product of `ms` and `vs` may reach the 4(B+1)-bit output mask.
    Values go in column chunks that start at `_SCAN_FIRST_COLUMNS` and
    double, and a candidate is dropped after the first chunk that holds
    a close image.  Keeps the order of `ms`.
    """
    start, cols = 0, _SCAN_FIRST_COLUMNS
    while start < vs.size and ms.size:
        v = vs[start:start + cols]
        x = work[:ms.size * v.size].reshape(ms.size, v.size)
        np.multiply(ms[:, None], v, out=x)
        if row:
            np.bitwise_xor(x, ms[:, None], out=x)
        d = counts[:x.size].reshape(x.shape)
        np.bitwise_count(x, out=d)
        ms = ms[d.min(axis=1) >= threshold]
        start, cols = start + cols, 2 * cols
    return ms


def scan_multiplier(b_bits: int, m_lo: int, m_hi: int, threshold: int) -> int:
    """Smallest m in [m_lo, m_hi) whose images are pairwise >= threshold apart.

    Returns -1 when no m qualifies; raises ValueError when m_hi is above
    2^(3(B+1)), the multipliers `find_multiplier` searches.  Candidates
    go in ascending blocks of `_SCAN_FIRST_BLOCK` candidates, doubling
    up to the `_SCAN_BLOCK_ENTRIES` cap, so the work grows with the
    answer.  Three stages together cover every pair (i, j), i < j, and
    each drops only candidates that have a close pair:
    - Row 0, the whole block: the pair (0, v) is at distance
      weight(v*m).  As m < 2^(3(B+1)), no product of a (B+1)-bit value
      wraps the 4(B+1)-bit mask, so (2^k * u) * m is u*m shifted and
      weighs the same: odd v suffice.
    - Row 1, the block's survivors: the pairs (1, v), v >= 2.
    - Rows 2 and up, each survivor in ascending order: a few rows per
      numpy call, stopping at the first close pair.
    The first candidate through all three is the answer.
    """
    if m_hi > 1 << (3 * (b_bits + 1)):
        raise ValueError(f"m_hi {m_hi} above 2^(3(B+1)) at B={b_bits}")
    values = 1 << (b_bits + 1)
    every = np.arange(values, dtype=np.uint64)
    cap = max(1, _SCAN_BLOCK_ENTRIES // values)
    # Sized to the cap; np.empty touches no page, so the unused part costs nothing.
    work = np.empty(cap * values, dtype=np.uint64)
    counts = np.empty(cap * values, dtype=np.uint8)
    lo, size = m_lo, min(_SCAN_FIRST_BLOCK, cap)
    while lo < m_hi:
        hi = min(lo + size, m_hi)
        ms = np.arange(lo, hi, dtype=np.uint64)
        ms = _far_from_row(ms, every[1::2], 0, threshold, work, counts)
        ms = _far_from_row(ms, every[2:], 1, threshold, work, counts)
        for m in ms.tolist():
            codes = _pair_codes(m, b_bits)
            if _row_min(codes, 2, threshold, 4, work, counts) >= threshold:
                return m
        lo, size = hi, min(2 * size, cap)
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
