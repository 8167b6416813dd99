"""Bulk encoding and distance measurement, on the numpy kernels.

The spec route in `ecc_core` (build, encode, serialize, deserialize)
runs on Python integers and imports no numpy.  Everything that works on
many keys or messages at once sits here, beside `_kernels`: the key
intake, the batch encoder, and the distance measurements of the whole
code and of its outer code.  `ecc_core` serves `distance_report` and
`_batch_encode` by name and imports this module on their first use;
`min_weight_multiple_check` is read here or from the package.
"""

from __future__ import annotations

import numpy as np

from . import _kernels
from .ecc_core import EccCode, _key_value
from .errors import CodeValidationError, ParameterError
from .outer_rs import GeneratorPoly, RsParams, _index


def _field_width(code: EccCode) -> int:
    """S of the level-1 code that multiplies: field f of a codeword sits
    at bit f * S."""
    return (code.inner_ecc or code).params.S


def _key_rows(keys, w: int) -> np.ndarray:
    """A key sequence as little-endian uint64 limb rows, one row per key,
    each key checked as `_key_value` checks key i.

    Plain ints, and a rank-1 integer ndarray as its `tolist()`, are
    converted in one step and range-checked on the top limb; any other
    key type, and any failed check, takes the per-key `_key_value` loop,
    which raises the same error for the same first bad key.
    """
    keys = (keys.tolist() if isinstance(keys, np.ndarray) and keys.ndim == 1
            and keys.dtype.kind in "iu" else list(keys))
    limbs = -(-w // 64)
    if all(type(k) is int for k in keys):
        try:
            rows = _int_rows(keys, limbs)
        except OverflowError:
            pass
        else:
            if int(rows[:, -1].max(initial=0)) >> (w - 64 * (limbs - 1)) == 0:
                return rows
    return _int_rows([_key_value(k, w, f"key {i}") for i, k in enumerate(keys)], limbs)


def _int_rows(vals: list, limbs: int) -> np.ndarray:
    """Ints as `limbs`-limb rows; OverflowError for one outside
    [0, 2^(64 * limbs))."""
    if limbs == 1:
        return np.array(vals, dtype=np.uint64).reshape(-1, 1)
    data = b"".join(v.to_bytes(8 * limbs, "little") for v in vals)
    return np.frombuffer(data, dtype="<u8").reshape(-1, limbs)


# Batch-encode chunks hold about this many innermost fields (1 MB of
# uint64), which bounds every transient array of a chunk.
_CHUNK_FIELDS = 1 << 17


def _chunk_keys(code: EccCode) -> int:
    """Keys per batch-encode chunk, about `_CHUNK_FIELDS` fields."""
    return max(1, _CHUNK_FIELDS * _field_width(code) // code.codeword_bits)


def _outer_chunk_keys(code: EccCode) -> int:
    """Keys per outer residue pass, about `_CHUNK_FIELDS` residues.

    At level 1 the residues are the fields, so this is `_chunk_keys`.
    A level-2 key has far fewer residues than innermost fields, and the
    outer pass loops over every generator coefficient, so it runs on
    many inner chunks' keys at once.
    """
    return max(1, _CHUNK_FIELDS // (5 * code.params.out_slots))


def _residues(code: EccCode, cols: np.ndarray) -> np.ndarray:
    """Outer residues of many keys, keys as columns; see batch_residues."""
    p = code.params
    return _kernels.batch_residues(
        cols, p.w, p.B, p.n_blocks, p.blocks_per_word, p.P, code.gen.coeffs)


def _residue_fields(code: EccCode, resid: np.ndarray) -> np.ndarray:
    """Innermost fields in codeword order from `_residues`, keys as columns.

    Level 1: residue * m of word i, slot k is field i * out_slots + k.
    Level 2: the inner code's fields of residue s come right after those
    of residue s - 1.  Either way field f belongs at bit f * S, S the
    stride of the level-1 code that multiplies (`_field_width`).
    """
    if code.level == 1:
        return resid * np.uint64(code.inner.m)
    inner = code.inner_ecc
    n = resid.shape[1]
    # Inner key s * n + k is residue s of key k; regroup by key.
    fields = _residue_fields(inner, _residues(inner, resid.reshape(1, -1)))
    return fields.reshape(-1, resid.shape[0], n).transpose(1, 0, 2).reshape(-1, n)


def _batch_fields(code: EccCode, keys):
    """Innermost fields of many keys, one `_chunk_keys` chunk at a time.

    `keys` are checked uint64 limb rows (`_key_rows`), or a 1-D uint64
    array of keys below 2^64.  Yields uint64 arrays of shape (fields,
    keys in the chunk), in key order; see `_residue_fields`.  A codeword
    is its fields joined at stride `_field_width`, so Hamming distances
    and single bits can be read from the fields without the join.  The
    outer residues are computed `_outer_chunk_keys` keys at a time.
    """
    rows = keys[:, None] if keys.ndim == 1 else keys
    step, outer = _chunk_keys(code), _outer_chunk_keys(code)
    for lo in range(0, rows.shape[0], outer):
        resid = _residues(code, rows[lo:lo + outer].T)
        for k in range(0, resid.shape[1], step):
            yield _residue_fields(code, resid[:, k:k + step])


def _batch_encode(code: EccCode, keys: np.ndarray) -> np.ndarray:
    """Codewords of many keys as little-endian uint64 limb rows.

    Bit-exact with `encode` at every word size and level; charges no
    ledger and builds no bit matrix.  Blocks are cut straight from the
    key limbs.  Every codeword is a flat run of innermost fields (see
    `_residue_fields`), field f at bit f * S with S < 64, since level 2
    places residue s's inner codeword at s * inner.codeword_bits, a
    whole number of inner fields.  So one stride-S join of each
    `_batch_fields` chunk ends both levels.
    """
    stride = _field_width(code)
    limbs = -(-code.codeword_bits // 64)
    out = np.empty((len(keys), limbs), dtype=np.uint64)
    lo = 0
    for fields in _batch_fields(code, keys):
        hi = lo + fields.shape[1]
        out[lo:hi] = _kernels.join_fields(fields, stride, limbs)
        lo = hi
    return out


def _check_sampling(samples, seed) -> tuple:
    """A random probe's pair or message count (at least 1) and seed (at
    least 0) as ints; ParameterError naming the bad argument otherwise."""
    samples, seed = _index(samples, "samples"), _index(seed, "seed")
    if samples < 1:
        raise ParameterError(f"samples must be at least 1, got {samples}")
    if seed < 0:
        raise ParameterError(f"seed must be non-negative, got {seed}")
    return samples, seed


def _sample_keys(rng, w: int, n: int) -> np.ndarray:
    """n uniform w-bit keys as limb rows."""
    rows = rng.integers(0, 1 << min(w, 64), size=(n, -(-w // 64)), dtype=np.uint64)
    if w % 64:
        rows[:, -1] &= np.uint64((1 << (w % 64)) - 1)
    return rows


def distance_report(code: EccCode, mode: str = "random",
                    samples: int = 100_000, seed: int = 0) -> dict:
    """Minimum codeword distance over checked pairs.

    exhaustive: all pairs of all 2^w inputs; only for w <= 12.
    random: `samples` pairs of distinct inputs from a seeded generator,
    scored from their innermost fields one `_batch_fields` chunk at a
    time, so no codeword is joined.  Both modes score their pairs with
    `_kernels.paired_min_hamming`.

    Raises CodeValidationError if any checked pair lands below the
    construction's guaranteed floor, since that would disprove the code.
    """
    p = code.params
    if mode == "exhaustive":
        if p.w > 12:
            raise ParameterError(
                f"exhaustive distance scan caps at w=12, got w={p.w}")
        n = 1 << p.w
        cols = np.ascontiguousarray(_batch_encode(code, np.arange(n, dtype=np.uint64)).T)
        # Each key's codeword, one broadcast column, against every later key's.
        min_bits = min(_kernels.paired_min_hamming(cols[:, i:i + 1], cols[:, i + 1:])
                       for i in range(n - 1))
        pairs = n * (n - 1) // 2
    elif mode == "random":
        samples, seed = _check_sampling(samples, seed)
        rng = np.random.default_rng(seed)
        min_bits = 1 << 62
        pairs = 0
        chunk = 1 << 16
        remaining = samples
        while remaining > 0:
            take = min(chunk, remaining)
            xs = _sample_keys(rng, p.w, take)
            ys = _sample_keys(rng, p.w, take)
            # Row-wise: a wide key is equal only when all its limbs are.
            dup = (xs == ys).all(axis=1)
            while bool(np.any(dup)):
                ys[dup] = _sample_keys(rng, p.w, int(np.sum(dup)))
                dup = (xs == ys).all(axis=1)
            # A distance is the sum over fields of popcount(f_x ^ f_y):
            # the fields sit at disjoint S-bit strides.
            for fx, fy in zip(_batch_fields(code, xs), _batch_fields(code, ys)):
                min_bits = min(min_bits, _kernels.paired_min_hamming(fx, fy))
            pairs += take
            remaining -= take
    else:
        raise ParameterError(f"mode must be 'exhaustive' or 'random', got {mode!r}")

    floor = code.guaranteed_min_bits()
    if min_bits < floor:
        raise CodeValidationError(
            f"pair at distance {min_bits} bits violates the guaranteed "
            f"floor {floor}"
        )
    return {
        "min_bits": min_bits,
        "min_relative": min_bits / code.codeword_bits,
        "pairs_checked": pairs,
    }


def _sample_messages(rng, p: RsParams, n: int) -> np.ndarray:
    """n uniform nonzero outer messages as uint64 columns, one row per coefficient."""
    cols = rng.integers(0, p.P, size=(p.blocks_per_word, n), dtype=np.uint64)
    zero = ~cols.any(axis=0)
    if zero.any():
        cols[:, zero] = _sample_messages(rng, p, int(zero.sum()))
    return cols


def min_weight_multiple_check(g: GeneratorPoly, p: RsParams,
                              mode: str = "exhaustive",
                              samples: int = 100_000,
                              seed: int = 0) -> int:
    """Minimal count of nonzero coefficients over nonzero multiples of g.

    Messages are polynomials of degree < blocks_per_word over GF(P);
    their products with g are what rs_encode emits, so this is a direct
    measurement of the outer code's distance.  The products come from
    `_kernels.poly_mul_mod`, the batch encoder's convolution.  Random
    mode draws and convolves its messages in chunks of at most 2^22
    product entries, so its memory does not grow with `samples`.  The
    result must reach r_deg + 1 (BCH bound for consecutive-power roots);
    falling short would mean the field arithmetic is broken, and raises.
    """
    if mode == "exhaustive":
        count = p.P**p.blocks_per_word
        if count > 1 << 20:
            raise ParameterError(
                f"P^blocks_per_word = {count} messages is past the exhaustive"
                f" cap 2^20; use mode='random'"
            )
        # Message i's coefficients are its base-P digits.  Under the cap the
        # products hold at most 1.8e6 entries in all (w=64): one call.
        powers = np.uint64(p.P) ** np.arange(p.blocks_per_word, dtype=np.uint64)
        chunks = [np.arange(1, count, dtype=np.uint64) // powers[:, None] % np.uint64(p.P)]
    elif mode == "random":
        samples, seed = _check_sampling(samples, seed)
        rng = np.random.default_rng(seed)
        chunk = (1 << 22) // p.out_slots
        chunks = (_sample_messages(rng, p, min(chunk, samples - lo))
                  for lo in range(0, samples, chunk))
    else:
        raise ParameterError(f"mode must be 'exhaustive' or 'random', got {mode!r}")

    best = p.out_slots + 1
    for cols in chunks:
        conv = _kernels.poly_mul_mod(cols, g.coeffs, p.P)
        best = min(best, int(np.count_nonzero(conv, axis=0).min()))
    if best < p.r_deg + 1:
        raise ParameterError(
            f"observed multiple of weight {best}, below the BCH bound {p.r_deg + 1}"
        )
    return best
