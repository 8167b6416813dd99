"""Injective signatures from codeword bits.

Encoding a key set with the ECC guarantees every pair of codewords
differs in at least a delta_prime_bound fraction of positions.  Picking
the single bit position that separates the most still-colliding pairs
therefore retires at least that fraction of them per round, so a short
greedy loop reaches an injective projection.  Signatures read the
selected positions in order, giving O(log n)-bit values for fixed code
parameters.

The greedy never lists pairs, so no cap on the number of keys applies.
Keys that agree on every position chosen so far form a class, and only
pairs inside a class still collide; a position with `ones` set bits in
a class of `size` keys separates ones * (size - ones) of that class's
pairs.  The rows of the colliding keys are kept grouped by class size,
so one column sum per distinct size counts `ones` for every class of
that size.  Each round therefore costs O(n * codeword_bits), whatever
the number of pairs.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _kernels
from .bulk import _batch_encode, _batch_fields, _field_width, _key_rows
from .ecc_core import (
    EccCode,
    _check_fields,
    _from_obj,
    _hex_key,
    _is_int,
    _key_value,
    _parse_json,
    _read_file,
    _to_obj,
    encode,
)
from .errors import (
    CodecError,
    CodecFormatError,
    CodecVersionError,
    CodeValidationError,
    DuplicateKeyError,
    ParameterError,
)
from .wordram import OpLedger, OpList, Record, WideInt, _traced_ops

SIGNATURE_VERSION = 1


class SignatureFn(Record):
    """Bit-position projection that is injective on its build set: the
    `positions` tuple read out of `code`'s codewords, built on n keys."""

    _fields = ("code", "positions", "n")

    @cached_property
    def _gather(self) -> OpList:
        """Charged operations of `_read`, traced once.  Not a field."""
        return _traced_ops(self._read, self.code.codeword_bits)

    def _read(self, cw):
        """Bit j is bit positions[j] of cw: shift it down, mask it, shift
        it to j and OR it into the bits so far."""
        out = 0
        for j, pos in enumerate(self.positions):
            out |= ((cw >> pos) & 1) << j
        return out


def position_cap(code: EccCode, n: int) -> int:
    """Greedy upper bound on how many positions n keys can need."""
    if n < 2:
        return 0
    rho = code.delta_prime_bound
    pairs = n * (n - 1) // 2
    return math.ceil(math.log(pairs + 1) / -math.log(float(1 - rho)))


def cap_constant(code: EccCode) -> int:
    """C such that any signature on n >= 2 keys uses <= C * log2(n) bits.

    Generous by design: log2(pairs + 1) <= 2 * log2(n), so doubling the
    per-halving factor and adding one for the ceiling always dominates
    position_cap.
    """
    rho = code.delta_prime_bound
    per_halving = math.ceil(1.0 / -math.log2(float(1 - rho)))
    return per_halving * 2 + 1


def build_signature(code: EccCode, keys) -> SignatureFn:
    """Greedy position selection until no key pair collides.

    Each round picks the position that separates the most colliding
    pairs: the sum over classes of ones * (size - ones), where a class
    holds the keys that agree on every position chosen so far.  The
    chosen bit then splits every class, classes of one key drop out,
    and the pairs left are the sum of C(size, 2).  Ties go to the lowest
    position index, so the result depends only on the key set, not on
    its order.
    """
    w = code.params.w
    rows = _key_rows(keys, w)
    n = len(rows)
    if n < 1:
        raise ParameterError("need at least one key")
    if not _distinct(rows):
        # Name the first key equal to an earlier one.
        seen = {}
        for i, row in enumerate(rows.astype("<u8")):
            v = int.from_bytes(row.tobytes(), "little")
            if v in seen:
                raise DuplicateKeyError(seen[v], i, format(v, f"0{-(-w // 4)}x"))
            seen[v] = i
    if n == 1:
        return SignatureFn(code, (), 1)

    total_pairs = n * (n - 1) // 2
    rho = code.delta_prime_bound
    decay = Fraction(1)
    positions = []
    cap = position_cap(code, n)
    # `bits` holds the rows of the still-colliding keys in (class size,
    # class) order; `sizes` holds the class sizes in the same order.
    bits = _kernels.limbs_to_bits(_batch_encode(code, rows), code.codeword_bits)
    sizes = np.array([n])
    while sizes.size:
        pos = int(np.argmax(_separated(bits, sizes)))
        positions.append(pos)
        # Side 2c + b holds the keys of class c that read b at `pos`.
        side = np.repeat(2 * np.arange(sizes.size), sizes) + bits[:, pos]
        counts = np.bincount(side, minlength=2 * sizes.size)
        # Keep the rows of sides with two or more keys, by (size, side).
        new_size = counts[side]
        keep = np.flatnonzero(new_size > 1)
        bits = bits[keep[np.lexsort((side[keep], new_size[keep]))]]
        sizes = np.sort(counts[counts > 1])
        pairs_left = int((sizes * (sizes - 1) // 2).sum())
        # The distance floor promises a rho fraction separated per round.
        decay *= 1 - rho
        if not Fraction(pairs_left) <= decay * total_pairs:
            raise CodeValidationError(
                "greedy progress fell behind the distance guarantee")
    if not len(positions) <= cap:
        raise CodeValidationError("position count exceeded the greedy bound")
    return SignatureFn(code, tuple(positions), n)


def _distinct(rows: np.ndarray) -> bool:
    """Whether the rows of a 2-D uint64 array are pairwise different.

    One-word rows are sorted as plain values, which is many times faster
    than `np.unique`; wider rows, which need a row-wise compare, go
    through `np.unique(axis=0)`.
    """
    if rows.shape[1] == 1:
        s = np.sort(rows[:, 0])
        return not bool((s[1:] == s[:-1]).any())
    return len(np.unique(rows, axis=0)) == len(rows)


def _separated(bits: np.ndarray, sizes: np.ndarray) -> np.ndarray:
    """Colliding pairs each position separates, summed over all classes.

    `bits` holds the rows of every class in turn and `sizes` the class
    sizes in ascending order, so the classes of one size s form one
    contiguous block.  A position with `ones` set bits in a class
    separates ones * (s - ones) of its pairs, so one column sum per
    size scores every class of that size; `ones` is counted in the
    narrowest unsigned type that holds s.  Two rows differ where their
    XOR is set, which scores two-key classes.  The product reaches
    s^2 / 4, past int32 once s > 92,681, so it is formed in int64.
    """
    separated = np.zeros(bits.shape[1], dtype=np.int64)
    size_values, class_counts = np.unique(sizes, return_counts=True)
    start = 0
    for s, k in zip(size_values.tolist(), class_counts.tolist()):
        block = bits[start:start + k * s]
        start += k * s
        if s == 2:
            separated += (block[0::2] ^ block[1::2]).sum(axis=0, dtype=np.int64)
        else:
            ones = block.reshape(k, s, -1).sum(axis=1, dtype=np.min_scalar_type(s))
            separated += np.multiply(ones, s - ones, dtype=np.int64).sum(axis=0)
    return separated


def sig_eval(f: SignatureFn, x, ledger: OpLedger | None = None) -> WideInt:
    """Signature of any w-bit value; bit j reads codeword bit positions[j].

    A ledger is charged for the encode and then for the gather of the
    positions (`SignatureFn._gather`), both by traced widths, so the
    charge does not depend on x.
    """
    cw = int(encode(f.code, x, ledger))
    if ledger is not None:
        ledger.post(f._gather)
    return WideInt(f._read(cw), len(f.positions))


def verify_injective(f: SignatureFn, keys) -> bool:
    """Full re-check: evaluate every key, compare all signatures.

    Keys are encoded in bulk to their innermost fields; codeword bit
    positions[j] is bit positions[j] % S of field positions[j] // S, so
    each key's `sig_eval` bits are read without joining its codeword.
    Each signature is packed into uint64 words, bit j at bit j % 64 of
    word j // 64, and the words are compared row by row.  The scalar
    route is the oracle.
    """
    rows = _key_rows(keys, f.code.params.w)
    if len(rows) < 2:
        return True
    if not f.positions:
        return False
    stride = _field_width(f.code)
    pos = np.array(f.positions)
    field, shift = pos // stride, (pos % stride).astype(np.uint64)[:, None]
    place = (np.arange(pos.size) % 64).astype(np.uint64)[:, None]
    words = np.concatenate(
        [np.add.reduceat(((fields[field] >> shift) & np.uint64(1)) << place,
                         np.arange(0, pos.size, 64), axis=0)
         for fields in _batch_fields(f.code, rows)], axis=1)
    return _distinct(words.T)


# ---------------------------------------------------------------------------
# File formats


def read_keys_file(path, w: int) -> list:
    """One key per line, as `_hex_key` spells and checks it."""
    try:
        with open(path, "r", encoding="ascii") as fh:
            text = fh.read()
    except UnicodeDecodeError as exc:
        raise ParameterError(f"{path}: keys file is not ASCII: {exc}") from exc
    vals = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        line = line.strip()
        if not line:
            continue
        vals.append(_hex_key(line, w, f"{path}:{lineno}: key"))
    return vals


def write_keys_file(path, vals, bits: int):
    """Keys as `read_keys_file` reads them, each checked first as `encode` checks it."""
    digits = -(-bits // 4)
    lines = [format(_key_value(v, bits, f"key {i}"), f"0{digits}x") + "\n"
             for i, v in enumerate(vals)]
    with open(path, "w", encoding="ascii") as fh:
        fh.writelines(lines)


def signature_to_obj(f: SignatureFn) -> dict:
    return {
        "version": SIGNATURE_VERSION,
        "n": f.n,
        "positions": list(f.positions),
        "code": _to_obj(f.code),
    }


def signature_from_obj(obj) -> SignatureFn:
    _check_fields(obj, "signature description", {"version", "n", "positions", "code"},
                  ("version", "n"))
    if obj["version"] != SIGNATURE_VERSION:
        raise CodecVersionError(
            f"unsupported signature version {obj['version']}")
    n, pos = obj["n"], obj["positions"]
    if n < 1:
        raise CodecFormatError("n must be a positive integer")
    if not isinstance(pos, list) or not all(_is_int(p) for p in pos):
        raise CodecFormatError("positions must be a list of integers")
    if len(set(pos)) != len(pos):
        # The greedy build never picks a bit twice: once chosen, no
        # colliding pair is left for it to separate.
        raise CodecFormatError("positions must not repeat")
    try:
        code = _from_obj(obj["code"])
    except CodecError as exc:
        raise type(exc)(f"code: {exc}") from exc
    if any(not 0 <= p < code.codeword_bits for p in pos):
        raise CodecFormatError("position index outside the codeword")
    return SignatureFn(code, tuple(pos), n)


def save_signature(path, f: SignatureFn):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(signature_to_obj(f), fh, separators=(",", ":"))
        fh.write("\n")


def load_signature(path) -> SignatureFn:
    """The signature saved at `path`, checked as `signature_from_obj`
    checks it; every CodecError it raises starts with the path."""
    return _read_file(path, lambda data: signature_from_obj(_parse_json(data)))
