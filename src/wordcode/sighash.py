"""Injective signatures from codeword bits.

Encoding a key set with the ECC guarantees every pair of codewords
differs in at least a delta_prime_bound fraction of positions.  Picking
the single bit position that separates the most still-colliding pairs
therefore retires at least that fraction of them per round, so a short
greedy loop reaches an injective projection.  Signatures read the
selected positions in order, giving O(log n)-bit values for fixed code
parameters.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .ecc_core import EccCode, _batch_encode, _to_obj, _from_obj, encode
from .errors import (
    CodecFormatError,
    CodeValidationError,
    DuplicateKeyError,
    ParameterError,
)
from .wordram import WideInt

MAX_PAIRS = 10 ** 7

_PAIR_CHUNK = 1 << 15


@dataclass(frozen=True)
class SignatureFn:
    """Bit-position projection that is injective on its build set."""

    code: EccCode
    positions: tuple
    n: int


def _as_key_values(code: EccCode, keys) -> list:
    w = code.params.w
    vals = []
    for i, k in enumerate(keys):
        if isinstance(k, WideInt):
            if k.bits > w:
                raise ParameterError(
                    f"key {i} is {k.bits} bits wide, word size is {w}")
            k = int(k)
        if not 0 <= k < (1 << w):
            raise ParameterError(f"key {i} outside [0, 2^{w})")
        vals.append(k)
    return vals


def _bit_matrix(code: EccCode, vals: list) -> np.ndarray:
    """Rows of codeword bits, column j = codeword bit j."""
    if code.params.w <= 64:
        keys = np.array(vals, dtype=np.uint64)
    else:
        keys = np.array(vals, dtype=object)
    limbs = _batch_encode(code, keys)
    raw = np.unpackbits(limbs.astype("<u8").view(np.uint8),
                        axis=1, bitorder="little")
    return raw[:, :code.codeword_bits]


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

    Ties go to the lowest position index; with the key order fixed the
    whole construction is deterministic.
    """
    vals = _as_key_values(code, keys)
    n = len(vals)
    if n < 1:
        raise ParameterError("need at least one key")
    seen = {}
    for i, v in enumerate(vals):
        if v in seen:
            digits = -(-code.params.w // 4)
            raise DuplicateKeyError(seen[v], i, format(v, f"0{digits}x"))
        seen[v] = i
    total_pairs = n * (n - 1) // 2
    if total_pairs > MAX_PAIRS:
        raise ParameterError(
            f"{total_pairs} key pairs exceed the supported {MAX_PAIRS}")
    if n == 1:
        return SignatureFn(code, (), 1)

    bits = _bit_matrix(code, vals)
    ai, bi = np.triu_indices(n, k=1)
    rho = code.delta_prime_bound
    decay = Fraction(1)
    positions = []
    cap = position_cap(code, n)
    while ai.shape[0] > 0:
        counts = np.zeros(code.codeword_bits, dtype=np.int64)
        for lo in range(0, ai.shape[0], _PAIR_CHUNK):
            sl = slice(lo, lo + _PAIR_CHUNK)
            counts += (bits[ai[sl]] != bits[bi[sl]]).sum(
                axis=0, dtype=np.int64)
        pos = int(np.argmax(counts))
        positions.append(pos)
        still = bits[ai, pos] == bits[bi, pos]
        ai, bi = ai[still], bi[still]
        # The distance floor promises a rho fraction separated per round.
        decay *= 1 - rho
        if not Fraction(int(ai.shape[0])) <= decay * total_pairs:
            raise CodeValidationError(
                "greedy progress fell behind the distance guarantee")
    if not len(positions) <= cap:
        raise CodeValidationError("position count exceeded the greedy bound")
    return SignatureFn(code, tuple(positions), n)


def sig_eval(f: SignatureFn, x) -> WideInt:
    """Signature of any w-bit value; bit j reads codeword bit positions[j]."""
    cw = int(encode(f.code, x))
    out = 0
    for j, pos in enumerate(f.positions):
        out |= ((cw >> pos) & 1) << j
    return WideInt(out, len(f.positions))


def verify_injective(f: SignatureFn, keys) -> bool:
    """Full independent re-check: evaluate everything, compare all."""
    vals = _as_key_values(f.code, keys)
    sigs = {int(sig_eval(f, v)) for v in vals}
    return len(sigs) == len(vals)


# ---------------------------------------------------------------------------
# File formats


def read_keys_file(path, w: int) -> list:
    """One lowercase-hex key per line, exactly ceil(w/4) digits each."""
    digits = -(-w // 4)
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
        if len(line) != digits or line != line.lower() \
                or any(c not in "0123456789abcdef" for c in line):
            raise ParameterError(
                f"{path}:{lineno}: keys must be exactly {digits} "
                "lowercase hex digits")
        val = int(line, 16)
        if val >= (1 << w):
            raise ParameterError(
                f"{path}:{lineno}: key exceeds 2^{w}")
        vals.append(val)
    return vals


def write_keys_file(path, vals, bits: int):
    digits = -(-bits // 4)
    with open(path, "w", encoding="ascii") as fh:
        for v in vals:
            fh.write(format(v, f"0{digits}x") + "\n")


def signature_to_obj(f: SignatureFn) -> dict:
    return {
        "version": 1,
        "n": f.n,
        "positions": list(f.positions),
        "code": _to_obj(f.code),
    }


def signature_from_obj(obj) -> SignatureFn:
    if not isinstance(obj, dict):
        raise CodecFormatError("signature description must be an object")
    missing = {"version", "n", "positions", "code"} - obj.keys()
    if missing:
        raise CodecFormatError(f"missing fields: {sorted(missing)}")
    if obj["version"] != 1:
        raise CodecFormatError(
            f"unsupported signature version {obj['version']}")
    n = obj["n"]
    if not isinstance(n, int) or isinstance(n, bool) or n < 1:
        raise CodecFormatError("n must be a positive integer")
    pos = obj["positions"]
    if not isinstance(pos, list) or not all(
            isinstance(p, int) and not isinstance(p, bool) for p in pos):
        raise CodecFormatError("positions must be a list of integers")
    if len(set(pos)) != len(pos):
        # The greedy build never picks a bit twice: once chosen, no
        # colliding pair is left for it to separate.
        raise CodecFormatError("positions must not repeat")
    code = _from_obj(obj["code"], expect_w=None)
    if any(not 0 <= p < code.codeword_bits for p in pos):
        raise CodecFormatError("position index outside the codeword")
    return SignatureFn(code, tuple(pos), n)


def save_signature(path, f: SignatureFn):
    with open(path, "w", encoding="ascii") as fh:
        json.dump(signature_to_obj(f), fh, separators=(",", ":"))
        fh.write("\n")


def load_signature(path) -> SignatureFn:
    with open(path, "r", encoding="ascii") as fh:
        try:
            obj = json.load(fh)
        except UnicodeDecodeError as exc:
            raise CodecFormatError(
                f"{path}: signature file is not ASCII: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise CodecFormatError(f"not a JSON description: {exc}") from exc
    return signature_from_obj(obj)
