"""Whole-code assembly: split, RS residue, inner multiply, concatenate.

A level-1 code carries the full pipeline for one word size: the split
into 5 interleaved words, the packed Reed-Solomon residue over P, and
the distance-amplifying multiplier on every residue slot, each stage one
pass over all five words.  A level-2 code instead runs a level-1 code,
built for the tiny word size B+1, over each residue slot, which gives a
construction whose ledger cost is o(w).  Its encode runs that inner
pipeline once over all residue slots side by side, so it too is a
constant number of whole-word operations.

Construction, encoding, and distance estimation are deterministic.
Ledger charges for the construction-time searches are closed forms in
the search outcome, so they never depend on how a kernel scans.
"""

from __future__ import annotations

import json
import operator
import reprlib
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import (
    CodecFormatError,
    CodecVersionError,
    CodeValidationError,
    MultiplierError,
    MultiplierNotFoundError,
    ParameterError,
)
from .inner_mult import (
    B_MAX,
    DEFAULT_DELTA,
    DELTA_LADDER,
    InnerCode,
    _MultPlan,
    find_multiplier,
    inner_encode,
)
from .numtheory import _prime_factors
from .outer_rs import (
    GeneratorPoly,
    RsParams,
    _RsPlan,
    _check_sampling,
    _derive_params_any,
    _index,
    _split_plan,
    _word_size,
    build_generator,
    rs_encode,
    split5,
)
from .wordram import (
    OpLedger,
    WideInt,
    unpack_fields,
    wide_or,
    wide_shl,
)

FORMAT_VERSION = 1

_DESCRIPTION_KEYS = {
    "version", "level", "w", "B", "P", "alpha", "r_deg", "S",
    "g_coeffs", "m", "delta_num", "delta_den", "inner",
}


@dataclass(frozen=True)
class EccCode:
    """A constructed code; immutable, shareable, value-comparable.

    `_build` is the only constructor.  The codeword length and the
    relative distance bound are derived from the stages, not stored.
    """

    level: int
    params: RsParams
    gen: GeneratorPoly
    inner: InnerCode | None
    inner_ecc: "EccCode | None"

    def __post_init__(self):
        if self.level == 1:
            ok = self.inner is not None and self.inner_ecc is None
        elif self.level == 2:
            ok = self.inner is None and self.inner_ecc is not None
        else:
            ok = False
        if not ok:
            raise ParameterError(
                f"level {self.level} code must carry exactly the matching "
                "inner stage"
            )

    @property
    def codeword_bits(self) -> int:
        if self.level == 1:
            return 5 * self.params.word_out_bits
        return 5 * self.params.out_slots * self.inner_ecc.codeword_bits

    @property
    def delta_prime_bound(self) -> Fraction:
        """Guaranteed relative distance: the floor over the codeword length."""
        return Fraction(self.guaranteed_min_bits(), self.codeword_bits)

    @property
    def delta(self) -> Fraction:
        """The delta that parametrized the (innermost) multiplier search."""
        if self.level == 1:
            return self.inner.delta
        return self.inner_ecc.delta

    def guaranteed_min_bits(self) -> int:
        """Distance floor from the residue-weight and multiplier bounds."""
        if self.level == 1:
            return (self.params.r_deg + 1) * self.inner.threshold
        return (self.params.r_deg + 1) * self.inner_ecc.guaranteed_min_bits()

    @cached_property
    def _plans(self) -> "_EncodePlans":
        # Not a dataclass field: ==, hash and serialize never see it.
        return _EncodePlans(self)


class _EncodePlans:
    """Every plan one code's encode runs, resolved on its first encode.

    Level 1 runs split, rs and the inner multiply on the five words;
    level 2 adds the inner code's split over every residue (`split2`)
    and its rs (`rs2`), and multiplies on their layout.  A warm encode
    then looks nothing up.  The width checks, which depend only on these
    plans, run once here: each stage's output fits the next stage's
    input, each rs product reaches its reduction's layout, and the last
    output is the codeword.  `run` chains the plans'
    `apply` on a plain int.
    """

    __slots__ = ("split", "rs", "out_layout", "split2", "rs2", "mult_layout", "mult")

    def __init__(self, code: EccCode):
        p = code.params
        self.split = _split_plan(p)
        self.rs = _RsPlan(p, self.split.out_bits, code.gen.z_packed)
        self.out_layout = layout = p.out_layout(5)
        if code.level == 1:
            self.split2 = self.rs2 = None
            self.mult_layout, ic = layout, code.inner
        else:
            inner = code.inner_ecc
            q = inner.params
            self.split2 = _split_plan(q, layout)
            self.rs2 = _RsPlan(q, self.split2.out_bits, inner.gen.z_packed)
            self.mult_layout, ic = q.out_layout(5 * layout.slot_count), inner.inner
        self.mult = _MultPlan(ic, self.mult_layout)
        if self.mult.bits != code.codeword_bits:
            raise CodeValidationError(
                f"codeword of {self.mult.bits} bits, expected {code.codeword_bits}")
        fits = self.split.out_bits + self.rs.z_bits >= self.rs.mod.bits
        if code.level == 1:
            fits = fits and self.rs.mod.bits <= self.mult.bits
        else:
            fits = (fits and self.rs.mod.bits <= layout.total_bits
                    and self.split2.out_bits + self.rs2.z_bits >= self.rs2.mod.bits
                    and self.rs2.mod.bits <= self.mult.bits)
        if not fits:
            raise CodeValidationError("encode stage widths do not chain")

    def run(self, v: int) -> WideInt:
        """The codeword of key v, a plain int already checked to be in
        [0, 2^w)."""
        v = self.rs.apply(self.split.apply(v))
        if self.split2 is not None:
            v = self.rs2.apply(self.split2.apply(v))
        return WideInt(self.mult.apply(v), self.mult.bits)


@dataclass(frozen=True)
class CostReport:
    """Ledger totals for one build, in model word operations at size w."""

    construction_ops: dict
    encode_ops: dict
    generator_ops: dict
    w: int

    def construction_total(self) -> int:
        return sum(self.construction_ops.values())

    def encode_total(self) -> int:
        return sum(self.encode_ops.values())

    def generator_total(self) -> int:
        return sum(self.generator_ops.values())

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "construction_ops": dict(self.construction_ops),
            "encode_ops": dict(self.encode_ops),
            "generator_ops": dict(self.generator_ops),
        }


# ---------------------------------------------------------------------------
# Construction


def _trial_division_steps(n: int) -> int:
    # Mirrors the is_prime loop shape so the charge tracks its work.
    if n % 2 == 0:
        return 1
    steps = 1
    d = 3
    while d * d <= n:
        steps += 1
        if n % d == 0:
            break
        d += 2
    return steps


def _charge_param_search(p: RsParams, ledger: OpLedger):
    """Model cost of the prime scan and the primitive-root search.

    Both searches run on host integers; the ledger charge reconstructs
    the count of model-word multiply/compare steps they correspond to,
    as a deterministic function of the parameters found.
    """
    for n in range(1 << p.B, p.P + 1):
        steps = _trial_division_steps(n)
        nw = ledger.words(n.bit_length())
        ledger.charge_counted("mul", steps, nw * nw)
        ledger.charge_counted("cmp", steps, nw)
    pw = ledger.words(p.P.bit_length())
    factors = _prime_factors(p.P - 1)
    for a in range(2, p.alpha + 1):
        for q in factors:
            exp_bits = ((p.P - 1) // q).bit_length()
            # Square-and-multiply with a reduction per step.
            ledger.charge_counted("mul", 2 * exp_bits, pw * pw)


def _resolve_delta(b: int, delta) -> Fraction:
    if delta is None:
        if b > B_MAX:
            raise ParameterError(
                f"no inner code is searchable for {b}-bit symbols; "
                f"the word size needs a level-2 construction")
        return DEFAULT_DELTA
    try:
        return Fraction(delta)
    except (TypeError, ValueError, ArithmeticError):
        raise ParameterError(
            f"delta must be a rational number, got {reprlib.repr(delta)}") from None


def _find_multiplier_reporting(b: int, delta: Fraction,
                               ledger: OpLedger) -> InnerCode:
    """Search; on failure, re-raise with the best achievable delta attached.

    "Achievable" is probed over the standard delta ladder, strongest
    first, so the reported fallback is always one a retry can use.
    """
    try:
        return find_multiplier(b, delta, ledger)
    except MultiplierNotFoundError:
        achievable = None
        for cand in DELTA_LADDER:
            if cand >= delta:
                continue
            try:
                find_multiplier(b, cand)
            except MultiplierError:
                continue
            achievable = cand
            break
        raise MultiplierNotFoundError(b, delta, achievable) from None


def _build(w: int, delta, level: int, ledger: OpLedger):
    params = _derive_params_any(w)
    _charge_param_search(params, ledger)
    before = ledger.as_dict()
    gen = build_generator(params, ledger)
    after = ledger.as_dict()
    generator_ops = {k: after[k] - before[k] for k in after}

    if level == 1:
        d = _resolve_delta(params.B, delta)
        inner = _find_multiplier_reporting(params.B, d, ledger)
        inner_ecc = None
    else:
        inner = None
        inner_ecc, _ = _build(params.B + 1, delta, 1, ledger)
    return EccCode(level, params, gen, inner, inner_ecc), generator_ops


def _check_build_args(w, level) -> tuple:
    """(w, level) as ints, each checked; ParameterError otherwise."""
    level = _index(level, "level")
    if level not in (1, 2):
        raise ParameterError(f"level must be 1 or 2, got {level}")
    return _word_size(w), level


def build_code(w: int, delta=None, level: int = 1):
    """Construct the code for word size w; returns (EccCode, CostReport).

    delta defaults to DEFAULT_DELTA.  Level 2 recursively
    builds its inner stage as a level-1 code for word size B+1; the
    construction ledger covers both levels, charged at word size w.
    """
    w, level = _check_build_args(w, level)
    ledger = OpLedger(w)
    code, generator_ops = _build(w, delta, level, ledger)
    probe = OpLedger(w)
    encode(code, WideInt(0, w), probe)
    report = CostReport(
        construction_ops=ledger.as_dict(),
        encode_ops=probe.as_dict(),
        generator_ops=generator_ops,
        w=w,
    )
    return code, report


# ---------------------------------------------------------------------------
# Encoding


def _key_value(x, w: int, name: str = "input") -> int:
    """x as an integer in [0, 2^w): a WideInt no wider than w, or what
    `operator.index` takes (numpy integers too); else ParameterError."""
    if isinstance(x, WideInt):
        if x.bits > w:
            raise ParameterError(f"{name} of {x.bits} bits exceeds word size {w}")
        return x.value
    try:
        v = operator.index(x)
    except TypeError:
        raise ParameterError(f"{name} must be an integer or a WideInt, "
                             f"not {type(x).__name__}") from None
    if not 0 <= v < (1 << w):
        raise ParameterError(f"{name} outside [0, 2^{w})")
    return v


def encode(code: EccCode, x, ledger: OpLedger | None = None) -> WideInt:
    """Map a w-bit word to its codeword_bits-bit codeword.

    split5 and rs_encode leave the 5 * out_slots residues in codeword
    order, word i from bit i * word_out_bits, slot 0 lowest.  Level 1
    scales them all by m with one inner_encode.  Level 2 runs the inner
    level-1 pipeline once over every residue at the same time: one
    split5 spreads the residues to stride inner.codeword_bits and deals
    each into its five inner words, then one rs_encode and one
    inner_encode leave residue s's inner codeword at bit
    s * inner.codeword_bits.  Either way a constant number of
    whole-word operations; `_encode_nested` is the per-residue route.

    Without a ledger, the code's resolved plans run straight through on
    the key's int (`_EncodePlans.run`).  With one, the spec route calls
    each stage by name, and each posts its plan's declared charges to
    the ledger in one call; both routes run the same plan arithmetic.
    """
    p = code.params
    if ledger is None:
        return code._plans.run(_key_value(x, p.w))
    x = WideInt(_key_value(x, p.w), p.w)
    plans = code._plans
    resid = rs_encode(split5(x, p, ledger, plan=plans.split), code.gen, p, ledger,
                      plan=plans.rs)
    if code.level == 1:
        return inner_encode(resid, code.inner, plans.out_layout, ledger, plan=plans.mult)
    inner = code.inner_ecc
    q = inner.params
    words = split5(resid, q, ledger, plans.out_layout, plan=plans.split2)
    return inner_encode(rs_encode(words, inner.gen, q, ledger, plan=plans.rs2),
                        inner.inner, plans.mult_layout, ledger, plan=plans.mult)


def _encode_nested(code: EccCode, x, ledger: OpLedger | None = None) -> WideInt:
    """Level-2 encode one residue at a time: the independent slow route
    that the packed level-2 `encode` is checked against.

    Unpacks the 5 * out_slots residues, encodes each with the inner
    level-1 code and joins the inner codewords with shifts and ORs, so
    its cost grows with the residue count.
    """
    if code.level != 2:
        raise ParameterError(f"nested encode needs a level-2 code, got level {code.level}")
    p = code.params
    x = WideInt(_key_value(x, p.w), p.w)
    resid = rs_encode(split5(x, p, ledger), code.gen, p, ledger)
    inner = code.inner_ecc
    segments = [encode(inner, WideInt(v, inner.params.w), ledger)
                for v in unpack_fields(resid, p.out_layout(5), ledger)]
    acc = segments[0]
    for i, seg in enumerate(segments[1:], start=1):
        acc = wide_or(acc, wide_shl(seg, i * inner.codeword_bits, ledger), ledger)
    return acc


# ---------------------------------------------------------------------------
# Distance measurement


def _codeword_limb_count(code: EccCode) -> int:
    return -(-code.codeword_bits // 64)


def _field_width(code: EccCode) -> int:
    """S of the level-1 code that multiplies: field f of a codeword sits
    at bit f * S."""
    return (code.inner_ecc or code).params.S


def _key_rows(keys, w: int) -> np.ndarray:
    """A key sequence as little-endian uint64 limb rows, one row per key,
    each key checked as `_key_value` checks key i.

    Plain ints are converted in one step and range-checked on the top
    limb; any other key type, and any failed check, takes the per-key
    `_key_value` loop, which raises the same error for the same first
    bad key.
    """
    keys = list(keys)
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
    limbs = _codeword_limb_count(code)
    out = np.empty((len(keys), limbs), dtype=np.uint64)
    lo = 0
    for fields in _batch_fields(code, keys):
        hi = lo + fields.shape[1]
        out[lo:hi] = _kernels.join_fields(fields, stride, limbs)
        lo = hi
    return out


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
    time, so no codeword is joined.

    Raises CodeValidationError if any checked pair lands below the
    construction's guaranteed floor, since that would disprove the code.
    """
    p = code.params
    if mode == "exhaustive":
        if p.w > 12:
            raise ParameterError(
                f"exhaustive distance scan caps at w=12, got w={p.w}")
        n = 1 << p.w
        keys = np.arange(n, dtype=np.uint64)
        limbs = _batch_encode(code, keys)
        min_bits = _kernels.min_pairwise_hamming(limbs)
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


# ---------------------------------------------------------------------------
# Serialization


def _to_obj(code: EccCode) -> dict:
    p = code.params
    return {
        "version": FORMAT_VERSION,
        "level": code.level,
        "w": p.w,
        "B": p.B,
        "P": p.P,
        "alpha": p.alpha,
        "r_deg": p.r_deg,
        "S": p.S,
        "g_coeffs": list(code.gen.coeffs),
        "m": code.inner.m if code.level == 1 else None,
        "delta_num": code.delta.numerator,
        "delta_den": code.delta.denominator,
        "inner": _to_obj(code.inner_ecc) if code.level == 2 else None,
    }


def serialize(code: EccCode) -> bytes:
    return json.dumps(_to_obj(code), separators=(",", ":")).encode("ascii")


def _require(cond: bool, msg: str):
    if not cond:
        raise CodecFormatError(msg)


def _is_int(v) -> bool:
    return isinstance(v, int) and not isinstance(v, bool)


def _check_shape(obj, prefix: str = "") -> None:
    """Field names, types and format rules of one description level.

    Values are left to the rebuild-and-compare in `_from_obj`.  Messages
    name fields by their path, `prefix` ("inner." for a level-2 inner
    object) followed by the key.
    """
    at = f" at {prefix[:-1]}" if prefix else ""
    _require(isinstance(obj, dict), "code description must be an object")
    missing = _DESCRIPTION_KEYS - obj.keys()
    _require(not missing, f"missing fields: {sorted(prefix + k for k in missing)}")
    extra = obj.keys() - _DESCRIPTION_KEYS
    _require(not extra, f"unknown fields: {sorted(prefix + k for k in extra)}")
    for key in ("version", "level", "w", "B", "P", "alpha", "r_deg", "S",
                "delta_num", "delta_den"):
        _require(_is_int(obj[key]), f"field {prefix + key!r} must be an integer")
    _require(isinstance(obj["g_coeffs"], list)
             and all(_is_int(c) for c in obj["g_coeffs"]),
             f"{prefix}g_coeffs must be a list of integers")
    if obj["version"] != FORMAT_VERSION:
        raise CodecVersionError(
            f"unsupported description version {obj['version']}{at}")
    level = obj["level"]
    _require(level in (1, 2), f"{prefix}level must be 1 or 2, got {level}")
    _require(obj["delta_den"] != 0, f"{prefix}delta_den must be nonzero")
    if level == 1:
        _require(_is_int(obj["m"]), f"level 1 requires an integer multiplier{at}")
    else:
        _require(isinstance(obj["inner"], dict),
                 f"level 2 requires a nested inner code{at}")


def _first_mismatch(stored: dict, rebuilt: dict, prefix: str = ""):
    """(field, stored value, rebuilt value) of the first differing field."""
    for key, want in rebuilt.items():
        have = stored[key]
        if isinstance(have, dict) and isinstance(want, dict):
            found = _first_mismatch(have, want, f"{prefix}{key}.")
            if found is not None:
                return found
        elif have != want:
            return f"{prefix}{key}", have, want
    return None


def _from_obj(obj) -> EccCode:
    """Check the shape, rebuild from (w, delta, level), compare.

    A code is a deterministic function of those three values, so a
    description is valid exactly when it equals its own rebuild.  Only
    the top level and a level-2 inner object get a shape check; anything
    nested deeper fails the comparison.
    """
    _check_shape(obj)
    if obj["level"] == 2:
        _check_shape(obj["inner"], "inner.")
    w, level = obj["w"], obj["level"]
    try:
        _check_build_args(w, level)
        code, _ = _build(w, Fraction(obj["delta_num"], obj["delta_den"]),
                         level, OpLedger(w))
    except (ParameterError, MultiplierError) as exc:
        raise CodeValidationError(
            f"description does not rebuild at w={reprlib.repr(w)}: {exc}"
        ) from exc
    mismatch = _first_mismatch(obj, _to_obj(code))
    if mismatch is not None:
        key, have, want = mismatch
        raise CodeValidationError(
            f"stored {key}={reprlib.repr(have)} but w={w} rebuilds "
            f"{key}={reprlib.repr(want)}")
    return code


def deserialize(data) -> EccCode:
    """Parse a description, then rebuild the code it names and compare.

    Raises CodecFormatError for input that is not a well-formed
    description, CodecVersionError for an unknown format version, and
    CodeValidationError when any stored field differs from what the
    construction rebuilds from the stored w, delta and level.
    """
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecFormatError(f"not a text description: {exc}") from exc
    try:
        obj = json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past Python's
        # digit limit; RecursionError covers nesting past the stack.
        raise CodecFormatError(f"not a JSON description: {exc}") from exc
    return _from_obj(obj)
