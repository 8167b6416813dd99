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
from collections import defaultdict
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

import numpy as np

from . import _kernels
from .errors import (
    CodecError,
    CodecFormatError,
    CodecVersionError,
    CodeValidationError,
    MultiplierNotFoundError,
    ParameterError,
)
from .inner_mult import (
    DEFAULT_DELTA,
    InnerCode,
    _MultPlan,
    _verify_multiplier,
    find_multiplier,
    inner_encode,
)
from .numtheory import _prime_factors
from .outer_rs import (
    GeneratorPoly,
    RsParams,
    _RsPlan,
    _SplitPlan,
    _derive_params_any,
    _index,
    _word_size,
    build_generator,
    rs_encode,
    split5,
)
from .wordram import (
    FieldLayout,
    OpLedger,
    WideInt,
    _KINDS,
    unpack_fields,
    wide_or,
    wide_shl,
)

FORMAT_VERSION = 1

_DESCRIPTION_INTS = ("version", "level", "w", "B", "P", "alpha", "r_deg", "S",
                     "delta_num", "delta_den")
_DESCRIPTION_KEYS = {*_DESCRIPTION_INTS, "g_coeffs", "m", "inner"}


@dataclass(frozen=True)
class EccCode:
    """A constructed code; immutable, shareable, value-comparable.

    `_build` is the only constructor.  The level, the codeword length
    and the relative distance bound are derived from the stages, not stored.
    """

    params: RsParams
    gen: GeneratorPoly
    inner: InnerCode | None
    inner_ecc: "EccCode | None"

    def __post_init__(self):
        if (self.inner is None) == (self.inner_ecc is None):
            raise ParameterError(
                "a code must carry exactly one inner stage: a multiplier "
                "(level 1) or an inner code (level 2)")

    @property
    def level(self) -> int:
        """1 when the inner stage is a multiplier, 2 when it is a code."""
        return 1 if self.inner_ecc is None else 2

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
    """Every plan one level of a code's encode runs, for `symbols`:
    one key, or a word of keys in that layout's slots.

    The level splits and rs-encodes its keys, leaving their residues on
    `layout`.  Level 1 then multiplies them (`mult`); level 2 hands them
    to `inner`, its inner code's plans with `layout` as symbols, so a
    level-2 encode is the outer stage plus the inner code's plans over
    every residue.  `EccCode._plans` resolves them on a code's first
    encode, so a warm encode looks nothing up.  The width checks, which
    depend only on the plans, run once per level here: the split fits
    the rs multiply, its product reaches the residue layout, and the
    output is `bits`, the codewords of all keys.  `run` chains the
    plans' `apply` on a plain int.  `phases` maps each encode phase
    (split5, rs_encode, inner_encode; the inner code's under `inner.`)
    to the `OpList`s its ledgered stage posts.
    """

    __slots__ = ("symbols", "split", "rs", "layout", "mult", "inner", "bits", "phases")

    def __init__(self, code: EccCode, symbols: FieldLayout | None = None):
        p = code.params
        count = 1 if symbols is None else symbols.slot_count
        self.symbols = symbols
        self.split = _SplitPlan(p, symbols)
        self.rs = _RsPlan(p, self.split.out_bits, code.gen.z_packed)
        self.layout = p.out_layout(5 * count)
        # Must match what each ledgered stage posts, until the ledgered
        # encode posts these phases itself (ROADMAP item 7(c)).
        self.phases = {
            "split5": (self.split.ops,),
            "rs_encode": (self.rs.ops, self.rs.mod.ops),
        }
        if code.level == 1:
            self.mult = _MultPlan(code.inner, self.layout)
            self.inner = None
            self.bits = self.mult.bits
            self.phases["inner_encode"] = (self.mult.ops,)
        else:
            self.mult = None
            self.inner = _EncodePlans(code.inner_ecc, self.layout)
            self.bits = self.inner.bits
            for name, op_lists in self.inner.phases.items():
                self.phases["inner." + name] = op_lists
        if self.bits != count * code.codeword_bits:
            raise CodeValidationError(f"codewords of {self.bits} bits, "
                                      f"expected {count * code.codeword_bits}")
        if (self.split.out_bits + self.rs.z_bits < self.rs.mod.bits
                or self.rs.mod.bits > self.layout.total_bits):
            raise CodeValidationError("encode stage widths do not chain")

    def run(self, v: int) -> int:
        """The codewords of v, a plain int of keys already checked to
        fit `symbols` (one key: in [0, 2^w))."""
        v = self.rs.apply(self.split.apply(v))
        if self.inner is None:
            return self.mult.apply(v)
        return self.inner.run(v)


@dataclass(frozen=True)
class CostReport:
    """Ledger totals for one build, in model word operations at size w,
    each derived from the phase maps: phase name -> per-kind counts.

    Build phases are param_search, generator and multiplier_scan, encode
    phases split5, rs_encode and inner_encode; a level-2 code's inner
    phases carry an `inner.` prefix.
    """

    w: int
    build_phases: dict
    encode_phases: dict

    @property
    def construction_ops(self) -> dict:
        return _kind_sums(self.build_phases)

    @property
    def encode_ops(self) -> dict:
        return _kind_sums(self.encode_phases)

    @property
    def generator_ops(self) -> dict:
        return dict(self.build_phases["generator"])

    def construction_total(self) -> int:
        return sum(self.construction_ops.values())

    def encode_total(self) -> int:
        return sum(self.encode_ops.values())

    def generator_total(self) -> int:
        return sum(self.generator_ops.values())

    def as_dict(self) -> dict:
        return {
            "w": self.w,
            "construction_ops": self.construction_ops,
            "encode_ops": self.encode_ops,
            "generator_ops": self.generator_ops,
        }


def _kind_sums(phases: dict) -> dict:
    """Per-kind counts summed over every phase."""
    return {kind: sum(ops[kind] for ops in phases.values()) for kind in _KINDS}


# ---------------------------------------------------------------------------
# Construction


def _charge_param_search(p: RsParams, ledger: OpLedger):
    """Model cost of the prime scan and the primitive-root search.

    Both searches run on host integers; the charge is a closed form in
    what they found.  Each trial division of the prime scan, counted in
    its own record `p.prime.trial_steps`, is one multiply and one
    compare at B+1 bits: every candidate lies in [2^B, P] and
    P < 2^(B+1).  Each root candidate 2..alpha tests every prime q
    dividing P-1 by square-and-multiply with a reduction per step,
    2 * bitlen((P-1)/q) multiplies at P's width.
    """
    steps, bits = p.prime.trial_steps, p.B + 1
    ledger.charge("mul", bits, bits, count=steps)
    ledger.charge("cmp", bits, count=steps)
    per_root = sum(2 * ((p.P - 1) // q).bit_length() for q in _prime_factors(p.P - 1))
    pbits = p.P.bit_length()
    ledger.charge("mul", pbits, pbits, count=(p.alpha - 1) * per_root)


def _build(p: RsParams, delta, level: int, phases: defaultdict, prefix: str = "") -> EccCode:
    """Assemble the code, charging each construction phase to its own
    ledger `phases[prefix + name]`; the level-2 inner build's prefix is `inner.`."""
    _charge_param_search(p, phases[prefix + "param_search"])
    gen = build_generator(p, phases[prefix + "generator"])

    if level == 1:
        inner = find_multiplier(p.B, DEFAULT_DELTA if delta is None else delta,
                                phases[prefix + "multiplier_scan"])
        inner_ecc = None
    else:
        inner = None
        inner_ecc = _build(_derive_params_any(p.B + 1), delta, 1, phases, "inner.")
    return EccCode(p, gen, inner, inner_ecc)


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
    construction phases cover both levels, charged at word size w.  The
    encode phases are the code's plans' declared charges; a probe encode
    of key 0 on the ledgered route must charge exactly their sum, else
    CodeValidationError.
    """
    w, level = _check_build_args(w, level)
    build = defaultdict(lambda: OpLedger(w))
    code = _build(_derive_params_any(w), delta, level, build)
    enc = defaultdict(lambda: OpLedger(w))
    for name, op_lists in code._plans.phases.items():
        for ops in op_lists:
            enc[name].post(ops)
    report = CostReport(w, {name: led.as_dict() for name, led in build.items()},
                        {name: led.as_dict() for name, led in enc.items()})
    probe = OpLedger(w)
    encode(code, WideInt(0, w), probe)
    if probe.as_dict() != report.encode_ops:
        raise CodeValidationError(f"probe encode charged {probe.as_dict()}, "
                                  f"its phases sum to {report.encode_ops}")
    return code, report


# ---------------------------------------------------------------------------
# Encoding


def _key_value(x, w: int, name: str = "input") -> int:
    """x as an integer in [0, 2^w): a WideInt no wider than w, or what
    `operator.index` takes (numpy integers too) but a bool; else
    ParameterError."""
    if isinstance(x, WideInt):
        if x.bits > w:
            raise ParameterError(f"{name} of {x.bits} bits exceeds word size {w}")
        return x.value
    try:
        v = operator.index(x)
    except TypeError:
        v = None
    if v is None or isinstance(x, bool):
        raise ParameterError(f"{name} must be an integer or a WideInt, "
                             f"not {type(x).__name__}")
    if not 0 <= v < (1 << w):
        raise ParameterError(f"{name} outside [0, 2^{w})")
    return v


def encode(code: EccCode, x, ledger: OpLedger | None = None) -> WideInt:
    """Map a w-bit word to its codeword_bits-bit codeword.

    split5 and rs_encode leave the 5 * out_slots residues in codeword
    order, word i from bit i * word_out_bits, slot 0 lowest.  Level 1
    scales them all by m with one inner_encode.  Level 2 then runs its
    inner level-1 code once over every residue at the same time: the
    inner split5 spreads the residues to stride inner.codeword_bits and
    deals each into its five inner words, then one rs_encode and one
    inner_encode leave residue s's inner codeword at bit
    s * inner.codeword_bits.  Either way a constant number of
    whole-word operations; `_encode_nested` is the per-residue route.

    Without a ledger, the code's resolved plans run straight through on
    the key's int (`_EncodePlans.run`).  With one, the spec route is one
    loop over the levels, calling each stage by name, and each stage
    posts its plan's declared charges to the ledger in one call; both
    routes run the same plan arithmetic.
    """
    plans, w = code._plans, code.params.w
    if ledger is None:
        return WideInt(plans.run(_key_value(x, w)), plans.bits)
    x = WideInt(_key_value(x, w), w)
    while True:
        p = code.params
        words = split5(x, p, ledger, plans.symbols, plan=plans.split)
        x = rs_encode(words, code.gen, p, ledger, plan=plans.rs)
        if plans.inner is None:
            return inner_encode(x, code.inner, plans.layout, ledger, plan=plans.mult)
        code, plans = code.inner_ecc, plans.inner


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


def _check_fields(obj, what: str, fields: set, ints: tuple, prefix: str = "") -> None:
    """`obj`, a `what`, is an object with exactly `fields`, each of `ints`
    an int but not a bool; else CodecFormatError naming a field as
    `prefix` + key ("inner." for a level-2 inner object)."""
    _require(isinstance(obj, dict), f"{what} must be an object")
    missing = fields - obj.keys()
    _require(not missing, f"missing fields: {sorted(prefix + k for k in missing)}")
    extra = obj.keys() - fields
    _require(not extra, f"unknown fields: {sorted(prefix + k for k in extra)}")
    for key in ints:
        _require(_is_int(obj[key]), f"field {prefix + key!r} must be an integer")


def _check_shape(obj, prefix: str = "") -> None:
    """Field names, types and format rules of one description level.

    Values are left to the rebuild-and-compare in `_from_obj`.  Messages
    name fields as `_check_fields` does.
    """
    at = f" at {prefix[:-1]}" if prefix else ""
    _check_fields(obj, "code description", _DESCRIPTION_KEYS, _DESCRIPTION_INTS, prefix)
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
    nested deeper fails the comparison.  A level-1 stored m is verified
    first: one that fails cannot equal its rebuild, which would scan
    every multiplier for a delta out of reach.
    """
    _check_shape(obj)
    if obj["level"] == 2:
        _check_shape(obj["inner"], "inner.")
    w, level = obj["w"], obj["level"]
    delta = Fraction(obj["delta_num"], obj["delta_den"])
    try:
        _check_build_args(w, level)
        params = _derive_params_any(w)
        if level == 1:
            _verify_multiplier(obj["m"], params.B, delta)
        code = _build(params, delta, level, defaultdict(lambda: OpLedger(w)))
    except (ParameterError, MultiplierNotFoundError) as exc:
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
    return _from_obj(_parse_json(data))


def _read_file(path, parse):
    """parse(the bytes of the file at `path`); every CodecError it
    raises starts with the path."""
    with open(path, "rb") as fh:
        data = fh.read()
    try:
        return parse(data)
    except CodecError as exc:
        raise type(exc)(f"{path}: {exc}") from exc


def _parse_json(data):
    """The JSON value of UTF-8 bytes or a str, else CodecFormatError."""
    if isinstance(data, (bytes, bytearray)):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            raise CodecFormatError(f"not a text description: {exc}") from exc
    try:
        return json.loads(data)
    except (ValueError, RecursionError) as exc:
        # ValueError covers malformed JSON and integers past Python's
        # digit limit; RecursionError covers nesting past the stack.
        raise CodecFormatError(f"not a JSON description: {exc}") from exc
