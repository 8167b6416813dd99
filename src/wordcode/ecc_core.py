"""Whole-code assembly: split, RS residue, inner multiply, concatenate.

A level-1 code carries the full pipeline for one word size: the split
into 5 interleaved words, the packed Reed-Solomon residue over P, and
the distance-amplifying multiplier on every residue slot, each stage one
pass over all five words.  A level-2 code instead runs a level-1 code,
built for the tiny word size B+1, over each residue slot, which gives a
construction whose ledger cost is o(w).  Its encode runs that inner
pipeline once over all residue slots side by side, so it too is a
constant number of whole-word operations.

Construction and encoding are deterministic and run on Python
integers; the bulk encoder and the distance measurements are in `bulk`.
Ledger charges for the construction-time searches are closed forms in
the search outcome, so they never depend on how a kernel scans.
"""

from __future__ import annotations

import json
import operator
import reprlib
from collections import defaultdict
from fractions import Fraction
from functools import cached_property

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
    Record,
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


class EccCode(Record):
    """A constructed code; immutable, shareable, value-comparable.

    `_build` is the only constructor.  The level, the codeword length
    and the relative distance bound are derived from the stages, not stored.
    """

    _fields = ("params", "gen", "inner", "inner_ecc")

    def __init__(self, params: RsParams, gen: GeneratorPoly, inner: InnerCode | None,
                 inner_ecc: "EccCode | None"):
        if (inner is None) == (inner_ecc is None):
            raise ParameterError(
                "a code must carry exactly one inner stage: a multiplier "
                "(level 1) or an inner code (level 2)")
        super().__init__(params, gen, inner, inner_ecc)

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
        # Not a field: ==, hash and serialize never see it.
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

    __slots__ = ("split", "rs", "layout", "mult", "inner", "bits", "phases")

    def __init__(self, code: EccCode, symbols: FieldLayout | None = None):
        p = code.params
        self.split = _SplitPlan(p, symbols)
        count = self.split.symbols.slot_count
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


class CostReport(Record):
    """Ledger totals for one build, in model word operations at size w,
    each derived from the phase maps: phase name -> per-kind counts.

    Build phases are param_search, generator and multiplier_scan, encode
    phases split5, rs_encode and inner_encode; a level-2 code's inner
    phases carry an `inner.` prefix.
    """

    _fields = ("build_phases", "encode_phases")

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
    gen = build_generator(p, ledger=phases[prefix + "generator"])

    if level == 1:
        inner = find_multiplier(p.B, DEFAULT_DELTA if delta is None else delta,
                                ledger=phases[prefix + "multiplier_scan"])
        inner_ecc = None
    else:
        inner = None
        inner_ecc = _build(_derive_params_any(p.B + 1), delta, 1, phases, "inner.")
    return EccCode(p, gen, inner, inner_ecc)


def build_code(w: int, delta=None, level: int = 1):
    """Construct the code for word size w; returns (EccCode, CostReport).

    delta defaults to DEFAULT_DELTA.  Level 2 recursively
    builds its inner stage as a level-1 code for word size B+1; the
    construction phases cover both levels, charged at word size w.  The
    encode phases are the code's plans' declared charges; a probe encode
    of key 0 on the ledgered route must charge exactly their sum, else
    CodeValidationError.
    """
    level = _index(level, "level")
    if level not in (1, 2):
        raise ParameterError(f"level must be 1 or 2, got {level}")
    w = _word_size(w)
    build = defaultdict(lambda: OpLedger(w))
    code = _build(_derive_params_any(w), delta, level, build)
    enc = defaultdict(lambda: OpLedger(w))
    for name, op_lists in code._plans.phases.items():
        for ops in op_lists:
            enc[name].post(ops)
    report = CostReport({name: led.as_dict() for name, led in build.items()},
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


def _hex_key(text: str, w: int, name: str) -> int:
    """A key spelled as exactly ceil(w/4) lowercase hex digits, checked
    as `_key_value` checks it; else ParameterError naming it `name`."""
    digits = -(-w // 4)
    if len(text) != digits or any(c not in "0123456789abcdef" for c in text):
        raise ParameterError(f"{name} must be exactly {digits} lowercase hex digits")
    return _key_value(int(text, 16), w, name)


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
    routes run the same plan arithmetic.  Only the key's width is
    checked here: the stage widths were checked when the plans resolved.
    """
    plans, w = code._plans, code.params.w
    if ledger is None:
        return WideInt(plans.run(_key_value(x, w)), plans.bits)
    x = WideInt(_key_value(x, w), w)
    while True:
        # Ledger by keyword: perfbench's span wrappers look for it there.
        x = rs_encode(split5(x, plans.split, ledger=ledger), plans.rs, ledger=ledger)
        if plans.inner is None:
            return inner_encode(x, plans.mult, ledger=ledger)
        plans = plans.inner


def _encode_nested(code: EccCode, x, ledger: OpLedger) -> WideInt:
    """Level-2 encode one residue at a time: the independent slow route
    that the packed level-2 `encode` is checked against.

    Unpacks the 5 * out_slots residues, encodes each with the inner
    level-1 code and joins the inner codewords with shifts and ORs, so
    its cost grows with the residue count.
    """
    if code.level != 2:
        raise ParameterError(f"nested encode needs a level-2 code, got level {code.level}")
    p, plans = code.params, code._plans
    x = WideInt(_key_value(x, p.w), p.w)
    resid = rs_encode(split5(x, plans.split, ledger=ledger), plans.rs, ledger=ledger)
    inner = code.inner_ecc
    segments = [encode(inner, WideInt(v, inner.params.w), ledger)
                for v in unpack_fields(resid, plans.layout, ledger)]
    acc = segments[0]
    for i, seg in enumerate(segments[1:], start=1):
        acc = wide_or(acc, wide_shl(seg, i * inner.codeword_bits, ledger), ledger)
    return acc


# ---------------------------------------------------------------------------
# Bulk names

# The batch encoder and `distance_report` live in `bulk`, beside the
# numpy kernels.  The benchmark reads them here, so they are served by
# name, and `bulk` is imported on first use: the spec route never
# imports numpy.
_BULK_NAMES = frozenset({"_batch_encode", "distance_report"})


def __getattr__(name):
    if name in _BULK_NAMES:
        from . import bulk
        return getattr(bulk, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


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
        _word_size(w)
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
