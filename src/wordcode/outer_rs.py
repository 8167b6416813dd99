"""Outer Reed-Solomon layer over the prime field just above 2^B.

A w-bit key is cut into n_blocks pieces of B = ceil(log2 w) bits (most
significant block first, zero-padded at the tail) and dealt round-robin
into 5 message words, each carrying every fifth block, side by side in
one wide word where their residues sit in the codeword.  Each word is a
polynomial over GF(P): multiplying the wide word by the packed
generator z_r is, word by word, exactly polynomial convolution, and one
parallel_mod call reduces every coefficient of all five.  Encoding
therefore costs a constant number of whole-word operations regardless
of how many blocks a word carries.

The generator g(gamma) = (gamma - alpha)(gamma - alpha^2)...(gamma -
alpha^r_deg) makes every nonzero multiple have at least r_deg + 1
nonzero coefficients (BCH bound), which is where the outer distance
comes from; `bulk.min_weight_multiple_check` measures that bound
directly.
"""

from __future__ import annotations

import operator

from .errors import ParameterError
from .numtheory import find_field_prime, find_primitive_root
from .wordram import (
    FieldLayout,
    OpLedger,
    Record,
    WideInt,
    _ParallelModPlan,
    _reciprocal_any_width,
    _traced_ops,
    div_by_const,
    pack_fields,
    parallel_mod,
    repeat_bits,
    unpack_fields,
    wide_mul,
)

W_MIN = 10
W_MAX = 8192
_W_INTERNAL_MIN = 4


def _ceil_log2(n: int) -> int:
    return (n - 1).bit_length()


class RsParams(Record):
    """Everything derived from the word size w; `prime` is the
    `FieldPrime` record of the prime scan."""

    _fields = ("w", "B", "prime", "alpha", "n_blocks", "blocks_per_word",
               "r_deg", "S", "out_slots")

    @property
    def P(self) -> int:
        return self.prime.P

    @property
    def word_in_bits(self) -> int:
        return self.blocks_per_word * self.S

    @property
    def word_out_bits(self) -> int:
        return self.out_slots * self.S

    def out_layout(self, regions: int = 1) -> FieldLayout:
        """Slots holding field elements in [0, P), `regions` words of
        out_slots each."""
        return FieldLayout(self.S, regions * self.out_slots, self.B + 1)

    def conv_value_bound(self) -> int:
        """Bits of the largest coefficient a message word times the
        generator can reach, before reduction.

        Every message slot is a comb-masked B-bit block, at both levels,
        so it is at most 2^B - 1; every generator coefficient is below P;
        and a coefficient of the product sums at most
        min(blocks_per_word, r_deg + 1) terms.  So no coefficient exceeds
        min(blocks_per_word, r_deg + 1) * (2^B - 1) * (P - 1), and an
        all-(2^B - 1) message times an all-(P - 1) polynomial reaches it.
        """
        terms = min(self.blocks_per_word, self.r_deg + 1)
        return (terms * ((1 << self.B) - 1) * (self.P - 1)).bit_length()

    def conv_layout(self, regions: int = 1) -> FieldLayout:
        """Slots wide enough for raw convolution sums, pre-reduction,
        `regions` words of out_slots each."""
        return FieldLayout(self.S, regions * self.out_slots, self.conv_value_bound())


def _derive_params_any(w: int) -> RsParams:
    """Parameter derivation without the public word-size gate; the
    level-2 construction recurses into word sizes as small as 5.  At
    every such width the convolution sums fit the stride S and the code
    length out_slots stays within P - 1; the tests check every shape."""
    if w < _W_INTERNAL_MIN:
        raise ParameterError(f"word size {w} below internal minimum {_W_INTERNAL_MIN}")
    b = (w - 1).bit_length()
    prime = find_field_prime(b)
    alpha = find_primitive_root(prime)
    n_blocks = -(-w // b)
    bpw = -(-n_blocks // 5)
    r_deg = -(-w // (5 * b))
    s = max(5 * b, 4 * (b + 1))
    out_slots = bpw + r_deg
    return RsParams(w, b, prime, alpha, n_blocks, bpw, r_deg, s, out_slots)


def _index(value, name: str) -> int:
    """value as an int, by `operator.index`, but not a bool;
    ParameterError naming the argument otherwise."""
    if not isinstance(value, bool):
        try:
            return operator.index(value)
        except TypeError:
            pass
    raise ParameterError(f"{name} must be an integer, not {type(value).__name__}")


def _word_size(w) -> int:
    """w as an int in [W_MIN, W_MAX]; ParameterError otherwise."""
    w = _index(w, "word size")
    if not W_MIN <= w <= W_MAX:
        raise ParameterError(f"word size must be in [{W_MIN}, {W_MAX}], got {w}")
    return w


def derive_params(w: int) -> RsParams:
    return _derive_params_any(_word_size(w))


# ---------------------------------------------------------------------------
# split5


class _SplitPlan:
    """Masks, shifts and charged operations for the 5-way block deal of
    `count` keys at once, built once per (params, symbols layout).

    Reading blocks most-significant-first while keeping slot 0 = the
    word's first block means the natural comb extraction would deliver
    the blocks in reversed order.  One shift pads each key to the
    reversal width, a power of two of blocks, so its first block sits in
    the top slot; a log2(n_blocks)-round block-reversal butterfly then
    brings block j to slot j with shifts and masks only, after which
    every word is one comb mask, one shift into its region and one OR.
    Several keys first spread from their input stride to the output
    stride 5 * word_out_bits; every later mask repeats at that stride,
    so each step acts on every key at once.  Constants are tiled by
    doubling (`repeat_bits`), so a plan costs O(log count) big-integer
    operations per mask, not one per key.  `ops` traces `apply` from the
    top key's end.
    """

    __slots__ = ("symbols", "pad", "rounds", "combs", "spread", "out_bits", "ops")

    def __init__(self, p: RsParams, symbols: FieldLayout | None = None):
        if symbols is None:
            symbols = FieldLayout(p.w, 1, p.w)
        nb, b = p.n_blocks, p.B
        n2 = 1 << _ceil_log2(max(nb, 1))
        stride = 5 * p.word_out_bits
        count = symbols.slot_count
        self.symbols = symbols
        self.pad = n2 * b - p.w
        self.out_bits = (count - 1) * stride + 4 * p.word_out_bits + p.word_in_bits
        s_in, vb = symbols.slot_width, symbols.value_bound
        if count < 1 or vb > p.w or s_in > stride:
            raise ParameterError(
                f"{count} keys of {vb} bits at stride {s_in} do not fit "
                f"w={p.w}, output stride {stride}")
        # Key s moves from bit s * s_in to bit s * stride in one round per
        # bit of s, highest first: round k moves every key with bit k set
        # by 2^k (stride - s_in).  Before round k, key s sits at
        # (s with bits below k+1 cleared) * stride + (s mod 2^(k+1)) * s_in,
        # so in each group of 2^(k+1) keys the upper half is one run.  A
        # mask covers only the groups whose upper half holds a key, so no
        # traced width passes the top key.
        spread = []
        for k in reversed(range(_ceil_log2(count))):
            h = 1 << k
            run = ((1 << (h * s_in)) - 1) << (h * s_in)
            mask = repeat_bits(run, 2 * h * stride, -(-(count - h) // (2 * h)))
            spread.append((h * (stride - s_in), mask))
        self.spread = tuple(spread)
        # A round shifts by at most width / 2: keys stay apart while
        # stride >= 1.5 * width, which the tests check at every width.
        rounds = []
        half = 1
        while half < n2:
            g = b * half
            mask = repeat_bits((1 << g) - 1, 2 * g, n2 // (2 * half))
            rounds.append((g, repeat_bits(mask, stride, count)))
            half *= 2
        self.rounds = tuple(rounds)
        # Block i + 5t sits at bit i*B + t*5B.  The comb stride 5B equals
        # S whenever a word carries more than one block (tested at every
        # width), so one shift moves the whole word to i * word_out_bits;
        # single-block words land wholly in slot 0 either way.
        combs = []
        for i in range(5):
            comb = repeat_bits(((1 << b) - 1) << (i * b), 5 * b, len(range(i, nb, 5)))
            combs.append((repeat_bits(comb, stride, count), i * (p.word_out_bits - b)))
        self.combs = tuple(combs)
        self.ops = _traced_ops(self.apply, (count - 1) * s_in + vb)

    def apply(self, v: int) -> int:
        """The five words of every key in v, side by side."""
        for shift, mask in self.spread:
            sel = v & mask
            v = (v ^ sel) | (sel << shift)
        v <<= self.pad
        for g, mask in self.rounds:
            v = ((v >> g) & mask) | ((v & mask) << g)
        out = 0
        for comb, shift in self.combs:
            out |= (v & comb) << shift
        return out


def split5(x: WideInt, plan: _SplitPlan, ledger: OpLedger) -> WideInt:
    """Deal each key's blocks into 5 message words side by side in one word.

    x holds plan.symbols.slot_count keys, key s in slot s of that layout
    and below 2^value_bound <= w; key s's five words start at bit
    s * 5 * word_out_bits, and word i of a key at i * word_out_bits,
    where its residues go.  Word i holds blocks b_i, b_{i+5}, ... with
    slot t at bit t * S; blocks past n_blocks read as zero.  Level 2 runs
    its inner split on every outer residue in one pass.  Cost: the keys
    spread to their output stride in ceil(log2 count) mask, shift and OR
    rounds, then a shared O(log n_blocks) reversal prologue and mask,
    shift and OR per word, each over all keys at once.  The charge is
    the plan's, whatever the keys.
    """
    ledger.post(plan.ops)
    return WideInt(plan.apply(x.value), plan.out_bits)


# ---------------------------------------------------------------------------
# Generator polynomial


class GeneratorPoly(Record):
    """Coefficients of prod_{i=1..r_deg} (gamma - alpha^i) mod P.

    coeffs is a tuple whose entry i is the coefficient of gamma^i, each
    in [0, P); the `WideInt` z_packed carries the same values at slot
    stride S.
    """

    _fields = ("coeffs", "z_packed")


def _gen_layout(p: RsParams) -> FieldLayout:
    return FieldLayout(p.S, p.r_deg + 1, 2 * (p.B + 1) + 1)


def build_generator(p: RsParams, ledger: OpLedger) -> GeneratorPoly:
    """Expand the generator by iterated packed monomial multiplication.

    Each step wide-multiplies the packed polynomial by the packed
    monomial (gamma - alpha^i) — coefficients [P - alpha^i, 1] — and
    immediately parallel_mods the convolution back below P.  Powers of
    alpha advance incrementally with one multiply and one reciprocal
    reduction per step, so the whole build charges O(r_deg) whole-word
    operations.
    """
    prime_p, alpha, r = p.P, p.alpha, p.r_deg
    coeff_layout = FieldLayout(p.S, 2, p.B + 1)
    gen_layout = _gen_layout(p)
    plan = _ParallelModPlan(gen_layout, prime_p)
    pow_rec = _reciprocal_any_width(prime_p, 2 * prime_p.bit_length())
    z = pack_fields([prime_p - alpha, 1], coeff_layout, ledger)
    z = WideInt(z.value, gen_layout.total_bits)
    a_i = alpha
    for _ in range(2, r + 1):
        ledger.charge("mul", prime_p.bit_length(), prime_p.bit_length())
        a_i = div_by_const(a_i * alpha, pow_rec, ledger)[1]
        mono = pack_fields([prime_p - a_i, 1], coeff_layout, ledger)
        # No slot of the product overflows gen_layout: slot k is
        # z_k * (P - a_i) + z_{k-1} with z_k, z_{k-1} < P and 1 <= a_i < P,
        # so it is at most (P-1)^2 + (P-1) < P^2 < 2^(2(B+1)), since
        # P < 2^(B+1); that is below the 2(B+1)+1-bit value bound, and
        # S >= 4(B+1) keeps each slot clear of the next.  The tests check
        # every product slot of every generator the builds expand.
        raw = wide_mul(z, mono, ledger)
        z = parallel_mod(raw, plan, ledger=ledger)
    return GeneratorPoly(tuple(unpack_fields(z, gen_layout)), z)


# ---------------------------------------------------------------------------
# Encoding


class _RsPlan:
    """rs_encode's parallel_mod plan on the convolution layout, the
    packed generator `z` and the charged multiply, for `in_bits`-bit
    input; an encode resolves it once per code."""

    __slots__ = ("mod", "z", "z_bits", "ops")

    def __init__(self, p: RsParams, in_bits: int, z: WideInt):
        self.mod = _ParallelModPlan(p.conv_layout(-(-in_bits // p.word_out_bits)), p.P)
        self.z, self.z_bits = z.value, z.bits
        self.ops = _traced_ops(operator.mul, in_bits, z.bits)

    def apply(self, v: int) -> int:
        """Every message word of v times the generator, reduced mod P."""
        return self.mod.apply(v * self.z)


def rs_encode(x_word: WideInt, plan: _RsPlan, ledger: OpLedger) -> WideInt:
    """f_1 on each message word of x_word: multiply by z_r, reduce mod P.

    Word i sits at bit i * word_out_bits, as split5 lays them out, and
    the plan's input width sets how many there are; every message slot is
    below 2^B, as split5's blocks are.  The product is, word by word, the
    convolution of message and generator slots, each coefficient below
    2^conv_value_bound <= 2^S, so no word spills into the next region,
    and one parallel_mod call leaves every coefficient in [0, P).  That
    tight bound is what lets the reduction run in a single pass over all
    slots at almost every width (see `_ParallelModPlan`).  A constant
    number of charged operations however many words and slots there are.
    The multiply stays here, outside `_RsPlan.apply` (the plan's `ops`
    trace it alone), so the reduction runs as its own `parallel_mod` call.
    """
    ledger.post(plan.ops)
    prod = WideInt(x_word.value * plan.z, x_word.bits + plan.z_bits)
    return parallel_mod(prod, plan.mod, ledger=ledger)
