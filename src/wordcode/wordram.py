"""Word-RAM primitives: wide integers, an operation ledger, packed fields.

The model machine has words of `w` bits, where `w` is a parameter of the
ledger and deliberately decoupled from the host word size.  A value of
`L` bits occupies words(L) = ceil(L / w) machine words, and every
operation is charged in machine words:

    add/sub/cmp/bitwise   max(words(a), words(b))
    mul                   words(a) * words(b)   (schoolbook)
    shift                 words(operand bits + bits shifted in)

Values are held as host Python integers inside `WideInt`, which pins an
explicit bit width so that charges depend only on declared widths, never
on the numeric value stored.  The rules above live in one place,
`OpLedger.op_units`; every caller passes widths, never word units.  An
encode-stage plan's charges are the (kind, bits_a, bits_b) records that
`_traced_ops` logs once per plan, running its `apply` on stand-ins that
bound each operand's bit length (a constant's is its `bit_length()`):

    a & b                 bitwise at the narrower width, which it yields
    a | b,  a ^ b,  a - b bitwise (sub) at the wider width, which it yields
    0 | b                 free: an OR into the literal accumulator 0
    a << s,  a >> s       (shift, a, s) yields a + s; (shift, a, 0), a - s
    a * b                 (mul, a, b), yielding a + b bits

The packed-field routines treat one wide integer as an array of fixed
width slots (slot 0 least significant).  `parallel_mod` reduces every
slot modulo a small prime with a constant number of whole-word
operations, using a precomputed reciprocal so that no division is ever
issued.
"""

from __future__ import annotations

import operator
from functools import lru_cache

from .errors import LayoutError


class WideInt:
    """Immutable unsigned integer with an explicit bit width.

    The width is part of the identity: WideInt(1, 8) != WideInt(1, 16).
    A width of zero is allowed and holds only the value zero.
    """

    __slots__ = ("value", "bits")

    def __init__(self, value: int, bits: int):
        if bits < 0:
            raise LayoutError(f"negative width {bits}")
        if value < 0 or value >> bits:
            raise LayoutError(f"value {value:#x} does not fit in {bits} bits")
        _set_value(self, value)
        _set_bits(self, bits)

    def __setattr__(self, name, _value):
        raise AttributeError(f"WideInt is immutable, cannot set {name!r}")

    def to_hex(self) -> str:
        digits = -(-self.bits // 4)
        return format(self.value, f"0{digits}x") if digits else ""

    def __int__(self) -> int:
        return self.value

    def __eq__(self, other) -> bool:
        if not isinstance(other, WideInt):
            return NotImplemented
        return self.value == other.value and self.bits == other.bits

    def __hash__(self) -> int:
        return hash((self.value, self.bits))

    def __repr__(self) -> str:
        return f"WideInt({self.value:#x}, bits={self.bits})"


# The slot descriptors' own setters: they bypass the immutability guard
# in `__setattr__`, and cost less per call than `object.__setattr__`.
_set_value = WideInt.value.__set__
_set_bits = WideInt.bits.__set__


class Record:
    """Immutable value with the fields a subclass names in `_fields`.

    `__init__` takes the fields by position.  Two records are equal when
    they have the same type and equal fields; the hash and the
    `Name(field=value, ...)` repr read the fields too.  The values live
    in the instance dict, so a `functools.cached_property` can keep a
    derived value beside them that ==, hash and repr never see.
    """

    _fields: tuple = ()

    def __init__(self, *values):
        if len(values) != len(self._fields):
            raise TypeError(f"{type(self).__name__} takes {len(self._fields)} "
                            f"fields, got {len(values)}")
        # Set one by one rather than through `__dict__`, which would
        # materialize the dict and slow every later attribute read.
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)

    def __setattr__(self, name, _value):
        raise AttributeError(f"{type(self).__name__} is immutable, cannot set {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"{type(self).__name__} is immutable, cannot delete {name!r}")

    def __init_subclass__(cls, **kwargs):
        super().__init_subclass__(**kwargs)
        # One getter of all the fields per record type, built in C, so
        # == and hash cost what a dataclass's inline field tuple does.
        # It is not a descriptor: call it as `self._values(self)`.
        cls._values = operator.attrgetter(*cls._fields)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return self._values(self) == self._values(other)

    def __hash__(self) -> int:
        return hash(self._values(self))

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self._fields)
        return f"{type(self).__qualname__}({fields})"


_KINDS = ("add", "sub", "mul", "shift", "bitwise", "cmp")


class OpList:
    """The (kind, bits_a, bits_b) records `_traced_ops` logs for a plan;
    `units` caches their per-kind word units by ledger word size."""

    __slots__ = ("ops", "units")

    def __init__(self, ops):
        self.ops = tuple(ops)
        self.units = {}


class OpLedger:
    """Counter of model operations, grouped by kind.

    `word_bits` is the model word size w.  `charge` and `post` turn bit
    widths, never values, into word units by `op_units`.  Two ledgers
    are equal when their word size and every count are.
    """

    def __init__(self, word_bits: int):
        if word_bits < 1:
            raise LayoutError(f"word size must be positive, got {word_bits}")
        self.word_bits = word_bits
        self.add = self.sub = self.mul = self.shift = self.bitwise = self.cmp = 0

    def __eq__(self, other) -> bool:
        if type(other) is not OpLedger:
            return NotImplemented
        return (self.word_bits, self.as_dict()) == (other.word_bits, other.as_dict())

    def __repr__(self) -> str:
        counts = ", ".join(f"{kind}={n}" for kind, n in self.as_dict().items())
        return f"OpLedger(word_bits={self.word_bits}, {counts})"

    def words(self, bits: int) -> int:
        return -(-bits // self.word_bits)

    def op_units(self, kind: str, bits_a: int, bits_b: int = 0) -> int:
        """Word units of one `kind` operation on operands of the given
        widths; for a shift, bits_b is the count of bits shifted in."""
        if kind == "mul":
            return self.words(bits_a) * self.words(bits_b)
        if kind == "shift":
            return self.words(bits_a + bits_b)
        return max(self.words(bits_a), self.words(bits_b))

    def charge(self, kind: str, bits_a: int, bits_b: int = 0, count: int = 1):
        """Charge `count` `kind` operations on operands of the given
        widths, in one call however large the count."""
        if kind not in _KINDS:
            raise ValueError(f"unknown op kind {kind!r}")
        if count < 0:
            raise ValueError(f"negative count {count}")
        units = self.op_units(kind, bits_a, bits_b)
        setattr(self, kind, getattr(self, kind) + count * units)

    def post(self, ops: OpList):
        """Charge every operation of `ops` in one call."""
        units = ops.units.get(self.word_bits)
        if units is None:
            tally = dict.fromkeys(_KINDS, 0)
            for kind, bits_a, bits_b in ops.ops:
                tally[kind] += self.op_units(kind, bits_a, bits_b)
            units = ops.units[self.word_bits] = tuple(tally.values())
        add, sub, mul, shift, bitwise, cmp = units
        self.add += add
        self.sub += sub
        self.mul += mul
        self.shift += shift
        self.bitwise += bitwise
        self.cmp += cmp

    def total(self) -> int:
        return self.add + self.sub + self.mul + self.shift + self.bitwise + self.cmp

    def as_dict(self) -> dict:
        return {kind: getattr(self, kind) for kind in _KINDS}


class _Traced:
    """Value-free stand-in for a plan operand: `bits` bounds its bit
    length, and each operation appends its (kind, bits_a, bits_b) record
    to the shared `log`, by the rules in the module docstring."""

    __slots__ = ("bits", "log")

    def __init__(self, bits: int, log: list):
        self.bits, self.log = bits, log

    def _op(self, kind: str, bits_a: int, bits_b: int = 0, bits: int | None = None):
        self.log.append((kind, bits_a, bits_b))
        return _Traced(bits_a if bits is None else bits, self.log)

    def __and__(self, other):
        return self._op("bitwise", min(self.bits, _width(other)))

    def __xor__(self, other):
        return self._op("bitwise", max(self.bits, _width(other)))

    def __or__(self, other):
        return self if type(other) is int and other == 0 else self.__xor__(other)

    def __sub__(self, other):
        return self._op("sub", max(self.bits, _width(other)))

    def __mul__(self, other):
        return self._op("mul", self.bits, _width(other), self.bits + _width(other))

    def __lshift__(self, s: int):
        return self._op("shift", self.bits, s, self.bits + s)

    def __rshift__(self, s: int):
        return self._op("shift", self.bits, 0, max(self.bits - s, 0))

    __ror__ = __or__


def _width(x) -> int:
    return x.bits if isinstance(x, _Traced) else x.bit_length()


def _traced_ops(apply, *widths: int) -> OpList:
    """The records `apply` logs when run once on one stand-in per width."""
    log = []
    apply(*(_Traced(bits, log) for bits in widths))
    return OpList(log)


# ---------------------------------------------------------------------------
# Wide operations.  Every function takes an optional ledger; passing None
# computes the value without charging, as `outer_rs.build_generator` does
# reading the generator's coefficients with `unpack_fields`.


def wide_mul(a: WideInt, b: WideInt, ledger: OpLedger | None = None) -> WideInt:
    if ledger is not None:
        ledger.charge("mul", a.bits, b.bits)
    return WideInt(a.value * b.value, a.bits + b.bits)


def wide_shl(a: WideInt, amount: int, ledger: OpLedger | None = None) -> WideInt:
    if amount < 0:
        raise ValueError(f"negative shift {amount}")
    if ledger is not None:
        ledger.charge("shift", a.bits, amount)
    return WideInt(a.value << amount, a.bits + amount)


def wide_or(a: WideInt, b: WideInt, ledger: OpLedger | None = None) -> WideInt:
    if ledger is not None:
        ledger.charge("bitwise", a.bits, b.bits)
    return WideInt(a.value | b.value, max(a.bits, b.bits))


# ---------------------------------------------------------------------------
# Packed fields.


class FieldLayout(Record):
    """A wide integer viewed as `slot_count` slots of `slot_width` bits.

    Slot i occupies bits [i*slot_width, (i+1)*slot_width), slot 0 least
    significant.  Packed values are promised to be below 2**value_bound;
    the headroom between value_bound and slot_width is what lets whole
    word arithmetic act on all slots at once without carries leaking.
    """

    _fields = ("slot_width", "slot_count", "value_bound")

    def __init__(self, slot_width: int, slot_count: int, value_bound: int):
        if slot_width < 1:
            raise LayoutError(f"slot width must be positive, got {slot_width}")
        if slot_count < 0:
            raise LayoutError(f"negative slot count {slot_count}")
        if not 0 <= value_bound <= slot_width:
            raise LayoutError(
                f"value bound {value_bound} outside [0, slot width {slot_width}]"
            )
        super().__init__(slot_width, slot_count, value_bound)

    @property
    def total_bits(self) -> int:
        return self.slot_width * self.slot_count


def repeat_bits(unit: int, period: int, count: int) -> int:
    """`count` copies of the bit pattern `unit`, copy j shifted left by
    j * period, built by doubling in O(log count) big-integer operations.

    For plan constants: a per-copy loop would build its growing mask
    once per copy, quadratic in the mask's length.
    """
    out, shift, span = 0, 0, period
    while count:
        if count & 1:
            out |= unit << shift
            shift += span
        count >>= 1
        if count:
            unit |= unit << span
            span *= 2
    return out


def pack_fields(values, layout: FieldLayout, ledger: OpLedger | None = None) -> WideInt:
    """Assemble slot values into one wide integer.  Linear cost in slots.

    Charged as one shift (for every slot but slot 0) and one OR per slot.
    """
    values = list(values)
    n, sw = layout.slot_count, layout.slot_width
    if len(values) != n:
        raise LayoutError(f"expected {n} values, got {len(values)}")
    bound = 1 << layout.value_bound
    if values and not (min(values) >= 0 and max(values) < bound):
        i, v = next((i, v) for i, v in enumerate(values) if not 0 <= v < bound)
        raise LayoutError(f"slot {i} value {v} outside [0, {bound})")
    if ledger is not None:
        for i in range(1, n):
            ledger.charge("shift", layout.value_bound, i * sw)
        ledger.charge("bitwise", layout.total_bits, count=n)
    # Join neighbours pairwise, doubling the run width each round; an
    # odd run out stays last, which is where its slots belong.
    acc, width = values, sw
    while len(acc) > 1:
        joined = [lo | (hi << width) for lo, hi in zip(acc[::2], acc[1::2])]
        if len(acc) % 2:
            joined.append(acc[-1])
        acc, width = joined, 2 * width
    return WideInt(acc[0] if acc else 0, layout.total_bits)


def unpack_fields(word: WideInt, layout: FieldLayout, ledger: OpLedger | None = None) -> list[int]:
    """Read all slot values back out.  Linear cost in slots.

    Charged as one shift and one mask of the whole word per slot.
    """
    if word.bits < layout.total_bits:
        raise LayoutError(
            f"word of {word.bits} bits shorter than layout ({layout.total_bits})"
        )
    n, sw = layout.slot_count, layout.slot_width
    if ledger is not None:
        ledger.charge("shift", word.bits, count=n)
        ledger.charge("bitwise", word.bits, count=n)
    # One byte string, then each slot from the few bytes it spans.
    data = word.value.to_bytes(-(-word.bits // 8), "little")
    mask = (1 << sw) - 1
    return [(int.from_bytes(data[lo >> 3:(lo + sw + 7) >> 3], "little") >> (lo & 7))
            & mask for lo in range(0, n * sw, sw)]


# ---------------------------------------------------------------------------
# Reciprocal (division-free) modular reduction.


class Reciprocal(Record):
    """Magic constant pair (magic, shift) with floor(c*magic >> shift) ==
    c // divisor for every c below 2**value_bits.

    Exactness is proven by the certificate `_minimal_shift` checks, not
    by trying dividends; the tests brute-force it.
    """

    _fields = ("divisor", "magic", "shift", "value_bits")


def _minimal_shift(divisor: int, value_bits: int) -> tuple[int, int]:
    """Smallest k, with M = ceil(2**k / divisor), whose error term
    e = M*divisor - 2**k satisfies e*(2**value_bits - 1) < 2**k.

    That certificate makes floor((c*M) / 2**k) == c//divisor for every c
    in [0, 2**value_bits): with c = q*divisor + r, c*M/2**k equals
    c/divisor + c*e/(divisor*2**k), and c*e < 2**k keeps the fraction
    (r + c*e/2**k)/divisor below 1 (Granlund & Montgomery, PLDI 1994).
    Some k <= value_bits + bit_length(divisor) holds, since e < divisor
    <= 2**bit_length(divisor), so the loop ends.  Returns (M, k).
    """
    top, k = (1 << value_bits) - 1, 1
    while True:
        magic = -(-(1 << k) // divisor)
        if (magic * divisor - (1 << k)) * top < (1 << k):
            return magic, k
        k += 1


@lru_cache(maxsize=256)
def _reciprocal_any_width(divisor: int, value_bits: int) -> Reciprocal:
    """The reciprocal of `divisor` exact on [0, 2**value_bits), any width.

    The one reciprocal constructor: the minimal shift whose certificate
    holds, so no dividend is tried at run time.  Callers have checked
    divisor >= 2 and value_bits >= 0 (a `FieldLayout` bound).
    """
    return Reciprocal(divisor, *_minimal_shift(divisor, value_bits), value_bits)


def div_by_const(c: int, rec: Reciprocal, ledger: OpLedger | None = None) -> tuple[int, int]:
    """Quotient and remainder of c by rec.divisor, without dividing.

    Two multiplies, one shift, one subtract; charged at the widths of
    the validated range, not of the particular value.
    """
    if not 0 <= c < (1 << rec.value_bits):
        raise ValueError(
            f"dividend {c} outside validated range [0, 2**{rec.value_bits})"
        )
    q = (c * rec.magic) >> rec.shift
    if ledger is not None:
        qbits = (((1 << rec.value_bits) - 1) // rec.divisor).bit_length()
        ledger.charge("mul", rec.value_bits, rec.magic.bit_length())
        ledger.charge("shift", rec.value_bits + rec.magic.bit_length())
        ledger.charge("mul", qbits, rec.divisor.bit_length())
        ledger.charge("sub", rec.value_bits, rec.value_bits)
    return q, c - q * rec.divisor


# ---------------------------------------------------------------------------
# Parallel modular reduction of every slot at once.
#
# Strategy: multiply the masked word by the magic constant M, shift the
# products right by k, mask each slot's quotient, multiply the quotients
# by the divisor and subtract.  The reciprocal's certificate makes every
# slot's quotient exact, floor(c*M / 2**k) == c // divisor, and bounds
# every slot's product by the quotient window, c*M < 2**(k + qbits).
# When that window fits one slot (k + qbits <= slot_width) no product
# reaches its neighbour, so one pass over all slots does it.  Otherwise
# the word is split into its even slots and its odd slots (stride
# 2*slot_width): within one parity a product spills only into a dead
# neighbour, as long as the window fits two slots, which the plan
# checks; the odd parity is OR-ed into the even one.  Nothing follows
# either way: each remainder is already in [0, divisor).


class _ParallelModPlan:
    """Masks, reciprocal and charged operations of `parallel_mod` on one
    (layout, divisor), built once; every check that depends only on them
    runs here.

    `parities` holds one (slot mask, quotient mask) pair per pass: one
    pair over every slot when the quotient window fits a slot, otherwise
    the even slots' pair and then the odd slots'.
    """

    __slots__ = ("bits", "divisor", "magic", "shift", "parities", "ops")

    def __init__(self, layout: FieldLayout, divisor: int):
        if divisor < 2:
            raise LayoutError(f"divisor must be at least 2, got {divisor}")
        s, n, v = layout.slot_width, layout.slot_count, layout.value_bound
        self.bits = layout.total_bits
        self.divisor = divisor
        rec = _reciprocal_any_width(divisor, v)
        # With q = (2**v - 1) // divisor the certificate gives
        # q * 2**k <= (2**v - 1) * M < (q + 1) * 2**k, so the largest
        # slot product has exactly k + bit_length(q) bits when q >= 1 and
        # at most k when q == 0: this one check also bounds the product.
        qbits = max((((1 << v) - 1) // divisor).bit_length(), 1)
        if rec.shift + qbits > 2 * s:
            raise LayoutError(
                f"quotient window (shift {rec.shift} + {qbits} bits) exceeds two slots"
                f" ({2 * s}); layout too tight for divisor {divisor}"
            )
        self.magic, self.shift = rec.magic, rec.shift
        # Slots a pass covers: every slot when the window fits one slot,
        # otherwise every other slot, even ones first.
        step = 1 if rec.shift + qbits <= s else 2
        self.parities = tuple(
            (repeat_bits(((1 << s) - 1) << (i * s), step * s, len(range(i, n, step))),
             repeat_bits(((1 << qbits) - 1) << (i * s), step * s, len(range(i, n, step))))
            for i in range(min(n, step)))
        # The first mask bounds any wider input, so all trace alike.
        self.ops = _traced_ops(self.apply, self.bits)

    def apply(self, x: int) -> int:
        """Every slot of x reduced modulo the divisor; bits above the
        layout are dropped."""
        out = 0
        magic, shift, divisor = self.magic, self.shift, self.divisor
        for mask, q_mask in self.parities:
            selected = x & mask
            out |= selected - (((selected * magic) >> shift) & q_mask) * divisor
        return out


def parallel_mod(word: WideInt, plan: _ParallelModPlan, ledger: OpLedger) -> WideInt:
    """Reduce every slot of `word` modulo the plan's divisor in one packed
    pass, or one per slot parity (see `_ParallelModPlan`).

    Bits of `word` above the layout's total_bits are ignored; a word
    shorter than the layout reads its missing slots as zero.  The charge
    is the plan's, whatever the slot values.
    """
    ledger.post(plan.ops)
    return WideInt(plan.apply(word.value), plan.bits)

