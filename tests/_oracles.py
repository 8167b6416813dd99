"""Pure-Python oracles that several test modules check the library against."""

from wordcode.errors import LayoutError
from wordcode.wordram import (
    FieldLayout,
    OpLedger,
    WideInt,
    _reciprocal_any_width,
    div_by_const,
    pack_fields,
    unpack_fields,
)


def pair_min_distance_oracle(m, bits):
    """Least Hamming distance between the products a * m, cut to
    4(bits+1) bits, of two distinct (bits+1)-bit values a; plain ints,
    every pair."""
    mask = (1 << (4 * (bits + 1))) - 1
    codes = [(a * m) & mask for a in range(1 << (bits + 1))]
    return min(bin(x ^ y).count("1")
               for i, x in enumerate(codes) for y in codes[i + 1:])


def scan_multiplier_oracle(bits, m_lo, m_hi, threshold):
    """First m in [m_lo, m_hi) whose oracle distance reaches threshold, else -1."""
    for m in range(m_lo, m_hi):
        if pair_min_distance_oracle(m, bits) >= threshold:
            return m
    return -1


def symbolic_generator(P, alpha, r_deg):
    """Expand prod_{i=1..r}(x - alpha^i) mod P with plain list arithmetic."""
    coeffs = [1]
    for i in range(1, r_deg + 1):
        root = pow(alpha, i, P)
        nxt = [0] * (len(coeffs) + 1)
        for j, c in enumerate(coeffs):
            nxt[j + 1] = (nxt[j + 1] + c) % P
            nxt[j] = (nxt[j] - root * c) % P
        coeffs = nxt
    return coeffs


def wide_trunc(a: WideInt, bits: int, ledger: OpLedger | None = None) -> WideInt:
    """Keep the low `bits` bits.  Charged as one mask over the operand."""
    if bits < 0:
        raise LayoutError(f"negative width {bits}")
    if ledger is not None:
        ledger.charge("bitwise", a.bits)
    return WideInt(a.value & ((1 << bits) - 1), bits)


def parallel_mod_reference(word: WideInt, layout: FieldLayout, divisor: int,
                           ledger: OpLedger | None = None) -> WideInt:
    """Slot-at-a-time route to what parallel_mod computes, for a word at
    least as wide as the layout.

    Linear cost in slot_count; kept as the independent implementation
    that the packed route is checked against.
    """
    if divisor < 2:
        raise LayoutError(f"divisor must be at least 2, got {divisor}")
    if word.bits < layout.total_bits:
        raise LayoutError(
            f"word of {word.bits} bits shorter than layout ({layout.total_bits})"
        )
    if layout.slot_count == 0:
        return WideInt(0, 0)
    rec = _reciprocal_any_width(divisor, layout.value_bound)
    slots = unpack_fields(wide_trunc(word, layout.total_bits, ledger), layout, ledger)
    reduced = [div_by_const(c, rec, ledger)[1] for c in slots]
    out_layout = FieldLayout(layout.slot_width, layout.slot_count,
                             min(divisor.bit_length(), layout.slot_width))
    return WideInt(pack_fields(reduced, out_layout, ledger).value, layout.total_bits)
