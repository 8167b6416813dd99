"""Per-slot reference encoder, independent of the packed word routines.

Computed from the public description of a code only: its parameters,
the generator coefficients `gen.coeffs` and the inner multiplier
`inner.m` (or, at level 2, the nested level-1 code).  Every step works
one block or one symbol at a time with plain integers, so it shares no
arithmetic with `split5`, `rs_encode`, `parallel_mod` or the
whole-word multiply it checks.
"""

from __future__ import annotations


def _blocks(p, x: int) -> list:
    """The n_blocks B-bit blocks of x, most significant first, the last
    block zero-padded at its low end."""
    v = x << (p.n_blocks * p.B - p.w)
    mask = (1 << p.B) - 1
    return [(v >> ((p.n_blocks - 1 - j) * p.B)) & mask for j in range(p.n_blocks)]


def _residues(p, coeffs, message: list) -> list:
    """Coefficients of message(gamma) * g(gamma) mod P, one slot each."""
    out = [0] * p.out_slots
    for t, block in enumerate(message):
        for k, g in enumerate(coeffs):
            out[t + k] += block * g
    return [c % p.P for c in out]


def encode_reference(code, x: int) -> int:
    """Codeword of x as an integer; word i of the 5-way split, slot k of
    its residue, sits at segment i * out_slots + k (level 2) or at bit
    i * word_out_bits + k * S (level 1)."""
    p = code.params
    blocks = _blocks(p, x)
    out = 0
    segment = 0
    for i in range(5):
        message = [blocks[j] if j < p.n_blocks else 0
                   for j in range(i, i + 5 * p.blocks_per_word, 5)]
        for k, r in enumerate(_residues(p, code.gen.coeffs, message)):
            if code.level == 1:
                out |= (r * code.inner.m) << (i * p.word_out_bits + k * p.S)
            else:
                inner = code.inner_ecc
                out |= encode_reference(inner, r) << (segment * inner.codeword_bits)
                segment += 1
    return out
