"""Pure-Python oracles that several test modules check the library against."""


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
