"""Signature construction: greedy selection, evaluation, file formats."""

import random
import re

import numpy as np
import pytest

from wordcode.ecc_core import build_code, encode
from wordcode.errors import (
    CodecFormatError,
    CodecVersionError,
    CodeValidationError,
    DuplicateKeyError,
    ParameterError,
)
from wordcode.sighash import (
    SIGNATURE_VERSION,
    SignatureFn,
    _separated,
    build_signature,
    cap_constant,
    load_signature,
    position_cap,
    read_keys_file,
    save_signature,
    sig_eval,
    signature_from_obj,
    signature_to_obj,
    verify_injective,
    write_keys_file,
)
from wordcode.wordram import OpLedger, WideInt


def distinct_keys(rng, w, n):
    keys = set()
    while len(keys) < n:
        keys.add(rng.randrange(1 << w))
    return sorted(keys)


def test_single_key_no_positions():
    code, _ = build_code(16, None, 1)
    fn = build_signature(code, [5])
    assert fn.positions == ()
    assert fn.n == 1
    assert position_cap(code, 1) == 0
    sig = sig_eval(fn, 5)
    assert sig.bits == 0 and int(sig) == 0
    assert sig.to_hex() == ""
    assert verify_injective(fn, [5])


def test_two_keys_single_position():
    code, _ = build_code(16, None, 1)
    fn = build_signature(code, [0, 777])
    assert len(fn.positions) == 1
    assert verify_injective(fn, [0, 777])
    a, b = sig_eval(fn, 0), sig_eval(fn, 777)
    assert int(a) != int(b)


def test_duplicate_keys_rejected():
    code, _ = build_code(16, None, 1)
    with pytest.raises(DuplicateKeyError) as exc_info:
        build_signature(code, [1, 2, 3, 2, 5])
    err = exc_info.value
    assert (err.index_a, err.index_b) == (1, 3)
    assert err.key_hex == "0002"
    # WideInt and int spellings of the same key still collide.
    with pytest.raises(DuplicateKeyError):
        build_signature(code, [WideInt(9, 16), 9])


@pytest.mark.parametrize("w", [10, 63, 64, 65, 256])
def test_duplicate_names_first_repeat_at_every_width(w):
    code, _ = build_code(w, None, 1)
    b = (1 << w) - 2
    with pytest.raises(DuplicateKeyError) as exc_info:
        build_signature(code, [5, b, 7, WideInt(b, w), 5])
    err = exc_info.value
    digits = -(-w // 4)
    assert (err.index_a, err.index_b, err.key_hex) == (1, 3, format(b, f"0{digits}x"))
    assert str(err) == f"duplicate key at positions 1 and 3: {format(b, f'0{digits}x')}"


def test_rejects_bad_keys():
    code, _ = build_code(16, None, 1)
    with pytest.raises(ParameterError):
        build_signature(code, [])
    with pytest.raises(ParameterError):
        build_signature(code, [1 << 16])
    with pytest.raises(ParameterError):
        build_signature(code, [-1])
    with pytest.raises(ParameterError):
        build_signature(code, [WideInt(0, 17)])


def test_keys_follow_the_encode_key_rule():
    code, _ = build_code(64, None, 1)
    # Floats used to be truncated, which made 1.5 collide with 1 and
    # end in a false "fell behind the distance guarantee" error.
    for bad in ([1.5, 1, 2.0], [1, "2"], [None], [1, 2, 3.0]):
        with pytest.raises(ParameterError, match="must be an integer or a WideInt"):
            build_signature(code, bad)
    f = build_signature(code, [1, 2, 3])
    with pytest.raises(ParameterError, match="key 1 must be an integer"):
        verify_injective(f, [1, 2.0, 3])
    with pytest.raises(ParameterError, match=r"key 0 outside \[0, 2\^64\)"):
        verify_injective(f, [-1])
    # numpy integers are keys, equal to their Python spelling.
    g = build_signature(code, [np.uint64(1), np.int64(2), 3])
    assert g == f
    assert verify_injective(f, np.array([1, 2, 3], dtype=np.uint64))
    assert sig_eval(f, np.uint64(2)) == sig_eval(f, 2)


def test_twenty_thousand_keys():
    # Nearly 2 * 10^8 pairs; the greedy counts per class, never per pair.
    code, _ = build_code(64, None, 1)
    keys = distinct_keys(random.Random(20_000), 64, 20_000)
    fn = build_signature(code, keys)
    assert verify_injective(fn, keys)
    assert len(fn.positions) <= position_cap(code, 20_000)


def test_cap_constant_dominates_greedy_cap():
    import math

    code, _ = build_code(16, None, 1)
    c = cap_constant(code)
    assert c >= 3
    rng = random.Random(11)
    for n in [2, 3, 7] + [rng.randrange(2, 4000) for _ in range(40)]:
        assert position_cap(code, n) <= c * math.log2(n)


def test_injective_on_build_set():
    code, _ = build_code(16, None, 1)
    rng = random.Random(2026)
    keys = distinct_keys(rng, 16, 300)
    fn = build_signature(code, keys)
    assert verify_injective(fn, keys)
    assert len(fn.positions) <= position_cap(code, 300)
    sigs = [int(sig_eval(fn, k)) for k in keys]
    assert len(set(sigs)) == 300


def test_eval_total_and_deterministic():
    code, _ = build_code(16, None, 1)
    fn = build_signature(code, [1, 2, 3])
    outsider = 60000
    once = sig_eval(fn, outsider)
    again = sig_eval(fn, outsider)
    assert once == again
    assert once.bits == len(fn.positions)


def test_eval_matches_codeword_bits():
    code, _ = build_code(16, None, 1)
    rng = random.Random(3)
    keys = distinct_keys(rng, 16, 40)
    fn = build_signature(code, keys)
    assert all(0 <= pos < code.codeword_bits for pos in fn.positions)
    for k in keys[:10]:
        cw = encode(code, k)
        sig = sig_eval(fn, k)
        for j, pos in enumerate(fn.positions):
            assert (int(sig) >> j) & 1 == (int(cw) >> pos) & 1
    # The cached gather charges stay off the record's fields, so
    # equality and the saved description never see them.
    sig_eval(fn, keys[0], OpLedger(16))
    assert "_gather" in vars(fn)
    assert "_gather" not in fn._fields
    assert fn == SignatureFn(code, fn.positions, fn.n)


@pytest.mark.parametrize("level", [1, 2])
def test_ledgered_sig_eval_charges_encode_plus_gather(level):
    w = 64
    code, report = build_code(w, None, level)
    keys = distinct_keys(random.Random(90 + level), w, 200)
    fn = build_signature(code, keys)
    # Per signature bit j: shift the codeword down to positions[j], mask
    # that one bit, shift it to j, OR it into the j bits so far; the
    # first OR, into the empty signature, is free.
    gather = OpLedger(w)
    for j, pos in enumerate(fn.positions):
        gather.charge("shift", code.codeword_bits)
        gather.charge("bitwise", 1)
        gather.charge("shift", 1, j)
        if j:
            gather.charge("bitwise", j + 1)
    want = {k: report.encode_ops[k] + v for k, v in gather.as_dict().items()}
    assert sum(gather.as_dict().values()) > 0
    for x in keys:
        led = OpLedger(w)
        sig = sig_eval(fn, x, led)
        assert led.as_dict() == want
        plain = sig_eval(fn, x)
        cw = encode(code, x)
        assert sig == plain
        assert int(plain) == sum(((int(cw) >> pos) & 1) << j
                                 for j, pos in enumerate(fn.positions))


def test_verify_rejects_handmade_non_injective():
    code, _ = build_code(16, None, 1)
    bogus = SignatureFn(code, (), 2)
    assert verify_injective(bogus, [0, 1]) is False


def test_verify_matches_scalar_oracle():
    l1, _ = build_code(16, None, 1)
    l2, _ = build_code(16, None, 2)
    keys1 = distinct_keys(random.Random(2026), 16, 300)
    keys2 = distinct_keys(random.Random(4), 16, 40)
    k = keys1[0]
    # Wider codes: multi-limb keys, and reads over several field chunks
    # (a level-2 w=1024 chunk holds 62 keys).
    wide1, _ = build_code(256, None, 1)
    wide2, _ = build_code(1024, None, 2)
    keys3 = distinct_keys(random.Random(7), 256, 50)
    keys4 = distinct_keys(random.Random(8), 1024, 150)
    # Keys a and b agree on signature bits 1..63 and swap bits 0 and 64,
    # so they stay apart only if bit 64 starts a second word.
    a, b = keys2[:2]
    ca, cb = int(encode(l2, a)), int(encode(l2, b))
    diff = [((ca >> p) & 1) - ((cb >> p) & 1) for p in range(l2.codeword_bits)]
    swapped = (diff.index(1), *[p for p, d in enumerate(diff) if d == 0][:63], diff.index(-1))
    cases = [(build_signature(l1, keys1), keys1),
             (build_signature(l2, keys2), keys2),
             # A signature built on a few keys, read on many: collisions.
             (build_signature(l2, keys2), keys1),
             (build_signature(l1, keys1), []),
             (build_signature(l1, keys1), [k]),
             (build_signature(l1, keys1), [k, keys1[1], k]),
             (build_signature(l1, [k]), [k]),
             (SignatureFn(l1, (), 2), [0, 1]),
             (build_signature(wide1, keys3), keys3),
             (build_signature(wide2, keys4), keys4),
             (build_signature(wide2, keys4[:5]), keys4),
             # More than 64 positions: signatures span two words.
             (SignatureFn(l2, tuple(range(3, 1600, 11)), 2), keys2 + keys2[:1]),
             (SignatureFn(l2, tuple(range(3, 1600, 11)), 2), keys2),
             (SignatureFn(l2, swapped, 2), [a, b])]
    verdicts = []
    for fn, keys in cases:
        oracle = len({int(sig_eval(fn, x)) for x in keys}) == len(keys)
        assert verify_injective(fn, keys) is oracle
        verdicts.append(oracle)
    assert verdicts == [True, True, False, True, True, False, True, False,
                        True, True, False, False, True, True]


def pair_greedy_oracle(code, keys):
    """The greedy over an explicit list of colliding pairs.

    Returns the chosen positions and the separated-pair counts of the
    first round.
    """
    words = [int(encode(code, k)) for k in keys]
    bits = np.array([[(cw >> j) & 1 for j in range(code.codeword_bits)]
                     for cw in words], dtype=np.uint8)
    ai, bi = np.triu_indices(len(keys), k=1)
    positions, first_counts = [], None
    while ai.shape[0] > 0:
        counts = (bits[ai] != bits[bi]).sum(axis=0, dtype=np.int64)
        if first_counts is None:
            first_counts = counts
        pos = int(np.argmax(counts))
        positions.append(pos)
        still = bits[ai, pos] == bits[bi, pos]
        ai, bi = ai[still], bi[still]
    return tuple(positions), first_counts


def test_greedy_matches_pair_oracle():
    cases = [(16, 1, 2, 21), (16, 1, 3, 22), (16, 1, 100, 23),
             (64, 1, 300, 24), (16, 2, 40, 25)]
    for w, level, n, seed in cases:
        code, _ = build_code(w, None, level)
        keys = distinct_keys(random.Random(seed), w, n)
        random.Random(seed).shuffle(keys)
        positions, first = pair_greedy_oracle(code, keys)
        assert build_signature(code, keys).positions == positions, (w, level, n)
        if n == 2:
            # Every differing bit separates the one pair: round 1 is a
            # tie that the lowest index must win.
            assert (first == first.max()).sum() >= 2
            assert positions == (int(np.flatnonzero(first)[0]),)


def class_greedy_reference(code, keys):
    """The greedy with one `reduceat` row per class per round.

    Codewords come from the scalar encoder.  `members` lists the keys of
    each still-colliding class, class by class, and `sizes` the class
    sizes in the same order.
    """
    nbytes = -(-code.codeword_bits // 8)
    raw = b"".join(int(encode(code, k)).to_bytes(nbytes, "little") for k in keys)
    bits = np.unpackbits(np.frombuffer(raw, dtype=np.uint8).reshape(len(keys), nbytes),
                         axis=1, count=code.codeword_bits, bitorder="little")
    positions = []
    members = np.arange(len(keys))
    sizes = np.array([len(keys)])
    while sizes.size:
        starts = np.cumsum(sizes) - sizes
        ones = np.add.reduceat(bits[members], starts, axis=0, dtype=np.int64)
        separated = (ones * (sizes[:, None] - ones)).sum(axis=0)
        pos = int(np.argmax(separated))
        positions.append(pos)
        side = np.repeat(2 * np.arange(sizes.size), sizes) + bits[members, pos]
        order = np.argsort(side)
        members, side = members[order], side[order]
        _, sizes = np.unique(side, return_counts=True)
        members = members[np.repeat(sizes > 1, sizes)]
        sizes = sizes[sizes > 1]
    return tuple(positions)


@pytest.mark.parametrize("w, level, n", [(64, 1, 4000), (256, 1, 4000), (64, 2, 1000)])
def test_greedy_matches_class_reference(w, level, n):
    code, _ = build_code(w, None, level)
    keys = distinct_keys(random.Random(w + n + level), w, n)
    assert build_signature(code, keys).positions == class_greedy_reference(code, keys)


def test_scores_past_int32_products():
    # One class of 100,000 keys: column 0 splits it in half, separating
    # 50,000^2 = 2.5 * 10^9 pairs, column 1 splits off one key.  An int32
    # product wraps column 0 negative and would pick column 1.
    s = 100_000
    bits = np.zeros((s, 3), dtype=np.uint8)
    bits[: s // 2, 0] = 1
    bits[0, 1] = 1
    ones = bits.sum(axis=0, dtype=np.int32)
    assert int(np.argmax(ones * (np.int32(s) - ones))) == 1
    separated = _separated(bits, np.array([s]))
    assert separated.tolist() == [2_500_000_000, s - 1, 0]
    assert int(np.argmax(separated)) == 0


def test_greedy_deterministic():
    code, _ = build_code(16, None, 1)
    keys = distinct_keys(random.Random(8), 16, 100)
    assert build_signature(code, keys) == build_signature(code, keys)


def test_level2_code_signature():
    code, _ = build_code(16, None, 2)
    keys = distinct_keys(random.Random(4), 16, 40)
    fn = build_signature(code, keys)
    assert verify_injective(fn, keys)


def test_signature_round_trip(tmp_path):
    code, _ = build_code(16, None, 1)
    keys = distinct_keys(random.Random(5), 16, 60)
    fn = build_signature(code, keys)
    again = signature_from_obj(signature_to_obj(fn))
    assert again == fn
    path = tmp_path / "sig.json"
    save_signature(path, fn)
    assert load_signature(path) == fn


def test_signature_obj_rejects_malformed(tmp_path):
    code, _ = build_code(16, None, 1)
    fn = build_signature(code, [1, 2])
    obj = signature_to_obj(fn)
    with pytest.raises(CodecFormatError):
        signature_from_obj([])
    bad = dict(obj)
    del bad["positions"]
    with pytest.raises(CodecFormatError):
        signature_from_obj(bad)
    bad = dict(obj)
    assert obj["version"] == SIGNATURE_VERSION
    bad["version"] = 9
    with pytest.raises(CodecVersionError, match="unsupported signature version 9"):
        signature_from_obj(bad)
    bad = dict(obj)
    bad["positions"] = 1
    with pytest.raises(CodecFormatError, match="positions must be a list of integers"):
        signature_from_obj(bad)
    bad = dict(obj)
    bad["positions"] = [code.codeword_bits]
    with pytest.raises(CodecFormatError):
        signature_from_obj(bad)
    bad = dict(obj)
    bad["n"] = 0
    with pytest.raises(CodecFormatError):
        signature_from_obj(bad)
    bad = dict(obj)
    bad["n"] = True
    with pytest.raises(CodecFormatError):
        signature_from_obj(bad)
    bad = dict(obj)
    bad["positions"] = obj["positions"] * 2
    with pytest.raises(CodecFormatError):
        signature_from_obj(bad)
    # The code description's field rules: integers that are not bools
    # or floats, and exactly the listed fields.
    for key, value in (("version", True), ("version", 1.0), ("n", 2.0),
                       ("extra", 5)):
        bad = dict(obj)
        bad[key] = value
        with pytest.raises(CodecFormatError):
            signature_from_obj(bad)
    # A code error keeps its type and says it is about the code, not a
    # field of the signature itself.
    bad = dict(obj, code=dict(obj["code"]))
    del bad["code"]["B"]
    with pytest.raises(CodecFormatError, match=r"^code: missing fields: \['B'\]$"):
        signature_from_obj(bad)
    bad["code"] = dict(obj["code"], version=2)
    with pytest.raises(CodecVersionError, match="^code: unsupported description version 2$"):
        signature_from_obj(bad)
    bad["code"] = dict(obj["code"], m=5)
    with pytest.raises(CodeValidationError, match="^code: stored m=5 but w=16 rebuilds m=3$"):
        signature_from_obj(bad)
    # File errors start with the file's path.
    path = tmp_path / "sig.json"
    save_signature(path, fn)
    path.write_bytes(path.read_bytes()[:-10])
    with pytest.raises(CodecFormatError) as info:
        load_signature(path)
    assert str(info.value).startswith(f"{path}: ")


def test_keys_file_round_trip(tmp_path):
    path = tmp_path / "keys.txt"
    vals = [0, 1, 65535, 4660]
    write_keys_file(path, vals, 16)
    text = path.read_text()
    assert "1234" in text and "ffff" in text
    assert read_keys_file(path, 16) == vals


def test_keys_file_writer_rejects_keys_the_reader_would(tmp_path):
    path = tmp_path / "keys.txt"
    for vals in ([1 << 16], [5, -1], [1 << 16, -1]):
        with pytest.raises(ParameterError):
            write_keys_file(path, vals, 16)
        assert not path.exists()


def test_keys_file_ignores_blank_lines(tmp_path):
    path = tmp_path / "keys.txt"
    path.write_text("0001\n\n0002\n\n\n0003\n")
    assert read_keys_file(path, 16) == [1, 2, 3]


def test_keys_file_rejects_bad_lines(tmp_path):
    path = tmp_path / "keys.txt"
    for bad in ("abc\n", "ABCD\n", "12g4\n", "12345\n"):
        path.write_text(bad)
        with pytest.raises(ParameterError):
            read_keys_file(path, 16)
    # Right digit count but above 2^w.
    path.write_text("fff\n")
    with pytest.raises(ParameterError):
        read_keys_file(path, 10)


def test_keys_file_range_error_names_path_and_line(tmp_path):
    # The range check is `encode`'s, prefixed with where the key sits.
    path = tmp_path / "keys.txt"
    path.write_text("001\n\n3ff\n400\n")
    with pytest.raises(ParameterError,
                       match=rf"^{re.escape(str(path))}:4: key outside \[0, 2\^10\)$"):
        read_keys_file(path, 10)


def test_keys_file_digit_error_names_path_and_line(tmp_path):
    # A wrong digit count names the line as the range error does.
    path = tmp_path / "keys.txt"
    path.write_text("001\n\n03ff\n")
    with pytest.raises(ParameterError, match=rf"^{re.escape(str(path))}:3: key must be "
                                             r"exactly 3 lowercase hex digits$"):
        read_keys_file(path, 10)
