"""Command-line interface: exit codes, run reports, file outputs."""

import csv
import json
import random

import pytest

from wordcode.cli import BENCH_HEADER, main
from wordcode.ecc_core import build_code, serialize
from wordcode.sighash import save_signature, write_keys_file


def run(capsys, *argv):
    rc = main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def last_json(out):
    return json.loads(out.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def code16_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "c16.json"
    code, _ = build_code(16, None, 1)
    path.write_bytes(serialize(code))
    return str(path)


@pytest.fixture(scope="module")
def code10_path(tmp_path_factory):
    path = tmp_path_factory.mktemp("codes") / "c10.json"
    code, _ = build_code(10, None, 1)
    path.write_bytes(serialize(code))
    return str(path)


def test_build_writes_code_and_report(tmp_path, capsys):
    out = tmp_path / "c64.json"
    rc, stdout, _ = run(capsys, "build", "--w", "64", "--out", str(out))
    assert rc == 0
    assert out.exists()
    report = last_json(stdout)
    assert report["format_version"] == 1
    assert report["command"] == "build"
    assert report["params"]["w"] == 64
    assert report["results"]["codeword_bits"] == 900
    assert report["results"]["construction_total"] > 0
    assert report["results"]["encode_total"] > 0
    assert report["wall_time_s"] >= 0


def test_build_rejects_small_w(tmp_path, capsys):
    rc, _, err = run(capsys, "build", "--w", "6",
                     "--out", str(tmp_path / "x.json"))
    assert rc == 2
    assert "usage error" in err


def test_build_missing_args(capsys):
    rc, _, _ = run(capsys, "build", "--w", "64")
    assert rc == 2


def test_build_bad_delta(tmp_path, capsys):
    # A delta Fraction refuses is a usage error; a rational the search
    # refuses is a domain error.
    for text in ("abc", "1/0"):
        rc, _, err = run(capsys, "build", "--w", "16", "--delta", text,
                         "--out", str(tmp_path / "x.json"))
        assert rc == 2
        assert "delta must be a rational number" in err
    rc, _, err = run(capsys, "build", "--w", "16", "--delta", "0",
                     "--out", str(tmp_path / "x.json"))
    assert rc == 1
    assert "delta must be positive" in err
    rc, _, err = run(capsys, "build", "--w", "64", "--delta", "5",
                     "--out", str(tmp_path / "x.json"))
    assert rc == 1
    assert err == "error: no multiplier reaches delta=5 for B=6; delta=1/2 succeeds\n"
    assert not (tmp_path / "x.json").exists()


def test_build_huge_delta_is_one_short_error_line(tmp_path, capsys):
    # This delta has 400 digits; the message shortens it.
    out = tmp_path / "c.json"
    rc, stdout, err = run(capsys, "build", "--w", "64", "--delta", "1e400",
                          "--out", str(out))
    assert rc == 1
    assert stdout == ""
    assert len(err.splitlines()) == 1
    assert err.startswith("error: no multiplier reaches delta=1000")
    assert len(err) < 200
    assert not out.exists()


def test_build_explicit_delta(tmp_path, capsys):
    out = tmp_path / "c.json"
    rc, stdout, _ = run(capsys, "build", "--w", "16", "--delta", "1/3",
                        "--out", str(out))
    assert rc == 0
    assert last_json(stdout)["params"]["delta"] == "1/3"


def test_verify_accepts_good_file(code16_path, capsys):
    rc, stdout, _ = run(capsys, "verify", "--code", code16_path)
    assert rc == 0
    report = last_json(stdout)
    assert report["results"]["valid"] is True
    assert report["results"]["w"] == 16


def test_verify_rejects_tampered_file(tmp_path, capsys):
    code, _ = build_code(16, None, 1)
    obj = json.loads(serialize(code))
    obj["m"] = 5
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(obj))
    rc, _, err = run(capsys, "verify", "--code", str(path))
    assert rc == 1
    assert "error" in err


@pytest.mark.parametrize("text", [
    '{"w": 1' + "0" * 5000 + "}",  # past Python's integer digit limit
    "[" * 100_000,  # past the recursion limit
], ids=["huge-int", "deep-nesting"])
def test_hostile_json_is_one_error_line(tmp_path, capsys, text):
    path = tmp_path / "hostile.json"
    path.write_text(text)
    for argv in (("verify", "--code", str(path)),
                 ("sighash", "eval", "--sig", str(path), "--hex", "0000")):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1 and err.startswith("error: ")


@pytest.mark.parametrize("data", [b'{"version": 1}', b"\xff\xfe"],
                         ids=["missing-fields", "not-utf8"])
def test_malformed_code_file_error_names_the_file(tmp_path, capsys, data):
    path = tmp_path / "bad.json"
    path.write_bytes(data)
    keys = tmp_path / "keys.txt"
    keys.write_text("0001\n")
    for argv in (("verify", "--code", str(path)),
                 ("encode", "--code", str(path), "--hex", "0000"),
                 ("sighash", "build", "--code", str(path), "--keys", str(keys),
                  "--out", str(tmp_path / "s.json"))):
        rc, out, err = run(capsys, *argv)
        assert rc == 1
        assert out == ""
        assert len(err.splitlines()) == 1
        assert err.startswith(f"error: {path}: ")


def test_verify_missing_file(tmp_path, capsys):
    rc, _, _ = run(capsys, "verify", "--code", str(tmp_path / "nope.json"))
    assert rc == 1


def test_encode_zero(code16_path, capsys):
    code, _ = build_code(16, None, 1)
    rc, stdout, _ = run(capsys, "encode", "--code", code16_path,
                        "--hex", "0000")
    assert rc == 0
    digits = -(-code.codeword_bits // 4)
    assert stdout.strip() == "0" * digits
    rc2, stdout2, _ = run(capsys, "encode", "--code", code16_path,
                          "--hex", "0000")
    assert stdout2 == stdout


def test_encode_rejects_bad_hex(code16_path, code10_path, capsys):
    for bad in ("123", "12345", "ABCD", "12g4"):
        rc, _, _ = run(capsys, "encode", "--code", code16_path, "--hex", bad)
        assert rc == 2
    # At w=10 a wrong digit count and a right one above 2^10 are the
    # same usage error, naming the same argument.
    for bad in ("ff", "fff"):
        rc, _, err = run(capsys, "encode", "--code", code10_path, "--hex", bad)
        assert rc == 2, bad
        assert err.startswith("usage error:") and "value" in err, bad
        assert len(err.strip().splitlines()) == 1


def test_distance_exhaustive_small(code10_path, capsys):
    rc, stdout, _ = run(capsys, "distance", "--code", code10_path,
                        "--exhaustive")
    assert rc == 0
    report = last_json(stdout)
    assert report["results"]["min_bits"] == 4
    assert report["results"]["pairs_checked"] == 523776


def test_distance_random_reproducible(code16_path, capsys):
    argv = ("distance", "--code", code16_path, "--random", "2000",
            "--seed", "7")
    rc1, out1, _ = run(capsys, *argv)
    rc2, out2, _ = run(capsys, *argv)
    assert rc1 == rc2 == 0
    assert last_json(out1)["results"] == last_json(out2)["results"]


def test_distance_negative_seed(code16_path, capsys):
    rc, stdout, err = run(capsys, "distance", "--code", code16_path,
                          "--random", "10", "--seed", "-1")
    assert rc == 1
    assert stdout == ""
    assert err.startswith("error: ") and err.count("\n") == 1


def test_distance_exhaustive_too_wide(code16_path, capsys):
    rc, _, err = run(capsys, "distance", "--code", code16_path,
                     "--exhaustive")
    assert rc == 1
    assert "error" in err


def test_build_past_b_max_needs_level_2(tmp_path, capsys):
    # A level-1 word size past B_MAX is a domain error whatever the delta.
    for delta in ((), ("--delta", "1/2")):
        rc, _, err = run(capsys, "build", "--w", "2048", *delta,
                         "--out", str(tmp_path / "x.json"))
        assert rc == 1
        assert "needs a level-2 construction" in err


def test_distance_requires_mode(code16_path, capsys):
    rc, _, _ = run(capsys, "distance", "--code", code16_path)
    assert rc == 2


def test_bench_table(tmp_path, capsys):
    out = tmp_path / "bench.csv"
    rc, stdout, _ = run(capsys, "bench", "--w-list", "64,1024",
                        "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 3
    encode_ops = [int(row[BENCH_HEADER.index("encode_ops")])
                  for row in rows[1:]]
    assert encode_ops[1] <= encode_ops[0]
    report = last_json(stdout)
    assert [r["w"] for r in report["results"]["rows"]] == [64, 1024]

    rc, _, _ = run(capsys, "bench", "--w-list", "64,1024", "--level", "2",
                   "--out", str(out))
    assert rc == 0
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    encode_ops = [int(row[BENCH_HEADER.index("encode_ops")]) for row in rows[1:]]
    assert len(encode_ops) == 2 and encode_ops[1] <= encode_ops[0]


def test_bench_bad_w_list(tmp_path, capsys):
    rc, _, _ = run(capsys, "bench", "--w-list", "abc",
                   "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    rc, _, _ = run(capsys, "bench", "--w-list", "6,64",
                   "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    rc, _, err = run(capsys, "bench", "--w-list", ",",
                     "--out", str(tmp_path / "b.csv"))
    assert rc == 2
    assert "at least one word size" in err


def test_bench_partial_on_build_failure(tmp_path, capsys):
    # w=2048 clears the range gate but its inner-code field is too wide,
    # so the level-1 build fails after the w=64 row is already written.
    out = tmp_path / "bench.csv"
    rc, _, err = run(capsys, "bench", "--w-list", "64,2048",
                     "--out", str(out))
    assert rc == 1
    assert "w=2048" in err
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == BENCH_HEADER
    assert len(rows) == 2
    assert rows[1][0] == "64"


def test_sighash_round_trip(tmp_path, code16_path, capsys):
    keys = tmp_path / "keys.txt"
    write_keys_file(keys, [3, 17, 255, 4096, 9000, 100, 2, 60000, 31, 777],
                    16)
    sig = tmp_path / "sig.json"
    rc, stdout, _ = run(capsys, "sighash", "build", "--code", code16_path,
                        "--keys", str(keys), "--out", str(sig))
    assert rc == 0
    report = last_json(stdout)
    assert report["results"]["n"] == 10
    assert report["results"]["positions"] >= 1

    rc, stdout, _ = run(capsys, "sighash", "verify", "--sig", str(sig),
                        "--keys", str(keys))
    assert rc == 0
    assert last_json(stdout)["results"]["injective"] is True

    rc, out1, _ = run(capsys, "sighash", "eval", "--sig", str(sig),
                      "--hex", "0011")
    assert rc == 0
    rc, out2, _ = run(capsys, "sighash", "eval", "--sig", str(sig),
                      "--hex", "00ff")
    assert rc == 0
    assert out1 != out2


def test_sighash_five_thousand_keys(tmp_path, capsys):
    # 5,000 keys make 12,497,500 pairs; the greedy counts per class of
    # keys, so no cap on the pairs applies.
    code_path = tmp_path / "c64.json"
    code, _ = build_code(64, None, 1)
    code_path.write_bytes(serialize(code))
    rng = random.Random(5000)
    vals = set()
    while len(vals) < 5000:
        vals.add(rng.randrange(1 << 64))
    keys = tmp_path / "keys.txt"
    write_keys_file(keys, sorted(vals), 64)
    sig = tmp_path / "sig.json"
    rc, stdout, _ = run(capsys, "sighash", "build", "--code", str(code_path),
                        "--keys", str(keys), "--out", str(sig))
    assert rc == 0
    assert last_json(stdout)["results"]["n"] == 5000
    assert sig.is_file()
    rc, stdout, _ = run(capsys, "sighash", "verify", "--sig", str(sig),
                        "--keys", str(keys))
    assert rc == 0
    assert last_json(stdout)["results"]["injective"] is True


def test_sighash_build_duplicate_keys(tmp_path, code16_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("0001\n0002\n0001\n")
    rc, _, err = run(capsys, "sighash", "build", "--code", code16_path,
                     "--keys", str(keys), "--out", str(tmp_path / "s.json"))
    assert rc == 1
    assert "error" in err


def test_sighash_build_bad_key_line(tmp_path, code16_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("0001\nzzzz\n")
    rc, _, _ = run(capsys, "sighash", "build", "--code", code16_path,
                   "--keys", str(keys), "--out", str(tmp_path / "s.json"))
    assert rc == 1


def test_sighash_build_non_ascii_keys_file(tmp_path, code16_path, capsys):
    keys = tmp_path / "keys.txt"
    keys.write_text("café\n", encoding="utf-8")
    rc, _, err = run(capsys, "sighash", "build", "--code", code16_path,
                     "--keys", str(keys), "--out", str(tmp_path / "s.json"))
    assert rc == 1
    assert err.startswith("error:") and str(keys) in err
    assert len(err.strip().splitlines()) == 1


def test_sighash_eval_non_ascii_signature_file(tmp_path, capsys):
    sig = tmp_path / "sig.json"
    sig.write_text('{"version": 1, "n": "café"}\n', encoding="utf-8")
    rc, _, err = run(capsys, "sighash", "eval", "--sig", str(sig),
                     "--hex", "0011")
    assert rc == 1
    assert err.startswith("error:") and str(sig) in err
    assert len(err.strip().splitlines()) == 1


def test_sighash_eval_rejects_bad_hex(tmp_path, capsys):
    # `sighash eval` parses --hex as `encode` does: at w=10 both a wrong
    # digit count and a value above 2^10 are usage errors naming `value`.
    code, _ = build_code(10, None, 1)
    from wordcode.sighash import SignatureFn
    sig = tmp_path / "sig.json"
    save_signature(sig, SignatureFn(code, (0,), 2))
    for bad in ("ff", "fff"):
        rc, _, err = run(capsys, "sighash", "eval", "--sig", str(sig), "--hex", bad)
        assert rc == 2, bad
        assert err.startswith("usage error:") and "value" in err, bad
    rc, _, _ = run(capsys, "sighash", "eval", "--sig", str(sig), "--hex", "3ff")
    assert rc == 0


def test_sighash_verify_detects_collision(tmp_path, capsys):
    # A signature stripped of its positions maps every key to the empty
    # string, so any two keys collide.
    code, _ = build_code(16, None, 1)
    from wordcode.sighash import SignatureFn
    sig = tmp_path / "sig.json"
    save_signature(sig, SignatureFn(code, (), 2))
    keys = tmp_path / "keys.txt"
    write_keys_file(keys, [0, 1], 16)
    rc, stdout, _ = run(capsys, "sighash", "verify", "--sig", str(sig),
                        "--keys", str(keys))
    assert rc == 1
    assert last_json(stdout)["results"]["injective"] is False


def test_help_and_no_args(capsys):
    assert run(capsys, "--help")[0] == 0
    assert run(capsys)[0] == 2
    assert run(capsys, "frobnicate")[0] == 2


def test_parser_lists_every_command_whichever_it_builds(capsys):
    # `main` builds only the subparser its first argument names, or all
    # of them when that names none; help and usage lines still list
    # every command.
    listing = "{build,verify,encode,distance,bench,sighash}"
    rc, out, _ = run(capsys, "--help")
    assert rc == 0 and out.startswith(f"usage: wordcode [-h] {listing} ...")
    assert [line.split()[0] for line in out.splitlines() if line.startswith("    ")] == [
        "build", "verify", "encode", "distance", "bench", "sighash"]
    rc, out, _ = run(capsys, "sighash", "--help")
    assert rc == 0 and out.startswith("usage: wordcode sighash [-h] {build,eval,verify}")
    for args in ((), ("frobnicate",), ("encod", "--code", "c"),
                 ("encode", "--code", "c", "--hex", "0", "extra")):
        rc, _, err = run(capsys, *args)
        assert rc == 2 and err.startswith(f"usage: wordcode [-h] {listing} ..."), args
    assert "argument command: invalid choice: 'frobnicate'" in run(capsys, "frobnicate")[2]
    assert run(capsys, "encode", "--code", "c", "--hex", "0", "extra")[2].endswith(
        "error: unrecognized arguments: extra\n")
