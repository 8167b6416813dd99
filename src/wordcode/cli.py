"""Command-line front end.

Exit codes everywhere: 0 success, 1 domain error (a module rejected the
inputs), 2 usage error (flags or value syntax).  Structured results
print as single-line JSON reports; only the wall_time_s field may
differ between identical runs.

`build`, `verify` and `encode` run on the numpy-free spec route; the
`distance` and `sighash` commands import the bulk modules when they run.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time

from .ecc_core import (
    _hex_key,
    _read_file,
    build_code,
    deserialize,
    encode,
    serialize,
)
from .errors import ParameterError, WordcodeError
from .inner_mult import _delta
from .outer_rs import _word_size

FORMAT_VERSION = 1

BENCH_HEADER = ["w", "construction_ops", "encode_ops", "codeword_bits",
                "serialized_bits"]


class _UsageError(Exception):
    pass


@contextlib.contextmanager
def _usage_errors():
    """A ParameterError raised inside, from checking a flag's value
    (`--w`, `--delta`, `--hex`), is a usage error: exit 2."""
    try:
        yield
    except ParameterError as exc:
        raise _UsageError(str(exc)) from None


def _load_code(path):
    """The code described at `path`; every CodecError it raises starts
    with the path, as `load_signature`'s do."""
    return _read_file(path, deserialize)


def _print_report(command: str, params: dict, results: dict, started: float):
    report = {
        "format_version": FORMAT_VERSION,
        "command": command,
        "params": params,
        "results": results,
        "wall_time_s": round(time.monotonic() - started, 6),
    }
    print(json.dumps(report))


def _cmd_build(args) -> int:
    started = time.monotonic()
    with _usage_errors():
        _word_size(args.w)
        delta = None if args.delta is None else _delta(args.delta)
    code, report = build_code(args.w, delta, args.level)
    blob = serialize(code)
    with open(args.out, "wb") as fh:
        fh.write(blob + b"\n")
    _print_report(
        "build",
        {"w": args.w, "delta": str(code.delta), "level": args.level,
         "out": args.out},
        {
            "codeword_bits": code.codeword_bits,
            "serialized_bits": len(blob) * 8,
            "construction_ops": report.construction_ops,
            "construction_total": report.construction_total(),
            "encode_ops": report.encode_ops,
            "encode_total": report.encode_total(),
            "generator_ops": report.generator_ops,
            "generator_total": report.generator_total(),
        },
        started,
    )
    return 0


def _cmd_verify(args) -> int:
    started = time.monotonic()
    code = _load_code(args.code)
    _print_report(
        "verify",
        {"code": args.code},
        {"valid": True, "w": code.params.w, "level": code.level,
         "codeword_bits": code.codeword_bits,
         "serialized_bits": len(serialize(code)) * 8},
        started,
    )
    return 0


def _cmd_encode(args) -> int:
    code = _load_code(args.code)
    w = code.params.w
    with _usage_errors():
        val = _hex_key(args.hex, w, "value")
    print(encode(code, val).to_hex())
    return 0


def _cmd_distance(args) -> int:
    from .bulk import distance_report

    started = time.monotonic()
    code = _load_code(args.code)
    if args.exhaustive:
        result = distance_report(code, "exhaustive")
        params = {"code": args.code, "mode": "exhaustive"}
    else:
        result = distance_report(code, "random", samples=args.random,
                                 seed=args.seed)
        params = {"code": args.code, "mode": "random",
                  "samples": args.random, "seed": args.seed}
    _print_report("distance", params, result, started)
    return 0


def _cmd_bench(args) -> int:
    import csv

    started = time.monotonic()
    try:
        w_list = [int(part) for part in args.w_list.split(",") if part]
    except ValueError:
        raise _UsageError("--w-list must be comma-separated integers")
    if not w_list:
        raise _UsageError("--w-list must name at least one word size")
    with _usage_errors():
        for w in w_list:
            _word_size(w)
        delta = None if args.delta is None else _delta(args.delta)
    rows = []
    failure = None
    with open(args.out, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(BENCH_HEADER)
        for w in w_list:
            try:
                code, report = build_code(w, delta, args.level)
            except WordcodeError as exc:
                failure = f"w={w}: {exc}"
                break
            row = [w, report.construction_total(), report.encode_total(),
                   code.codeword_bits, len(serialize(code)) * 8]
            writer.writerow(row)
            fh.flush()
            rows.append(dict(zip(BENCH_HEADER, row)))
    if failure is not None:
        print(f"error: {failure}", file=sys.stderr)
        return 1
    _print_report(
        "bench",
        {"w_list": w_list, "level": args.level,
         "delta": None if delta is None else str(delta), "out": args.out},
        {"rows": rows},
        started,
    )
    return 0


def _cmd_sighash_build(args) -> int:
    from . import sighash

    started = time.monotonic()
    code = _load_code(args.code)
    keys = sighash.read_keys_file(args.keys, code.params.w)
    fn = sighash.build_signature(code, keys)
    sighash.save_signature(args.out, fn)
    _print_report(
        "sighash-build",
        {"code": args.code, "keys": args.keys, "out": args.out},
        {"n": fn.n, "positions": len(fn.positions),
         "signature_bits": len(fn.positions)},
        started,
    )
    return 0


def _cmd_sighash_eval(args) -> int:
    from . import sighash

    fn = sighash.load_signature(args.sig)
    w = fn.code.params.w
    with _usage_errors():
        val = _hex_key(args.hex, w, "value")
    print(sighash.sig_eval(fn, val).to_hex())
    return 0


def _cmd_sighash_verify(args) -> int:
    from . import sighash

    started = time.monotonic()
    fn = sighash.load_signature(args.sig)
    keys = sighash.read_keys_file(args.keys, fn.code.params.w)
    ok = sighash.verify_injective(fn, keys)
    _print_report(
        "sighash-verify",
        {"sig": args.sig, "keys": args.keys},
        {"injective": ok, "n": len(keys)},
        started,
    )
    return 0 if ok else 1


_COMMANDS = ("build", "verify", "encode", "distance", "bench", "sighash")


def _build_parser(argv) -> argparse.ArgumentParser:
    """The parser for `argv`: only the subcommand `argv` starts with,
    or every subcommand when it starts with no known one, so that
    `--help`, a missing and an unknown command list them all.  A cold
    CLI call builds its parser once, and the subparsers it never uses
    took about as long as its deserialize and encode.
    """
    parser = argparse.ArgumentParser(
        prog="wordcode",
        description="Constant-time error-correcting codes over machine words.",
    )
    command = argv[0] if argv else None
    wanted = (command,) if command in _COMMANDS else _COMMANDS
    # One subparser still lists every command in the usage line; with
    # all of them, the default metavar names the argument `command` in
    # the missing and unknown command errors.
    sub = parser.add_subparsers(
        dest="command", required=True,
        metavar=None if wanted is _COMMANDS else "{" + ",".join(_COMMANDS) + "}")

    if "build" in wanted:
        p = sub.add_parser("build", help="construct a code and write its description")
        p.add_argument("--w", type=int, required=True)
        p.add_argument("--delta", default=None, help="rational like 1/2")
        p.add_argument("--level", type=int, choices=(1, 2), default=1)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_build)

    if "verify" in wanted:
        p = sub.add_parser("verify", help="reload a description and re-validate it")
        p.add_argument("--code", required=True)
        p.set_defaults(func=_cmd_verify)

    if "encode" in wanted:
        p = sub.add_parser("encode", help="encode one hex value")
        p.add_argument("--code", required=True)
        p.add_argument("--hex", required=True)
        p.set_defaults(func=_cmd_encode)

    if "distance" in wanted:
        p = sub.add_parser("distance", help="measure minimum codeword distance")
        p.add_argument("--code", required=True)
        group = p.add_mutually_exclusive_group(required=True)
        group.add_argument("--exhaustive", action="store_true")
        group.add_argument("--random", type=int, metavar="N")
        p.add_argument("--seed", type=int, default=0)
        p.set_defaults(func=_cmd_distance)

    if "bench" in wanted:
        p = sub.add_parser("bench", help="cost table across word sizes")
        p.add_argument("--w-list", required=True, dest="w_list")
        p.add_argument("--level", type=int, choices=(1, 2), default=1)
        p.add_argument("--delta", default=None)
        p.add_argument("--out", required=True)
        p.set_defaults(func=_cmd_bench)

    if "sighash" in wanted:
        p = sub.add_parser("sighash", help="injective signatures on a key set")
        ssub = p.add_subparsers(dest="subcommand", required=True)

        q = ssub.add_parser("build")
        q.add_argument("--code", required=True)
        q.add_argument("--keys", required=True)
        q.add_argument("--out", required=True)
        q.set_defaults(func=_cmd_sighash_build)

        q = ssub.add_parser("eval")
        q.add_argument("--sig", required=True)
        q.add_argument("--hex", required=True)
        q.set_defaults(func=_cmd_sighash_eval)

        q = ssub.add_parser("verify")
        q.add_argument("--sig", required=True)
        q.add_argument("--keys", required=True)
        q.set_defaults(func=_cmd_sighash_verify)

    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser(argv)
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 2
    except WordcodeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
