"""The three benchmark workloads: build, encode and keyset.

Each workload is a closed loop with one client and no threads: one
timed call at a time, the next sent when the previous returns.  A
workload process does its set-up, then repeats passes (a fixed, seeded
list of calls) until its share of the measuring time is used, then
checks outputs outside every timed interval.  Inputs come only from
the seed; the library receives nothing else.

This module imports the library lazily, so `run.py` can load it in a
directory that holds no sources.
"""

from __future__ import annotations

import math
import os
import random
import statistics
import subprocess
import sys
import time
import traceback

MAX_PROBLEMS = 20
OUT_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)), "out")


class Recorder:
    """Timed calls of one process, grouped by call class and by pass."""

    def __init__(self, tracer=None):
        self.tracer = tracer
        self.samples = {}
        self.passes = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def begin_pass(self):
        self.passes.append({})

    def call(self, cls, fn, *args):
        """Time one top-level call; a call that raises counts as failed
        and gives no sample."""
        self.attempted += 1
        if self.tracer is not None:
            self.tracer.request += 1
        t0 = time.perf_counter()
        try:
            result = fn(*args)
        except Exception:
            self._fail(f"{cls}: " + traceback.format_exc(limit=3))
            return None
        dt = time.perf_counter() - t0
        self.samples.setdefault(cls, []).append(dt)
        current = self.passes[-1]
        current[cls] = current.get(cls, 0.0) + dt
        return result

    def check(self, ok, what):
        """An output check; a failed check fails its operation."""
        if not ok:
            self._fail(what)

    def _fail(self, what):
        self.failed += 1
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(what)


def lru_caches():
    """Every functools cache in the library; call before a tracing
    wrapper hides one."""
    from wordcode import _kernels, cli, ecc_core, inner_mult, numtheory, outer_rs, sighash, wordram
    found = {}
    for module in (_kernels, cli, ecc_core, inner_mult, numtheory, outer_rs, sighash, wordram):
        for obj in vars(module).values():
            if callable(getattr(obj, "cache_clear", None)):
                found[id(obj)] = obj
    return list(found.values())


def _codeword_int(limb_row) -> int:
    return sum(int(v) << (64 * t) for t, v in enumerate(limb_row))


# ---------------------------------------------------------------------------
# Summary statistics


def quantile(values, q):
    """Nearest-rank quantile, q in (0, 1]."""
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered) - 1e-9))
    return ordered[rank - 1]


def metric(value, unit, n):
    return {"value": value, "unit": unit, "n": n}


def pass_median(results, prefix):
    """Median over passes of the summed time of the classes named
    `prefix`, or starting with `prefix` and a space."""
    vals = [sum(t for c, t in p.items() if c == prefix or c.startswith(prefix + " "))
            for r in results for p in r["passes"]]
    return statistics.median(vals), len(vals)


def pooled(results, cls):
    return [v for r in results for v in r["samples"].get(cls, ())]


# ---------------------------------------------------------------------------
# build: construct and reload


class Build:
    """build_code -> serialize -> deserialize for each configuration,
    with every library cache cleared before each timed call, so each
    call pays what a fresh process pays; then fresh-process CLI encodes
    on the w=256 level-1 description."""

    name = "build"
    CONFIGS = ((64, 1), (256, 1), (512, 1), (1024, 2), (8192, 2))
    CLI_CONFIG = (256, 1)
    CLI_CALLS = 3

    def setup(self, seed, caches):
        from wordcode import ecc_core
        self.ecc = ecc_core
        self.caches = caches
        self.rng = random.Random(f"build-{seed}")
        self.cli_path = os.path.join(OUT_DIR, f"code256-{os.getpid()}.json")
        self.cli_checks = []
        self.model_ops = None

    def _clear(self):
        for cache in self.caches:
            cache.cache_clear()

    def _build(self, w, level):
        code, report = self.ecc.build_code(w, None, level)
        return code, report, self.ecc.serialize(code)

    def _cli(self, hex_value):
        proc = subprocess.run(
            [sys.executable, "-m", "wordcode.cli", "encode", "--code", self.cli_path,
             "--hex", hex_value], capture_output=True, text=True, timeout=120)
        return proc.returncode, proc.stdout.strip(), proc.stderr.strip()

    def run_pass(self, rec):
        ops = 0
        cli_code = None
        for w, level in self.CONFIGS:
            self._clear()
            built = rec.call(f"build {w}/{level}", self._build, w, level)
            if built is None:
                continue
            code, report, blob = built
            ops += report.construction_total()
            self._clear()
            loaded = rec.call(f"load {w}/{level}", self.ecc.deserialize, blob)
            rec.check(loaded == code, f"deserialize(serialize(c)) != c at w={w} L{level}")
            if (w, level) == self.CLI_CONFIG:
                cli_code = code
                with open(self.cli_path, "wb") as fh:
                    fh.write(blob + b"\n")
        self.model_ops = ops
        if cli_code is None:
            return
        digits = -(-cli_code.params.w // 4)
        for _ in range(self.CLI_CALLS):
            x = self.rng.getrandbits(cli_code.params.w)
            got = rec.call("cli", self._cli, format(x, f"0{digits}x"))
            if got is not None:
                self.cli_checks.append((cli_code, x, got))

    def finish(self, rec):
        from wordcode.wordram import WideInt
        for code, x, (rc, out, err) in self.cli_checks:
            want = self.ecc.encode(code, WideInt(x, code.params.w)).to_hex()
            rec.check(rc == 0 and out == want,
                      f"CLI encode exit {rc}, output differs: {err[-200:]}")
        if os.path.exists(self.cli_path):
            os.remove(self.cli_path)
        return {"model_ops": self.model_ops}

    @staticmethod
    def summarize(results):
        build_s, n = pass_median(results, "build")
        load_s, n_load = pass_median(results, "load")
        cli = pooled(results, "cli")
        ops = next(r["extra"]["model_ops"] for r in results)
        return {
            "build_s": metric(build_s, "s", n),
            "load_s": metric(load_s, "s", n_load),
            "build_model_ops": metric(ops, "count", len(Build.CONFIGS)),
            "cli_encode_s.p50": metric(statistics.median(cli), "s", len(cli)),
        }


# ---------------------------------------------------------------------------
# encode: scalar encoding, one word per call


class Encode:
    """Each pass is a seeded shuffle of level-1 calls at w=256, some of
    them carrying a fresh OpLedger, and level-2 calls at w=8192, sized
    so the three classes take similar shares of the pass."""

    name = "encode"
    L1_CALLS = 1000
    LEDGER_CALLS = 500
    L2_CALLS = 1
    L1_CHECK_EVERY = 50
    L2_CHECK_EVERY = 2

    def setup(self, seed, caches):
        from wordcode import ecc_core
        from wordcode.wordram import OpLedger
        self.ecc = ecc_core
        self.ledger_cls = OpLedger
        self.l1, self.l1_report = ecc_core.build_code(256)
        self.l2, self.l2_report = ecc_core.build_code(8192, None, 2)
        self.rng = random.Random(f"encode-{seed}")
        self.to_check = []
        self.seen = [0, 0]  # level-1 and level-2 calls so far

    def run_pass(self, rec):
        plan = (["l1"] * self.L1_CALLS + ["ledger"] * self.LEDGER_CALLS
                + ["l2"] * self.L2_CALLS)
        self.rng.shuffle(plan)
        encode = self.ecc.encode
        expected_ops = self.l1_report.encode_ops
        seen = self.seen
        for cls in plan:
            code = self.l2 if cls == "l2" else self.l1
            x = self.rng.getrandbits(code.params.w)
            ledger = self.ledger_cls(code.params.w) if cls == "ledger" else None
            cw = rec.call(cls, encode, code, x, ledger)
            if ledger is not None:
                rec.check(ledger.as_dict() == expected_ops,
                          f"ledgered encode charged {ledger.as_dict()}, "
                          f"CostReport says {expected_ops}")
            seen[cls == "l2"] += 1
            every = self.L2_CHECK_EVERY if cls == "l2" else self.L1_CHECK_EVERY
            if seen[cls == "l2"] % every == 1:
                self.to_check.append((code, x, cw))

    def finish(self, rec):
        from oracle import encode_reference
        for code, x, cw in self.to_check:
            rec.check(cw is not None and int(cw) == encode_reference(code, x)
                      and cw.bits == code.codeword_bits,
                      f"codeword differs from the per-slot reference at "
                      f"w={code.params.w} L{code.level}")
        return {"model_ops": self.l1_report.encode_total() + self.l2_report.encode_total(),
                "checked_codewords": len(self.to_check)}

    @staticmethod
    def summarize(results):
        l1 = pooled(results, "l1")
        l2 = pooled(results, "l2")
        led = pooled(results, "ledger")
        ops = next(r["extra"]["model_ops"] for r in results)
        return {
            "encode_l1_us.p50": metric(1e6 * quantile(l1, 0.5), "us", len(l1)),
            "encode_l1_us.p99": metric(1e6 * quantile(l1, 0.99), "us", len(l1)),
            "encode_l2_ms.p50": metric(1e3 * quantile(l2, 0.5), "ms", len(l2)),
            "encode_l2_ms.p95": metric(1e3 * quantile(l2, 0.95), "ms", len(l2)),
            "encode_ledger_us.p50": metric(1e6 * quantile(led, 0.5), "us", len(led)),
            "encode_model_ops": metric(ops, "count", 2),
        }


# ---------------------------------------------------------------------------
# keyset: bulk use of the encoder


class Keyset:
    """Each pass builds a signature over a seeded set of distinct keys at
    w=64 level 1 (kernel batch path), evaluates it on every key, verifies
    injectivity, and runs a random-mode distance report at w=256 level 1,
    where the batch encoder falls back to scalar encode."""

    name = "keyset"
    KEYS = 600
    DISTANCE_PAIRS = 2000
    CHECK_KEYS = 64

    def setup(self, seed, caches):
        from wordcode import ecc_core, sighash
        self.ecc = ecc_core
        self.sig = sighash
        self.small, _ = ecc_core.build_code(64)
        self.wide, _ = ecc_core.build_code(256)
        rng = random.Random(f"keyset-{seed}")
        keys = set()
        while len(keys) < self.KEYS:
            keys.add(rng.getrandbits(64))
        self.keys = sorted(keys)
        rng.shuffle(self.keys)
        self.rng = rng
        self.signature = None
        self.sig_values = []

    def run_pass(self, rec):
        f = rec.call("sig_build", self.sig.build_signature, self.small, self.keys)
        if f is not None:
            self.signature = f
            evals = [rec.call("sig_eval", self.sig.sig_eval, f, k) for k in self.keys]
            self.sig_values = list(zip(self.keys, evals))
            ok = rec.call("verify", self.sig.verify_injective, f, self.keys)
            rec.check(ok is True, "verify_injective is false on the build set")
        floor = self.wide.guaranteed_min_bits()
        report = rec.call("distance", self.ecc.distance_report, self.wide, "random",
                          self.DISTANCE_PAIRS, self.rng.getrandbits(32))
        rec.check(report is not None and report["min_bits"] >= floor
                  and report["pairs_checked"] == self.DISTANCE_PAIRS,
                  f"distance report {report} below the floor {floor}")

    def finish(self, rec):
        import numpy as np
        from oracle import encode_reference
        sample = self.keys[:self.CHECK_KEYS]
        rows = self.ecc._batch_encode(self.small, np.array(sample, dtype=np.uint64))
        for k, row in zip(sample, rows):
            ref = encode_reference(self.small, k)
            rec.check(int(self.ecc.encode(self.small, k)) == ref == _codeword_int(row),
                      f"w=64 codeword of {k:#x}: scalar, batch and reference differ")
        f = self.signature
        extra = {}
        if f is not None:
            for k, s in self.sig_values[:self.CHECK_KEYS]:
                ref = encode_reference(self.small, k)
                want = sum(((ref >> pos) & 1) << j for j, pos in enumerate(f.positions))
                rec.check(s is not None and int(s) == want,
                          f"sig_eval of {k:#x} differs from the reference bits")
            extra = separation(self.ecc, f, self.keys)
            rec.check(extra["separated_frac"] >= extra["rho_bound"],
                      "a greedy round separated fewer pairs than the guaranteed rho")
        return extra

    @staticmethod
    def summarize(results):
        sig_build, n = pass_median(results, "sig_build")
        evals = pooled(results, "sig_eval")
        dist = [2 * Keyset.DISTANCE_PAIRS / v for v in pooled(results, "distance")]
        return {
            "sig_build_s": metric(sig_build, "s", n),
            "sig_eval_us.p50": metric(1e6 * quantile(evals, 0.5), "us", len(evals)),
            "distance_keys_per_s": metric(statistics.median(dist), "1/s", len(dist)),
        }


def separation(ecc, f, keys):
    """Replay the greedy rounds of a signature: the smallest share of the
    still-colliding pairs that one round separated, next to the share rho
    that the code's distance floor guarantees."""
    import numpy as np
    limbs = ecc._batch_encode(f.code, np.array(keys, dtype=np.uint64))
    bits = np.unpackbits(limbs.astype("<u8").view(np.uint8), axis=1,
                         bitorder="little")[:, :f.code.codeword_bits]
    ai, bi = np.triu_indices(len(keys), k=1)
    worst = 1.0
    for pos in f.positions:
        still = bits[ai, pos] == bits[bi, pos]
        worst = min(worst, 1.0 - float(still.sum()) / ai.shape[0])
        ai, bi = ai[still], bi[still]
    return {"separated_frac": worst, "rho_bound": float(f.code.delta_prime_bound)}


WORKLOADS = {w.name: w for w in (Build, Encode, Keyset)}
