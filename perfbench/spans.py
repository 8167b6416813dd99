"""In-memory span tracer for the traced benchmark run.

Spans are recorded from the benchmark's own files: `install` replaces
the layer-boundary names in the module namespaces that call them (for
example `ecc_core.rs_encode` or `_kernels.scan_multiplier`) with thin
wrappers, and `uninstall` puts the originals back.  Nothing under
`src/` changes.  The stack of open spans assumes one thread, which
holds while WORDCODE_THREADS is unset.

A span is `[name, start, end, parent, request, info]`: `parent` is the
index of the enclosing span (-1 at top level), `request` is the id of
the timed top-level call it belongs to (0 during set-up), and `info`
holds per-layer facts such as the ledger delta of the call.

Model-op sections come from ledger deltas around the wrapped calls.  A
`build_code` call and every ledgered top-level `encode` call are
accounting roots: each section delta is added to the innermost open
root, so a probe encode inside `build_code` keeps its own sections.
"""

from __future__ import annotations

import gzip
import json
import statistics
import time

ENCODE = "ecc_core.encode"
BUILD_CODE = "ecc_core.build_code"
ENCODE_SECTIONS = ("split5", "rs_encode", "inner_encode", "unpack_fields", "concat")
BUILD_SECTIONS = ("param_search", "generator", "multiplier_scan")

# Every per-layer metric of a traced run, with its unit, in report order.
# Metric names start with a letter or digit, so the `_kernels` module's
# metrics are named `kernels.*`.
LAYER_UNITS = {
    "kernels.scan_multiplier.s": "s",
    "kernels.scan_multiplier.candidates": "count",
    "kernels.scan_multiplier.pair_checks": "count",
    "kernels.scan_multiplier.pair_checks_per_s": "1/s",
    "kernels.pair_min_distance.s": "s",
    "inner_mult.find_multiplier.self_s": "s",
    "numtheory.find_field_prime.s": "s",
    "numtheory.find_primitive_root.s": "s",
    "outer_rs.build_generator.s": "s",
    "ecc_core.build_code.probe_encode.s": "s",
    "ecc_core.deserialize.self_s": "s",
    "wordram.reciprocal.cold_s": "s",
    "outer_rs.split5.us": "us",
    "outer_rs.rs_encode.self_us": "us",
    "wordram.parallel_mod.us": "us",
    "wordram.parallel_mod.calls": "count",
    "inner_mult.inner_encode.us": "us",
    "wordram.unpack_fields.us": "us",
    "ecc_core.encode.self_us": "us",
    "ecc_core.encode.inner_calls": "count",
    "wordram.ledger.us_per_encode": "us",
    **{f"model_ops.{s}": "count" for s in ENCODE_SECTIONS + BUILD_SECTIONS},
    "ecc_core._batch_encode.kernel.us_per_key": "us",
    "ecc_core._batch_encode.fallback.us_per_key": "us",
    "ecc_core._batch_encode.fallback_frac": "frac",
    "kernels.paired_min_hamming.s": "s",
    "sighash.build_signature.self_s": "s",
    "sighash.rounds": "count",
    "sighash.separated_frac": "frac",
    "sighash.rho_bound": "frac",
    "sighash.sig_eval.self_us": "us",
    "cli.import_s": "s",
    "trace.overhead_s": "s",
    "trace.overhead_frac": "frac",
}


def _ledger_arg(args, kwargs, index):
    if "ledger" in kwargs:
        return kwargs["ledger"]
    return args[index] if len(args) > index else None


class Tracer:
    def __init__(self):
        self.spans = []
        self.stack = []
        self.roots = []
        self.request = 0
        self.recording = False
        self._undo = []

    # -- installation ------------------------------------------------------

    def _replace(self, module, attr, wrapper):
        self._undo.append((module, attr, getattr(module, attr)))
        setattr(module, attr, wrapper)

    def _wrap(self, fn, name, ledger_at=None, section=None, root=None,
              pre=None, info=None):
        """Span around `fn`.  `root(args, ledger, parent)` opens a model-op
        accumulator; `info(args, result, ops, sections, pre_state)`
        fills the span's info after the call."""
        spans, stack, roots = self.spans, self.stack, self.roots
        clock = time.perf_counter
        tracer = self

        def traced(*args, **kwargs):
            if not tracer.recording:
                return fn(*args, **kwargs)
            ledger = None if ledger_at is None else _ledger_arg(args, kwargs, ledger_at)
            parent = stack[-1] if stack else -1
            span = [name, 0.0, 0.0, parent, tracer.request, None]
            stack.append(len(spans))
            spans.append(span)
            is_root = root is not None and root(args, ledger, parent)
            if is_root:
                roots.append({})
            pre_state = pre() if pre is not None else None
            before = ledger.total() if ledger is not None else 0
            span[1] = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = clock()
                stack.pop()
                sections = roots.pop() if is_root else None
            ops = None if ledger is None else ledger.total() - before
            if section is not None and ops is not None and roots:
                roots[-1][section] = roots[-1].get(section, 0) + ops
            if info is not None:
                span[5] = info(args, result, ops, sections, pre_state)
            return result

        return traced

    def _section_counter(self, fn, section, ledger_at):
        """Ledger delta into a section without a span; the concatenation
        helpers run thousands of times per level-2 encode."""
        roots = self.roots
        tracer = self

        def counted(*args, **kwargs):
            ledger = _ledger_arg(args, kwargs, ledger_at)
            if not tracer.recording or ledger is None or not roots:
                return fn(*args, **kwargs)
            before = ledger.total()
            result = fn(*args, **kwargs)
            roots[-1][section] = roots[-1].get(section, 0) + ledger.total() - before
            return result

        return counted

    def install(self):
        from wordcode import _kernels, ecc_core, outer_rs, sighash, wordram

        spans = self.spans

        def encode_root(args, ledger, parent):
            return ledger is not None and (parent < 0 or spans[parent][0] != ENCODE)

        def encode_info(args, result, ops, sections, _):
            code = args[0]
            return {"w": code.params.w, "level": code.level, "ops": ops,
                    "sections": sections}

        def build_info(args, result, ops, sections, _):
            code, report = result
            return {"w": code.params.w, "level": code.level, "sections": sections,
                    "construction_total": report.construction_total(),
                    "encode_total": report.encode_total()}

        def scan_info(args, result, ops, sections, _):
            b_bits, m_lo, m_hi = args[0], args[1], args[2]
            candidates = result - m_lo + 1 if result != -1 else m_hi - m_lo
            values = 1 << (b_bits + 1)
            return {"candidates": candidates,
                    "pair_checks": candidates * (values * (values - 1) // 2)}

        reciprocal = wordram._reciprocal_any_width

        def reciprocal_info(args, result, ops, sections, misses_before):
            return {"cold": reciprocal.cache_info().misses > misses_before}

        wrap = self._wrap
        encode = wrap(ecc_core.encode, ENCODE, ledger_at=2, root=encode_root,
                      info=encode_info)
        batch = wrap(ecc_core._batch_encode, "ecc_core._batch_encode",
                     info=lambda args, *_: {"keys": len(args[1])})
        traced_reciprocal = wrap(reciprocal, "wordram.reciprocal",
                                 pre=lambda: reciprocal.cache_info().misses,
                                 info=reciprocal_info)
        table = [
            (ecc_core, "encode", encode),
            (sighash, "encode", encode),
            (ecc_core, "build_code", wrap(
                ecc_core.build_code, BUILD_CODE,
                root=lambda *_: True, info=build_info)),
            (ecc_core, "deserialize", wrap(
                ecc_core.deserialize, "ecc_core.deserialize")),
            (ecc_core, "_charge_param_search", wrap(
                ecc_core._charge_param_search, "ecc_core.param_search",
                ledger_at=1, section="param_search")),
            (ecc_core, "build_generator", wrap(
                ecc_core.build_generator, "outer_rs.build_generator",
                ledger_at=1, section="generator")),
            (ecc_core, "find_multiplier", wrap(
                ecc_core.find_multiplier, "inner_mult.find_multiplier",
                ledger_at=2, section="multiplier_scan")),
            (ecc_core, "split5", wrap(
                ecc_core.split5, "outer_rs.split5", ledger_at=2,
                section="split5")),
            (ecc_core, "rs_encode", wrap(
                ecc_core.rs_encode, "outer_rs.rs_encode", ledger_at=3,
                section="rs_encode")),
            (ecc_core, "inner_encode", wrap(
                ecc_core.inner_encode, "inner_mult.inner_encode", ledger_at=3,
                section="inner_encode")),
            (ecc_core, "unpack_fields", wrap(
                ecc_core.unpack_fields, "wordram.unpack_fields", ledger_at=2,
                section="unpack_fields")),
            (ecc_core, "wide_or", self._section_counter(
                ecc_core.wide_or, "concat", 2)),
            (ecc_core, "wide_shl", self._section_counter(
                ecc_core.wide_shl, "concat", 2)),
            (ecc_core, "_batch_encode", batch),
            (sighash, "_batch_encode", batch),
            (ecc_core, "distance_report", wrap(
                ecc_core.distance_report, "ecc_core.distance_report")),
            (outer_rs, "parallel_mod", wrap(
                outer_rs.parallel_mod, "wordram.parallel_mod")),
            (outer_rs, "find_field_prime", wrap(
                outer_rs.find_field_prime, "numtheory.find_field_prime")),
            (outer_rs, "find_primitive_root", wrap(
                outer_rs.find_primitive_root, "numtheory.find_primitive_root")),
            (wordram, "_reciprocal_any_width", traced_reciprocal),
            (outer_rs, "_reciprocal_any_width", traced_reciprocal),
            # inner_mult reaches the kernels through the module object.
            (_kernels, "scan_multiplier", wrap(
                _kernels.scan_multiplier, "_kernels.scan_multiplier",
                info=scan_info)),
            (_kernels, "pair_min_distance", wrap(
                _kernels.pair_min_distance, "_kernels.pair_min_distance")),
            (_kernels, "paired_min_hamming", wrap(
                _kernels.paired_min_hamming, "_kernels.paired_min_hamming")),
            (sighash, "build_signature", wrap(
                sighash.build_signature, "sighash.build_signature",
                info=lambda args, result, *_: {"rounds": len(result.positions)})),
            (sighash, "sig_eval", wrap(sighash.sig_eval, "sighash.sig_eval")),
            (sighash, "verify_injective", wrap(
                sighash.verify_injective, "sighash.verify_injective")),
        ]
        for module, attr, wrapper in table:
            self._replace(module, attr, wrapper)

    def uninstall(self):
        while self._undo:
            module, attr, original = self._undo.pop()
            setattr(module, attr, original)

    def dump(self, path, header):
        with gzip.open(path, "wt", encoding="ascii") as fh:
            fh.write(json.dumps(header) + "\n")
            for i, span in enumerate(self.spans):
                fh.write(json.dumps([i] + span) + "\n")


# ---------------------------------------------------------------------------
# Per-layer metrics from the recorded spans


def model_op_sections(spans):
    """Per-(w, level) sections of one encode and one build, plus the
    list of mismatches against ledger and CostReport totals."""
    encode_totals = {}
    builds, encodes, problems = {}, {}, []
    for name, _, _, _, _, info in spans:
        if name == BUILD_CODE and info is not None:
            key = (info["w"], info["level"])
            sec = {s: info["sections"].get(s, 0) for s in BUILD_SECTIONS}
            encode_totals[key] = info["encode_total"]
            if sum(sec.values()) != info["construction_total"]:
                problems.append(f"build {key}: sections {sum(sec.values())} != "
                                f"construction total {info['construction_total']}")
            builds.setdefault(key, sec)
    for name, _, _, _, _, info in spans:
        if name == ENCODE and info is not None and info["sections"] is not None:
            key = (info["w"], info["level"])
            sec = {s: info["sections"].get(s, 0) for s in ENCODE_SECTIONS}
            total = sum(sec.values())
            if total != info["ops"]:
                problems.append(f"encode {key}: sections {total} != ledger {info['ops']}")
            if key in encode_totals and total != encode_totals[key]:
                problems.append(f"encode {key}: sections {total} != CostReport "
                                f"encode total {encode_totals[key]}")
            first = encodes.setdefault(key, sec)
            if first != sec:
                problems.append(f"encode {key}: sections differ between values")
    return builds, encodes, problems


def layer_metrics(spans, passes):
    """Per-layer numbers of one traced worker; see perfbench/README.md."""
    n = len(spans)
    dur = [s[2] - s[1] for s in spans]
    child = [0.0] * n
    for i, s in enumerate(spans):
        if s[3] >= 0:
            child[s[3]] += dur[i]
    own = [dur[i] - child[i] for i in range(n)]
    names = [s[0] for s in spans]
    timed = [s[4] > 0 for s in spans]
    passes = max(passes, 1)
    by_name = {}
    for i, name in enumerate(names):
        by_name.setdefault(name, []).append(i)

    def idx(name, where=None):
        return [i for i in by_name.get(name, ()) if where is None or where(i)]

    def per_proc(values_idx, value):
        setup = sum(value(i) for i in values_idx if not timed[i])
        run = sum(value(i) for i in values_idx if timed[i])
        return setup + run / passes

    def mean_us(ids, value):
        ids = [i for i in ids if timed[i]]
        return 1e6 * sum(value(i) for i in ids) / len(ids) if ids else 0.0

    def parent_name(i):
        p = spans[i][3]
        return names[p] if p >= 0 else None

    scans = idx("_kernels.scan_multiplier")
    scan_s = per_proc(scans, lambda i: dur[i])
    pair_checks = per_proc(scans, lambda i: spans[i][5]["pair_checks"])
    encodes = idx(ENCODE)
    top = [i for i in encodes if parent_name(i) != ENCODE and timed[i]]
    top_l2 = [i for i in top if spans[i][5]["level"] == 2]
    n_encodes = sum(1 for i in encodes if timed[i])
    nested = {}
    for i in encodes:
        if parent_name(i) == ENCODE:
            nested[spans[i][3]] = nested.get(spans[i][3], 0) + 1
    pmods = idx("wordram.parallel_mod", lambda i: parent_name(i) == "outer_rs.rs_encode")

    # Ledger cost per call: ledgered minus plain top-level level-1 encodes
    # of the same code, where the workload runs both.
    by_code = {}
    for i in top:
        info = spans[i][5]
        if info["level"] == 1:
            by_code.setdefault(info["w"], ([], []))[info["ops"] is not None].append(dur[i])
    ledger_gaps = [statistics.median(led) - statistics.median(plain)
                   for plain, led in by_code.values() if plain and led]

    batches = idx("ecc_core._batch_encode", lambda i: timed[i])
    fallback = {spans[i][3] for i in encodes if parent_name(i) == "ecc_core._batch_encode"}
    kernel_ids = [i for i in batches if i not in fallback]
    fallback_ids = [i for i in batches if i in fallback]
    keys = lambda ids: sum(spans[i][5]["keys"] for i in ids)
    per_key = lambda ids: 1e6 * sum(dur[i] for i in ids) / keys(ids) if keys(ids) else 0.0
    signatures = idx("sighash.build_signature", lambda i: timed[i])

    builds, encode_sections, problems = model_op_sections(spans)
    out = {
        "kernels.scan_multiplier.s": scan_s,
        "kernels.scan_multiplier.candidates": per_proc(
            scans, lambda i: spans[i][5]["candidates"]),
        "kernels.scan_multiplier.pair_checks": pair_checks,
        "kernels.scan_multiplier.pair_checks_per_s": pair_checks / scan_s if scan_s else 0.0,
        "kernels.pair_min_distance.s": per_proc(
            idx("_kernels.pair_min_distance"), lambda i: dur[i]),
        "inner_mult.find_multiplier.self_s": per_proc(
            idx("inner_mult.find_multiplier"), lambda i: own[i]),
        "numtheory.find_field_prime.s": per_proc(
            idx("numtheory.find_field_prime"), lambda i: dur[i]),
        "numtheory.find_primitive_root.s": per_proc(
            idx("numtheory.find_primitive_root"), lambda i: dur[i]),
        "outer_rs.build_generator.s": per_proc(
            idx("outer_rs.build_generator"), lambda i: dur[i]),
        "ecc_core.build_code.probe_encode.s": per_proc(
            [i for i in encodes if parent_name(i) == BUILD_CODE], lambda i: dur[i]),
        "ecc_core.deserialize.self_s": per_proc(
            idx("ecc_core.deserialize"), lambda i: own[i]),
        "wordram.reciprocal.cold_s": per_proc(
            idx("wordram.reciprocal", lambda i: spans[i][5]["cold"]), lambda i: dur[i]),
        "outer_rs.split5.us": mean_us(idx("outer_rs.split5"), lambda i: dur[i]),
        "outer_rs.rs_encode.self_us": mean_us(idx("outer_rs.rs_encode"), lambda i: own[i]),
        "wordram.parallel_mod.us": mean_us(pmods, lambda i: dur[i]),
        "wordram.parallel_mod.calls": (
            sum(1 for i in pmods if timed[i]) / n_encodes if n_encodes else 0.0),
        "inner_mult.inner_encode.us": mean_us(
            idx("inner_mult.inner_encode"), lambda i: dur[i]),
        "wordram.unpack_fields.us": mean_us(
            idx("wordram.unpack_fields"), lambda i: dur[i]),
        "ecc_core.encode.self_us": mean_us(top_l2, lambda i: own[i]),
        "ecc_core.encode.inner_calls": (
            sum(nested.get(i, 0) for i in top_l2) / len(top_l2) if top_l2 else 0.0),
        "wordram.ledger.us_per_encode": (
            1e6 * statistics.mean(ledger_gaps) if ledger_gaps else 0.0),
    }
    for s in ENCODE_SECTIONS:
        out[f"model_ops.{s}"] = sum(sec[s] for sec in encode_sections.values())
    for s in BUILD_SECTIONS:
        out[f"model_ops.{s}"] = sum(sec[s] for sec in builds.values())
    all_keys = keys(batches)
    out.update({
        "ecc_core._batch_encode.kernel.us_per_key": per_key(kernel_ids),
        "ecc_core._batch_encode.fallback.us_per_key": per_key(fallback_ids),
        "ecc_core._batch_encode.fallback_frac": (
            keys(fallback_ids) / all_keys if all_keys else 0.0),
        "kernels.paired_min_hamming.s": per_proc(
            idx("_kernels.paired_min_hamming", lambda i: timed[i]), lambda i: dur[i]),
        "sighash.build_signature.self_s": per_proc(signatures, lambda i: own[i]),
        "sighash.rounds": (
            statistics.mean(spans[i][5]["rounds"] for i in signatures)
            if signatures else 0.0),
        "sighash.sig_eval.self_us": mean_us(idx("sighash.sig_eval"), lambda i: own[i]),
    })
    return out, problems
