"""The traced benchmark's span wrappers still see every encode charge.

`perfbench/spans.py` replaces names in `ecc_core` (split5, rs_encode,
inner_encode, unpack_fields, wide_or, wide_shl, ...) with wrappers that
add each call's ledger delta to a section.  A renamed or bypassed name
would make the sections stop summing to the ledger; this test catches
that without a full `perfbench/run.py --trace 1` run.  The library's
own phases (`CostReport.build_phases` and `encode_phases`) must equal
those sections once `inner.X` is folded into X.  Only ledgered
encodes call the stages by name: a plain encode runs the code's plans
straight through and records no stage span.  The keyset calls are
checked the same way: a renamed or bypassed kernel would leave its
per-layer metric reading 0.
"""

from collections import Counter
from pathlib import Path

from wordcode import ecc_core, sighash
from wordcode.wordram import OpLedger

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
CODES = ((64, 1), (64, 2), (256, 1))


def _children(spans, parent):
    return Counter(s[0] for s in spans if s[3] == parent)


def _folded(phases, names):
    """Phase totals with `inner.X` folded into X, over `names`."""
    out = dict.fromkeys(names, 0)
    for name, ops in phases.items():
        out[name.removeprefix("inner.")] += sum(ops.values())
    return out


def test_traced_sections_sum_to_ledger(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    original = ecc_core.encode
    tracer = spans.Tracer()
    tracer.install()
    tracer.recording = True
    try:
        built = [ecc_core.build_code(w, None, level) for w, level in CODES]
        codes = [code for code, _ in built]
        tracer.request = 1  # the encodes are timed calls, the builds set-up
        for code in codes:
            w = code.params.w
            for x in (0, (1 << w) - 1):
                led = ecc_core.encode(code, x, OpLedger(w))
                assert ecc_core.encode(code, x) == led
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert ecc_core.encode is original

    builds, encodes, problems = spans.model_op_sections(tracer.spans)
    assert problems == []
    assert set(builds) == set(encodes) == set(CODES)
    # The library's declared phases are the sections the wrappers see,
    # for every build and every ledgered encode (probes included).
    for code, report in built:
        key = (code.params.w, code.level)
        assert builds[key] == _folded(report.build_phases, spans.BUILD_SECTIONS), key
        assert encodes[key] == _folded(report.encode_phases, spans.ENCODE_SECTIONS), key
    for (w, level), sections in encodes.items():
        assert sections["split5"] and sections["rs_encode"]
        assert sections["concat"] == 0, (w, level)
        assert sections["unpack_fields"] == 0, (w, level)

    # Each stage runs once per ledgered encode, and once more for the
    # inner code at level 2: no loop over the five split words or the
    # residues.  A plain encode calls no stage by name.
    top = [i for i, s in enumerate(tracer.spans)
           if s[0] == spans.ENCODE and s[5]["ops"] is not None
           and (s[3] < 0 or tracer.spans[s[3]][0] != spans.ENCODE)]
    plain = [i for i, s in enumerate(tracer.spans)
             if s[0] == spans.ENCODE and s[5]["ops"] is None]
    assert len(top) == 3 * len(CODES)
    assert len(plain) == 2 * len(CODES)
    assert all(s[3] < 0 for s in map(tracer.spans.__getitem__, plain))
    assert all(not _children(tracer.spans, i) for i in plain)
    assert all(s[0] != spans.ENCODE or s[3] < 0
               or tracer.spans[s[3]][0] != spans.ENCODE for s in tracer.spans)
    for i in top:
        pipelines = tracer.spans[i][5]["level"]
        calls = _children(tracer.spans, i)
        assert calls["outer_rs.split5"] == calls["outer_rs.rs_encode"] == pipelines
        for rs in (j for j, s in enumerate(tracer.spans)
                   if s[0] == "outer_rs.rs_encode" and s[3] == i):
            assert _children(tracer.spans, rs)["wordram.parallel_mod"] == 1
        assert calls["inner_mult.inner_encode"] == 1
        assert calls["wordram.unpack_fields"] == 0
        assert calls[spans.ENCODE] == 0

    # The per-layer metrics see the stage spans of ledgered encodes only:
    # one parallel_mod per pipeline over every timed encode, plain ones
    # included.
    layers, problems = spans.layer_metrics(tracer.spans, 1)
    assert problems == []
    timed_encodes = 4 * len(CODES)  # two ledgered and two plain per code
    ledgered_pipelines = 2 * sum(level for _, level in CODES)
    assert layers["wordram.parallel_mod.calls"] == ledgered_pipelines / timed_encodes
    assert layers["ecc_core.encode.inner_calls"] == 0
    assert layers["outer_rs.split5.us"] > 0


def test_traced_keyset_calls_record_their_kernels(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    import spans

    small, _ = ecc_core.build_code(64)
    wide, _ = ecc_core.build_code(256)
    keys = list(range(1, 200, 3))
    tracer = spans.Tracer()
    tracer.install()
    tracer.recording = True
    tracer.request = 1
    try:
        f = sighash.build_signature(small, keys)
        ok = sighash.verify_injective(f, keys)
        report = ecc_core.distance_report(wide, "random", 500, 3)
    finally:
        tracer.recording = False
        tracer.uninstall()
    assert ok is True
    assert report["min_bits"] >= wide.guaranteed_min_bits()

    names = [s[0] for s in tracer.spans]
    (verify,) = [i for i, name in enumerate(names) if name == "sighash.verify_injective"]
    (distance,) = [i for i, name in enumerate(names) if name == "ecc_core.distance_report"]
    assert _children(tracer.spans, distance)["_kernels.paired_min_hamming"] >= 1
    assert _children(tracer.spans, verify) == Counter()
    layers, problems = spans.layer_metrics(tracer.spans, 1)
    assert problems == []
    assert layers["kernels.paired_min_hamming.s"] > 0
    assert layers["ecc_core._batch_encode.kernel.us_per_key"] > 0
    assert layers["sighash.rounds"] == len(f.positions)
