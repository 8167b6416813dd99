"""What only a fresh interpreter shows: the modules a route imports, and
the allocator state the kernels leave at import."""

import json
import os
import subprocess
import sys
from pathlib import Path

import wordcode

SRC = Path(wordcode.__file__).resolve().parents[1]

SPEC_ROUTE = """
import contextlib, io, json, sys
from wordcode import cli, ecc_core

path = sys.argv[1]
for w, level in ((64, 1), (256, 1), (1024, 1), (8192, 2)):
    code, _ = ecc_core.build_code(w, None, level)
    x = (1 << w) // 3
    cw = ecc_core.encode(code, x)
    blob = ecc_core.serialize(code)
    if ecc_core.deserialize(blob) != code:
        sys.exit(f"w={w} L{level}: deserialize(serialize(code)) != code")
    if (w, level) == (256, 1):
        with open(path, "wb") as fh:
            fh.write(blob + b"\\n")
        x_hex, want = format(x, "064x"), cw.to_hex()
        tampered = dict(json.loads(blob), delta_num=0)
out = io.StringIO()
with contextlib.redirect_stdout(out):
    rc = [cli.main(["encode", "--code", path, "--hex", x_hex]),
          cli.main(["verify", "--code", path])]
lines = out.getvalue().splitlines()
try:
    ecc_core.deserialize(json.dumps(tampered))
    sys.exit("a description with delta_num 0 deserialized")
except ecc_core.CodeValidationError as exc:
    if "delta must be positive" not in str(exc):
        sys.exit(f"delta_num 0 refused as: {exc}")
loaded = [m for m in ("numpy", "wordcode._kernels", "csv", "dataclasses")
          if m in sys.modules]

import wordcode
from wordcode import bulk, sighash
print(json.dumps({
    "rc": rc, "encode": lines[0] == want,
    "valid": json.loads(lines[1])["results"]["valid"], "loaded": loaded,
    "lazy": [wordcode.distance_report is bulk.distance_report,
             wordcode.min_weight_multiple_check is bulk.min_weight_multiple_check,
             wordcode.build_signature is sighash.build_signature,
             ecc_core._batch_encode is bulk._batch_encode,
             ecc_core.distance_report is bulk.distance_report],
}))
"""

ALLOCATOR = """
import resource
from wordcode import _kernels

def no_scan(*args):
    raise SystemExit("scanned for a multiplier")

_kernels.scan_multiplier = no_scan
from wordcode.ecc_core import build_code, distance_report

code, _ = build_code(256)
distance_report(code, "random", 2000, 0)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for seed in range(1, 21):
    distance_report(code, "random", 2000, seed)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 20)
"""


def _run_fresh(script, *args) -> str:
    """stdout of `script` in a new interpreter that imports this `wordcode`."""
    path = os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run([sys.executable, "-c", script, *args], capture_output=True,
                          text=True, timeout=120, env=dict(os.environ, PYTHONPATH=path))
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def test_spec_route_imports_no_numpy(tmp_path):
    # Build, encode, serialize and deserialize at both levels, then CLI
    # encode and verify on a written description, then refuse that
    # description with delta_num 0: none of it imports numpy, the
    # kernels, csv, which only `bench` writes, or dataclasses, whose
    # `inspect` import would cost a cold call more than its encode.  The
    # bulk and signature names still resolve, to their own modules'
    # functions, once asked for.
    report = json.loads(_run_fresh(SPEC_ROUTE, str(tmp_path / "c256.json")))
    assert report == {"rc": [0, 0], "encode": True, "valid": True, "loaded": [],
                      "lazy": [True] * 5}


def test_kernels_import_keeps_bulk_temporaries_on_the_heap():
    # `_kernels` frees an 8 MB mapping at import, which raises glibc's
    # mmap threshold, so random `distance_report`'s ~1 MB temporaries
    # reuse heap pages in a process that never scanned: 0 minor faults
    # per call, against about 1,400 without that free.
    assert float(_run_fresh(ALLOCATOR)) < 100
