"""Constant-time error-correcting codes over machine words."""

import importlib

from wordcode.ecc_core import (
    CostReport,
    EccCode,
    build_code,
    deserialize,
    encode,
    serialize,
)
from wordcode.errors import (
    CodecFormatError,
    CodecVersionError,
    CodeValidationError,
    DuplicateKeyError,
    LayoutError,
    MultiplierNotFoundError,
    ParameterError,
    WordcodeError,
)
from wordcode.wordram import OpLedger, WideInt

__version__ = "0.1.0"

# The bulk measurements and the signature functions import numpy.  They
# are served by name and their module is imported on first use, so that
# `python -m wordcode.cli` and the spec route never import numpy.
_LAZY = {
    "distance_report": "bulk",
    "min_weight_multiple_check": "bulk",
    "SignatureFn": "sighash",
    "build_signature": "sighash",
    "load_signature": "sighash",
    "save_signature": "sighash",
    "sig_eval": "sighash",
    "verify_injective": "sighash",
}


def __getattr__(name):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    return getattr(importlib.import_module(f"{__name__}.{module}"), name)

__all__ = [
    "CodecFormatError",
    "CodecVersionError",
    "CodeValidationError",
    "CostReport",
    "DuplicateKeyError",
    "EccCode",
    "LayoutError",
    "MultiplierNotFoundError",
    "OpLedger",
    "ParameterError",
    "SignatureFn",
    "WideInt",
    "WordcodeError",
    "build_code",
    "build_signature",
    "deserialize",
    "distance_report",
    "encode",
    "load_signature",
    "min_weight_multiple_check",
    "save_signature",
    "serialize",
    "sig_eval",
    "verify_injective",
]
