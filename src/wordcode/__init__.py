"""Constant-time error-correcting codes over machine words."""

from wordcode.ecc_core import (
    CostReport,
    EccCode,
    build_code,
    deserialize,
    distance_report,
    encode,
    min_weight_multiple_check,
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
from wordcode.inner_mult import InnerCode, find_multiplier, inner_encode
from wordcode.outer_rs import (
    GeneratorPoly,
    RsParams,
    build_generator,
    derive_params,
    rs_encode,
    split5,
)
from wordcode.sighash import (
    SignatureFn,
    build_signature,
    load_signature,
    save_signature,
    sig_eval,
    verify_injective,
)
from wordcode.wordram import (
    FieldLayout,
    OpLedger,
    WideInt,
    pack_fields,
    parallel_mod,
    parallel_mod_reference,
    unpack_fields,
)

__version__ = "0.1.0"

__all__ = [
    "CodecFormatError",
    "CodecVersionError",
    "CodeValidationError",
    "CostReport",
    "DuplicateKeyError",
    "EccCode",
    "FieldLayout",
    "GeneratorPoly",
    "InnerCode",
    "LayoutError",
    "MultiplierNotFoundError",
    "OpLedger",
    "ParameterError",
    "RsParams",
    "SignatureFn",
    "WideInt",
    "WordcodeError",
    "build_code",
    "build_generator",
    "build_signature",
    "derive_params",
    "deserialize",
    "distance_report",
    "encode",
    "find_multiplier",
    "inner_encode",
    "load_signature",
    "min_weight_multiple_check",
    "pack_fields",
    "parallel_mod",
    "parallel_mod_reference",
    "rs_encode",
    "save_signature",
    "serialize",
    "sig_eval",
    "split5",
    "unpack_fields",
    "verify_injective",
]
