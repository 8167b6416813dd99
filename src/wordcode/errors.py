"""Exception hierarchy.

Everything raised on purpose by this package derives from WordcodeError,
so callers can catch one type at the boundary.  Classes that also derive
from ValueError keep `except ValueError` code working for plain misuse.
"""


class WordcodeError(Exception):
    pass


class ParameterError(WordcodeError, ValueError):
    """A derived parameter violates one of the construction constraints."""


class LayoutError(WordcodeError, ValueError):
    """Packed-field misuse: width mismatch, slot overflow, bad layout."""


class MultiplierNotFoundError(WordcodeError):
    """No multiplier meets the threshold, scanned or past the code length.

    `achievable` carries a delta that does succeed for this word size:
    `find_multiplier` attaches `DEFAULT_DELTA`, which reaches its
    threshold at every searchable B.  It need not be the largest such
    delta: a failed search says nothing about the deltas between.
    """

    def __init__(self, bits, delta, achievable):
        self.bits = bits
        self.delta = delta
        self.achievable = achievable
        text = str(delta)
        if len(text) > 40:  # a delta of hundreds of digits, cut to one line
            text = f"{text[:18]}...{text[-19:]}"
        super().__init__(f"no multiplier reaches delta={text} for B={bits}; "
                         f"delta={achievable} succeeds")


class CodecError(WordcodeError):
    """Base for serialization failures."""


class CodecFormatError(CodecError):
    """Input is not a code description (bad magic / missing fields)."""


class CodecVersionError(CodecError):
    """A code description or signature file uses an unsupported format
    version."""


class CodeValidationError(CodecError):
    """Stored parameters fail re-validation against their own word size."""


class DuplicateKeyError(WordcodeError, ValueError):
    """Key set for signature construction contains a repeated key."""

    def __init__(self, index_a, index_b, key_hex):
        self.index_a = index_a
        self.index_b = index_b
        self.key_hex = key_hex
        super().__init__(
            f"duplicate key at positions {index_a} and {index_b}: {key_hex}"
        )
