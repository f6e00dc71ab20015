"""Exception hierarchy shared across the package.

The CLI maps these onto distinct exit codes, so keep the split between
parse/format problems, validation problems, and load problems intact.
"""

import os


class AccelError(Exception):
    """Base class for all package errors."""


class FormatError(AccelError):
    """A binary or text file does not match its expected format."""


class CorruptionError(FormatError):
    """A file header parsed but the payload is inconsistent with it."""


class ParseError(AccelError):
    """A structured text file (network/config/sweep/calibration) failed to parse."""

    def __init__(self, path, line_no, message):
        self.path = path
        self.line_no = line_no
        super().__init__(f"{path}:{line_no}: {message}")


class ShapeError(AccelError):
    """Tensor or layer geometry is inconsistent."""


class AccumulatorOverflow(AccelError):
    """An integer value left the 32-bit accumulator range the hardware assumes."""


class ConfigTooSmallError(AccelError):
    """A layer cannot run under the given configuration even with splitting."""


class ValidationError(AccelError):
    """A network failed legality checking against a configuration."""


class LoadError(AccelError):
    """A referenced artifact (tensor, parameter bank, file) could not be loaded."""


class SweepCapError(AccelError):
    """A sweep enumerates more design points than the configured cap."""


def open_input(path, mode="rb", **kwargs):
    """open() for a file the user named; an OSError becomes a LoadError naming the path."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise LoadError(f"cannot read {path}: {exc.strerror}") from None


def open_output(path, mode="w", **kwargs):
    """open() for a file the user named for writing; an OSError becomes a LoadError."""
    try:
        return open(path, mode, **kwargs)
    except OSError as exc:
        raise LoadError(f"cannot write {path}: {exc.strerror}") from None


def make_output_dir(path):
    """os.makedirs(path, exist_ok=True); an OSError becomes a LoadError."""
    try:
        os.makedirs(path, exist_ok=True)
    except OSError as exc:
        raise LoadError(f"cannot write {path}: {exc.strerror}") from None
