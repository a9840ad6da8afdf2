"""Exception types shared across the package, and the memory-size guard that raises one."""

import math
from contextlib import contextmanager

import numpy as np


class PcflowError(Exception):
    """Base class for all pcflow errors."""


class UsageError(PcflowError):
    """Bad arguments or flag combinations (CLI exit code 2)."""


class SchemaError(PcflowError):
    """Input file does not match the declared column schema."""


class ParseError(PcflowError):
    """Malformed field in an input file; message carries the line number."""


class DataError(PcflowError):
    """Input data violates a precondition (exit code 3)."""


class InsufficientDataError(DataError):
    """Fewer surviving scenarios than the minimum required."""


class ScalingError(DataError):
    """Scaling cannot be applied (zero capacity, degenerate range, ...)."""


class NumericError(PcflowError):
    """Non-finite values or failed numerical procedure (exit code 4)."""


class ModelFormatError(PcflowError):
    """Model file is corrupted or not a pcflow model file."""


class ModelVersionError(ModelFormatError):
    """Model file was written by an incompatible format version."""


@contextmanager
def fitting(message, shapes):
    """Run a step that allocates float64 arrays of these shapes; too large is a UsageError."""
    # numpy refuses an array of more than intp-max bytes before allocating
    if any(math.prod(shape) > np.iinfo(np.intp).max // 8 for shape in shapes):
        raise UsageError(message)
    try:
        yield
    except MemoryError:
        raise UsageError(message) from None
