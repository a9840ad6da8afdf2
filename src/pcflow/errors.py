"""Exception types shared across the package, and the memory-size guard that raises one."""

import math
import os
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


def _physical_memory():
    """Bytes of physical memory, or None where ``os.sysconf`` does not report it."""
    try:
        pages, page_size = os.sysconf("SC_PHYS_PAGES"), os.sysconf("SC_PAGE_SIZE")
    except (AttributeError, ValueError, OSError):  # no sysconf, or no such name
        return None
    return pages * page_size if pages > 0 and page_size > 0 else None


@contextmanager
def fitting(message, shapes):
    """Run a step that allocates float64 arrays of these shapes; too large is a UsageError.

    Too large is an array numpy refuses (more than intp-max bytes), arrays
    whose bytes together exceed physical memory, or a MemoryError inside.
    """
    sizes = [math.prod(shape) for shape in shapes]
    memory = _physical_memory()
    # numpy refuses an array of more than intp-max bytes before allocating
    if (any(size > np.iinfo(np.intp).max // 8 for size in sizes)
            or (memory is not None and 8 * sum(sizes) > memory)):
        raise UsageError(message)
    try:
        yield
    except MemoryError:
        raise UsageError(message) from None
