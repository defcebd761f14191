"""Exception hierarchy shared across the pipeline.

Each class carries the exit code ``gliomics`` returns for it: 2 for bad
input or config, 3 for a failed registration, 4 for a failed training run.
"""


class GliomicsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 2


# --- file I/O -------------------------------------------------------------

class MissingFile(GliomicsError, FileNotFoundError):
    pass


class BadMagic(GliomicsError):
    """File is not a NIfTI-1 image gliomics can read: bad magic string,
    header size or header field."""


class UnsupportedDatatype(GliomicsError):
    """On-disk datatype we refuse to interpret (RGB, complex, 4D, ...)."""


class IoFailure(GliomicsError, OSError):
    pass


class LabelOutOfRange(GliomicsError):
    """A segmentation voxel holds a value outside {0..5}."""

    def __init__(self, value, index):
        self.value = value
        self.index = tuple(int(i) for i in index)
        super().__init__(f"label value {value} at voxel {self.index} not in 0..5")

    def __reduce__(self):
        # the default passes the message alone, which __init__ cannot take
        return type(self), (self.value, self.index)


# --- geometry ---------------------------------------------------------------

class GeometryMismatch(GliomicsError):
    pass


# --- registration -----------------------------------------------------------

class InsufficientOverlap(GliomicsError):
    exit_code = 3


# --- features ---------------------------------------------------------------

class NegativeProbability(GliomicsError):
    pass


# --- classifiers ------------------------------------------------------------

class EmptyMatrix(GliomicsError):
    pass


class SingleClass(GliomicsError):
    exit_code = 4


class NoConvergence(GliomicsError):
    exit_code = 4


# --- evaluation / statistics ------------------------------------------------

class ClassTooSmall(GliomicsError):
    exit_code = 4


class LengthMismatch(GliomicsError):
    pass


class TooFewGroups(GliomicsError):
    pass


# --- phantom ----------------------------------------------------------------

class InfeasibleRatios(GliomicsError):
    """Requested component ratios cannot be nested inside the grid."""
