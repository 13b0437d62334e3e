"""Exception types raised by the library.

Every domain error derives from DiffspecError so callers (and the CLI)
can distinguish bad input from a genuine property violation.
"""


class DiffspecError(Exception):
    """Base class for all library-specific errors."""


class NotAFixedPointSeed(DiffspecError):
    """The seed letter does not begin its own substitution image."""


class NotPrimitive(DiffspecError):
    """No power of the substitution matrix is entrywise positive."""


class WindowTooShort(DiffspecError):
    """The symbolic window is too short for the requested operation."""


class MissingTableEntry(DiffspecError):
    """A sliding-block table has no entry for an encountered word."""


class EmptyPointSet(DiffspecError):
    """The operation needs at least one point."""


class ZTooLarge(DiffspecError):
    """Requested difference range exceeds the sample extent."""


class NotHermitian(DiffspecError):
    """A correlation sequence fails eta(-m) == conj(eta(m))."""


class GridMismatch(DiffspecError):
    """Two grid-supported measures live on different grids."""


class ZeroMass(DiffspecError):
    """A measure that must be normalized has no mass."""


class OutOfRange(DiffspecError):
    """A cutoff N or radius R exceeds the available data."""


class EmptyInterior(DiffspecError):
    """No sample point is at least K from both ends."""


class IncompatibleCluster(DiffspecError):
    """The cluster does not fit the stated locator radius."""


class NotSilverMean(DiffspecError):
    """The point set lacks the exact coordinates this operation needs."""


class UnnamedLetter(DiffspecError):
    """A letter id outside the 26 names a..z cannot be written as text."""


class MalformedInput(DiffspecError, ValueError):
    """A text input does not follow its file format."""
