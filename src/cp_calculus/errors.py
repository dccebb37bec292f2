"""Exception taxonomy shared by every layer of the package.

All domain failures derive from :class:`CpError` so callers (and the CLI)
can distinguish numerical/structural problems from programming errors.
"""

from __future__ import annotations


class CpError(Exception):
    """Base class for all errors raised by this package."""


class ShapeMismatch(CpError):
    """A matrix or operator family has the wrong shape."""


class DimMismatch(CpError):
    """Two objects that must share dimensions do not."""


class DimensionLimit(CpError):
    """A requested product dimension exceeds the configured cap."""


class NotHermitian(CpError):
    """A matrix required to be Hermitian is not, beyond tolerance."""


class NotPsd(CpError):
    """A matrix required to be positive semidefinite is not."""


class NotDominated(CpError):
    """The first map is not dominated by the second in the CP order."""


class NotADecomposition(CpError):
    """The given parts do not sum to the stated total map."""


class NotAChannel(CpError):
    """A map required to be a channel (unital) is not."""


class NotAnOperation(CpError):
    """A map required to be a quantum operation (subunital) is not."""


class NotMonotone(CpError):
    """A chain of maps is not increasing in the CP order."""


class InvariantViolation(CpError):
    """A computed result breaks a guarantee the computation should keep."""


class NotAResolution(CpError):
    """POVM elements do not resolve the identity."""


class SchemaError(CpError):
    """A JSON document does not match the documented schema."""


class IoError(CpError):
    """An input file could not be read."""
