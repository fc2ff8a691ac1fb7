"""Exception classes shared across the package."""


class LittleBitError(Exception):
    """Base class for package-specific failures."""


class FormatError(LittleBitError):
    """A matrix or layer file is malformed: bad magic, bad version,
    truncated payload, inconsistent shapes, or non-finite data."""


class InfeasibleError(LittleBitError):
    """A bits-per-weight target is below the scales-only floor for the
    requested layer shape(s)."""


class DivergenceError(LittleBitError):
    """Training produced a non-finite loss."""


class KernelBuildError(LittleBitError):
    """The C GEMV kernel could not be built or loaded: no compiler, a
    failed compile, or an unusable cache directory."""
