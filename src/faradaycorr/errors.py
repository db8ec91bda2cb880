"""Exception types and the memory guard shared across the package."""

MEMORY_GUARD_BYTES = 2 * 1024**3


class FaradaycorrError(Exception):
    """Base class for all package errors."""


class DimensionMismatchError(FaradaycorrError):
    """Operator shapes are incompatible."""


class NonHermitianError(FaradaycorrError):
    """An operation requiring a Hermitian input received a non-Hermitian one."""


class TruncationError(FaradaycorrError):
    """The Fock-space photon cutoff is too small for the requested amplitude."""


class NumericalGuardError(FaradaycorrError):
    """A numerical sanity check tripped (e.g. a trace with a large imaginary part)."""


class ResourceGuardError(FaradaycorrError):
    """A computation would exceed the configured memory budget."""


class ConfigError(FaradaycorrError):
    """A run configuration failed schema validation."""


def fits_memory(nbytes: float) -> bool:
    """Whether ``nbytes`` is within the guard.

    The limit is read at call time, so one module-level value serves every
    caller (and tests can lower it).
    """
    return not nbytes > MEMORY_GUARD_BYTES


def check_memory(nbytes: float, what: str) -> None:
    """Raise ``ResourceGuardError`` if ``what`` would need more than the guard."""
    if not fits_memory(nbytes):
        gib = nbytes / 1024**3 if nbytes < 2**1024 else float("inf")  # no float holds a larger int
        raise ResourceGuardError(
            f"{what} would need ~{gib:.3g} GiB "
            f"(> {MEMORY_GUARD_BYTES / 1024**3:.3g} GiB guard)"
        )
