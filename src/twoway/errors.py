"""Error types shared across the workbench."""


class TwoWayError(Exception):
    """Base for every error this package raises on purpose."""


class InputError(TwoWayError, ValueError):
    """Malformed user input: bad string, bad identifier, bad file."""


class SpecError(TwoWayError, ValueError):
    """A machine or algorithm object violates its own declared structure."""


class UnsupportedStructureError(SpecError):
    """The object is valid but outside what this implementation can evaluate
    exactly (e.g. a cyclic probabilistic configuration graph too large for an
    exact rational solve)."""


class NonHaltingError(TwoWayError, RuntimeError):
    """A run revisited a configuration (deterministic loop) or exceeded the
    step cutoff. Carries the offending configuration when known."""

    def __init__(self, message, configuration=None):
        super().__init__(message)
        self.configuration = configuration


class RefusalError(TwoWayError, ValueError):
    """A brute-force oracle was asked for an instance above its size cap."""
