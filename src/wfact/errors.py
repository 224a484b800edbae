"""Shared exception types."""

__all__ = ["CapabilityError", "RootFindingError"]


class CapabilityError(RuntimeError):
    """A requested computation exceeds a deliberate size guard.

    Raised instead of silently running for hours (or exhausting memory);
    the message names the cap.  The CLI maps this to exit code 3.
    """


class RootFindingError(ArithmeticError):
    """Raised when the iteration misses tolerance or a root does not certify.

    ``best`` holds the best iterate, sorted by (real, imag) like a result.
    ``wfact.roots`` raises it; it is also bound there, in ``wfact.laurent``
    and in ``wfact``.
    """

    def __init__(self, message: str, best: list[complex]):
        super().__init__(message)
        self.best = best
