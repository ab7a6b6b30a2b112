"""Exception types shared across the engine."""

from __future__ import annotations


class EngineError(Exception):
    """Base class for all errors raised by this package."""


class MixedFieldError(EngineError):
    """Two values from different fields were combined."""


class DivisionByZero(EngineError, ZeroDivisionError):
    """Inversion or division by the field's zero element."""


class ParseError(EngineError):
    """Malformed scalar or template text.

    ``pos`` is the 0-based offset into the input where the problem was
    detected; ``expected`` optionally lists what would have been accepted.
    """

    def __init__(self, message: str, pos: int | None = None,
                 expected: tuple[str, ...] = ()):
        self.pos = pos
        self.expected = expected
        detail = message
        if pos is not None:
            detail = f"{message} (at position {pos})"
        if expected:
            detail += " — expected " + " or ".join(expected)
        super().__init__(detail)


class NegativeExponentError(ParseError):
    """'^' was followed by a negative exponent; only naturals are allowed."""


class ZeroTemplateError(EngineError):
    """The zero template has no overlay."""


class InvalidOverlayError(EngineError):
    """A coefficient grid violates the overlay boundary invariant."""


class ShapeMismatch(EngineError):
    """Operands have incompatible bounds, or an overlay has the wrong stencil shape."""


class LayoutOutOfWindow(EngineError, ValueError):
    """A layout requires coordinates outside the window bounds."""


class NonContiguousExtremeRow(EngineError):
    """Overlay row m or row 0 has interior zeros, so the standard layout construction does not apply."""


class NonStandardLayout(EngineError, ValueError):
    """An operation defined for standard layouts only was given another kind."""


class CoordinateNotInLayout(EngineError):
    """A basis coordinate was requested that the layout does not prescribe."""


class FrozenWindowError(EngineError):
    """Attempted to mutate a window that has been frozen."""


class SchemaError(EngineError):
    """A problem document failed validation.

    ``pointer`` is a JSON-pointer-style path ("/layout/values/3/r") into the
    offending part of the document.
    """

    def __init__(self, pointer: str, message: str):
        self.pointer = pointer
        super().__init__(f"{pointer or '/'}: {message}")
