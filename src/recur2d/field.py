"""Exact field arithmetic: arbitrary-precision rationals and prime fields.

Every value the engine returns is a :class:`Scalar` — either a
``fractions.Fraction`` in canonical lowest terms, or a residue in [0, p) for a
prime p. Arithmetic is exact; there is no floating-point mode. Scalars are
immutable and combinable only within one field.

A Scalar's payload is its raw value. The engine's inner loops (the fill
worklist and the oracle's elimination) add and multiply payloads directly and
bring each result back into the field with :meth:`FieldDescriptor.reduce`; a
payload's inverse is ``pow(x, -1, fd.p)``, since ``p`` is None over Q.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from .errors import DivisionByZero, MixedFieldError, ParseError

RATIONAL_KIND = "rationals"
PRIME_KIND = "prime"

# Deterministic Miller-Rabin witnesses for n < 3.3e24; for larger n the same
# bases make the test probabilistic with negligible error.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)


def is_prime(n: int) -> bool:
    """Miller-Rabin primality test (deterministic for any modulus of practical size)."""
    if n < 2:
        return False
    for p in _MR_BASES:
        if n % p == 0:
            return n == p
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


@dataclass(frozen=True)
class FieldDescriptor:
    """Identifies the field scalars live in: the rationals, or GF(p)."""

    kind: str
    p: int | None = None

    def __post_init__(self):
        if self.kind == RATIONAL_KIND:
            if self.p is not None:
                raise ValueError("rationals take no modulus")
        elif self.kind == PRIME_KIND:
            if self.p is None or self.p < 2 or not is_prime(self.p):
                raise ValueError(f"modulus {self.p!r} is not prime")
        else:
            raise ValueError(f"unknown field kind {self.kind!r}")

    def __repr__(self) -> str:
        if self.kind == RATIONAL_KIND:
            return "Q"
        return f"F_{self.p}"

    def reduce(self, x):
        """The canonical payload of ``x``: ``x`` itself over Q, ``x % p`` over GF(p)."""
        return x if self.p is None else x % self.p


RATIONALS = FieldDescriptor(RATIONAL_KIND)


def prime_field(p: int) -> FieldDescriptor:
    return FieldDescriptor(PRIME_KIND, p)


def _payload_text(x: Fraction | int) -> str:
    """``str(x)`` for a field payload of any length. Past about 600 digits,
    where the interpreter's int/str digit limit may refuse ``str()``, an
    integer's text is built by splitting it at a power of ten."""
    if isinstance(x, Fraction):
        num = _payload_text(x.numerator)
        return num if x.denominator == 1 else f"{num}/{_payload_text(x.denominator)}"
    if x < 0:
        return "-" + _payload_text(-x)
    if x.bit_length() <= 2000:
        return str(x)
    k = x.bit_length() * 3 // 20  # about half of x's decimal digits
    high, low = divmod(x, 10 ** k)
    return _payload_text(high) + _payload_text(low).zfill(k)


def _check_same_field(a: "Scalar", b: "Scalar") -> None:
    if a.field != b.field:
        raise MixedFieldError(f"cannot combine {a.field!r} and {b.field!r} values")


@dataclass(frozen=True)
class Scalar:
    """An exact field element. Construct via :func:`from_int`, :func:`from_fraction`,
    or :func:`parse_scalar`; the payload is a canonical Fraction or residue."""

    field: FieldDescriptor
    value: Fraction | int

    def is_zero(self) -> bool:
        return self.value == 0

    def __bool__(self) -> bool:
        return self.value != 0

    def __add__(self, other: "Scalar") -> "Scalar":
        _check_same_field(self, other)
        return Scalar(self.field, self.field.reduce(self.value + other.value))

    def __sub__(self, other: "Scalar") -> "Scalar":
        _check_same_field(self, other)
        return Scalar(self.field, self.field.reduce(self.value - other.value))

    def __mul__(self, other: "Scalar") -> "Scalar":
        _check_same_field(self, other)
        return Scalar(self.field, self.field.reduce(self.value * other.value))

    def __neg__(self) -> "Scalar":
        return Scalar(self.field, self.field.reduce(-self.value))

    def inverse(self) -> "Scalar":
        if self.value == 0:
            raise DivisionByZero("zero has no inverse")
        return Scalar(self.field, pow(self.value, -1, self.field.p))

    def __truediv__(self, other: "Scalar") -> "Scalar":
        _check_same_field(self, other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "Scalar":
        if n < 0:
            return self.inverse() ** (-n)
        result = one(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def render(self) -> str:
        """Canonical text form: 'p' or 'p/q' for rationals, 'r mod p' for prime fields."""
        if self.field.kind == RATIONAL_KIND:
            return _payload_text(self.value)
        return f"{_payload_text(self.value)} mod {_payload_text(self.field.p)}"

    def __repr__(self) -> str:
        return self.render()


def zero(fd: FieldDescriptor) -> Scalar:
    return Scalar(fd, Fraction(0) if fd.kind == RATIONAL_KIND else 0)


def one(fd: FieldDescriptor) -> Scalar:
    return Scalar(fd, Fraction(1) if fd.kind == RATIONAL_KIND else 1)


def from_int(n: int, fd: FieldDescriptor) -> Scalar:
    if fd.kind == RATIONAL_KIND:
        return Scalar(fd, Fraction(n))
    return Scalar(fd, n % fd.p)


def from_fraction(numerator: int, denominator: int, fd: FieldDescriptor) -> Scalar:
    """Exact p/q in the field; in GF(p) the denominator is inverted mod p."""
    if denominator == 0:
        raise DivisionByZero("zero denominator")
    if fd.kind == RATIONAL_KIND:
        return Scalar(fd, Fraction(numerator, denominator))
    den = denominator % fd.p
    if den == 0:
        raise DivisionByZero(f"denominator {denominator} is zero mod {fd.p}")
    return Scalar(fd, numerator * pow(den, -1, fd.p) % fd.p)


_SCALAR_RE = re.compile(r"^(-?\d+)(?:/(\d+))?$")
_MOD_RE = re.compile(r"^(-?\d+)\s+mod\s+(\d+)$")


def read_int(digits: str, pos: int | None = None) -> int:
    """``int(digits)``, raising ParseError (at ``pos``) where int() refuses:
    past the interpreter's int/str digit limit (4300 by default), or on a
    digit character int() does not read."""
    try:
        return int(digits)
    except ValueError:
        raise ParseError(f"cannot read a {len(digits)}-digit integer",
                         pos=pos) from None


def _read_long_int(digits: str) -> int:
    """``int(digits)`` at any length, for step logs, which hold the values
    :func:`_payload_text` renders: past 600 characters the halves are read apart."""
    if len(digits) <= 600:
        return int(digits)
    k = len(digits) // 2
    high, low = _read_long_int(digits[:-k]), _read_long_int(digits[-k:])
    return high * 10 ** k + (-low if digits[0] == "-" else low)


def parse_scalar(text: str, fd: FieldDescriptor) -> Scalar:
    """Parse '-?digits(/digits)?' — or the rendered 'r mod p' form — into a Scalar.

    Raises ParseError on malformed text, a zero denominator, an integer too
    long to read, or a modulus that does not match ``fd``.
    """
    return _parse_scalar(text, fd, read_int)


def _parse_scalar(text: str, fd: FieldDescriptor, read) -> Scalar:
    """:func:`parse_scalar`, reading each integer with ``read``."""
    text = text.strip()
    m = _MOD_RE.match(text)
    if m is not None:
        if fd.kind != PRIME_KIND or read(m.group(2)) != fd.p:
            raise ParseError(f"modulus in {text!r} does not match field {fd!r}")
        return from_int(read(m.group(1)), fd)
    m = _SCALAR_RE.match(text)
    if m is None:
        raise ParseError(f"not a scalar: {text!r}")
    numerator = read(m.group(1))
    if m.group(2) is None:
        return from_int(numerator, fd)
    denominator = read(m.group(2))
    if denominator == 0:
        raise ParseError(f"zero denominator in {text!r}")
    try:
        return from_fraction(numerator, denominator, fd)
    except DivisionByZero as exc:
        raise ParseError(str(exc)) from exc
