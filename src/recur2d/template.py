"""Templates: polynomials in the commuting shift operators X and Y.

X shifts a column right in index space ((X A)_{r,c} = A_{r,c-1}) and Y shifts
a row down ((Y A)_{r,c} = A_{r-1,c}); X^0 = Y^0 = I. A template is a finitely
supported map from exponent pairs (i = Y-degree, j = X-degree) to nonzero
coefficients; applying it to an array expresses a two-dimensional linear
recurrence, and a template annihilates an array when the result is the zero
array everywhere.
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import MixedFieldError
from .field import FieldDescriptor, Scalar, _payload_text, from_int, one, zero
from .window import ArrayWindow, Bounds


@dataclass(frozen=True)
class ShiftAction:
    """Composed shift: dr rows down, dc columns right (in index space)."""

    dr: int
    dc: int

    def compose(self, other: "ShiftAction") -> "ShiftAction":
        return ShiftAction(self.dr + other.dr, self.dc + other.dc)

    def apply(self, r: int, c: int) -> tuple[int, int]:
        """Source coordinate read when the shifted operator is evaluated at (r, c)."""
        return (r - self.dr, c - self.dc)


class Template:
    """Finitely supported coefficient map (i, j) -> Scalar, all nonzero."""

    def __init__(self, field: FieldDescriptor,
                 terms: dict[tuple[int, int], Scalar] | None = None):
        self.field = field
        self.terms: dict[tuple[int, int], Scalar] = {}
        if terms:
            for (i, j), coeff in terms.items():
                if i < 0 or j < 0:
                    raise ValueError(f"template exponents must be >= 0, got ({i},{j})")
                if coeff.field != field:
                    raise MixedFieldError(
                        f"coefficient field {coeff.field!r} != template field {field!r}")
                if not coeff.is_zero():
                    self.terms[(i, j)] = coeff

    def is_zero(self) -> bool:
        return not self.terms

    def coefficient(self, i: int, j: int) -> Scalar:
        return self.terms.get((i, j), zero(self.field))

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Template):
            return NotImplemented
        return self.field == other.field and self.terms == other.terms

    def __add__(self, other: "Template") -> "Template":
        if self.field != other.field:
            raise MixedFieldError("cannot add templates over different fields")
        merged = dict(self.terms)
        for key, coeff in other.terms.items():
            merged[key] = merged[key] + coeff if key in merged else coeff
        return Template(self.field, merged)

    def __neg__(self) -> "Template":
        return Template(self.field, {k: -v for k, v in self.terms.items()})

    def __sub__(self, other: "Template") -> "Template":
        return self + (-other)

    def __mul__(self, other: "Template") -> "Template":
        if self.field != other.field:
            raise MixedFieldError("cannot multiply templates over different fields")
        product: dict[tuple[int, int], Scalar] = {}
        for (i1, j1), c1 in self.terms.items():
            for (i2, j2), c2 in other.terms.items():
                key = (i1 + i2, j1 + j2)
                contrib = c1 * c2
                product[key] = product[key] + contrib if key in product else contrib
        return Template(self.field, product)

    def scaled(self, alpha: Scalar) -> "Template":
        return Template(self.field, {k: alpha * v for k, v in self.terms.items()})

    def __pow__(self, n: int) -> "Template":
        if n < 0:
            raise ValueError("template exponents must be >= 0")
        result = identity(self.field)
        base = self
        while n:
            if n & 1:
                result = result * base
            n >>= 1
            if n:
                base = base * base
        return result

    def render(self) -> str:
        """Canonical, re-parseable text: terms sorted by descending (i, j),
        e.g. '1*Y^1*X^1 + 3*Y^1 + 2*X^1 - 1*I'."""
        if not self.terms:
            return "0"
        pieces: list[str] = []
        for (i, j) in sorted(self.terms, reverse=True):
            coeff = self.terms[(i, j)]
            # Pull the sign out of rational coefficients so the text only ever
            # needs unary minus at the very start (all the DSL grammar allows).
            negative = self.field.kind == "rationals" and coeff.value < 0
            magnitude = -coeff if negative else coeff
            factors = [_payload_text(magnitude.value)]
            if i:
                factors.append(f"Y^{i}")
            if j:
                factors.append(f"X^{j}")
            if len(factors) == 1:
                factors.append("I")
            term = "*".join(factors)
            if not pieces:
                pieces.append(f"-{term}" if negative else term)
            else:
                pieces.append(f"- {term}" if negative else f"+ {term}")
        return " ".join(pieces)

    def __repr__(self) -> str:
        return f"Template({self.render()})"


def identity(fd: FieldDescriptor) -> Template:
    return Template(fd, {(0, 0): one(fd)})


def monomial(fd: FieldDescriptor, i: int, j: int, coeff: Scalar | None = None) -> Template:
    """coeff * Y^i * X^j (coefficient defaults to 1)."""
    return Template(fd, {(i, j): coeff if coeff is not None else one(fd)})


def shift_x(fd: FieldDescriptor) -> Template:
    return monomial(fd, 0, 1)


def shift_y(fd: FieldDescriptor) -> Template:
    return monomial(fd, 1, 0)


def constant(n: int, fd: FieldDescriptor) -> Template:
    return Template(fd, {(0, 0): from_int(n, fd)})


def apply_template(t: Template, w: ArrayWindow) -> ArrayWindow | None:
    """Evaluate (T A) on the maximal rectangle where the whole stencil stays in bounds.

    R_{r,c} = sum of t_{i,j} * w_{r-i,c-j}; a result cell is Known only when
    every source cell it reads is Known. Returns None when no cell admits the
    full stencil (the result rectangle would be empty).
    """
    max_i = max((i for i, _ in t.terms), default=0)
    min_i = min((i for i, _ in t.terms), default=0)
    max_j = max((j for _, j in t.terms), default=0)
    min_j = min((j for _, j in t.terms), default=0)
    b = w.bounds
    r_lo, r_hi = b.r_min + max_i, b.r_max + min_i
    c_lo, c_hi = b.c_min + max_j, b.c_max + min_j
    if r_lo > r_hi or c_lo > c_hi:
        return None
    out = ArrayWindow(Bounds(r_lo, r_hi, c_lo, c_hi), t.field)
    for r in range(r_lo, r_hi + 1):
        for c in range(c_lo, c_hi + 1):
            acc = zero(t.field)
            known = True
            for (i, j), coeff in t.terms.items():
                v = w.get(r - i, c - j)
                if v is None:
                    known = False
                    break
                acc = acc + coeff * v
            if known:
                out.set(r, c, acc)
    return out


@dataclass(frozen=True)
class AnnihilationReport:
    """Outcome of an annihilation check.

    ``verdict`` is True/False when at least one fully-Known cell was checked,
    and None (indeterminate) when the stencil fit nowhere or every candidate
    cell had Unknown sources — a vacuous pass is not reported as a pass.
    """

    verdict: bool | None
    checked: int
    residuals: tuple[tuple[int, int, Scalar], ...]


def annihilates(t: Template, w: ArrayWindow) -> AnnihilationReport:
    """Check whether T sends the window's Known region to zero; lists nonzero residuals."""
    result = apply_template(t, w)
    if result is None:
        return AnnihilationReport(None, 0, ())
    checked = 0
    bad = []
    for r, c, v in result.known_cells():
        checked += 1
        if not v.is_zero():
            bad.append((r, c, v))
    if checked == 0:
        return AnnihilationReport(None, 0, ())
    return AnnihilationReport(not bad, checked, tuple(bad))
