"""Exact computation with two-dimensional linear recurrences on Z^2 arrays.

The package builds arrays annihilated by a shift-operator template: parse a
template (a polynomial in the shifts X and Y), normalize it to an overlay of
coefficients, seed a window from an initial-conditions layout, and propagate
the recurrence until no placement can solve another cell. An independent
exact linear-algebra oracle classifies the same data as a linear system, so
every constructive result can be cross-checked.
"""

from .errors import (CoordinateNotInLayout, DivisionByZero, EngineError,
                     FrozenWindowError, InvalidOverlayError, LayoutOutOfWindow,
                     MixedFieldError, NegativeExponentError,
                     NonContiguousExtremeRow, ParseError, SchemaError,
                     ShapeMismatch, ZeroTemplateError)
from .field import (FieldDescriptor, RATIONALS, Scalar, from_fraction,
                    from_int, is_prime, one, parse_scalar, prime_field, zero)
from .fill import (COMPLETE, FillResult, FillStep, PARTIAL, SupportCaseResult,
                   SupportReport, basis_array, check_support_cases, fill,
                   fill_diagonal, finite_contribution_report, replay,
                   steps_from_jsonl, steps_to_jsonl, superpose)
from .layout import (CustomProvenance, DiagonalProvenance, Layout,
                     StandardProvenance, custom_layout, delta_values,
                     diagonal_coords, diagonal_layout, explicit_values,
                     indicator_values, random_values, standard_coords,
                     standard_layout, zero_values)
from .oracle import (Certificate, INCONSISTENT, LinearSystem, OracleResult,
                     UNDERDETERMINED, UNIQUE, assemble_system,
                     classify_and_solve, dump_system, layout_is_valid,
                     oracle_equals_fill, solve_problem, verify_assignment,
                     verify_certificate)
from .overlay import Overlay
from .parser import expr_to_template, parse_template, parse_template_expr
from .problem import ProblemSpec, load_problem, loads_problem
from .template import (AnnihilationReport, ShiftAction, Template,
                       annihilates, apply_template, constant, identity,
                       monomial, shift_x, shift_y)
from .window import (ArrayWindow, Bounds, emit_series_terms,
                     window_from_cells, window_linear_combine)

__version__ = "0.1.0"

__all__ = [
    "COMPLETE",
    "constant",
    "expr_to_template",
    "identity",
    "monomial",
    "shift_x",
    "shift_y",
    "INCONSISTENT",
    "PARTIAL",
    "UNDERDETERMINED",
    "UNIQUE",
    "AnnihilationReport", "ArrayWindow", "Bounds", "Certificate",
    "CoordinateNotInLayout", "CustomProvenance", "DiagonalProvenance",
    "DivisionByZero", "EngineError", "FieldDescriptor", "FillResult",
    "FillStep", "FrozenWindowError", "InvalidOverlayError", "Layout",
    "LayoutOutOfWindow", "LinearSystem", "MixedFieldError",
    "NegativeExponentError", "NonContiguousExtremeRow", "OracleResult",
    "Overlay", "ParseError", "ProblemSpec", "RATIONALS", "Scalar",
    "SchemaError", "ShapeMismatch", "ShiftAction", "StandardProvenance",
    "SupportCaseResult", "SupportReport", "Template", "ZeroTemplateError",
    "annihilates", "apply_template", "assemble_system", "basis_array",
    "check_support_cases", "classify_and_solve", "custom_layout",
    "delta_values", "diagonal_coords", "diagonal_layout", "dump_system",
    "emit_series_terms", "explicit_values", "fill", "fill_diagonal",
    "finite_contribution_report", "from_fraction", "from_int",
    "indicator_values", "is_prime", "layout_is_valid", "load_problem",
    "loads_problem", "one", "oracle_equals_fill", "parse_scalar",
    "parse_template", "parse_template_expr", "prime_field", "random_values",
    "replay", "solve_problem", "standard_coords", "standard_layout",
    "steps_from_jsonl", "steps_to_jsonl", "superpose", "verify_assignment",
    "verify_certificate", "window_from_cells", "window_linear_combine",
    "zero", "zero_values",
]
