"""Templates: the polynomial ring of shift operators, application, annihilation."""

from fractions import Fraction

import pytest

from recur2d import (ArrayWindow, Bounds, MixedFieldError, ParseError, RATIONALS, Template,
                     annihilates, apply_template, from_fraction, from_int,
                     parse_template, prime_field, window_from_cells)
from recur2d.template import ShiftAction, constant, identity, monomial, shift_x, shift_y


def s(n, fd=RATIONALS):
    return from_int(n, fd)


def terms_of(t: Template) -> dict:
    return {ij: coeff.value for ij, coeff in t.terms.items()}


class TestShiftAction:
    def test_apply(self):
        assert ShiftAction(1, 1).apply(5, 7) == (4, 6)
        assert ShiftAction(0, 3).apply(0, 0) == (0, -3)

    def test_compose(self):
        a = ShiftAction(1, 2).compose(ShiftAction(3, 4))
        assert (a.dr, a.dc) == (4, 6)


class TestRing:
    def test_zero_coefficients_dropped(self):
        t = Template(RATIONALS, {(0, 0): s(0), (1, 1): s(2)})
        assert terms_of(t) == {(1, 1): 2}

    def test_negative_exponent_rejected(self):
        with pytest.raises(ValueError):
            Template(RATIONALS, {(-1, 0): s(1)})

    def test_example_sum(self):
        a = parse_template("X*Y + 3*Y", RATIONALS)
        b = parse_template("2*X - I", RATIONALS)
        assert terms_of(a + b) == {(1, 1): 1, (1, 0): 3, (0, 1): 2, (0, 0): -1}

    def test_product_by_shift(self):
        t = shift_y(RATIONALS) * (identity(RATIONALS) + shift_x(RATIONALS))
        assert terms_of(t) == {(1, 0): 1, (1, 1): 1}

    def test_difference_of_squares(self):
        t = ((identity(RATIONALS) - shift_y(RATIONALS))
             * (identity(RATIONALS) + shift_y(RATIONALS)))
        assert terms_of(t) == {(0, 0): 1, (2, 0): -1}

    def test_product_commutes(self):
        a = parse_template("X*Y + 3*Y + 2*X - I", RATIONALS)
        b = parse_template("I - Y - X*Y", RATIONALS)
        assert a * b == b * a

    def test_cancellation_to_zero(self):
        a = parse_template("X*Y + 3*Y", RATIONALS)
        assert (a - a).is_zero()

    def test_pow(self):
        t = parse_template("(I + X)^3", RATIONALS)
        assert terms_of(t) == {(0, 0): 1, (0, 1): 3, (0, 2): 3, (0, 3): 1}
        with pytest.raises(ValueError):
            identity(RATIONALS) ** -1

    def test_scaled(self):
        t = parse_template("X + Y", RATIONALS).scaled(s(3))
        assert terms_of(t) == {(0, 1): 3, (1, 0): 3}

    def test_mixed_fields_rejected(self):
        with pytest.raises(MixedFieldError):
            identity(RATIONALS) + identity(prime_field(7))

    def test_constant_helper(self):
        assert terms_of(constant(5, RATIONALS)) == {(0, 0): 5}
        assert constant(0, RATIONALS).is_zero()

    def test_monomial_helper(self):
        assert terms_of(monomial(RATIONALS, 2, 3)) == {(2, 3): 1}


class TestRender:
    @pytest.mark.parametrize("text", [
        "X*Y + 3*Y + 2*X - I",
        "I - Y - X*Y",
        "-I + X",
        "1/2*X^2 - 3/4*Y",
        "X^3*Y^2 + X - 5*I",
    ])
    def test_render_reparses_to_same_template(self, text):
        t = parse_template(text, RATIONALS)
        assert parse_template(t.render(), RATIONALS) == t

    def test_render_prime_field(self):
        f7 = prime_field(7)
        t = parse_template("3*X + 6*Y", f7)
        assert parse_template(t.render(), f7) == t

    def test_zero_renders_as_zero(self):
        assert Template(RATIONALS, {}).render() == "0"

    def test_coefficient_past_the_digit_limit(self):
        t = parse_template("X - 10^5000", RATIONALS)
        text = t.render()
        assert text == "1*X^1 - 1" + "0" * 5000 + "*I"
        with pytest.raises(ParseError) as exc:    # read back: a positioned refusal
            parse_template(text, RATIONALS)
        assert exc.value.pos == len("1*X^1 - ")

    def test_canonical_order(self):
        t = parse_template("2*X + X*Y + 3*Y - I", RATIONALS)
        assert t.render() == "1*Y^1*X^1 + 3*Y^1 + 2*X^1 - 1*I"


def _golden_window():
    cells = {
        (-1, -1): 1, (-1, 0): 0, (-1, 1): Fraction(-2, 3),
        (-1, 2): Fraction(2, 9), (-1, 3): Fraction(-2, 27),
        (0, -1): 0, (0, 0): 1, (0, 1): 0, (0, 2): 0, (0, 3): 0,
        (1, -1): Fraction(-3, 2), (1, 0): 0, (1, 1): 1, (1, 2): 2, (1, 3): 4,
        (2, -1): Fraction(3, 4), (2, 0): 0, (2, 1): 3, (2, 2): 13, (2, 3): 40,
        (3, -1): Fraction(-3, 8), (3, 0): 0, (3, 1): 9, (3, 2): 60, (3, 3): 253,
    }
    return window_from_cells(
        Bounds(-1, 3, -1, 3), RATIONALS,
        {k: from_fraction(Fraction(v).numerator, Fraction(v).denominator, RATIONALS)
         for k, v in cells.items()})


class TestApply:
    def test_identity_is_noop_on_values(self):
        w = _golden_window()
        out = apply_template(identity(RATIONALS), w)
        assert out == w

    def test_shift_x_moves_columns(self):
        w = window_from_cells(Bounds(0, 0, 0, 1), RATIONALS,
                              {(0, 0): s(5), (0, 1): s(7)})
        out = apply_template(shift_x(RATIONALS), w)
        assert out.bounds == Bounds(0, 0, 1, 2)
        assert out.get(0, 1) == s(5)
        assert out.get(0, 2) == s(7)

    def test_result_shrinks_to_full_stencil_region(self):
        t = parse_template("X*Y + 3*Y + 2*X - I", RATIONALS)
        w = _golden_window()
        out = apply_template(t, w)
        assert out.bounds == Bounds(0, 3, 0, 3)

    def test_empty_intersection_returns_none(self):
        # The stencil's row spread (5) exceeds the window height (2), so no
        # result cell can read all of its sources inside the window.
        t = parse_template("I + Y^5", RATIONALS)
        w = window_from_cells(Bounds(0, 1, 0, 1), RATIONALS, {})
        assert apply_template(t, w) is None

    def test_monomial_is_pure_translation(self):
        t = parse_template("Y^5", RATIONALS)
        w = window_from_cells(Bounds(0, 1, 0, 1), RATIONALS,
                              {(0, 0): s(9)})
        out = apply_template(t, w)
        assert out.bounds == Bounds(5, 6, 0, 1)
        assert out.get(5, 0) == s(9)

    def test_unknown_sources_poison_cells(self):
        w = ArrayWindow(Bounds(0, 1, 0, 0), RATIONALS)
        w.set(0, 0, s(1))
        out = apply_template(shift_y(RATIONALS), w)
        assert out.bounds == Bounds(1, 2, 0, 0)
        assert out.get(1, 0) == s(1)
        assert out.get(2, 0) is None
        out2 = apply_template(identity(RATIONALS), w)
        assert out2.get(1, 0) is None

    def test_zero_template_gives_zero_window(self):
        w = _golden_window()
        out = apply_template(Template(RATIONALS, {}), w)
        assert out.bounds == w.bounds
        assert all(v.is_zero() for _, _, v in out.known_cells())


class TestAnnihilates:
    def test_golden_window_annihilated(self):
        t = parse_template("X*Y + 3*Y + 2*X - I", RATIONALS)
        report = annihilates(t, _golden_window())
        assert report.verdict is True
        assert report.checked == 16
        assert report.residuals == ()

    def test_wrong_values_rejected_with_residuals(self):
        t = parse_template("X*Y + 3*Y + 2*X - I", RATIONALS)
        w = _golden_window().copy()
        w.set(3, 3, s(999))
        report = annihilates(t, w)
        assert report.verdict is False
        assert any((r, c) == (3, 3) for r, c, _ in report.residuals)

    def test_no_checkable_cells_is_indeterminate(self):
        t = parse_template("Y^5", RATIONALS)
        w = window_from_cells(Bounds(0, 1, 0, 1), RATIONALS, {})
        report = annihilates(t, w)
        assert report.verdict is None
        assert report.checked == 0
