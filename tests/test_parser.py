"""The template expression language: grammar, diagnostics, round trips."""

import random

import pytest
from hypothesis import given, strategies as st

from recur2d import (NegativeExponentError, ParseError, RATIONALS,
                     ZeroTemplateError, from_fraction, from_int, monomial,
                     parse_template, parse_template_expr, prime_field)


def terms_of(text, fd=RATIONALS):
    t = parse_template(text, fd)
    return {ij: coeff.value for ij, coeff in t.terms.items()}


class TestGrammar:
    def test_running_example_terms(self):
        assert terms_of("X*Y + 3*Y + 2*X - I") == {
            (1, 1): 1, (1, 0): 3, (0, 1): 2, (0, 0): -1}

    def test_distribution_over_parens(self):
        assert terms_of("I - Y*(I + X)") == {(0, 0): 1, (1, 0): -1, (1, 1): -1}

    def test_juxtaposition_multiplies(self):
        assert terms_of("3Y + 2X + XY - I") == terms_of("X*Y + 3*Y + 2*X - I")
        assert terms_of("3(X+Y)") == {(0, 1): 3, (1, 0): 3}
        assert terms_of("2X^2Y") == {(1, 2): 2}

    def test_numeric_one_acts_as_identity(self):
        assert terms_of("1") == {(0, 0): 1}
        assert terms_of("1 - Y - X*Y") == terms_of("I - Y - XY")

    def test_fraction_literals_are_single_tokens(self):
        assert terms_of("1/2*X") == {(0, 1): from_fraction(1, 2, RATIONALS).value}
        with pytest.raises(ParseError):   # '/' only occurs inside a number
            parse_template("X/2", RATIONALS)

    def test_powers_and_leading_minus(self):
        assert terms_of("-X^3 + Y^2") == {(0, 3): -1, (2, 0): 1}
        assert terms_of("(X + Y)^2") == {(0, 2): 1, (1, 1): 2, (2, 0): 1}
        assert terms_of("X^0") == {(0, 0): 1}

    def test_cancellation_yields_zero_template(self):
        t = parse_template_expr("X - X", RATIONALS)
        from recur2d import expr_to_template
        assert expr_to_template(t, RATIONALS).is_zero()

    @pytest.mark.parametrize("text,terms", [
        ("+".join(["X"] * 5000), {(0, 1): 5000}),
        ("X" * 5000, {(0, 5000): 1}),
        ("2Y" + "^1" * 5000, {(1, 0): 2}),
        ("-" + "-".join(["Y"] * 5000), {(1, 0): -5000}),
    ], ids=["sum", "product", "carets", "differences"])
    def test_long_chains_parse_flat(self, text, terms):
        assert terms_of(text) == terms

    def test_prime_field_coefficients_reduce(self):
        f7 = prime_field(7)
        assert terms_of("10*X + 7*Y + I", f7) == {(0, 1): 3, (0, 0): 1}


class TestDiagnostics:
    def test_negative_exponent(self):
        with pytest.raises(NegativeExponentError):
            parse_template("X^-1", RATIONALS)

    def test_fractional_exponent(self):
        with pytest.raises(ParseError, match="exponent"):
            parse_template("X^1/2", RATIONALS)

    def test_unbalanced_parens(self):
        with pytest.raises(ParseError) as exc:
            parse_template("(X + Y", RATIONALS)
        assert exc.value.pos is not None

    def test_empty_input(self):
        with pytest.raises(ParseError):
            parse_template("", RATIONALS)
        with pytest.raises(ParseError):
            parse_template("   ", RATIONALS)

    def test_unexpected_character(self):
        with pytest.raises(ParseError, match="unexpected character"):
            parse_template("X + $", RATIONALS)

    def test_bare_slash(self):
        with pytest.raises(ParseError):
            parse_template("1/ 2", RATIONALS)

    def test_trailing_operator(self):
        with pytest.raises(ParseError):
            parse_template("X +", RATIONALS)

    def test_positions_point_at_the_offence(self):
        with pytest.raises(ParseError) as exc:
            parse_template("X + + Y", RATIONALS)
        assert exc.value.pos == 4

    @pytest.mark.parametrize("levels", [125, 600])
    def test_deep_nesting_is_a_parse_error_not_a_crash(self, levels):
        text = "(" * levels + "X" + ")" * levels
        with pytest.raises(ParseError, match="deeply") as exc:
            parse_template(text, RATIONALS)
        assert exc.value.pos == 125    # the token after the 125th '('

    @pytest.mark.parametrize("levels", [50, 124])
    def test_moderate_nesting_is_fine(self, levels):
        text = "(" * levels + "X" + ")" * levels
        assert terms_of(text) == {(0, 1): 1}

    @pytest.mark.parametrize("text,pos", [
        ("X + " + "1" * 5000, 4),          # literal
        ("X^" + "9" * 5000, 2),            # exponent
        ("2/" + "3" * 5000 + " X", 0),
    ], ids=["literal", "exponent", "denominator"])
    def test_integers_past_the_digit_limit_are_positioned_errors(self, text, pos):
        with pytest.raises(ParseError) as exc:
            parse_template(text, RATIONALS)
        assert exc.value.pos == pos

    def test_literal_invalid_in_field_rejected_eagerly(self):
        f7 = prime_field(7)
        with pytest.raises(ParseError, match="denominator"):
            parse_template_expr("X + 1/7", f7)

    def test_zero_denominator_literal(self):
        with pytest.raises(ParseError):
            parse_template("1/0", RATIONALS)

    def test_huge_expansions_are_refused_with_positions(self):
        for text in ["2^999999999",        # megabyte integer
                     "99999^99999",        # likewise, via a wide base
                     "(X+Y+1)^9999",       # tens of millions of terms
                     "(2X+Y)^3^100"]:      # each power of a chain is checked
            with pytest.raises(ParseError, match="expansion") as exc:
                parse_template(text, RATIONALS)
            assert exc.value.pos is not None, text

    def test_large_but_sane_powers_expand(self):
        assert len(parse_template("(X+Y)^200", RATIONALS).terms) == 201
        assert len(parse_template("X^99999", RATIONALS).terms) == 1
        # prime-field coefficients never grow, so scalar towers stay cheap
        f7 = prime_field(7)
        assert parse_template("3^999999 * X", f7).render() == "6*X^1"

    def test_zero_template_rejected_by_overlay_route(self):
        from recur2d import Overlay
        with pytest.raises(ZeroTemplateError):
            Overlay.from_template(parse_template("X - X", RATIONALS))


class TestRoundTrips:
    @given(st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3),
                              st.integers(-9, 9)),
                    min_size=1, max_size=6))
    def test_render_then_parse_is_identity(self, triples):
        from recur2d import constant
        t = constant(0, RATIONALS)
        for i, j, coeff in triples:
            if coeff:
                t = t + monomial(RATIONALS, i, j, from_int(coeff, RATIONALS))
        if t.is_zero():
            return
        assert parse_template(t.render(), RATIONALS) == t

    def test_render_round_trip_prime_field(self):
        f11 = prime_field(11)
        t = parse_template("3*X^2*Y + 7*X + 10*I", f11)
        assert parse_template(t.render(), f11) == t


class TestFuzzSmoke:
    ALPHABET = "XYI()+-*^0123456789/ "

    def test_random_soup_never_crashes(self):
        rng = random.Random(4242)
        parsed = errored = 0
        for _ in range(2000):
            text = "".join(rng.choice(self.ALPHABET)
                           for _ in range(rng.randint(1, 30)))
            try:
                parse_template(text, RATIONALS)
                parsed += 1
            except ParseError:
                errored += 1
        assert parsed + errored == 2000
        assert parsed > 0 and errored > 0
