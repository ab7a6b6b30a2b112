"""Field descriptors and exact scalar arithmetic."""

from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from recur2d import (DivisionByZero, FieldDescriptor, ParseError, RATIONALS,
                     from_fraction, from_int, is_prime, one, parse_scalar,
                     prime_field, zero)
from recur2d.field import Scalar


class TestDescriptors:
    def test_rationals_singleton(self):
        assert RATIONALS.kind == "rationals"
        assert RATIONALS.p is None

    def test_prime_field(self):
        f7 = prime_field(7)
        assert f7.kind == "prime"
        assert f7.p == 7

    @pytest.mark.parametrize("p", [0, 1, 4, 6, 9, 100, 561])
    def test_non_prime_rejected(self, p):
        with pytest.raises(ValueError):
            prime_field(p)

    def test_descriptor_equality(self):
        assert prime_field(7) == prime_field(7)
        assert prime_field(7) != prime_field(11)
        assert prime_field(7) != RATIONALS

    def test_repr(self):
        assert repr(RATIONALS) == "Q"
        assert repr(prime_field(13)) == "F_13"


class TestIsPrime:
    def test_small_cases(self):
        primes = {2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41}
        for k in range(2, 43):
            assert is_prime(k) == (k in primes)

    def test_carmichael_numbers(self):
        for n in (561, 1105, 1729, 2465, 2821, 6601):
            assert not is_prime(n)

    def test_large_prime(self):
        assert is_prime(2**61 - 1)
        assert not is_prime(2**61 - 3)


class TestRationalArithmetic:
    def test_construction(self):
        x = from_fraction(3, 4, RATIONALS)
        assert x.value == Fraction(3, 4)

    def test_zero_denominator(self):
        with pytest.raises(DivisionByZero):
            from_fraction(1, 0, RATIONALS)

    def test_inverse_of_zero(self):
        with pytest.raises(DivisionByZero):
            zero(RATIONALS).inverse()

    def test_divide_by_zero(self):
        with pytest.raises(DivisionByZero):
            one(RATIONALS) / zero(RATIONALS)

    @given(st.fractions(), st.fractions())
    def test_add_commutes(self, a, b):
        x = from_fraction(a.numerator, a.denominator, RATIONALS)
        y = from_fraction(b.numerator, b.denominator, RATIONALS)
        assert x + y == y + x
        assert x - y == x + (-y)

    @given(st.fractions(), st.fractions(), st.fractions())
    def test_mul_distributes(self, a, b, c):
        fs = [from_fraction(q.numerator, q.denominator, RATIONALS)
              for q in (a, b, c)]
        x, y, z = fs
        assert x * (y + z) == x * y + x * z

    @given(st.fractions())
    def test_nonzero_has_inverse(self, a):
        x = from_fraction(a.numerator, a.denominator, RATIONALS)
        if not x.is_zero():
            assert x * x.inverse() == one(RATIONALS)

    def test_pow(self):
        x = from_fraction(2, 3, RATIONALS)
        assert (x ** 3).value == Fraction(8, 27)
        assert (x ** 0) == one(RATIONALS)
        assert (x ** -2).value == Fraction(9, 4)


class TestPrimeArithmetic:
    F = prime_field(7)

    def test_residues_canonical(self):
        assert from_int(10, self.F).value == 3
        assert from_int(-1, self.F).value == 6

    def test_fraction_reduces(self):
        # 1/2 mod 7 = 4 since 2*4 = 8 = 1
        assert from_fraction(1, 2, self.F).value == 4

    def test_denominator_divisible_by_p(self):
        with pytest.raises(DivisionByZero):
            from_fraction(1, 7, self.F)

    @given(st.integers(0, 6), st.integers(0, 6))
    def test_add_commutes(self, a, b):
        x, y = from_int(a, self.F), from_int(b, self.F)
        assert (x + y).value == (a + b) % 7
        assert x + y == y + x
        assert x - y == x + (-y)

    @given(st.integers(1, 6))
    def test_inverse(self, a):
        x = from_int(a, self.F)
        assert (x * x.inverse()).value == 1

    def test_every_element_pow_p_is_itself(self):
        for a in range(7):
            x = from_int(a, self.F)
            assert x ** 7 == x


class TestRenderParse:
    @pytest.mark.parametrize("text", ["0", "1", "-1", "3/4", "-22/7", "100"])
    def test_rational_round_trip(self, text):
        x = parse_scalar(text, RATIONALS)
        assert x.render() == text
        assert parse_scalar(x.render(), RATIONALS) == x

    def test_prime_round_trip(self):
        f7 = prime_field(7)
        x = from_int(5, f7)
        assert x.render() == "5 mod 7"
        assert parse_scalar(x.render(), f7) == x

    def test_prime_accepts_plain_integer(self):
        f7 = prime_field(7)
        assert parse_scalar("12", f7).value == 5

    def test_mod_form_checks_modulus(self):
        with pytest.raises(ParseError):
            parse_scalar("3 mod 5", prime_field(7))

    def test_mod_form_rejected_for_rationals(self):
        with pytest.raises(ParseError):
            parse_scalar("3 mod 5", RATIONALS)

    @pytest.mark.parametrize("text", ["", "x", "1/", "/2", "1.5", "1/0", "3 mod"])
    def test_malformed(self, text):
        with pytest.raises(ParseError):
            parse_scalar(text, RATIONALS)

    @pytest.mark.parametrize("text", ["1" * 5000, "1/" + "1" * 5000,
                                      "1" * 5000 + " mod 7"],
                             ids=["integer", "denominator", "residue"])
    def test_integer_past_the_digit_limit(self, text):
        with pytest.raises(ParseError, match="5000-digit"):
            parse_scalar(text, prime_field(7))

    @pytest.mark.parametrize("value,text", [
        (-(10 ** 6000 + 7), "-1" + "0" * 5999 + "7"),
        (Fraction(1, 10 ** 5000 + 10 ** 2500), "1/1" + "0" * 2499 + "1" + "0" * 2500),
        (Fraction(10 ** 5000 - 1, 2), "9" * 5000 + "/2"),
    ], ids=["integer", "denominator", "numerator"])
    def test_render_past_the_digit_limit(self, value, text):
        x = from_fraction(value.numerator, value.denominator, RATIONALS)
        assert x.render() == text
        with pytest.raises(ParseError, match="digit integer"):   # read back: a refusal
            parse_scalar(text, RATIONALS)

    @given(st.fractions())
    def test_render_parse_identity(self, q):
        x = from_fraction(q.numerator, q.denominator, RATIONALS)
        assert parse_scalar(x.render(), RATIONALS) == x


class TestMixedFields:
    def test_cross_field_add_rejected(self):
        from recur2d import MixedFieldError
        with pytest.raises(MixedFieldError):
            one(RATIONALS) + one(prime_field(7))

    def test_scalar_is_hashable_and_frozen(self):
        x = one(RATIONALS)
        assert isinstance(hash(x), int)
        with pytest.raises(Exception):
            x.value = Fraction(2)
