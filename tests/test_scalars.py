import math
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humbert.errors import DomainError, PoleError, SignatureError
from humbert.scalars import (
    as_exact,
    as_scalar,
    check_not_pole,
    is_nonpositive_integer,
    pochhammer,
    to_float,
)

F = Fraction


class TestAsScalar:
    def test_int_becomes_fraction(self):
        assert as_scalar(3) == F(3) and type(as_scalar(3)) is F

    def test_fraction_passthrough(self):
        assert as_scalar(F(2, 7)) == F(2, 7)

    def test_string_ratio(self):
        assert as_scalar("5/12") == F(5, 12)

    def test_float_stays_float(self):
        v = as_scalar(0.25)
        assert v == 0.25 and type(v) is float

    def test_bool_rejected(self):
        with pytest.raises(SignatureError):
            as_scalar(True)

    def test_garbage_rejected(self):
        with pytest.raises(SignatureError):
            as_scalar("not a number")

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_rejected(self, value):
        with pytest.raises(SignatureError, match="not a finite parameter"):
            as_scalar(value)


class TestAsExact:
    @pytest.mark.parametrize("value, want", [
        (3, F(3)), (F(2, 7), F(2, 7)), ("5/12", F(5, 12))])
    def test_exact_values_become_fractions(self, value, want):
        got = as_exact(value, "alpha")
        assert got == want and type(got) is F

    @pytest.mark.parametrize("value", [0.25, 1.0, -2.0])
    def test_float_is_refused_by_name(self, value):
        with pytest.raises(SignatureError) as raised:
            as_exact(value, "parameter 'alpha'")
        assert str(raised.value) == \
            f"parameter 'alpha' = {value!r} is not an exact rational"

    def test_as_scalar_refusals_stand(self):
        with pytest.raises(SignatureError, match="not a finite parameter"):
            as_exact(math.nan, "alpha")
        with pytest.raises(SignatureError, match="not a numeric parameter"):
            as_exact(True, "alpha")


class TestToFloat:
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_float_is_domain_error(self, value):
        with pytest.raises(DomainError, match="p is not finite"):
            to_float(value, "p")


class TestPochhammer:
    def test_empty_product(self):
        assert pochhammer(F(7, 3), 0) == 1

    def test_one_rising_five(self):
        assert pochhammer(F(1), 5) == 120

    def test_half_rising_three(self):
        assert pochhammer(F(1, 2), 3) == F(15, 8)

    def test_negative_order_rejected(self):
        with pytest.raises(ValueError):
            pochhammer(F(1), -1)

    def test_vanishing_at_negative_integers(self):
        # (-m)_k = 0 once k exceeds m; this is what truncates operator sums.
        assert pochhammer(F(-3), 4) == 0
        assert pochhammer(F(-3), 3) == -6

    def test_float_matches_exact(self):
        exact = pochhammer(F(1, 3), 7)
        approx = pochhammer(1 / 3, 7)
        assert abs(approx - float(exact)) <= 1e-13 * float(exact)

    @given(
        a=st.fractions(min_value=-5, max_value=5, max_denominator=30),
        m=st.integers(min_value=0, max_value=8),
        n=st.integers(min_value=0, max_value=8),
    )
    @settings(deadline=None, max_examples=60)
    def test_addition_law(self, a, m, n):
        assert pochhammer(a, m + n) == pochhammer(a, m) * pochhammer(a + m, n)


class TestPoleGuard:
    def test_nonpositive_integers(self):
        assert is_nonpositive_integer(F(0))
        assert is_nonpositive_integer(F(-4))
        assert not is_nonpositive_integer(F(-1, 2))
        assert not is_nonpositive_integer(F(3))

    def test_float_band(self):
        assert is_nonpositive_integer(-2.0)
        assert is_nonpositive_integer(-2.0 + 5e-13)
        assert not is_nonpositive_integer(-2.1)
        assert not is_nonpositive_integer(1.0)

    def test_check_raises_with_context(self):
        with pytest.raises(PoleError, match="gamma"):
            check_not_pole(F(-1), "Phi1 parameter gamma")
