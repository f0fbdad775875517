import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humbert.errors import ArgumentError, HumbertError, PoleError, SignatureError
from humbert.operators import (
    apply_H,
    apply_H_bar,
    apply_delta_op,
    apply_nabla,
    apply_nabla_delta,
    delta_pochhammer_action,
    nabla_delta_ksum,
)
from humbert.scalars import pochhammer, pochhammer_table
from humbert.series import (
    FunctionRef,
    TruncatedBiseries,
    graded_indices,
    single_series_on_axis,
    truncated_series,
)

F = Fraction

PHI1 = FunctionRef("Phi1", {"alpha": F(1, 2), "beta": F(1, 3), "gamma": F(5, 4)})


def random_triangle(degree, rng):
    return TruncatedBiseries(degree, [
        [F(rng.randint(-20, 20), rng.randint(1, 9))
         for _ in range(degree + 1 - m)] for m in range(degree + 1)])


def ones(degree):
    return TruncatedBiseries(
        degree, [[F(1)] * (degree + 1 - m) for m in range(degree + 1)])


def x_derivative(s):
    """Formal d/dx on a triangle (degree bound kept, top row zero-filled)."""
    N = s.degree
    return TruncatedBiseries(N, [
        [(m + 1) * s.coeff(m + 1, n) for n in range(N - m)] + [F(0)]
        for m in range(N)] + [[F(0)]])


class TestDeltaPochhammerAction:
    def test_k_zero_is_identity(self):
        s = truncated_series(PHI1, 5)
        assert delta_pochhammer_action(s, "x", 0) == s

    def test_vanishing_kills_low_monomials(self):
        s = TruncatedBiseries.monomial(4, 1, 0)
        assert delta_pochhammer_action(s, "x", 2) == TruncatedBiseries.zero(4)

    def test_k1_matches_derivative_oracle(self):
        # (-delta)_1 f = -x f'(x) on the triangle, coefficientwise.
        s = truncated_series(PHI1, 6)
        via_action = delta_pochhammer_action(s, "x", 1)
        derivative = x_derivative(s)
        # -x f'(x) at x^m y^n is -m c_{m,n}; the action also touches the
        # top diagonal, past the derivative's bound, so compare below it
        for m, n in graded_indices(5):
            want = -derivative.coeff(m - 1, n) if m else 0
            assert via_action.coeff(m, n) == want

    def test_y_axis(self):
        s = TruncatedBiseries.monomial(3, 0, 2)
        out = delta_pochhammer_action(s, "y", 2)
        assert out.coeff(0, 2) == 2  # (-2)_2 = 2

    @pytest.mark.parametrize("k", [-1, 2.5, "2", True])
    def test_k_not_a_count_is_refused(self, k):
        with pytest.raises(ValueError) as raised:
            delta_pochhammer_action(ones(3), "x", k)
        assert str(raised.value) == \
            f"k must be a non-negative int, got {k!r}"

    def test_a_bad_k_is_the_package_argument_error(self):
        with pytest.raises(ArgumentError) as raised:
            delta_pochhammer_action(ones(3), "x", -1)
        assert isinstance(raised.value, HumbertError)
        assert isinstance(raised.value, ValueError)


class TestApplyH:
    def test_eigenvalue_on_monomial(self):
        s = TruncatedBiseries.monomial(3, 2, 1)
        out = apply_H(s, F(1, 3), F(5, 2))
        assert out.coeff(2, 1) == F(32, 1215)

    def test_double_sum_on_monomial(self):
        s = TruncatedBiseries.monomial(3, 2, 1)
        out = apply_H(s, F(1, 3), F(5, 2), mode="double_sum")
        assert out.coeff(2, 1) == F(32, 1215)

    def test_equal_parameters_is_identity(self):
        s = truncated_series(PHI1, 5)
        assert apply_H(s, F(3, 7), F(3, 7)) == s
        assert apply_H(s, F(3, 7), F(3, 7), mode="double_sum") == s

    def test_modes_agree_exhaustively(self):
        # all slots m+n <= 12, twenty random rational parameter pairs
        rng = random.Random(20260819)
        s = ones(12)
        for _ in range(20):
            a = F(rng.randint(-9, 9), rng.randint(1, 7))
            b = F(rng.randint(1, 9), rng.randint(1, 7))  # keep b off poles
            closed = apply_H(s, a, b)
            summed = apply_H(s, a, b, mode="double_sum")
            assert closed.first_mismatch(summed) is None, (a, b)

    def test_axis_restrictions_match_two_variable_action(self):
        # on a pure-x series the x-axis operator equals the full one
        rng = random.Random(7)
        a, b = F(2, 5), F(9, 4)
        pure_x = TruncatedBiseries(
            6, [[F(rng.randint(-5, 5))] + [F(0)] * (6 - m) for m in range(7)])
        assert apply_H(pure_x, a, b, axis="x") == apply_H(pure_x, a, b, axis="xy")
        out = apply_H(pure_x, a, b, axis="x", mode="double_sum")
        assert out == apply_H(pure_x, a, b, axis="x")

    def test_pole_guard(self):
        s = truncated_series(PHI1, 5)
        with pytest.raises(PoleError):
            apply_H(s, F(1, 2), F(-2))
        with pytest.raises(PoleError):
            apply_H(s, F(1, 2), F(-2), mode="double_sum")

    def test_unknown_mode(self):
        with pytest.raises(ValueError):
            apply_H(TruncatedBiseries.one(2), F(1), F(2), mode="magic")


class TestArgumentChecks:
    @pytest.mark.parametrize("apply", [apply_H, apply_H_bar])
    @pytest.mark.parametrize("mode", ["closed_form", "double_sum"])
    def test_bad_axis_is_refused(self, apply, mode):
        with pytest.raises(ValueError, match="axis must be one of"):
            apply(TruncatedBiseries.one(3), F(1, 3), F(5, 2), mode=mode,
                  axis="z")

    # in args4, h = -2 zeroes nabla's cells from m+n = 3 on, where its 0/0
    # cells stay 0, and delta(-3) then meets a pole of its own
    @pytest.mark.parametrize("apply, args, mode, text", [
        (apply_H, (F(1, 2), F(-2)), "closed_form",
         "H(1/2, -2): ratio step denominator b + k = -2 + 2 = 0"),
        (apply_H, (F(1, 2), F(-2)), "double_sum",
         "H finite sum: denominator Pochhammer vanishes"),
        (apply_H_bar, (F(-3), F(1, 2)), "closed_form",
         "H_bar(-3, 1/2): ratio step denominator b + k = -3 + 3 = 0"),
        (apply_H_bar, (F(-3), F(1, 2)), "double_sum",
         "H finite sum: denominator Pochhammer vanishes"),
        (apply_nabla_delta, (F(-2), F(-3)), "closed_form",
         "delta_op(-3): denominator Pochhammer vanishes"),
        (apply_nabla_delta, (F(1, 2), F(-2)), "closed_form",
         "delta_op(-2): denominator Pochhammer vanishes"),
        (apply_nabla_delta, (F(1, 2), F(-2)), "k_sum",
         "nabla-delta finite sum: denominator Pochhammer vanishes"),
    ])
    def test_pole_texts(self, apply, args, mode, text):
        with pytest.raises(PoleError) as raised:
            apply(ones(8), *args, mode=mode)
        assert str(raised.value) == text

    # each action coerces its parameters exactly, so a float is refused
    # by name before any cell is scaled, on every route
    @pytest.mark.parametrize("apply, args, mode, text", [
        (apply_H, (0.5, F(2)), "closed_form", "a = 0.5"),
        (apply_H, (F(1, 2), 2.0), "double_sum", "b = 2.0"),
        (apply_H_bar, (0.25, F(2)), "closed_form", "a = 0.25"),
        (apply_H_bar, (F(1, 2), 1.5), "double_sum", "b = 1.5"),
        (apply_nabla, (0.5,), None, "h = 0.5"),
        (apply_delta_op, (0.5,), None, "h = 0.5"),
        (apply_nabla_delta, (0.5, F(1, 3)), "closed_form", "h = 0.5"),
        (apply_nabla_delta, (F(1, 2), 0.75), "closed_form", "g = 0.75"),
        (apply_nabla_delta, (F(1, 2), 0.75), "k_sum", "g = 0.75"),
    ])
    def test_float_parameters_are_refused(self, apply, args, mode, text):
        kwargs = {} if mode is None else {"mode": mode}
        with pytest.raises(SignatureError) as raised:
            apply(ones(4), *args, **kwargs)
        assert str(raised.value) == f"{text} is not an exact rational"

    # the refusals of the triangle, operator and Pochhammer code that no
    # other test reaches, and the counts that were a TypeError (2.5) or
    # were taken as 1 (True)
    @pytest.mark.parametrize("call, text", [
        (lambda: TruncatedBiseries(-1),
         "degree bound must be a non-negative int, got -1"),
        (lambda: TruncatedBiseries(2.5),
         "degree bound must be a non-negative int, got 2.5"),
        (lambda: TruncatedBiseries(True),
         "degree bound must be a non-negative int, got True"),
        (lambda: TruncatedBiseries(1, [[1, 2]]),
         "rows do not form a degree-1 triangle"),
        (lambda: TruncatedBiseries.monomial(2, 2, 1),
         "monomial x^2 y^1 outside degree-2 triangle"),
        (lambda: ones(2).shifted(-1, 0),
         "shift offset i must be a non-negative int, got -1"),
        (lambda: ones(2).shifted(0, 2.5),
         "shift offset j must be a non-negative int, got 2.5"),
        (lambda: single_series_on_axis(
            FunctionRef("Kummer1F1", {"alpha": F(1, 2), "gamma": F(5, 4)}),
            3, "z"), "axis must be 'x' or 'y'"),
        (lambda: delta_pochhammer_action(ones(2), "z", 1),
         "which must be 'x' or 'y'"),
        (lambda: apply_nabla_delta(ones(2), F(1, 2), F(1, 3), mode="magic"),
         "unknown mode 'magic'"),
        (lambda: pochhammer_table(F(1), -1),
         "pochhammer_table's n must be a non-negative int, got -1"),
        (lambda: pochhammer(F(1), 2.5),
         "pochhammer's n must be a non-negative int, got 2.5"),
    ])
    def test_bad_arguments_are_argument_errors(self, call, text):
        with pytest.raises(ArgumentError) as raised:
            call()
        assert isinstance(raised.value, HumbertError)
        assert isinstance(raised.value, ValueError)
        assert str(raised.value) == text


class TestApplyHBar:
    def test_inverse_pair_both_ways(self):
        rng = random.Random(31)
        s = random_triangle(8, rng)
        a, b = F(3, 7), F(11, 6)
        assert apply_H_bar(apply_H(s, a, b), a, b) == s
        assert apply_H(apply_H_bar(s, a, b), a, b) == s

    def test_modes_agree(self):
        rng = random.Random(99)
        s = random_triangle(6, rng)
        a, b = F(2, 7), F(13, 5)
        closed = apply_H_bar(s, a, b)
        summed = apply_H_bar(s, a, b, mode="double_sum")
        assert closed.first_mismatch(summed) is None

    def test_single_slot_sum_value(self):
        # slot (1, 0): 1 + (b-a)(-1)/(1-a-1) = b/a
        s = TruncatedBiseries.monomial(2, 1, 0)
        a, b = F(1, 3), F(5, 2)
        out = apply_H_bar(s, a, b, mode="double_sum")
        assert out.coeff(1, 0) == b / a

    def test_origin_unchanged(self):
        s = TruncatedBiseries.one(4)
        assert apply_H_bar(s, F(1, 5), F(7, 3)) == s

    def test_pole_guard_on_eigenvalue(self):
        s = truncated_series(PHI1, 5)
        with pytest.raises(PoleError):
            apply_H_bar(s, F(-3), F(1, 2))


class TestNablaDelta:
    def test_pure_axis_slots_fixed(self):
        h = F(4, 9)
        out = apply_nabla(ones(5), h)
        for k in range(6):
            assert out.coeff(k, 0) == 1
            assert out.coeff(0, k) == 1

    def test_reciprocal_pair(self):
        rng = random.Random(5)
        s = random_triangle(8, rng)
        h = F(7, 10)
        assert apply_delta_op(apply_nabla(s, h), h) == s
        assert apply_nabla(apply_delta_op(s, h), h) == s

    def test_composite_matches_ksum(self):
        rng = random.Random(13)
        s = random_triangle(7, rng)
        h, g = F(4, 9), F(7, 10)
        closed = apply_nabla_delta(s, h, g)
        summed = apply_nabla_delta(s, h, g, mode="k_sum")
        assert closed.first_mismatch(summed) is None

    def test_ksum_known_slot(self):
        h, g = F(4, 9), F(7, 10)
        m, n = 2, 1
        from humbert.scalars import pochhammer

        expected = (
            pochhammer(h, 3) * pochhammer(g, 2) * pochhammer(g, 1)
            / (pochhammer(h, 2) * pochhammer(h, 1) * pochhammer(g, 3))
        )
        assert nabla_delta_ksum(h, g, m, n) == expected

    @given(
        m=st.integers(min_value=0, max_value=8),
        n=st.integers(min_value=0, max_value=8),
        h_num=st.integers(min_value=1, max_value=12),
        h_den=st.integers(min_value=1, max_value=9),
        g_num=st.integers(min_value=1, max_value=12),
        g_den=st.integers(min_value=1, max_value=9),
    )
    @settings(deadline=None, max_examples=80)
    def test_ksum_equals_eigenvalue_everywhere(self, m, n, h_num, h_den, g_num, g_den):
        from humbert.scalars import pochhammer

        h, g = F(h_num, h_den), F(g_num, g_den)
        expected = (
            pochhammer(h, m + n) * pochhammer(g, m) * pochhammer(g, n)
            / (pochhammer(h, m) * pochhammer(h, n) * pochhammer(g, m + n))
        )
        assert nabla_delta_ksum(h, g, m, n) == expected

