import hashlib
import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from humbert.errors import (
    DomainError,
    NoConvergence,
    PoleError,
    SignatureError,
    UnsupportedTransform,
)
from humbert.quadrature import (
    bessel_arr,
    gauss_arr,
    kummer_arr,
    phi1_arr,
    ray_coeffs,
)
from humbert import series
from humbert.scalars import pochhammer
from humbert.series import (
    BIVARIATE_KINDS,
    KINDS,
    ROW_ROUTE_X,
    SINGLE_KINDS,
    FunctionRef,
    TruncatedBiseries,
    eval_double_series,
    eval_single_series,
    graded_indices,
    single_series_on_axis,
    step_signature,
    substitute_args,
    truncated_series,
)

F = Fraction


def poly(degree, entries):
    s = TruncatedBiseries.zero(degree)
    for m, n, c in entries:
        s = s + TruncatedBiseries.monomial(degree, m, n, F(c))
    return s


def _triangle_of_degree(d):
    count = (d + 1) * (d + 2) // 2
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        min_size=count,
        max_size=count,
    ).map(
        lambda cs: TruncatedBiseries.from_function(
            d, lambda m, n: cs[(m + n) * (m + n + 1) // 2 + m]
        )
    )


# A Pochhammer signature over four slots, exact slot values that include 0
# and negative integers (so factors vanish inside a degree-8 triangle), and
# a first term that may be 0.
_factors = st.lists(st.tuples(st.sampled_from("abcd"),
                              st.sampled_from(("m+n", "m", "n"))), max_size=3)
_exact_values = st.one_of(st.integers(-8, 2).map(F),
                          st.fractions(-5, 5, max_denominator=12))
_signatures = st.tuples(
    _factors, _factors,
    st.fixed_dictionaries({key: _exact_values for key in "abcd"}),
    st.one_of(st.just(F(1)), st.just(F(0)), _exact_values))

small_triangles = st.integers(min_value=0, max_value=4).flatmap(_triangle_of_degree)

triangle_pairs = st.integers(min_value=0, max_value=4).flatmap(
    lambda d: st.tuples(_triangle_of_degree(d), _triangle_of_degree(d))
)


class TestTriangleStorage:
    def test_indices_order(self):
        assert list(graded_indices(2)) == [(0, 0), (0, 1), (1, 0), (0, 2), (1, 1), (2, 0)]

    def test_coeff_outside_triangle(self):
        s = TruncatedBiseries.one(3)
        with pytest.raises(IndexError):
            s.coeff(2, 2)
        with pytest.raises(IndexError):
            s.coeff(-1, 0)

    def test_square_of_linear(self):
        s = poly(2, [(0, 0, 1), (1, 0, 1), (0, 1, 1)])
        sq = s * s
        assert sq == poly(
            2, [(0, 0, 1), (1, 0, 2), (0, 1, 2), (2, 0, 1), (1, 1, 2), (0, 2, 1)]
        )

    def test_product_truncates(self):
        x = TruncatedBiseries.monomial(1, 1, 0)
        assert (x * x) == TruncatedBiseries.zero(1)

    def test_shift_drops_overflow(self):
        s = poly(2, [(0, 0, 1), (1, 1, 5)])
        assert s.shifted(1, 0) == poly(2, [(1, 0, 1)])

    def test_first_mismatch_graded_order(self):
        a = poly(2, [(0, 2, 1), (2, 0, 7)])
        b = poly(2, [(0, 2, 2), (2, 0, 9)])
        assert a.first_mismatch(b) == (0, 2, F(1), F(2))
        assert a.first_mismatch(a) is None

    def test_evaluate_horner(self):
        s = poly(2, [(0, 0, 1), (1, 0, 2), (0, 1, 3), (1, 1, 4)])
        assert s.evaluate(F(1, 2), F(1, 3)) == 1 + 1 + 1 + F(2, 3)

    @given(pair=triangle_pairs)
    @settings(deadline=None, max_examples=40)
    def test_mul_commutes(self, pair):
        a, b = pair
        assert a * b == b * a

    @given(s=small_triangles)
    @settings(deadline=None, max_examples=40)
    def test_one_is_identity(self, s):
        assert s * TruncatedBiseries.one(s.degree) == s


class TestFunctionRef:
    def test_signature_roundup(self):
        with pytest.raises(SignatureError):
            FunctionRef("Phi1", {"alpha": 1, "beta": 1})
        with pytest.raises(SignatureError):
            FunctionRef("Phi1", {"alpha": 1, "beta": 1, "gamma": 2, "eps": 1})
        with pytest.raises(SignatureError):
            FunctionRef("Nope", {"alpha": 1})

    def test_pole_guard_on_denominator_slots(self):
        with pytest.raises(PoleError):
            FunctionRef("Phi1", {"alpha": 1, "beta": 1, "gamma": -2})
        with pytest.raises(PoleError):
            FunctionRef("Psi2", {"alpha": 1, "gamma1": F(1, 2), "gamma2": 0})
        # numerator-position parameters may sit at non-positive integers
        FunctionRef("Phi1", {"alpha": -3, "beta": 1, "gamma": F(1, 2)})

    def test_string_params_coerced(self):
        ref = FunctionRef("Xi2", {"alpha": "1/3", "beta": "2/5", "gamma": "7/6"})
        assert ref.params["alpha"] == F(1, 3)


def coefficient(ref, m, n):
    """c_{m,n} of the kind's triangle of degree m + n."""
    return truncated_series(ref, m + n).coeff(m, n)


class TestCoefficientRule:
    def test_phi1_basic(self):
        ref = FunctionRef("Phi1", {"alpha": 1, "beta": 1, "gamma": 2})
        assert coefficient(ref, 1, 1) == F(1, 3)
        assert coefficient(ref, 0, 0) == 1

    def test_each_kind_at_origin(self):
        for kind, params in REFERENCE_PARAMS.items():
            assert coefficient(FunctionRef(kind, params), 0, 0) == 1

    def test_single_variable_needs_n_zero(self):
        # a single-variable kind's triangle is zero off column 0
        ref = FunctionRef("Kummer1F1", {"alpha": 1, "gamma": 2})
        assert coefficient(ref, 3, 0) == F(1, 24)
        assert coefficient(ref, 1, 1) == 0

    def test_restrictions_to_axes(self):
        # Setting one variable to zero reduces each kind to its classical
        # single-variable series, coefficient by coefficient.
        checks = [
            ("Phi1", {"alpha": F(1, 3), "beta": F(2, 5), "gamma": F(7, 4)},
             "Gauss2F1", {"alpha": F(1, 3), "beta": F(2, 5), "gamma": F(7, 4)}, "x"),
            ("Phi2", {"beta1": F(1, 3), "beta2": F(2, 5), "gamma": F(7, 4)},
             "Kummer1F1", {"alpha": F(1, 3), "gamma": F(7, 4)}, "x"),
            ("Phi3", {"beta": F(1, 3), "gamma": F(7, 4)},
             "Bessel0F1", {"gamma": F(7, 4)}, "y"),
            ("Psi2", {"alpha": F(1, 3), "gamma1": F(7, 4), "gamma2": F(8, 5)},
             "Kummer1F1", {"alpha": F(1, 3), "gamma": F(7, 4)}, "x"),
            ("Xi2", {"alpha": F(1, 3), "beta": F(2, 5), "gamma": F(7, 4)},
             "Gauss2F1", {"alpha": F(1, 3), "beta": F(2, 5), "gamma": F(7, 4)}, "x"),
        ]
        for kind, params, skind, sparams, axis in checks:
            ref = FunctionRef(kind, params)
            sref = FunctionRef(skind, sparams)
            for k in range(11):
                mn = (k, 0) if axis == "x" else (0, k)
                assert coefficient(ref, *mn) == coefficient(sref, k, 0), (
                    kind,
                    k,
                )


REFERENCE_PARAMS = {
    "Phi1": {"alpha": F(1, 2), "beta": F(1, 3), "gamma": F(5, 4)},
    "Phi2": {"beta1": F(2, 7), "beta2": F(3, 8), "gamma": F(5, 4)},
    "Phi3": {"beta": F(1, 3), "gamma": F(5, 4)},
    "Psi1": {"alpha": F(1, 2), "beta": F(1, 3), "gamma1": F(6, 5), "gamma2": F(7, 6)},
    "Psi2": {"alpha": F(1, 2), "gamma1": F(6, 5), "gamma2": F(7, 6)},
    "Xi1": {"alpha1": F(2, 9), "alpha2": F(5, 11), "beta": F(1, 3), "gamma": F(5, 4)},
    "Xi2": {"alpha": F(1, 2), "beta": F(1, 3), "gamma": F(5, 4)},
}


SINGLE_PARAMS = {
    "Gauss2F1": {"alpha": F(1, 2), "beta": F(1, 3), "gamma": F(5, 4)},
    "Kummer1F1": {"alpha": F(1, 2), "gamma": F(5, 4)},
    "Bessel0F1": {"gamma": F(5, 4)},
}
ALL_PARAMS = {**REFERENCE_PARAMS, **SINGLE_PARAMS}

P = pochhammer
fact = math.factorial

# Each kind's coefficient c(m, n) as an explicit product of Pochhammer
# symbols, written out here independently of the package's signatures.
POCHHAMMER_ORACLE = {
    "Phi1": lambda p, m, n: P(p["alpha"], m + n) * P(p["beta"], m)
    / (P(p["gamma"], m + n) * fact(m) * fact(n)),
    "Phi2": lambda p, m, n: P(p["beta1"], m) * P(p["beta2"], n)
    / (P(p["gamma"], m + n) * fact(m) * fact(n)),
    "Phi3": lambda p, m, n: P(p["beta"], m)
    / (P(p["gamma"], m + n) * fact(m) * fact(n)),
    "Psi1": lambda p, m, n: P(p["alpha"], m + n) * P(p["beta"], m)
    / (P(p["gamma1"], m) * P(p["gamma2"], n) * fact(m) * fact(n)),
    "Psi2": lambda p, m, n: P(p["alpha"], m + n)
    / (P(p["gamma1"], m) * P(p["gamma2"], n) * fact(m) * fact(n)),
    "Xi1": lambda p, m, n: P(p["alpha1"], m) * P(p["alpha2"], n) * P(p["beta"], m)
    / (P(p["gamma"], m + n) * fact(m) * fact(n)),
    "Xi2": lambda p, m, n: P(p["alpha"], m) * P(p["beta"], m)
    / (P(p["gamma"], m + n) * fact(m) * fact(n)),
    "Gauss2F1": lambda p, m, n: P(p["alpha"], m) * P(p["beta"], m)
    / (P(p["gamma"], m) * fact(m)),
    "Kummer1F1": lambda p, m, n: P(p["alpha"], m) / (P(p["gamma"], m) * fact(m)),
    "Bessel0F1": lambda p, m, n: F(1) / (P(p["gamma"], m) * fact(m)),
}


class TestSignatures:
    @pytest.mark.parametrize("kind", sorted(POCHHAMMER_ORACLE))
    def test_triangle_matches_pochhammer_oracle(self, kind):
        # at the reference parameters and with each numerator slot in turn
        # at 0, -1 and -3, where (a)_k vanishes from k = 1 - a on; a
        # single-variable kind on both axes
        N = 8
        numerator_slots = dict.fromkeys(
            slot for slot, _ in series.KINDS[kind].num)
        cases = [ALL_PARAMS[kind]] + [
            {**ALL_PARAMS[kind], slot: F(value)}
            for slot in numerator_slots for value in (0, -1, -3)]
        for params in cases:
            ref = FunctionRef(kind, params)
            if kind in BIVARIATE_KINDS:
                triangles = {"xy": truncated_series(ref, N)}
            else:
                triangles = {axis: single_series_on_axis(ref, N, axis)
                             for axis in ("x", "y")}
            for axis, s in triangles.items():
                for m, n in graded_indices(N):
                    k, off = {"xy": (m, n), "x": (m, n), "y": (n, m)}[axis]
                    want = POCHHAMMER_ORACLE[kind](params, k, off) \
                        if axis == "xy" or off == 0 else 0
                    assert s.coeff(m, n) == want, (params, axis, m, n)

    @pytest.mark.parametrize("kind", sorted(POCHHAMMER_ORACLE))
    def test_float_ratio_steps_follow_the_signature(self, kind):
        # the float summation's ratio_x / ratio_y, fed exact parameters,
        # must be the exact term ratios of the signature's triangle
        ref = FunctionRef(kind, ALL_PARAMS[kind])
        info = ref.info
        s = truncated_series(ref, 6)
        for m, n in graded_indices(5):
            if not info.bivariate and n:
                continue
            c = s.coeff(m, n)
            assert s.coeff(m + 1, n) / c == info.ratio_x(ref.params, m, n), (m, n)
            if info.bivariate:
                assert s.coeff(m, n + 1) / c == info.ratio_y(ref.params, m, n), \
                    (m, n)


class TestTruncatedSeries:
    def test_float_parameters_track_the_exact_triangle(self):
        # the float triangle steps the same ratios in doubles; against the
        # exact triangle of the same (binary) parameter values it may only
        # drift by the rounding of its steps
        params = {"alpha": 0.37, "beta": 1.21, "gamma1": 0.83, "gamma2": 1.64}
        N = 24
        got = truncated_series(FunctionRef("Psi1", params), N)
        exact = truncated_series(
            FunctionRef("Psi1", {k: F(v) for k, v in params.items()}), N)
        for m, n in graded_indices(N):
            assert isinstance(got.coeff(m, n), float)
            assert got.coeff(m, n) == pytest.approx(
                float(exact.coeff(m, n)), rel=1e-13), (m, n)

    def test_matches_rule_everywhere(self):
        for kind, params in REFERENCE_PARAMS.items():
            ref = FunctionRef(kind, params)
            s = truncated_series(ref, 6)
            for m, n in graded_indices(6):
                assert s.coeff(m, n) == coefficient(ref, m, n)

    @pytest.mark.parametrize("a, b, stop", [
        (F(-1), F(-2), None),   # (a)_k vanishes first: no term is divided
        (F(-2), F(-2), None),   # both at k = 3: the step gives 0
        (F(-3), F(-2), (3, 0)),  # (b)_3 = 0 alone: a pole at (3, 0)
    ])
    def test_step_signature_pole_rule(self, a, b, stop):
        # (a)_m (1/2)_n / ((b)_m m! n!), stepped in row order to degree 4:
        # a term is 0 once its numerator is, and raises where only its
        # denominator vanishes
        p = {"a": a, "b": b, "h": F(1, 2)}
        terms = step_signature((("a", "m"), ("h", "n")), (("b", "m"),), p, 4)
        for m in range(5):
            for n in range(5 - m):
                if (m, n) == stop:
                    with pytest.raises(PoleError) as exc:
                        next(terms)
                    assert str(exc.value) == \
                        f"denominator Pochhammer vanishes at (i, j) = {stop}"
                    return
                num = pochhammer(a, m) * pochhammer(F(1, 2), n)
                want = num and num / (pochhammer(b, m) * math.factorial(m)
                                      * math.factorial(n))
                assert next(terms) == want, (m, n)
        assert stop is None

    @given(signature=_signatures, degree=st.integers(0, 8),
           bivariate=st.booleans(), factorial=st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_exact_steps_meet_the_direct_products(
            self, signature, degree, bivariate, factorial):
        # the integer stepper against pochhammer products cell by cell: a
        # cell is 0 where its numerator product is, its quotient where
        # neither product vanishes, and the first cell in row order whose
        # denominator product alone vanishes raises the pole
        num, den, p, first = signature
        terms = step_signature(num, den, p, degree, first, bivariate,
                               factorial)
        for m in range(degree + 1):
            for n in range(degree + 1 - m if bivariate else 1):
                index = {"m+n": m + n, "m": m, "n": n}
                top, bottom = (
                    math.prod([pochhammer(p[key], index[i])
                               for key, i in pairs], start=F(1))
                    for pairs in (num, den))
                top *= first
                if factorial:
                    bottom *= math.factorial(m) * math.factorial(n)
                if top and not bottom:
                    with pytest.raises(PoleError) as exc:
                        next(terms)
                    assert str(exc.value) == "denominator Pochhammer " \
                        f"vanishes at (i, j) = ({m}, {n})"
                    return
                got = next(terms)
                assert type(got) is Fraction
                assert got == (top and top / bottom), (m, n)
        assert next(terms, None) is None

    def test_float_and_mixed_triangles_keep_their_bits(self):
        # SHA-256 of the cells' float.hex(), in row order, pinned so that
        # stating the exact steps over a common denominator cannot move a
        # bit of the float (q = 1) steps
        def digest(params):
            s = truncated_series(FunctionRef("Psi1", params), 12)
            text = " ".join(s.coeff(m, n).hex() for m in range(13)
                            for n in range(13 - m))
            return hashlib.sha256(text.encode()).hexdigest()

        assert digest({"alpha": 0.37, "beta": 1.21, "gamma1": 0.83,
                       "gamma2": 1.64}) == \
            "12c6259c277d583875d7cc97e16110d92d30c75f9a9e76f7f270fe12794733b8"
        assert digest({"alpha": F(1, 3), "beta": 1.21, "gamma1": F(5, 7),
                       "gamma2": 1.64}) == \
            "78f05e2e91a26d40c6a970ca98af7ff759e58a10548da9295da952b88a7e371b"

    def test_single_kind_on_y_axis(self):
        ref = FunctionRef("Bessel0F1", {"gamma": F(5, 4)})
        s = single_series_on_axis(ref, 4, "y")
        assert s.coeff(0, 2) == coefficient(ref, 2, 0)
        assert s.coeff(2, 0) == 0


def compose_oracle(s, tx, ty):
    """s(X, Y) for the named transforms, by Horner over the triangle with
    one full truncated product per coefficient: the generic composition,
    the reference for the closed form of substitute_args."""
    N = s.degree
    x_images = {
        "identity": lambda m, n: F(m == 1 and n == 0),
        "negate": lambda m, n: -F(m == 1 and n == 0),
        "moebius_x": lambda m, n: -F(m >= 1 and n == 0),  # -(x + x^2 + ...)
    }
    y_images = {
        "identity": lambda m, n: F(m == 0 and n == 1),
        "negate": lambda m, n: -F(m == 0 and n == 1),
        "scale_by_geometric": lambda m, n: F(n == 1),  # y (1 + x + ...)
    }
    sx = TruncatedBiseries.from_function(N, x_images[tx])
    sy = TruncatedBiseries.from_function(N, y_images[ty])
    acc = TruncatedBiseries.zero(N)
    for m in range(N, -1, -1):
        row = TruncatedBiseries.zero(N)
        for n in range(N - m, -1, -1):
            row = row * sy + TruncatedBiseries.monomial(N, 0, 0, s.coeff(m, n))
        acc = acc * sx + row
    return acc


def prefactor_oracle(N, p=F(0), c=F(0)):
    """(1-x)^p e^(c y) as the product of its two series, each coefficient a
    direct pochhammer product or power."""
    binomial = TruncatedBiseries.from_function(
        N, lambda m, n: P(-p, m) / fact(m) if n == 0 else F(0))
    exp = TruncatedBiseries.from_function(
        N, lambda m, n: c ** n / fact(n) if m == 0 else F(0))
    return binomial * exp


PREFACTOR_CASES = {
    "none": {},
    "p": {"pow_one_minus_x": F(-2, 3)},
    "c": {"exp_y": F(3, 5)},
    "both": {"pow_one_minus_x": F(5, 7), "exp_y": F(-1, 4)},
}


class TestElementary:
    # the elementary factors are the prefactors of substitute_args
    def test_geometric_series(self):
        s = substitute_args(TruncatedBiseries.one(3), "identity", "identity",
                            pow_one_minus_x=-1)
        assert s == poly(3, [(0, 0, 1), (1, 0, 1), (2, 0, 1), (3, 0, 1)])

    def test_binomial_exponent(self):
        s = substitute_args(TruncatedBiseries.one(4), "identity", "identity",
                            pow_one_minus_x=F(-1, 2))
        # (1-x)^(-1/2) = 1 + x/2 + 3x^2/8 + 5x^3/16 + 35x^4/128
        assert [s.coeff(m, 0) for m in range(5)] == [
            F(1), F(1, 2), F(3, 8), F(5, 16), F(35, 128)
        ]

    def test_exp_scaled(self):
        s = substitute_args(TruncatedBiseries.one(3), "identity", "identity",
                            exp_y=F(2, 3))
        assert s.coeff(0, 2) == F(2, 9)
        assert s.coeff(0, 3) == F(4, 81)
        assert s.coeff(1, 0) == 0

    def test_unknown_kind(self):
        # an elementary factor outside series.PREFACTORS is refused
        from humbert.expressions import expression_symbols

        with pytest.raises(SignatureError, match="prefactor has unknown keys"):
            expression_symbols({"type": "function", "kind": None,
                                "prefactor": {"log_x": "1"}})


class TestSubstitution:
    def test_unsupported_transform_names(self):
        s = TruncatedBiseries.one(3)
        with pytest.raises(UnsupportedTransform):
            substitute_args(s, "scale_by_geometric", "identity")
        with pytest.raises(UnsupportedTransform):
            substitute_args(s, "identity", "moebius_x")

    @pytest.mark.parametrize("pre", PREFACTOR_CASES)
    @pytest.mark.parametrize("ty", series.Y_TRANSFORMS)
    @pytest.mark.parametrize("tx", series.X_TRANSFORMS)
    def test_closed_form_matches_composition(self, tx, ty, pre):
        N = 8
        s = truncated_series(FunctionRef("Psi1", REFERENCE_PARAMS["Psi1"]), N)
        got = substitute_args(s, tx, ty, **PREFACTOR_CASES[pre])
        oracle = compose_oracle(s, tx, ty)
        assert got == oracle * prefactor_oracle(N, **{
            {"pow_one_minus_x": "p", "exp_y": "c"}[key]: value
            for key, value in PREFACTOR_CASES[pre].items()})
        if tx == ty == "identity" and pre == "none":
            assert got is s

    def test_float_parameters_match_the_oracle(self):
        from humbert.expressions import assemble_expression

        params = {"alpha": 0.37, "beta": 1.21, "gamma1": 0.83, "gamma2": 1.64}
        term = {"type": "function", "kind": "Psi1",
                "params": {k: k for k in params},
                "transform_x": "moebius_x", "transform_y": "scale_by_geometric",
                "prefactor": {"pow_one_minus_x": "-beta", "exp_y": "alpha"}}
        N = 8
        got = assemble_expression(term, params, N)
        want = compose_oracle(truncated_series(FunctionRef("Psi1", params), N),
                              "moebius_x", "scale_by_geometric") \
            * prefactor_oracle(N, -params["beta"], params["alpha"])
        for m, n in graded_indices(N):
            assert got.coeff(m, n) == pytest.approx(want.coeff(m, n), rel=1e-13)

    def test_negate_is_involutive(self):
        ref = FunctionRef("Phi2", REFERENCE_PARAMS["Phi2"])
        s = truncated_series(ref, 6)
        twice = substitute_args(substitute_args(s, "negate", "negate"), "negate", "negate")
        assert twice == s

    def test_pfaff_transform(self):
        # (1-x)^(-a) 2F1(a, c-b; c; x/(x-1)) == 2F1(a, b; c; x), checked
        # exactly on truncations.
        a, b, c = F(1, 3), F(2, 5), F(7, 4)
        N = 7
        inner = single_series_on_axis(
            FunctionRef("Gauss2F1", {"alpha": a, "beta": c - b, "gamma": c}), N, "x"
        )
        lhs = substitute_args(inner, "moebius_x", "identity", pow_one_minus_x=-a)
        rhs = single_series_on_axis(
            FunctionRef("Gauss2F1", {"alpha": a, "beta": b, "gamma": c}), N, "x"
        )
        assert lhs.first_mismatch(rhs) is None

    def test_scale_by_geometric(self):
        # y/(1-x) applied to the plain series y gives y * sum_k x^k.
        s = TruncatedBiseries.monomial(4, 0, 1)
        out = substitute_args(s, "identity", "scale_by_geometric")
        for m in range(4):
            assert out.coeff(m, 1) == 1
        assert out.coeff(0, 2) == 0


class TestEvalDoubleSeries:
    def test_log_special_value(self):
        ref = FunctionRef("Phi1", {"alpha": 1, "beta": 1, "gamma": 2})
        val, diag = eval_double_series(ref, 0.5, 0.0)
        assert abs(val - 2 * math.log(2)) < 1e-12
        assert diag["diagonals"] < 100

    def test_exp_over_linear(self):
        # alpha == gamma makes the series collapse to e^y / (1-x).
        ref = FunctionRef("Phi1", {"alpha": 2, "beta": 1, "gamma": 2})
        val, _ = eval_double_series(ref, 0.5, 0.3)
        assert abs(val - 2 * math.exp(0.3)) < 1e-11

    def test_phi2_symmetry(self):
        p = {"beta1": 0.3, "beta2": 0.7, "gamma": 1.25}
        q = {"beta1": 0.7, "beta2": 0.3, "gamma": 1.25}
        a, _ = eval_double_series(FunctionRef("Phi2", p), 1.7, -2.4)
        b, _ = eval_double_series(FunctionRef("Phi2", q), -2.4, 1.7)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_psi2_symmetry(self):
        p = {"alpha": 0.4, "gamma1": 1.2, "gamma2": 1.9}
        q = {"alpha": 0.4, "gamma1": 1.9, "gamma2": 1.2}
        a, _ = eval_double_series(FunctionRef("Psi2", p), 0.8, -1.1)
        b, _ = eval_double_series(FunctionRef("Psi2", q), -1.1, 0.8)
        assert abs(a - b) < 1e-12 * abs(a)

    def test_matches_exact_truncation(self):
        for kind, params in REFERENCE_PARAMS.items():
            ref = FunctionRef(kind, params)
            tri = truncated_series(ref, 24)
            val, _ = eval_double_series(ref, 0.05, -0.07)
            assert abs(val - float(tri.evaluate(F(1, 20), F(-7, 100)))) < 1e-13 * max(
                1.0, abs(val)
            ), kind

    def test_domain_rejection(self):
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        with pytest.raises(DomainError):
            eval_double_series(ref, 1.0, 0.1)
        with pytest.raises(DomainError):
            eval_double_series(ref, float("nan"), 0.0)

    def test_single_kind_rejected(self):
        with pytest.raises(SignatureError):
            eval_double_series(
                FunctionRef("Kummer1F1", {"alpha": 1, "gamma": 2}), 0.1, 0.0
            )

    def test_no_convergence_reported(self):
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        with pytest.raises(NoConvergence):
            eval_double_series(ref, 0.999999, 0.0, max_diagonal=40)

    def test_budget_refuses_before_allocating(self):
        # |x|^M <= tol needs M = 2.8e7 rows at x = 0.999999; the budget of
        # 40 * 41 / 2 terms refuses that before any row array exists
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        eval_double_series(ref, 0.8, 0.3)  # loads the row route's module
        tracemalloc.start()
        try:
            with pytest.raises(NoConvergence, match="term budget of 820"):
                eval_double_series(ref, 0.999999, 0.3, max_diagonal=40)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 64 * 1024

    def test_diag_record(self):
        _, diag = eval_double_series(
            FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"]), 0.4, -0.7)
        assert diag["diagonals"] == diag.diagonals
        assert diag["est_error"] == diag.est_error
        assert diag["last_diagonal"] == diag.last_diagonal
        assert not hasattr(diag, "__dict__")
        with pytest.raises(AttributeError):
            diag.est_error = 0.0
        with pytest.raises(AttributeError):
            del diag.est_error

    @given(
        x=st.floats(min_value=-0.6, max_value=0.6),
        y=st.floats(min_value=-2.0, max_value=2.0),
        kind=st.sampled_from(BIVARIATE_KINDS),
    )
    @settings(deadline=None, max_examples=30)
    def test_tightening_tol_is_consistent(self, x, y, kind):
        ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
        loose, _ = eval_double_series(ref, x, y, tol=1e-9)
        tight, _ = eval_double_series(ref, x, y, tol=1e-13)
        assert abs(loose - tight) < 1e-7 * max(1.0, abs(tight))


def per_term_diagonals(info, p, x, y, count):
    """Diagonals 1..count stepped term by term, each ordered by m: t_{0,k}
    in y from t_{0,k-1}, every other t_{m,k-m} in x from t_{m-1,k-m},
    with Python int indices.  The diagonal route before it stepped bands."""
    terms = [1.0]
    for k in range(1, count + 1):
        terms = [terms[0] * info.ratio_y(p, 0, k - 1) * y] + [
            t * info.ratio_x(p, m, k - 1 - m) * x
            for m, t in enumerate(terms)]
        yield terms


def per_term_sum(ref, x, y, tol=1e-12, max_diagonal=400):
    """The diagonal route term by term: (value, diagonals, est_error), or
    the refusal's reason."""
    p = {k: float(v) for k, v in ref.params.items()}
    total, streak, last_mag = 1.0, 0, 1.0
    for k, terms in enumerate(
            per_term_diagonals(ref.info, p, x, y, max_diagonal), 1):
        try:
            total += math.fsum(terms)
            last_mag = math.fsum(abs(t) for t in terms)
        except (OverflowError, ValueError):  # past the float range
            total = math.inf
        if not math.isfinite(total + last_mag):
            return f"the terms overflowed at diagonal {k}"
        if last_mag < tol * max(abs(total), 1e-300):
            streak += 1
            if streak == 3:
                return total, k, last_mag
        else:
            streak = 0
    return (f"no convergence within {max_diagonal} diagonals "
            f"(last diagonal magnitude {last_mag:.3e})")


def assert_matches_per_term_sum(ref, x, y, tol=1e-12, max_diagonal=400):
    """eval_double_series against per_term_sum: the same value and
    est_error bits and diagonal count, or the same refusal text."""
    want = per_term_sum(ref, x, y, tol, max_diagonal)
    if isinstance(want, str):
        with pytest.raises(NoConvergence) as info:
            eval_double_series(ref, x, y, tol, max_diagonal)
        assert str(info.value) == f"{ref.kind} at ({x}, {y}): {want}"
        return want
    value, diag = eval_double_series(ref, x, y, tol, max_diagonal)
    assert (value.hex(), diag.est_error.hex(), diag.diagonals) == (
        want[0].hex(), want[2].hex(), want[1])
    return want


@st.composite
def _diagonal_points(draw):
    """A kind with random rational parameters at a point of the panel's
    interior (|x| <= 0.6, |y| <= 2) or cancelling (y in [-40, -10], and x
    too for the entire kinds) ranges, all on the diagonal route."""
    kind = draw(st.sampled_from(BIVARIATE_KINDS))
    params = {}
    for slot in series.KINDS[kind].slots:
        q = draw(st.integers(1, 12))
        params[slot] = F(draw(st.integers(1, 2 * q)), q)
    ref = FunctionRef(kind, params)
    x = draw(st.floats(-0.6, 0.6))
    y = draw(st.floats(-2.0, 2.0))
    if draw(st.booleans()):
        y = draw(st.floats(-40.0, -10.0))
        if not ref.info.x_restricted:
            x = draw(st.floats(-40.0, -10.0))
    return ref, x, y


# (kind, x, y, fewest and most diagonals the point stops within): one band,
# two bands, and several, some of them cancelling
BAND_POINTS = [
    ("Phi1", 0.05, -0.07, 1, 32),
    ("Phi1", 0.4, -0.7, 1, 32),
    ("Phi2", 1.7, -2.4, 1, 32),
    ("Phi3", 5.0, -20.0, 33, 64),
    ("Xi1", -0.7, 1.9, 33, 64),
    ("Phi2", -10.0, -12.0, 33, 64),
    ("Xi2", 0.7, -1.5, 33, 64),
    ("Psi2", -3.3, -7.3, 65, 400),
    ("Psi1", 0.6, 1.5, 65, 400),
    ("Phi3", -40.0, 30.0, 65, 400),
    ("Phi2", -40.0, -40.0, 65, 400),
    ("Psi2", -33.3, -37.3, 65, 400),
]


class TestDiagonalBands:
    """The banded diagonal route against its term-by-term oracle, bit for
    bit."""

    @pytest.mark.parametrize("kind, x, y, lo, hi", BAND_POINTS)
    def test_matches_per_term_sum(self, kind, x, y, lo, hi):
        ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
        value, diag = eval_double_series(ref, x, y)
        want_value, want_diagonals, want_error = per_term_sum(ref, x, y)
        assert lo <= diag.diagonals <= hi
        assert (value.hex(), diag.est_error.hex(), diag.diagonals) == (
            want_value.hex(), want_error.hex(), want_diagonals)

    @given(point=_diagonal_points(),
           tol=st.sampled_from((1e-8, 1e-12, 1e-15)),
           max_diagonal=st.integers(0, 120))
    @settings(deadline=None, max_examples=60)
    def test_any_point_matches_per_term_sum(self, point, tol, max_diagonal):
        assert_matches_per_term_sum(*point, tol, max_diagonal)

    @pytest.mark.parametrize("tol, diagonals", [(1e-300, 128), (5e-324, 136)])
    def test_subnormal_magnitudes(self, tol, diagonals):
        # the last diagonals' sums of |t| fall below 2^-1000, where the
        # band's sums of subnormal terms still decide as math.fsum does
        ref = FunctionRef("Phi2", {"beta1": F(1, 2), "beta2": F(1, 3),
                                   "gamma": F(5, 4)})
        want = assert_matches_per_term_sum(ref, 0.1, 0.2, tol)
        assert want[1] == diagonals

    @pytest.mark.parametrize("kind, x, y", [
        ("Psi2", -33.3, -37.3), ("Xi1", -0.7, 1.9), ("Phi2", 1e-3, 250.0)])
    def test_every_term_has_the_per_term_bits(self, kind, x, y):
        # 150 diagonals: the first band, later ones and, from k0 = 96, bands
        # narrowed by BAND_TERMS; each band's mask picks out exactly the
        # k + 1 terms of each of its diagonals
        ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
        p = {k: float(v) for k, v in ref.params.items()}
        want = list(per_term_diagonals(ref.info, p, x, y, 150))
        banded = series.diagonal_terms(ref.info, p, x, y, 150)
        for k, got in enumerate(banded, 1):
            assert [t.hex() for t in got] == [
                t.hex() for t in want[k - 1][::-1]], k
        assert k == 150
        widths = []
        for k0, band, live in series._bands(ref.info, p, x, y, 150):
            widths.append(len(band))
            assert live.shape == band.shape
            for j in range(len(band)):
                got = band[j][live[j]]
                assert len(got) == k0 + j + 2
                assert [t.hex() for t in got] == [
                    t.hex() for t in want[k0 + j][::-1]], k0 + j + 1
        assert widths[:4] == [series.BAND] * 3 + [31]
        assert sum(widths) == 150

    @pytest.mark.parametrize("budget", [0, 1, 31, 32, 33, 40])
    def test_budget_is_kept(self, budget, monkeypatch):
        bands = []
        band = series._band

        def spy(info, p, x, y, last, width):
            bands.append((len(last) - 1, width))
            return band(info, p, x, y, last, width)

        monkeypatch.setattr(series, "_band", spy)
        for kind, x, y in (("Phi3", 5.0, -20.0), ("Phi2", -40.0, -40.0)):
            ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
            want = per_term_sum(ref, x, y, max_diagonal=budget)
            if isinstance(want, str):
                with pytest.raises(NoConvergence) as info:
                    eval_double_series(ref, x, y, max_diagonal=budget)
                assert str(info.value) == f"{kind} at ({x}, {y}): {want}"
                assert f"within {budget} diagonals" in want
            else:
                value, diag = eval_double_series(ref, x, y,
                                                 max_diagonal=budget)
                assert (value, diag.diagonals) == want[:2]
            assert all(k0 + width <= budget for k0, width in bands)

    def test_a_long_sum_keeps_its_bands_small(self):
        # all 400 diagonals: an uncapped band of 32 would hold 65 x 401
        # factors near the end, about 1 MB of transients with its temporaries
        ref = FunctionRef("Psi2", REFERENCE_PARAMS["Psi2"])
        eval_double_series(ref, 0.1, 0.1)  # loads NumPy's lazy parts
        tracemalloc.start()
        try:
            with pytest.raises(NoConvergence, match="within 400 diagonals"):
                eval_double_series(ref, -60.0, -60.0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 512 * 1024

    @pytest.mark.parametrize("kind, x, y, diagonal", [
        ("Psi2", 300.0, 300.0, 305),
        ("Psi2", -700.0, -700.0, 198),
        ("Phi2", -1e6, -1e6, 68),
        ("Phi3", 1e5, 1e5, 90),
        ("Phi2", 1e300, 0.0, 2),
    ])
    def test_overflow_is_refused_at_its_diagonal(self, kind, x, y, diagonal):
        ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence,
                               match=f"overflowed at diagonal {diagonal}$"):
                eval_double_series(ref, x, y)

    @pytest.mark.parametrize("kind, x, y, diagonal", [
        ("Phi2", 1e20, 1e20, 17),
        ("Psi2", 1e20, -1e20, 16),
        ("Phi3", -1e20, 3.0, 17),
        # the total stays finite, but not the total plus the sum of |t|
        ("Psi2", 3.5098484907865077e+24, 0.0, 13),
    ])
    def test_a_first_band_overflow_is_refused_as_term_by_term(
            self, kind, x, y, diagonal):
        # the first band's sums of |t| come from the band's NumPy pass, as
        # every later band's do, and refuse at the term-by-term diagonal
        ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            want = assert_matches_per_term_sum(ref, x, y)
        assert want == f"the terms overflowed at diagonal {diagonal}"
        assert diagonal <= series.BAND

    @pytest.mark.parametrize("x, y, diagonal", [
        (300.0, -300.0, 305), (700.0, -700.0, 198)])
    def test_a_cancelling_diagonal_past_range_is_refused(self, x, y, diagonal):
        # terms of both signs: their signed sum stays finite where the
        # band's sum of |t| passes the float range, and that is the refusal
        ref = FunctionRef("Psi2", REFERENCE_PARAMS["Psi2"])
        with pytest.raises(NoConvergence,
                           match=f"overflowed at diagonal {diagonal}$"):
            eval_double_series(ref, x, y)

    @pytest.mark.parametrize("kwargs", [
        {"tol": 0.0}, {"tol": -1e-12}, {"tol": math.nan}, {"tol": math.inf},
        {"max_diagonal": 2.5}, {"max_diagonal": -3}, {"max_diagonal": True},
        {"tol": True}, {"tol": "1e-12"}, {"tol": None}, {"tol": 1e-12 + 0j},
    ])
    def test_bad_summation_arguments_are_refused(self, kwargs):
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        for x in (0.4, 0.9):  # the diagonal and the row route
            with pytest.raises(ValueError):
                eval_double_series(ref, x, 0.1, **kwargs)
        single = {"max_terms": kwargs["max_diagonal"]} \
            if "max_diagonal" in kwargs else kwargs
        with pytest.raises(ValueError):
            eval_single_series("Gauss2F1", SINGLE_PARAMS["Gauss2F1"], 0.4,
                               **single)

    def test_the_result_is_one_record(self):
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        for x in (0.4, 0.9):  # the diagonal and the row route
            result = eval_double_series(ref, x, -0.7)
            value, diag = result
            assert diag is result and result[1] is result
            assert value == result.value == result[0]
            assert result[1]["diagonals"] == result.diagonals > 0
            assert result["est_error"] == result.est_error > 0

    @pytest.mark.parametrize("kind, x, y", [
        ("Xi1", np.linspace(-0.6, 0.6, 7), np.linspace(0.8, -0.8, 7)),
        ("Phi1", np.linspace(-0.5, 0.4, 6), np.linspace(0.9, -0.3, 6)),
        ("Phi1", np.linspace(-0.5, 0.4, 6).reshape(2, 3), 0.3),
    ])
    def test_node_arrays_have_the_per_ray_bits(self, kind, x, y):
        # the rays of 4.16 (Xi1) or the per-node arguments of 4.6 and 4.7
        # (Phi1), stepped as one array per diagonal, against each ray's
        # own scalar term-by-term loop
        p = {k: float(v) for k, v in REFERENCE_PARAMS[kind].items()}
        info = series.KINDS[kind]
        shape = np.broadcast(x, y).shape
        xs, ys = np.broadcast_arrays(x, y)
        rays = {j: list(per_term_diagonals(info, p, float(xs[j]),
                                           float(ys[j]), 60))
                for j in np.ndindex(shape)}
        k = 0
        for k, diagonal in enumerate(
                series.diagonal_terms(info, p, x, y, 60), 1):
            assert diagonal.shape == (k + 1,) + shape
            for j, want in rays.items():
                got = diagonal[(slice(None),) + j]
                assert [t.hex() for t in got] == [
                    t.hex() for t in want[k - 1]], (k, j)
        assert k == 60

    def test_scalar_rays_match_the_per_term_steps(self):
        # a ray long enough for several bands
        params = {k: float(v) for k, v in REFERENCE_PARAMS["Phi2"].items()}
        coeffs = ray_coeffs("Phi2", params, 20.0, -15.0, 1.0)
        assert len(coeffs) > 70
        want = [1.0] + [math.fsum(t) for t in per_term_diagonals(
            series.KINDS["Phi2"], params, 20.0, -15.0, len(coeffs) - 1)]
        assert [c.hex() for c in coeffs] == [c.hex() for c in want]


# The x-restricted kinds in mpmath.hyper2d form, with the roles of x and y
# swapped: hyper2d sums its second variable innermost, with the most care,
# and near |x| = 1 the x series is the slow one.
HYPER2D_SWAPPED = {
    "Phi1": lambda p: ({"m+n": [p["alpha"]], "n": [p["beta"]]},
                       {"m+n": [p["gamma"]]}),
    "Psi1": lambda p: ({"m+n": [p["alpha"]], "n": [p["beta"]]},
                       {"n": [p["gamma1"]], "m": [p["gamma2"]]}),
    "Xi1": lambda p: ({"n": [p["alpha1"], p["beta"]], "m": [p["alpha2"]]},
                      {"m+n": [p["gamma"]]}),
    "Xi2": lambda p: ({"n": [p["alpha"], p["beta"]]}, {"m+n": [p["gamma"]]}),
}


@st.composite
def _edge_points(draw):
    kind = draw(st.sampled_from(sorted(HYPER2D_SWAPPED)))
    params = {}
    for slot in FunctionRef(kind, REFERENCE_PARAMS[kind]).info.slots:
        q = draw(st.integers(1, 12))
        params[slot] = F(draw(st.integers(1, 2 * q)), q)
    x = draw(st.sampled_from((-1, 1))) * draw(st.floats(ROW_ROUTE_X, 0.97))
    y = draw(st.floats(-2.0, 2.0))
    return kind, params, x, y


class TestRowRoute:
    """x-restricted kinds at ROW_ROUTE_X <= |x| < 1, summed by rows."""

    @given(point=_edge_points())
    @settings(deadline=None, max_examples=40)
    def test_within_estimate_of_mpmath_or_refused(self, point):
        mpmath = pytest.importorskip("mpmath")
        kind, params, x, y = point
        try:
            value, diag = eval_double_series(FunctionRef(kind, params), x, y)
        except NoConvergence:
            return
        with mpmath.workdps(30):
            p = {k: mpmath.mpf(v.numerator) / v.denominator
                 for k, v in params.items()}
            a, b = HYPER2D_SWAPPED[kind](p)
            ref = float(mpmath.hyper2d(a, b, mpmath.mpf(y), mpmath.mpf(x)))
        assert abs(value - ref) <= max(diag["est_error"], 1e-12 * abs(ref)), (
            value, ref, diag)

    def test_agrees_with_diagonal_route(self):
        # just past the threshold both routes converge; the diagonal one,
        # run directly, checks the rows against the path below it
        for kind in sorted(HYPER2D_SWAPPED):
            ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
            p = {k: float(v) for k, v in ref.params.items()}
            value, diag = eval_double_series(ref, -0.8, 0.9)
            assert diag["est_error"] <= 1e-12 * abs(value)
            other, _ = series._sum_by_diagonals(
                ref.info, p, -0.8, 0.9, 1e-15, 600)
            assert abs(value - other) <= 1e-12 * abs(other), kind

    def test_threshold_picks_the_route(self):
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        below = math.nextafter(ROW_ROUTE_X, 0.0)
        _, diag = eval_double_series(ref, below, 0.5)
        assert diag["est_error"] == diag["last_diagonal"]  # diagonal route
        _, diag = eval_double_series(ref, ROW_ROUTE_X, 0.5)
        # the row route sums a block of rows: far more diagonals
        assert diag["diagonals"] > 100

    @pytest.mark.parametrize("kind, x, y, params, budget", [
        # cancels past what the rounding bound allows
        ("Xi2", -0.866, -1.985,
         {"alpha": F(2), "beta": F(4, 5), "gamma": F(8, 5)}, 400),
        # runs out of terms while stepping the rows
        ("Phi1", 0.9, 1.5, REFERENCE_PARAMS["Phi1"], 30),
    ])
    def test_refusal_pins_no_terms(self, kind, x, y, params, budget):
        self._assert_no_terms_in_traceback(
            FunctionRef(kind, params), x, y, budget)

    def test_overflowing_terms_are_refused_quietly(self):
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match="overflowed"):
                eval_double_series(ref, 0.8, 800.0)

    def test_diagonal_refusal_pins_no_terms(self):
        self._assert_no_terms_in_traceback(
            FunctionRef("Phi2", REFERENCE_PARAMS["Phi2"]), 0.5, 0.5, 3)

    @staticmethod
    def _assert_no_terms_in_traceback(ref, x, y, budget):
        with pytest.raises(NoConvergence) as info:
            eval_double_series(ref, x, y, max_diagonal=budget)
        tb = info.value.__traceback__
        frames = 0
        while tb is not None:
            for name, local in tb.tb_frame.f_locals.items():
                assert not isinstance(local, np.ndarray), name
                assert not (isinstance(local, list) and len(local) > 3), name
            frames += 1
            tb = tb.tb_next
        assert frames >= 2  # the test's frame and eval_double_series'


# The single-variable kinds as mpmath functions of (params, x).
MPMATH_SINGLE = {
    "Gauss2F1": lambda mp, p, x: mp.hyp2f1(p["alpha"], p["beta"], p["gamma"], x),
    "Kummer1F1": lambda mp, p, x: mp.hyp1f1(p["alpha"], p["gamma"], x),
    "Bessel0F1": lambda mp, p, x: mp.hyp0f1(p["gamma"], x),
}


@st.composite
def _single_points(draw):
    kind = draw(st.sampled_from(SINGLE_KINDS))
    params = {}
    for slot in KINDS[kind].slots:
        q = draw(st.integers(1, 12))
        low = 1 if slot == "gamma" else -3 * q
        params[slot] = F(draw(st.integers(low, 3 * q)), q)
    reach = 0.97 if KINDS[kind].x_restricted else 60.0
    return kind, params, draw(st.floats(-reach, reach))


class TestEvalSingleSeries:
    @given(point=_single_points())
    @settings(deadline=None, max_examples=60)
    def test_within_estimate_of_mpmath_or_refused(self, point):
        mpmath = pytest.importorskip("mpmath")
        kind, params, x = point
        try:
            value, diag = eval_single_series(kind, params, x)
        except NoConvergence:
            return
        # est_error bounds the float arithmetic at the float parameters;
        # rounding the reference to a float adds at most u |ref|
        with mpmath.workdps(40):
            p = {k: mpmath.mpf(float(v)) for k, v in params.items()}
            ref = float(MPMATH_SINGLE[kind](mpmath, p, mpmath.mpf(x)))
        assert abs(value - ref) <= diag["est_error"] + 2.0 ** -53 * abs(ref), (
            value, ref, diag)

    @pytest.mark.parametrize("kind, params, x, refusal", [
        ("Kummer1F1", SINGLE_PARAMS["Kummer1F1"], 1e5,
         "the terms overflowed at term 90"),
        ("Bessel0F1", SINGLE_PARAMS["Bessel0F1"], 1e9,
         "the terms overflowed at term 48"),
        # mpmath gives 0.10487 and 0.16648; the float sums cancel to
        # -1575.06 and to 9e-10 relative off
        ("Kummer1F1", SINGLE_PARAMS["Kummer1F1"], -50.0, "rounding bound"),
        ("Kummer1F1", SINGLE_PARAMS["Kummer1F1"], -20.0, "rounding bound"),
    ])
    def test_overflow_and_cancellation_are_refused(self, kind, params, x,
                                                   refusal):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NoConvergence, match=refusal):
                eval_single_series(kind, params, x)

    @pytest.mark.parametrize("x, needed", [(0.97, 671), (0.98, 1031),
                                           (0.99, 2139)])
    def test_term_budget_refusal_names_the_terms_needed(self, x, needed):
        params = SINGLE_PARAMS["Gauss2F1"]
        with pytest.raises(NoConvergence, match=(
                f"within 500 terms; the tail bound needs {needed} terms")):
            eval_single_series("Gauss2F1", params, x)
        # and that many are enough
        _, diag = eval_single_series("Gauss2F1", params, x, max_terms=needed)
        assert diag["terms"] <= needed

    def test_gauss_log(self):
        val, _ = eval_single_series(
            "Gauss2F1", {"alpha": 1, "beta": 1, "gamma": 2}, 0.5
        )
        assert abs(val - 1.3862943611198906) < 1e-11

    def test_kummer_exp(self):
        val, _ = eval_single_series("Kummer1F1", {"alpha": 1, "gamma": 1}, 0.7)
        assert abs(val - math.exp(0.7)) < 1e-13

    def test_kummer_at_zero(self):
        val, _ = eval_single_series("Kummer1F1", {"alpha": 3, "gamma": 5}, 0.0)
        assert val == 1.0

    def test_bessel_relation(self):
        # 0F1(; 3/2; -t^2/4) = cos(t) * nothing... use 0F1(;1/2;-t^2/4) = cos t.
        t = 0.9
        val, _ = eval_single_series("Bessel0F1", {"gamma": 0.5}, -t * t / 4)
        assert abs(val - math.cos(t)) < 1e-13

    def test_domain(self):
        with pytest.raises(DomainError):
            eval_single_series("Gauss2F1", {"alpha": 1, "beta": 1, "gamma": 2}, 1.5)


# The node-array kernels by kind: the call, and the reach of their nodes.
KERNELS = {
    "Kummer1F1": (lambda p, z, tol: kummer_arr(p["alpha"], p["gamma"], z, tol),
                  30.0),
    "Bessel0F1": (lambda p, z, tol: bessel_arr(p["gamma"], z, tol), 30.0),
    "Gauss2F1": (lambda p, z, tol: gauss_arr(p["alpha"], p["beta"],
                                             p["gamma"], z, tol), 1.0),
}


def _kernel_params(draw, kind):
    """Rational slot values of a kind, as floats, no denominator at a pole."""
    params = {}
    for slot in KINDS[kind].slots:
        q = draw(st.integers(1, 12))
        v = F(draw(st.integers(-3 * q, 3 * q)), q)
        if slot in KINDS[kind].den_slots and v.denominator == 1 and v <= 0:
            v += F(1, 2)
        params[slot] = float(v)
    return params


@st.composite
def _kernel_nodes(draw, kinds=tuple(KERNELS) + ("Phi1",)):
    kind = draw(st.sampled_from(kinds))
    params = _kernel_params(draw, kind)
    size = draw(st.integers(1, 6))
    if kind == "Phi1":  # |u| < 1 and |u| + |v| <= 1.6
        u = draw(st.lists(st.floats(-1, 1, exclude_min=True, exclude_max=True),
                          min_size=size, max_size=size))
        s = draw(st.lists(st.floats(-1, 1), min_size=size, max_size=size))
        v = [si * (1.6 - abs(ui)) for ui, si in zip(u, s)]
        return kind, params, np.array(u), np.array(v)
    reach = KERNELS[kind][1]
    z = draw(st.lists(st.floats(-reach, reach, exclude_min=reach == 1,
                                exclude_max=reach == 1),
                      min_size=size, max_size=size))
    return kind, params, np.array(z), None


def _kernel(kind, params, u, v, tol):
    if kind == "Phi1":
        return phi1_arr(params["alpha"], params["beta"], params["gamma"],
                        u, v, tol)
    return KERNELS[kind][0](params, u, tol)


class TestNodeArrayKernels:
    @given(case=_kernel_nodes(), tol=st.sampled_from([1e-8, 1e-11, 1e-13]))
    @settings(deadline=None, max_examples=80)
    def test_within_tol_of_mpmath_or_refused(self, case, tol):
        mpmath = pytest.importorskip("mpmath")
        kind, params, u, v = case
        try:
            got = _kernel(kind, params, u, v, tol)
        except NoConvergence:
            return
        bound = tol * max(1.0, np.max(np.abs(got)))
        with mpmath.workdps(40):
            p = {k: mpmath.mpf(val) for k, val in params.items()}
            for i, ui in enumerate(u):
                if kind == "Phi1":
                    ref = mpmath.hyper2d(
                        {"m+n": [p["alpha"]], "m": [p["beta"]]},
                        {"m+n": [p["gamma"]]}, mpmath.mpf(ui),
                        mpmath.mpf(v[i]), maxterms=10 ** 5)
                else:
                    ref = MPMATH_SINGLE[kind](mpmath, p, mpmath.mpf(ui))
                ref = float(ref)
                assert abs(got[i] - ref) <= bound + 2.0 ** -53 * abs(ref), (
                    kind, params, ui, got[i], ref)

    @given(case=_kernel_nodes(tuple(KERNELS)),
           tol=st.sampled_from([1e-8, 1e-11, 1e-13]))
    @settings(deadline=None, max_examples=80)
    def test_one_node_agrees_with_the_scalar_sum(self, case, tol):
        kind, params, z, _ = case
        try:
            got = _kernel(kind, params, z[:1], None, tol)[0]
            want, _ = eval_single_series(kind, params, float(z[0]), tol=tol)
        except NoConvergence:
            return
        assert abs(got - want) <= tol * max(1.0, abs(want)), (got, want)


# float.hex() of the float recurrences' results, pinned so that a change to
# how the term steps are stated cannot move a single bit
GOLDEN_DOUBLE = {  # eval_double_series at (0.4, -0.7): value, est_error
    "Phi1": ("0x1.a20d9518e3b1bp-1", "0x1.475d1c287e7a6p-44"),
    "Phi2": ("0x1.d7950b9de9b9ep-1", "0x1.7da36f23b0adap-53"),
    "Phi3": ("0x1.37eb9ab6e92a7p-1", "0x1.f4ce751281217p-53"),
    "Psi1": ("0x1.9116a8ad8530dp-1", "0x1.c9a8915818e96p-44"),
    "Psi2": ("0x1.a7db5f023387cp-1", "0x1.3c3d1da423787p-50"),
    "Xi1": ("0x1.a35bd0c7bfb38p-1", "0x1.e9873c340ba50p-44"),
    "Xi2": ("0x1.23c32b9b8be5bp-1", "0x1.3277470e6cc20p-45"),
}
GOLDEN_SINGLE = {  # eval_single_series at -0.6
    "Gauss2F1": "0x1.df2a1c1edde84p-1",
    "Kummer1F1": "0x1.9a568831efca6p-1",
    "Bessel0F1": "0x1.290fa2bdb8472p-1",
}
GOLDEN_RAY = {  # ray_coeffs(kind, params, 0.4, -0.3, 0.5)
    "Phi2": [
        "0x1.0000000000000p+0", "0x1.767dce434a9c0p-10", "0x1.ceee7ccd77ff0p-7",
        "0x1.4031afee7baa8p-12", "0x1.6d2b0eed99925p-14", "0x1.543d2146da36ep-19",
        "0x1.2dfd6d66ba44fp-22", "0x1.2d2017c1f52cep-27", "0x1.35816a8db1f66p-31",
        "0x1.2dbfea2a475edp-36", "0x1.b05bddcf981c4p-41", "0x1.8a675ed7af093p-46",
        "0x1.b514b86d7010dp-51", "0x1.6d68ec180de12p-56", "0x1.4d8af31a66c21p-61",
    ],
    "Xi1": [
        "0x1.0000000000000p+0", "-0x1.5dbef96a287a3p-4", "0x1.9c1356033ea6ap-7",
        "-0x1.e723b5cc23716p-14", "0x1.bbf1deddc7ecfp-13", "0x1.7a4631c240eeep-15",
        "0x1.e36775df4bb4bp-17", "0x1.2d17c3ffbc43ep-18", "0x1.85f6dc9e4321dp-20",
        "0x1.0241c2391e1a2p-21", "0x1.5c9a440882f8ap-23", "0x1.ddddab7160e28p-25",
        "0x1.4bc63708dc8d7p-26", "0x1.d1bd8f8c2cc05p-28", "0x1.49f88fa20e7dbp-29",
        "0x1.d75d8b92da573p-31", "0x1.53122f2b05340p-32", "0x1.eae0770d8a00cp-34",
        "0x1.654e8b0e2761ep-35", "0x1.056152cf33cb3p-36", "0x1.8021be386e126p-38",
        "0x1.1b69907fc5dd9p-39", "0x1.a3bf55d5d3f47p-41", "0x1.37e17e5435b83p-42",
    ],
}
GOLDEN_KERNELS = {  # on the nodes linspace(-0.8, 0.8, 5), tol 1e-11
    "kummer_arr": ["0x1.802f06219999dp-1", "0x1.b7f7fb42c6a3ep-1",
                   "0x1.0000000000000p+0", "0x1.2f07ecd722263p+0",
                   "0x1.6d19530fac5aep+0"],
    "bessel_arr": ["0x1.dc0674ec5d393p-2", "0x1.6a23d1f9e7672p-1",
                   "0x1.0000000000000p+0", "0x1.5981f5aa61050p+0",
                   "0x1.c379164b6557fp+0"],
    "gauss_arr": ["0x1.d6bca7b3226acp-1", "0x1.e8a1f64811400p-1",
                  "0x1.0000000000000p+0", "0x1.10e3f0aeeeed0p+0",
                  "0x1.30aae842316a9p+0"],
    "phi1_arr": ["0x1.49e7c0f351dd3p+0", "0x1.1fc94a3571e46p+0",
                 "0x1.0000000000000p+0", "0x1.d1be5a14d6413p-1",
                 "0x1.b761c4afe3ec7p-1"],
}


class TestGoldenBits:
    @pytest.mark.parametrize("kind", sorted(GOLDEN_DOUBLE))
    def test_double_series(self, kind):
        value, diag = eval_double_series(
            FunctionRef(kind, REFERENCE_PARAMS[kind]), 0.4, -0.7
        )
        assert (value.hex(), diag["est_error"].hex()) == GOLDEN_DOUBLE[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_SINGLE))
    def test_single_series(self, kind):
        value, _ = eval_single_series(kind, SINGLE_PARAMS[kind], -0.6)
        assert value.hex() == GOLDEN_SINGLE[kind]

    @pytest.mark.parametrize("kind", sorted(GOLDEN_RAY))
    def test_ray_coeffs(self, kind):
        params = {k: float(v) for k, v in REFERENCE_PARAMS[kind].items()}
        coeffs = ray_coeffs(kind, params, 0.4, -0.3, 0.5)
        assert [c.hex() for c in coeffs] == GOLDEN_RAY[kind]

    def test_node_array_kernels(self):
        z = np.linspace(-0.8, 0.8, 5)
        a, b, c, tol = 0.5, 1 / 3, 1.25, 1e-11
        got = {
            "kummer_arr": kummer_arr(a, c, z, tol),
            "bessel_arr": bessel_arr(c, z, tol),
            "gauss_arr": gauss_arr(a, b, c, z, tol),
            "phi1_arr": phi1_arr(a, b, c, z, z[::-1], tol),
        }
        for name, values in got.items():
            assert [v.hex() for v in values] == GOLDEN_KERNELS[name], name
        # the pinned Phi1 values against mpmath, each within tol, and the
        # |u| = 0.8 ends within 2e-12
        mpmath = pytest.importorskip("mpmath")
        bounds = (2e-12, tol, tol, tol, 2e-12)
        for u, v, value, bound in zip(z, z[::-1], got["phi1_arr"], bounds):
            with mpmath.workdps(30):
                ref = mpmath.hyper2d({"m+n": [a], "m": [b]}, {"m+n": [c]},
                                     mpmath.mpf(u), mpmath.mpf(v))
            assert abs(value - ref) <= bound * abs(ref), (u, v)
