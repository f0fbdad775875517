import math
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from humbert.catalog import verify_all, verify_formula
from humbert.errors import (
    ArgumentError,
    DomainError,
    HumbertError,
    NoConvergence,
    PoleError,
    SignatureError,
    UnknownFormula,
    UnsupportedTransform,
)
from humbert.expressions import parse_affine
from humbert.profiles import resolved_params
from humbert.quadrature import (
    bessel_arr,
    cross_check,
    eval_integral,
    gauss_arr,
    kummer_arr,
    phi1_arr,
    ray_coeffs,
)
from humbert import series, summation
from humbert.scalars import pochhammer
from humbert.series import (
    BIVARIATE_KINDS,
    KINDS,
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
from humbert.summation import ROW_ROUTE_X

F = Fraction


def poly(degree, entries):
    rows = [[F(0)] * (degree + 1 - m) for m in range(degree + 1)]
    for m, n, c in entries:
        rows[m][n] += F(c)
    return TruncatedBiseries(degree, rows)


def _rows_of(d, cells):
    """The rows of a degree-d triangle whose cells are `cells` in graded
    order."""
    return [[cells[(m + n) * (m + n + 1) // 2 + m] for n in range(d + 1 - m)]
            for m in range(d + 1)]


def _triangle_of_degree(d):
    count = (d + 1) * (d + 2) // 2
    return st.lists(
        st.fractions(min_value=-3, max_value=3, max_denominator=6),
        min_size=count,
        max_size=count,
    ).map(lambda cs: TruncatedBiseries(d, _rows_of(d, cs)))


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

_nonzero_fractions = st.fractions(-4, 4, max_denominator=9).filter(bool)


def _cells(d):
    """The (d+1)(d+2)/2 cells of a degree-d triangle in graded order, about
    half of them 0 and the rest over denominators up to 12."""
    return st.lists(st.one_of(st.just(F(0)),
                              st.fractions(-3, 3, max_denominator=12)),
                    min_size=(d + 1) * (d + 2) // 2,
                    max_size=(d + 1) * (d + 2) // 2)


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

    def test_product_matches_the_fraction_oracle(self):
        # two degree-8 triangles, their cells over distinct denominators
        # with every fifth cell 0, against a product summed cell by cell in
        # Fractions
        N = 8

        def triangle(dens, shift):
            return TruncatedBiseries(N, [
                [F((3 * m - 2 * n + shift) % 11 - 5, dens[(m + n) % 4])
                 if (m + 2 * n) % 5 else F(0) for n in range(N + 1 - m)]
                for m in range(N + 1)])

        s, t = triangle((2, 3, 5, 7), 1), triangle((4, 9, 11, 13), 4)
        want = [[F(0)] * (N + 1 - m) for m in range(N + 1)]
        for m1, n1 in graded_indices(N):
            for m2, n2 in graded_indices(N - m1 - n1):
                want[m1 + m2][n1 + n2] += s.coeff(m1, n1) * t.coeff(m2, n2)
        product = s * t
        assert product == TruncatedBiseries(N, want)
        for m, n in graded_indices(N):
            c = product.coeff(m, n)
            assert type(c) is F and math.gcd(c.numerator, c.denominator) == 1

    def test_difference_matches_the_fraction_oracle(self):
        a = poly(2, [(0, 0, F(1, 2)), (1, 0, F(2, 3)), (0, 2, 5)])
        b = poly(2, [(0, 0, F(1, 3)), (1, 0, F(2, 3)), (1, 1, F(-1, 7))])
        want = [[a.coeff(m, n) - b.coeff(m, n) for n in range(3 - m)]
                for m in range(3)]
        assert a - b == TruncatedBiseries(2, want)
        assert (a - b).coeff(1, 0) == 0 and (a - a) == TruncatedBiseries.zero(2)

    @given(cells=st.integers(0, 5).flatmap(lambda d: st.tuples(
        st.just(d), _cells(d), _cells(d), _nonzero_fractions)))
    @settings(deadline=None, max_examples=60)
    def test_equal_triangles_store_equal_integers(self, cells):
        # a triangle from Fraction rows, the same one as a sum of two parts
        # and as a shifted_sum of scaled parts over a weight denominator:
        # each is == and hash-equal to the others
        d, whole, part, w = cells
        rows = _rows_of(d, whole)
        a = TruncatedBiseries(d, _rows_of(d, part))
        b = TruncatedBiseries(d, [[c - a.coeff(m, n) for n, c in enumerate(row)]
                                  for m, row in enumerate(rows)])
        got = [TruncatedBiseries(d, rows), a + b] + [
            TruncatedBiseries.shifted_sum(
                d, [(w * k, 0, 0, a.scale(1 / w)), (k, 0, 0, b)], den=k)
            for k in (1, 6)]
        for t in got[1:]:
            assert t == got[0] and hash(t) == hash(got[0])

    @given(cells=st.integers(0, 6).flatmap(lambda d: st.tuples(
        st.just(d), _cells(d),
        st.dictionaries(st.integers(0, (d + 1) * (d + 2) // 2 - 1),
                        _nonzero_fractions, max_size=2))))
    @settings(deadline=None, max_examples=100)
    def test_first_mismatch_meets_a_cellwise_scan(self, cells):
        # two triangles over different denominators that differ in at most
        # two cells anywhere in the triangle, against a Fraction scan in
        # graded order
        d, base, moved = cells
        other = [c + moved.get(k, 0) for k, c in enumerate(base)]
        s = TruncatedBiseries(d, _rows_of(d, base))
        t = TruncatedBiseries(d, _rows_of(d, other))
        want = next(((m, n, s.coeff(m, n), t.coeff(m, n))
                     for m, n in graded_indices(d)
                     if s.coeff(m, n) != t.coeff(m, n)), None)
        assert s.first_mismatch(t) == want
        if want is not None:
            assert all(type(c) is F for c in want[2:])

    def test_float_cells_are_refused(self):
        with pytest.raises(SignatureError) as raised:
            TruncatedBiseries(1, [[0.5, 1], [1]])
        assert str(raised.value) == \
            "coefficient (0, 0) = 0.5 is not an exact rational"
        assert TruncatedBiseries(1, [["1/2", 1], [F(2, 4)]]).coeff(1, 0) == \
            F(1, 2)

    @pytest.mark.parametrize("op", ["__add__", "__sub__", "__mul__",
                                    "first_mismatch"])
    def test_degree_bounds_must_match(self, op):
        with pytest.raises(ValueError) as raised:
            getattr(TruncatedBiseries.one(2), op)(TruncatedBiseries.one(3))
        assert str(raised.value) == "degree bounds differ: 2 vs 3"

    def test_scalar_factors_are_exact(self):
        s = poly(2, [(0, 0, 1), (1, 1, F(2, 3))])
        assert s * F(3, 2) == poly(2, [(0, 0, F(3, 2)), (1, 1, 1)])
        assert 2 * s == s.scale(2) == poly(2, [(0, 0, 2), (1, 1, F(4, 3))])
        for factor in (s.scale, s.__mul__, s.__rmul__):
            with pytest.raises(SignatureError) as raised:
                factor(0.5)
            assert str(raised.value) == "factor = 0.5 is not an exact rational"


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

    def test_refusal_texts(self):
        for kind, params, error, text in [
            ("Nope", {"alpha": 1}, SignatureError, "unknown kind 'Nope'"),
            ("Phi1", {"alpha": 1, "beta": 1, "eps": 1}, SignatureError,
             "Phi1 needs exactly ('alpha', 'beta', 'gamma'); "
             "missing ['gamma'], extra ['eps']"),
            ("Phi1", {"alpha": 1, "beta": 1, "gamma": -2}, PoleError,
             "Phi1 parameter gamma = -2 is a non-positive integer"),
        ]:
            with pytest.raises(error) as raised:
                FunctionRef(kind, params)
            assert str(raised.value) == text

    def test_equal_refs_compare_and_hash_equal(self):
        ref = FunctionRef("Phi1", {"alpha": 1, "beta": "1/2", "gamma": 3})
        same = FunctionRef("Phi1", {"gamma": F(3), "beta": 0.5, "alpha": 1})
        other = FunctionRef("Phi1", {"alpha": 1, "beta": "1/2", "gamma": 4})
        assert ref == same and hash(ref) == hash(same)
        assert len({ref, same, other}) == 2
        assert ref != other and hash(ref) == hash(other)  # kind alone
        assert ref != FunctionRef("Xi2", {"alpha": 1, "beta": "1/2",
                                          "gamma": 3})
        assert repr(ref) == (
            "FunctionRef(kind='Phi1', params={'alpha': Fraction(1, 1), "
            "'beta': Fraction(1, 2), 'gamma': Fraction(3, 1)})")

    def test_a_ref_is_read_only(self):
        ref = FunctionRef("Phi2", REFERENCE_PARAMS["Phi2"])
        for name in ("kind", "params", "other"):
            with pytest.raises(AttributeError):
                setattr(ref, name, None)
            with pytest.raises(AttributeError):
                delattr(ref, name)
        assert ref.kind == "Phi2" and not hasattr(ref, "__dict__")


class TestKindInfo:
    def test_a_kind_is_read_only(self):
        info = KINDS["Psi1"]
        slots, ratio_x = info.slots, info.ratio_x
        for name in ("name", "num", "x_restricted", "slots", "ratio_y"):
            with pytest.raises(AttributeError):
                setattr(info, name, None)
            with pytest.raises(AttributeError):
                delattr(info, name)
        assert info.name == "Psi1" and info.x_restricted
        assert info.slots is slots and info.ratio_x is ratio_x
        assert slots == ("alpha", "beta", "gamma1", "gamma2")
        assert info.den_slots == ("gamma1", "gamma2")


class TestNonFiniteParameters:
    # refused before any summation: an infinite gamma used to give 1F1 = 1
    # with est_error 3.3e-16, and a NaN alpha a Phi1 refusal that blamed
    # overflowing terms
    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_single_series_refuses(self, value):
        with pytest.raises(SignatureError, match="not a finite parameter"):
            eval_single_series("Kummer1F1", {"alpha": 1.0, "gamma": value},
                               0.5)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_double_series_refuses(self, value):
        with pytest.raises(SignatureError, match="not a finite parameter"):
            eval_double_series(FunctionRef(
                "Phi1", {"alpha": value, "beta": 0.5, "gamma": 1.25}),
                0.3, 0.2)


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
        den, terms = step_signature((("a", "m"), ("h", "n")), (("b", "m"),),
                                    p, 4)
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
                assert F(next(terms), den) == want, (m, n)
        assert stop is None

    @given(signature=_signatures, degree=st.integers(0, 8),
           bivariate=st.booleans(), factorial=st.booleans())
    @settings(deadline=None, max_examples=150)
    def test_exact_steps_meet_the_direct_products(
            self, signature, degree, bivariate, factorial):
        # the integer stepper against pochhammer products cell by cell: a
        # cell's numerator over D is 0 where its numerator product is, its
        # quotient where neither product vanishes (an inexact step division
        # would miss it), and the first cell in row order whose
        # denominator product alone vanishes raises the pole
        num, den, p, first = signature
        D, terms = step_signature(num, den, p, degree, first, bivariate,
                                  factorial)
        assert type(D) is int and D > 0
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
                assert type(got) is int
                assert F(got, D) == (top and top / bottom), (m, n)
        assert next(terms, None) is None

    @pytest.mark.parametrize("kind, params, axis, text", [
        ("Phi1", {"alpha": 0.5, "beta": F(1, 3), "gamma": F(5, 4)}, None,
         "Phi1 parameter alpha = 0.5"),
        ("Psi2", {"alpha": F(1, 2), "gamma1": F(6, 5), "gamma2": 1.25}, None,
         "Psi2 parameter gamma2 = 1.25"),
        ("Kummer1F1", {"alpha": F(1, 2), "gamma": 1.25}, "x",
         "Kummer1F1 parameter gamma = 1.25"),
        ("Bessel0F1", {"gamma": 0.75}, "y",
         "Bessel0F1 parameter gamma = 0.75"),
    ])
    def test_float_parameters_are_refused(self, kind, params, axis, text):
        # the float series take float parameters; the triangles do not
        ref = FunctionRef(kind, params)
        with pytest.raises(SignatureError) as raised:
            if axis is None:
                truncated_series(ref, 4)
            else:
                single_series_on_axis(ref, 4, axis)
        assert str(raised.value) == f"{text} is not an exact rational"

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
    sx, sy = (TruncatedBiseries(N, [[image(m, n) for n in range(N + 1 - m)]
                                    for m in range(N + 1)])
              for image in (x_images[tx], y_images[ty]))
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
    binomial = TruncatedBiseries(
        N, [[P(-p, m) / fact(m)] + [F(0)] * (N - m) for m in range(N + 1)])
    exp = TruncatedBiseries(
        N, [[c ** n / fact(n) for n in range(N + 1)]]
        + [[F(0)] * (N + 1 - m) for m in range(1, N + 1)])
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

    @pytest.mark.parametrize("key", series.PREFACTORS)
    def test_float_prefactors_are_refused(self, key):
        with pytest.raises(SignatureError) as raised:
            substitute_args(TruncatedBiseries.one(3), "identity", "identity",
                            **{key: 0.5})
        assert str(raised.value) == f"{key} = 0.5 is not an exact rational"

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
        assert diag["value"] == diag.value
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
        # k + 1 terms of each of its diagonals.  diagonal_terms steps the
        # same point as one ray, each diagonal a (k + 1,) array by m
        ref = FunctionRef(kind, REFERENCE_PARAMS[kind])
        p = {k: float(v) for k, v in ref.params.items()}
        want = list(per_term_diagonals(ref.info, p, x, y, 150))
        for k, got in enumerate(
                summation.diagonal_terms(ref.info, p, x, y, 150), 1):
            assert got.shape == (k + 1,)
            assert [t.hex() for t in got] == [t.hex() for t in want[k - 1]], k
        assert k == 150
        widths = []
        for k0, band, live in summation._bands(ref.info, p, x, y, 150):
            widths.append(len(band))
            assert live.shape == band.shape
            for j in range(len(band)):
                got = band[j][live[j]]
                assert len(got) == k0 + j + 2
                assert [t.hex() for t in got] == [
                    t.hex() for t in want[k0 + j][::-1]], k0 + j + 1
        assert widths[:4] == [summation.BAND] * 3 + [31]
        assert sum(widths) == 150

    @pytest.mark.parametrize("budget", [0, 1, 31, 32, 33, 40])
    def test_budget_is_kept(self, budget, monkeypatch):
        bands = []
        band = summation._band

        def spy(info, p, x, y, last, width):
            bands.append((len(last) - 1, width))
            return band(info, p, x, y, last, width)

        monkeypatch.setattr(summation, "_band", spy)
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
        assert bool(bands) == (budget > 0)

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
        assert diagonal <= summation.BAND

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
                summation.diagonal_terms(info, p, x, y, 60), 1):
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


_NON_FINITE = (math.inf, -math.inf, math.nan)


@st.composite
def _certificate_cases(draw):
    """(terms, total): k + 1 terms of one diagonal, their exponents within
    a few units or spread over +-300, subnormals among them, now and then
    pairs that cancel, a run of terms each below half an ulp of the first
    or a non-finite term, and a finite running total, sometimes near the
    sum's size or one that puts total + fsum(terms) on a rounding
    midpoint."""
    spread = draw(st.sampled_from((4, 60, 300)))
    base = draw(st.integers(-1074 + spread, 1000 - spread))
    term = st.one_of(
        st.builds(math.ldexp, st.floats(-1.0, 1.0),
                  st.integers(base - spread, base + spread)),
        st.builds(lambda n: n * 5e-324, st.integers(-2 ** 52, 2 ** 52)),
        st.floats(allow_nan=False, allow_infinity=False))
    terms = draw(st.lists(term, min_size=1, max_size=40))
    if draw(st.booleans()):  # cancel: each term's negation, nearly
        terms += [-t * draw(st.sampled_from((1.0, 1.0 + 2 ** -52)))
                  for t in terms]
    if draw(st.booleans()):  # a run that each addition rounds away
        terms += [terms[0] * 2.0 ** -53] * draw(st.integers(2, 30))
    if draw(st.integers(0, 9)) == 0:
        terms.insert(draw(st.integers(0, len(terms))),
                     draw(st.sampled_from(_NON_FINITE)))
    terms = draw(st.permutations(terms))
    try:
        exact = math.fsum(terms)
    except (OverflowError, ValueError):
        exact = math.nan
    total = draw(st.floats(allow_nan=False, allow_infinity=False))
    if math.isfinite(exact) and draw(st.booleans()):
        # within a few binades of the sum, where its rounding counts; the
        # shift stops where exact 2^shift would pass the largest float
        top = min(8, 1024 - math.frexp(exact)[1])
        total = math.ldexp(exact, draw(st.integers(-4, top)))
    if math.isfinite(exact) and exact and draw(st.booleans()):
        # total = M 2^(b+1) with M of 53 bits, b the exponent of the lowest
        # bit of fsum(terms): total + fsum(terms) is halfway between floats
        # while it stays in total's binade
        b = math.frexp(exact)[1] - 53
        while math.ldexp(exact, -b) % 2 == 0:
            b += 1
        mantissa = draw(st.integers(2 ** 52, 2 ** 53 - 1))
        sign = draw(st.sampled_from((1, -1)))
        if b + 54 < 1024:
            total = sign * math.ldexp(mantissa, b + 1)
    return terms, total


class TestCertifiedAdd:
    """`summation._certified_add`: total + math.fsum(terms) bit for bit, or
    None, from the terms' sum and sum of |t| in NumPy's order."""

    @staticmethod
    def _band_sums(terms):
        # one masked row beside garbage, as a band holds its diagonals
        row = np.array([terms + [math.nan, math.inf]])
        live = np.arange(row.shape[1]) < len(terms)
        with np.errstate(over="ignore", invalid="ignore"):
            return (float(row.sum(axis=1, where=live)[0]),
                    float(np.abs(row).sum(axis=1, where=live)[0]))

    @given(case=_certificate_cases())
    @example(case=([1e308], 1.7e308))  # both ends round to inf
    @example(case=([2.0 ** -53, 2.0 ** -106], 1.0))  # just past a midpoint
    @example(case=([1.0] + [2.0 ** -53] * 6, 4.0))  # s = 1, off by 6u
    @settings(deadline=None, max_examples=400)
    def test_none_or_fsum_bits(self, case):
        terms, total = case
        s, m = self._band_sums(terms)
        got = summation._certified_add(total, s, m, len(terms) - 1)
        try:
            want = total + math.fsum(terms)
        except (OverflowError, ValueError):
            want = math.nan
        if not math.isfinite(want):
            assert got is None
        elif got is not None:
            assert got.hex() == want.hex()

    def test_a_small_diagonal_is_decided(self):
        # one whose bound is far below half an ulp of the total; a diagonal
        # near the total's size is not, as its bound spans several ulps
        terms = [1e-6, 2e-6, 3e-6]
        got = summation._certified_add(1.0, *self._band_sums(terms), 2)
        assert got == 1.0 + math.fsum(terms)
        terms = [0.1, 0.2, 0.3]
        assert summation._certified_add(1.0, *self._band_sums(terms), 2) \
            is None

    def test_fsum_runs_only_where_in_doubt(self, monkeypatch):
        # an interior sum of 13 diagonals reaches fsum for its first
        # diagonal, which is near the total's size, and for est_error alone
        calls = []
        fsum = math.fsum
        monkeypatch.setattr(math, "fsum", lambda t: calls.append(1) or fsum(t))
        ref = FunctionRef("Phi2", REFERENCE_PARAMS["Phi2"])
        value, diag = eval_double_series(ref, 0.3, -0.4)
        assert (diag.diagonals, len(calls)) == (13, 2)


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
            other, _ = summation._sum_by_diagonals(
                ref.info, p, -0.8, 0.9, 1e-15, 600)
            assert abs(value - other) <= 1e-12 * abs(other), kind

    def test_threshold_picks_the_route(self, monkeypatch):
        ref = FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"])
        by_rows = summation.sum_by_rows
        calls = []
        monkeypatch.setattr(summation, "sum_by_rows",
                            lambda *args: calls.append(args) or by_rows(*args))
        below = math.nextafter(ROW_ROUTE_X, 0.0)
        _, diag = eval_double_series(ref, below, 0.5)
        assert not calls  # diagonal route
        _, diag = eval_double_series(ref, ROW_ROUTE_X, 0.5)
        assert len(calls) == 1
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


# (id, the argument's name, a call of it with the other arguments fixed, an
# int in the domain); p holds 4.1's float parameters
REAL_ARGUMENTS = [
    ("Kummer1F1-x", "x", lambda v, p: eval_single_series(
        "Kummer1F1", {"alpha": 1, "gamma": 2}, v), 1),
    ("Gauss2F1-x", "x", lambda v, p: eval_single_series(
        "Gauss2F1", SINGLE_PARAMS["Gauss2F1"], v), 0),
    ("Phi1-x", "x", lambda v, p: eval_double_series(
        FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"]), v, 0.2), 0),
    ("Phi1-y", "y", lambda v, p: eval_double_series(
        FunctionRef("Phi1", REFERENCE_PARAMS["Phi1"]), 0.3, v), -2),
    ("4.1-x", "x", lambda v, p: eval_integral("4.1", p, v, 0.2), 0),
    ("4.1-y", "y", lambda v, p: eval_integral("4.1", p, 0.3, v), -2),
]

# (id, a call with one malformed argument, the error it raises); the
# verifiers return their reports, each an error report naming it
MALFORMED_ARGUMENTS = [
    ("FunctionRef", lambda: FunctionRef("Phi1", [1, 2]), SignatureError),
    ("verify_formula", lambda: [verify_formula("2.36", [1])], SignatureError),
    ("verify_all", lambda: verify_all([1], degree=2), SignatureError),
    ("eval_integral", lambda: eval_integral("4.1", [1], 0.1, 0.2),
     SignatureError),
    ("truncated_series", lambda: truncated_series("Phi1", 3), SignatureError),
    ("eval_double_series", lambda: eval_double_series("Phi1", 0.1, 0.2),
     SignatureError),
    ("parse_affine", lambda: parse_affine(2.5), SignatureError),
    ("cross_check", lambda: cross_check(2.5, {}), UnknownFormula),
    ("cross_check-params", lambda: cross_check("4.1", [1]), SignatureError),
    ("eval_integral-rep", lambda: eval_integral(["4.1"], {}, 0.1, 0.2),
     UnknownFormula),
]


class TestArgumentTypes:
    """The float entry points take a real argument as the float it
    denotes, and a malformed argument anywhere is one of the package's own
    errors, never a bare AttributeError or TypeError."""

    @pytest.mark.parametrize("name, call, n",
                             [case[1:] for case in REAL_ARGUMENTS],
                             ids=[case[0] for case in REAL_ARGUMENTS])
    def test_a_real_argument_is_the_float_it_denotes(self, name, call, n,
                                                     config):
        p = resolved_params("generic-A", "4.1", config)
        for v in (n, F(1, 4), F(-1, 3)):
            # repr writes every float of the result exactly
            assert repr(call(v, p)) == repr(call(float(v), p)), v
        for bad in ("a", None, True, 1j):
            with pytest.raises(ArgumentError,
                               match=f"^{name} must be a real number, got "):
                call(bad, p)

    @pytest.mark.parametrize("call, error",
                             [case[1:] for case in MALFORMED_ARGUMENTS],
                             ids=[case[0] for case in MALFORMED_ARGUMENTS])
    def test_a_malformed_argument_is_a_package_error(self, call, error):
        try:
            reports = call()
        except HumbertError as exc:
            assert type(exc) is error
        else:
            assert isinstance(reports, list) and reports
            for report in reports:
                assert report.status == "error"
                assert report.detail.startswith(f"{error.__name__}: ")
