import itertools
from fractions import Fraction
from math import factorial

import pytest

from humbert.catalog import load_catalog
from humbert.errors import PoleError, SignatureError
import humbert.expressions as expressions
from humbert.expressions import (
    _convolution_plan,
    assemble_expression,
    eval_affine,
    expression_symbols,
    parse_affine,
)
from humbert.scalars import as_scalar, pochhammer
from humbert.series import (FunctionRef, TruncatedBiseries, graded_indices,
                            truncated_series)


class TestAffineParser:
    def test_single_symbol(self):
        assert parse_affine("alpha") == (Fraction(0), (("alpha", Fraction(1)),))

    def test_difference(self):
        const, terms = parse_affine("eps - alpha")
        assert const == 0
        assert dict(terms) == {"eps": 1, "alpha": -1}

    def test_leading_minus_and_constant(self):
        const, terms = parse_affine("-beta + 2")
        assert const == 2
        assert dict(terms) == {"beta": -1}

    def test_indices_and_repeats(self):
        const, terms = parse_affine("gamma + i + j - 1")
        assert const == -1
        assert dict(terms) == {"gamma": 1, "i": 1, "j": 1}
        const, terms = parse_affine("i + i")
        assert dict(terms) == {"i": 2}

    def test_whitespace_insensitive(self):
        assert parse_affine("eps-alpha") == parse_affine("eps - alpha")

    @pytest.mark.parametrize(
        "bad", ["", "alpha +", "zeta", "alpha * 2", "3/4x", "alpha beta"]
    )
    def test_rejects_malformed(self, bad):
        with pytest.raises(SignatureError):
            parse_affine(bad)

    def test_eval_affine(self):
        env = {"gamma": Fraction(5, 4), "i": Fraction(2), "j": Fraction(0)}
        assert eval_affine("gamma + i + j - 1", env) == Fraction(9, 4)
        assert eval_affine("2", {}) == 2
        # non-string scalars pass through untouched
        assert eval_affine(Fraction(1, 3), {}) == Fraction(1, 3)

    def test_eval_affine_missing_symbol(self):
        with pytest.raises(SignatureError):
            eval_affine("eps", {"alpha": Fraction(1)})


class TestFunctionTermAssembly:
    def test_plain_kind(self, profile_a):
        term = {
            "type": "function",
            "kind": "Phi2",
            "params": {"beta1": "beta1", "beta2": "beta2", "gamma": "gamma"},
        }
        got = assemble_expression(term, profile_a, degree=5)
        ref = FunctionRef(
            "Phi2",
            {s: profile_a[s] for s in ("beta1", "beta2", "gamma")},
        )
        assert got == truncated_series(ref, 5)

    def test_prefactor_only_term(self, profile_a):
        # kind None with a prefactor is the elementary product
        # (1-x)^(-beta) * e^y
        term = {
            "type": "function",
            "kind": None,
            "params": {},
            "prefactor": {"exp_y": "1", "pow_one_minus_x": "-beta"},
        }
        got = assemble_expression(term, profile_a, degree=6)
        beta = profile_a["beta"]
        from humbert.scalars import pochhammer
        from math import factorial

        for m in range(7):
            for n in range(7 - m):
                expected = (
                    pochhammer(beta, m)
                    / factorial(m)
                    * Fraction(1, factorial(n))
                )
                assert got.coeff(m, n) == expected

    def test_affine_params_with_shift(self, profile_a):
        term = {
            "type": "function",
            "kind": "Kummer1F1",
            "params": {"alpha": "alpha + 1", "gamma": "gamma2"},
            "axis": "y",
        }
        got = assemble_expression(term, profile_a, degree=4)
        from humbert.series import single_series_on_axis

        ref = FunctionRef(
            "Kummer1F1",
            {"alpha": profile_a["alpha"] + 1, "gamma": profile_a["gamma2"]},
        )
        assert got == single_series_on_axis(ref, 4, "y")


class TestSumAssembly:
    def _inner(self):
        return {
            "kind": "Phi2",
            "params": {
                "beta1": "beta1 + i",
                "beta2": "beta2 + j",
                "gamma": "gamma + i + j",
            },
        }

    def test_vanishing_difference_keeps_only_leading_term(self, profile_a):
        # a numerator factor (eps - eps)_{i+j} kills every term but (0, 0)
        sum_expr = {
            "type": "sum",
            "indices": "ij",
            "sign": "+1",
            "num": [{"param": "eps - eps", "index": "i+j"}],
            "den": [],
            "weight": "xy",
            "inner": self._inner(),
        }
        bare = {"type": "function", "kind": "Phi2",
                "params": self._inner()["params"]}
        got = assemble_expression(sum_expr, profile_a, degree=5)
        want = assemble_expression(
            {**bare, "params": {"beta1": "beta1", "beta2": "beta2",
                                "gamma": "gamma"}},
            profile_a, degree=5,
        )
        assert got == want

    def test_weight_x_shifts_only_first_slot(self, profile_a):
        sum_expr = {
            "type": "sum",
            "indices": "i",
            "sign": "+1",
            "num": [{"param": "beta", "index": "i"}],
            "den": [],
            "weight": "x",
            "inner": self._inner(),
        }
        got = assemble_expression(sum_expr, profile_a, degree=3)
        # hand-build the same sum, cell by cell in Fractions
        want = [[Fraction(0)] * (4 - m) for m in range(4)]
        for i in range(4):
            env = dict(profile_a)
            env["i"] = Fraction(i)
            env["j"] = Fraction(0)
            coeff = pochhammer(profile_a["beta"], i) / factorial(i)
            ref = FunctionRef(
                "Phi2",
                {
                    "beta1": profile_a["beta1"] + i,
                    "beta2": profile_a["beta2"],
                    "gamma": profile_a["gamma"] + i,
                },
            )
            piece = truncated_series(ref, 3)
            for m, n in graded_indices(3 - i):
                want[m + i][n] += coeff * piece.coeff(m, n)
        assert got == TruncatedBiseries(3, want)

    def test_alternating_sign(self, profile_a):
        plain = {
            "type": "sum",
            "indices": "i",
            "sign": "+1",
            "num": [{"param": "beta", "index": "i"}],
            "den": [],
            "weight": "y",
            "inner": self._inner(),
        }
        flipped = {**plain, "sign": "(-1)^i"}
        a = assemble_expression(plain, profile_a, degree=3)
        b = assemble_expression(flipped, profile_a, degree=3)
        # terms at odd i enter with opposite sign; their sum and difference
        # recover twice the even / odd parts, so a != b but the (0, *) row
        # of a+b is twice the i=0 piece's row. Check the first mismatch is
        # at the first odd shift.
        mismatch = a.first_mismatch(b)
        assert mismatch is not None
        assert mismatch[0] == 0 and mismatch[1] == 1

    def test_den_pole_raises(self, profile_a):
        params = dict(profile_a)
        params["h"] = Fraction(-2)
        sum_expr = {
            "type": "sum",
            "indices": "i",
            "sign": "+1",
            "num": [{"param": "beta", "index": "i"}],
            "den": [{"param": "h", "index": "i"}],
            "weight": "x",
            "inner": self._inner(),
        }
        with pytest.raises(PoleError):
            assemble_expression(sum_expr, params, degree=4)

    def test_num_zero_skips_term_before_pole(self, profile_a):
        # numerator vanishing at the same index as the denominator pole
        # means the term is dropped, not an error
        params = dict(profile_a)
        params["h"] = Fraction(-2)
        params["g"] = Fraction(-1)
        sum_expr = {
            "type": "sum",
            "indices": "i",
            "sign": "+1",
            "num": [{"param": "g", "index": "i"}],
            "den": [{"param": "h", "index": "i"}],
            "weight": "x",
            "inner": self._inner(),
        }
        # (g)_i = (-1)_i vanishes for i >= 2; (h)_i = (-2)_i vanishes for
        # i >= 3; every i >= 2 term is skipped before the pole at i = 3
        got = assemble_expression(sum_expr, params, degree=4)
        assert got is not None


def _sums_by_inner_kind():
    groups = {}
    for entry in load_catalog():
        rhs = entry["rhs"]
        if rhs["type"] == "sum":
            groups.setdefault(rhs["inner"]["kind"], []).append(entry)
    return dict(sorted(groups.items()))


SUMS_BY_INNER_KIND = _sums_by_inner_kind()
SUM_ENTRIES = [e for group in SUMS_BY_INNER_KIND.values() for e in group]


IJ_SUMS = [e for e in SUM_ENTRIES if e["rhs"].get("indices", "ij") == "ij"]
# the ij sums whose kernel has no (alpha)_{m+n} factor: all but 2.37, 2.58
SEPARABLE_IDS = {"2.36", "2.38", "2.40", "2.43", "2.46", "2.47", "2.50",
                 "2.51", "2.57", "2.61", "2.62", "2.63", "2.65", "2.70"}


def _plan(rhs, params):
    env = {k: as_scalar(v) for k, v in params.items()}
    return _convolution_plan(rhs, env, rhs.get("indices", "ij"),
                             rhs.get("weight", "xy"))


def _sum_at_full_degree(e, params, degree):
    """Reference assembly of a sum: every inner term built at the full
    degree, then scaled, shifted and added cell by cell in Fractions.  Its
    weights are direct Pochhammer products: a term whose numerator vanishes
    is skipped, and the first term in loop order whose denominator alone
    vanishes, or whose inner function hits a pole, raises PoleError."""
    indices = {"i": lambda i, j: i, "j": lambda i, j: j,
               "i+j": lambda i, j: i + j}
    sign = {"+1": lambda i, j: 1, "(-1)^i": lambda i, j: (-1) ** i,
            "(-1)^(i+j)": lambda i, j: (-1) ** (i + j)}[e.get("sign", "+1")]
    if e.get("indices", "ij") == "ij":
        pairs = [(i, j) for i in range(degree + 1) for j in range(degree + 1 - i)]
    else:
        pairs = [(i, 0) for i in range(degree + 1)]
    want = [[Fraction(0)] * (degree + 1 - m) for m in range(degree + 1)]
    for i, j in pairs:
        env = {**params, "i": Fraction(i), "j": Fraction(j)}
        num = Fraction(sign(i, j))
        for f in e.get("num", ()):
            num *= pochhammer(eval_affine(f["param"], env), indices[f["index"]](i, j))
        den = Fraction(factorial(i) * factorial(j))
        for f in e.get("den", ()):
            den *= pochhammer(eval_affine(f["param"], env), indices[f["index"]](i, j))
        si, sj = {"xy": (i, j), "x": (i, 0), "y": (0, i)}[e.get("weight", "xy")]
        if num == 0:
            continue
        if den == 0:
            raise PoleError(
                f"denominator Pochhammer vanishes at (i, j) = ({i}, {j})")
        if si + sj > degree:
            continue
        try:
            inner = assemble_expression(
                {"type": "function", **e["inner"]}, env, degree)
        except PoleError as exc:
            raise PoleError(f"at (i, j) = ({i}, {j}): {exc}") from exc
        for m, n in graded_indices(degree - si - sj):
            want[m + si][n + sj] += num / den * inner.coeff(m, n)
    return TruncatedBiseries(degree, want)


class TestCatalogSums:
    @pytest.mark.parametrize("kind", SUMS_BY_INNER_KIND)
    def test_reduced_degree_assembly(self, kind, profile_a, profile_b):
        # every sum whose inner kind is `kind`, on both generic profiles:
        # the convolution must give the triangle of the full-degree route
        degree = 6
        for entry in SUMS_BY_INNER_KIND[kind]:
            for params in (profile_a, profile_b):
                got = assemble_expression(entry["rhs"], params, degree)
                assert got == _sum_at_full_degree(
                    entry["rhs"], params, degree), entry["id"]

    def test_shipped_sums_take_the_convolution(self, profile_a, profile_b):
        # a silent fall back to the per-term loop would hide the speedup
        assert len(SUM_ENTRIES) == 33
        for entry in SUM_ENTRIES:
            for params in (profile_a, profile_b):
                assert _plan(entry["rhs"], params) is not None, entry["id"]

    @pytest.mark.parametrize("degree", [6, 8])
    def test_ij_sums_meet_the_per_term_route(self, degree, profile_a,
                                             profile_b, monkeypatch):
        # the two one-axis passes and the shared kernel against one inner
        # triangle per (i, j), which runs where no plan is made; the ids
        # the branch's predicate sends to the two passes are recorded
        separable = expressions._separable
        taken = []

        def spy(indices, kernel):
            taken.append(separable(indices, kernel))
            return taken[-1]

        monkeypatch.setattr(expressions, "_separable", spy)
        cases = [(entry, params) for entry in IJ_SUMS
                 for params in (profile_a, profile_b)]
        got = []
        for entry, params in cases:
            got.append(assemble_expression(entry["rhs"], params, degree))
            assert taken.pop() == (entry["id"] in SEPARABLE_IDS), entry["id"]
        assert len(IJ_SUMS) == 16 and not taken
        monkeypatch.setattr(expressions, "_convolution_plan",
                            lambda *args: None)
        for (entry, params), triangle in zip(cases, got):
            assert triangle == assemble_expression(
                entry["rhs"], params, degree), entry["id"]
        assert not taken

    @pytest.mark.parametrize("formula_id, symbol, value, detail", [
        ("2.38", "eps", 0, "at (i, j) = (0, 0): Phi1 parameter gamma = 0 "
                           "is a non-positive integer"),
        ("2.43", "eps", -2, "at (i, j) = (0, 0): Phi2 parameter gamma = -2 "
                            "is a non-positive integer"),
        ("2.56", "eps", -1, "at (i, j) = (0, 0): Psi1 parameter gamma2 = -1 "
                            "is a non-positive integer"),
        ("2.36", "eps", -1, None),
        ("2.37", "eps", -2, None),
        ("2.63", "eps1", 0, None),
    ])
    def test_non_positive_integer_base_falls_back(
            self, profile_a, formula_id, symbol, value, detail):
        # an inner base value at a non-positive integer would put a zero
        # (b)_s in a denominator, so the per-term loop runs: a denominator
        # slot raises the same PoleError as before, a numerator slot
        # terminates the inner series
        rhs = next(e["rhs"] for e in SUM_ENTRIES if e["id"] == formula_id)
        params = {**profile_a, symbol: Fraction(value)}
        assert _plan(rhs, params) is None
        if detail is not None:
            with pytest.raises(PoleError) as exc:
                assemble_expression(rhs, params, 6)
            assert str(exc.value) == detail
        else:
            assert assemble_expression(rhs, params, 6) == \
                _sum_at_full_degree(rhs, params, 6)

    def test_degenerate_profiles_meet_the_direct_products(
            self, profile_a, profile_b):
        # each symbol in turn at 0, -1, -2, -3 makes outer weights vanish,
        # outer denominators vanish and inner slots hit poles; the stepped
        # weights must skip, raise or assemble as the direct products do,
        # with the first PoleError in the outer loop's order
        def outcome(assemble, rhs, params):
            try:
                return assemble(rhs, params, 3)
            except PoleError as exc:
                return str(exc)

        outer_poles = 0
        for entry in SUM_ENTRIES:
            for params, symbol, value in itertools.product(
                    (profile_a, profile_b), entry["symbols"], (0, -1, -2, -3)):
                params = {**params, symbol: Fraction(value)}
                want = outcome(_sum_at_full_degree, entry["rhs"], params)
                assert outcome(assemble_expression, entry["rhs"], params) \
                    == want, (entry["id"], symbol, value)
                outer_poles += str(want).startswith("denominator")
        assert outer_poles == 60

    def test_unaligned_shift_falls_back(self, profile_a):
        # gamma + 2i + j at index m+n is neither aligned nor unshifted
        rhs = next(e["rhs"] for e in SUM_ENTRIES if e["id"] == "2.40")
        rhs = {**rhs, "inner": {**rhs["inner"], "params": {
            **rhs["inner"]["params"], "gamma": "gamma + i + i + j"}}}
        assert _plan(rhs, profile_a) is None
        assert assemble_expression(rhs, profile_a, 5) == \
            _sum_at_full_degree(rhs, profile_a, 5)


class TestExactParameters:
    def test_float_parameter_is_refused_first(self, profile_a):
        # every parameter is coerced before the degree and the schema are
        # checked, so the float is named even where both are bad too
        params = {**profile_a, "beta": 0.5}
        rhs = load_catalog()[0]["rhs"]
        for expr, degree in ((rhs, 4), ({"type": "bogus"}, -1)):
            with pytest.raises(SignatureError) as raised:
                assemble_expression(expr, params, degree)
            assert str(raised.value) == \
                "parameter 'beta' = 0.5 is not an exact rational"


class TestExpressionSymbols:
    def test_collects_from_all_fields(self):
        expr = {
            "type": "sum",
            "indices": "ij",
            "sign": "+1",
            "num": [{"param": "eps - alpha", "index": "i+j"}],
            "den": [{"param": "gamma", "index": "i+j"}],
            "weight": "xy",
            "inner": {
                "kind": "Phi3",
                "params": {"beta": "beta + i", "gamma": "gamma + i + j"},
            },
        }
        assert expression_symbols(expr) == {"alpha", "beta", "eps", "gamma"}

    def test_index_names_excluded(self):
        expr = {
            "type": "function",
            "kind": "Phi3",
            "params": {"beta": "beta + i", "gamma": "gamma"},
        }
        assert "i" not in expression_symbols(expr)
