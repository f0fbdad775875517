import json
import math
from fractions import Fraction

import numpy as np
import pytest

from humbert.errors import (
    ConstraintViolation,
    DomainError,
    HumbertError,
    NoConvergence,
    SignatureError,
    UnknownFormula,
)
from humbert.profiles import resolved_params
from humbert.quadrature import (
    CORRECTED,
    REP_IDS,
    REPS,
    QuadratureSpec,
    _axis_weights,
    _kernel,
    _level,
    _nodes,
    cross_check,
    default_grid,
    default_tolerance,
    eval_integral,
    gauss_arr,
    integrate_beta_kernel,
    kummer_arr,
    phi1_arr,
    poly_arr,
    ray_coeffs,
    series_value,
)
from humbert import quadrature
from humbert.series import FunctionRef, eval_double_series, eval_single_series


class TestBetaSuite:
    @pytest.mark.parametrize("a", [0.25, 0.5, 1.0, 1.5, 2.5])
    @pytest.mark.parametrize("b", [0.25, 0.5, 1.0, 1.5, 2.5])
    def test_beta_to_1e12(self, a, b):
        value, diag = integrate_beta_kernel(a, b)
        exact = math.exp(
            math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
        )
        assert abs(value - exact) / exact < 1e-12
        assert diag["est_error"] <= 1e-10

    def test_rejects_nonintegrable_endpoint(self):
        with pytest.raises(ConstraintViolation):
            integrate_beta_kernel(0.0, 1.0)


# every representation as printed, and the corrected 4.14
ALL_REPS = [REPS[r] for r in REP_IDS] + [CORRECTED["4.14"]]
ALL_REP_IDS = REP_IDS + ("4.14-corrected",)


class TestSpotOracles:
    @pytest.mark.parametrize("profile", ["generic-A", "generic-B"])
    @pytest.mark.parametrize("rep", ALL_REPS, ids=ALL_REP_IDS)
    def test_normalization_at_origin(self, rep, profile, config):
        # at (0, 0) every integrand reduces to its Beta kernel, so the
        # prefactor derived from the kernel must normalise it to 1
        params = resolved_params(profile, rep.id, config)
        value, _ = eval_integral(rep, params, 0.0, 0.0)
        assert abs(value - 1.0) < 1e-13

    def test_reduces_to_gauss_on_axis(self):
        params = {"alpha": 0.5, "beta": 1 / 3, "gamma": 1.25}
        value, _ = eval_integral("4.1", params, 0.4, 0.0)
        series, _ = eval_single_series("Gauss2F1", params, 0.4)
        assert abs(value - series) / abs(series) < 1e-9

    def test_limit_confluent_factor_spot(self):
        params = {"alpha": 0.5, "beta": 1 / 3, "gamma": 1.25}
        value, _ = eval_integral("4.5", params, 0.3, 0.2)
        target = series_value(REPS["4.5"], params, 0.3, 0.2)
        assert abs(value - target) / abs(target) < 1e-8

    def test_double_integral_grid_spot(self):
        params = {"alpha": 1 / 3, "eps": 0.75, "gamma": 1.5, "beta": 0.2}
        worst = 0.0
        for gx in (0.05, 0.2, 0.35):
            for gy in (0.05, 0.2, 0.35):
                value, _ = eval_integral("4.8", params, gx, gy)
                target = series_value(REPS["4.8"], params, gx, gy)
                worst = max(worst, abs(value - target) / abs(target))
        assert worst < 1e-8

    def test_kernel_product_spot(self):
        params = {"alpha": 0.25, "beta": 1 / 3, "gamma": 2.0, "eps1": 0.75}
        value, _ = eval_integral("4.19", params, 0.3, 0.2)
        target = series_value(REPS["4.19"], params, 0.3, 0.2)
        assert abs(value - target) / abs(target) < 1e-8


class TestCrossCheckSweep:
    def test_direct_reps_to_1e8(self, config):
        for rep_id in ("4.1", "4.2", "4.3", "4.4", "4.5"):
            params = resolved_params("generic-A", rep_id, config)
            report = cross_check(rep_id, params)
            assert report.status == "pass", report.to_json()
            assert report.numeric["max_rel_error"] < 1e-8
            assert len(report.settings["grid"]) == 3

    @pytest.mark.parametrize(
        "rep_id", [f"4.{k}" for k in range(6, 21)]
    )
    def test_composite_reps_as_adjudicated(self, rep_id, config):
        params = resolved_params("generic-A", rep_id, config)
        report = cross_check(rep_id, params)
        if rep_id in ("4.14", "4.15"):
            assert report.status == "fail", report.to_json()
            assert report.numeric["worst_point"] is not None
            assert report.numeric["max_rel_error"] > 1e-3
        else:
            assert report.status == "pass", report.to_json()
            assert report.numeric["max_rel_error"] < 1e-7

    def test_repeated_reports_share_their_settings(self, config):
        # a repeated cross-check keeps one small record per run: equal
        # grid, spec and variant give the same settings dict, the worst
        # point is the grid's own tuple, and the JSON is the dict form
        params = resolved_params("generic-A", "4.14", config)
        grid = [[0.2, 0.35]]
        first = cross_check("4.14", params, grid=grid,
                            spec=QuadratureSpec())
        again = cross_check("4.14", params, grid=((0.2, 0.35),))
        assert again.settings is first.settings
        assert first.settings["grid"] == ((0.2, 0.35),)
        assert first.numeric["worst_point"] is first.settings["grid"][0]
        assert first.numeric.get("quad_level") == first.numeric.quad_level
        assert first.numeric.get("missing", "none") == "none"
        with pytest.raises(KeyError):
            first.numeric["count"]
        numeric = json.loads(first.to_json())["numeric"]
        assert numeric == {**dict(first.numeric), "worst_point": [0.2, 0.35]}
        assert sorted(numeric) == ["max_rel_error", "quad_level",
                                   "tolerance", "worst_point"]

    def test_equal_caller_grids_share_the_worst_point(self, config):
        # a caller's grid is rebuilt as a tuple, but the report keeps the
        # shared settings' point, not a fresh pair per call
        params = resolved_params("generic-A", "4.15", config)
        reports = [cross_check("4.15", params, grid=[[0.1, 0.2], [0.3, 0.35]])
                   for _ in range(2)]
        first, again = (r.numeric["worst_point"] for r in reports)
        assert first is again
        assert any(first is pt for pt in reports[0].settings["grid"])

    def test_profile_b_same_adjudication(self, config):
        for rep_id in ("4.6", "4.10", "4.14", "4.16"):
            params = resolved_params("generic-B", rep_id, config)
            report = cross_check(rep_id, params)
            expected = "fail" if rep_id == "4.14" else "pass"
            assert report.status == expected, report.to_json()


class TestDiagnosedCorrections:
    def test_corrected_inner_denominator_heals_4_14(self, config):
        # the report names the representation that ran: its id and its
        # variant come from the corrected rep, not from the caller
        params = resolved_params("generic-A", "4.14", config)
        report = cross_check(CORRECTED["4.14"], params)
        assert report.target == "4.14"
        assert report.settings["variant"] == "corrected"
        assert report.status == "pass", report.to_json()
        assert report.numeric["max_rel_error"] < 1e-10
        assert CORRECTED["4.14"].kernel == REPS["4.14"].kernel

    def test_4_15_closes_exactly_when_eps_is_gamma2(self, config):
        params = resolved_params("generic-A", "4.15", config)
        params["eps"] = params["gamma2"]
        report = cross_check("4.15", params)
        assert report.status == "pass", report.to_json()
        assert report.settings["variant"] == "as-printed"

    def test_4_15_fails_for_generic_eps_on_y_axis_only(self, config):
        # the defect is in the second variable: the x-axis restriction
        # holds, the first y coefficient already disagrees
        params = {k: float(v) for k, v in
                  resolved_params("generic-A", "4.15", config).items()}
        value, _ = eval_integral("4.15", params, 0.3, 0.0)
        target = series_value(REPS["4.15"], params, 0.3, 0.0)
        assert abs(value - target) / abs(target) < 1e-9
        value, _ = eval_integral("4.15", params, 0.0, 0.3)
        target = series_value(REPS["4.15"], params, 0.0, 0.3)
        assert abs(value - target) / abs(target) > 1e-3


class TestConsistencyLadder:
    def test_parameter_split_reps_agree(self, config):
        # two different auxiliary-parameter insertions of the same function
        # must agree with each other wherever both are valid
        pa = resolved_params("generic-A", "4.6", config)
        pb = resolved_params("generic-A", "4.7", config)
        for x, y in ((0.25, 0.3), (0.1, -0.2)):
            va, _ = eval_integral("4.6", pa, x, y)
            vb, _ = eval_integral("4.7", pb, x, y)
            assert abs(va - vb) / abs(va) < 1e-9

    def test_aux_equal_to_alpha_reduces_to_direct_rep(self, config):
        params = resolved_params("generic-A", "4.6", config)
        params["eps"] = params["alpha"]
        v_reduced, _ = eval_integral("4.6", params, 0.3, 0.25)
        v_direct, _ = eval_integral("4.1", params, 0.3, 0.25)
        assert abs(v_reduced - v_direct) / abs(v_direct) < 1e-11


class TestRefinementBehavior:
    def test_monotone_refinement_once_converging(self):
        params = {"alpha": 0.5, "beta": 1 / 3, "gamma": 1.25}
        spec = QuadratureSpec(start_level=4, max_level=12, rtol=1e-13)
        _, diag = eval_integral("4.1", params, 0.35, 0.4, spec)
        history = diag["history"]
        below = [e for e in history if e < 1e-4]
        assert below == sorted(below, reverse=True) or len(below) <= 1

    def test_2d_monotone_refinement(self, config):
        params = {k: float(v) for k, v in
                  resolved_params("generic-A", "4.2", config).items()}
        spec = QuadratureSpec(start_level=4, max_level=12, rtol=1e-12)
        _, diag = eval_integral("4.2", params, 0.3, 0.3, spec)
        below = [e for e in diag["history"] if e < 1e-4]
        assert below == sorted(below, reverse=True) or len(below) <= 1

    def test_nonconvergence_when_no_refinement_allowed(self):
        params = {"alpha": 0.5, "beta": 1 / 3, "gamma": 1.25}
        spec = QuadratureSpec(start_level=6, max_level=6, rtol=1e-10)
        with pytest.raises(NoConvergence):
            eval_integral("4.1", params, 0.2, 0.2, spec)


    @pytest.mark.parametrize("rep_id", REP_IDS)
    def test_default_start_matches_deeper_start(self, rep_id, config):
        # the default starts at level 3; a start at level 5 is the
        # reference the default must reproduce to round-off
        params = resolved_params("generic-A", rep_id, config)
        pt = default_grid(rep_id)[0]
        value, diag = eval_integral(rep_id, params, *pt)
        ref, _ = eval_integral(rep_id, params, *pt,
                               QuadratureSpec(start_level=5))
        assert abs(value - ref) <= 1e-13 * abs(ref)
        assert diag["final_level"] <= 5
        report = cross_check(rep_id, params, grid=(pt,))
        assert report.numeric["quad_level"] == diag["final_level"]


class TestNestedLevels:
    # level L's nodes are level L + 1's even-indexed nodes, which lets one
    # evaluation at level L + 1 give both values a refinement step compares
    KERNELS = [(0.5, 0.75, 0.3), (1.0, 1.0, 0.0), (2.5, 0.25, 0.1),
               (0.01, 3.0, -1.0), (600.0, 2.5, 15.7)]

    @pytest.mark.parametrize("level", range(9))
    def test_even_nodes_are_the_level_below(self, level):
        coarse, fine = _nodes(level), _nodes(level + 1)
        for name in ("xi", "omx", "log_xi", "log_omx", "logw"):
            assert np.array_equal(getattr(fine, name)[::2],
                                  getattr(coarse, name)), name
        assert fine.h == 0.5 * coarse.h

    @pytest.mark.parametrize("level", range(9))
    def test_even_weights_are_half_the_level_below(self, level):
        # bit for bit while the weight is a normal float; a subnormal one
        # is rounded twice on the coarse side, and may differ by one unit
        tiny, unit = np.finfo(float).tiny, math.ldexp(1.0, -1074)
        for kernel in self.KERNELS:
            half = 0.5 * _axis_weights(_nodes(level), *kernel)
            even = _axis_weights(_nodes(level + 1), *kernel)[::2]
            normal = half >= tiny
            assert np.array_equal(even[normal], half[normal]), kernel
            assert np.all(np.abs(even - half) <= unit), kernel

    def test_one_evaluation_per_refinement_step(self, config, monkeypatch):
        # a point that stops at level 4 evaluates level 4 only
        levels = []
        real_nodes = quadrature._nodes

        def record(level):
            levels.append(level)
            return real_nodes(level)

        monkeypatch.setattr(quadrature, "_nodes", record)
        params = resolved_params("generic-A", "4.2", config)
        _, diag = eval_integral("4.2", params, 0.3, 0.2)
        assert diag["final_level"] == 4
        assert levels == [4]


# every power-series representation, and the corrected 4.14
PS_REPS = [(rep, name) for rep, name in zip(ALL_REPS, ALL_REP_IDS)
           if rep.style == "ps"]


class TestTensorContraction:
    @pytest.mark.parametrize("rep", [rep for rep, _ in PS_REPS],
                             ids=[name for _, name in PS_REPS])
    def test_matches_full_node_grid(self, rep, config):
        # the moment contraction must equal the integrand summed over the
        # full tensor grid of one level, each coupling series in Horner form;
        # level 4's pair holds level 3's value and its own
        params = {k: float(v) for k, v in
                  resolved_params("generic-A", rep.id, config).items()}
        exps = _kernel(rep, params)
        integrand = rep.build(params, 0.3, 0.2, 1e-12)
        got = _level(exps, integrand, 4)
        for level, value in zip((3, 4), got):
            nodes = _nodes(level)
            w1 = _axis_weights(nodes, *exps[0])
            if integrand.factor is not None:
                w1 = w1 * integrand.factor(nodes.xi, nodes.omx)
            grid = np.outer(w1, _axis_weights(nodes, *exps[1]))
            for g, ufn, vfn in integrand.couplings:
                z = np.outer(ufn(nodes.xi, nodes.omx),
                             vfn(nodes.xi, nodes.omx))
                grid = grid * np.polyval(g[::-1], z)
            want = float(grid.sum())
            assert abs(value - want) <= 1e-12 * abs(want), level


def _row_410(p, x, y, xi_i, omx_i, eta, ome):
    return np.exp(y * omx_i * eta) * kummer_arr(
        p["gamma"] - p["eps"], p["gamma"], -x * xi_i - y * omx_i * eta, 1e-11)


def _row_416(p, x, y, xi_i, omx_i, eta, ome):
    params = {"alpha1": p["alpha1"] - p["eps1"],
              "alpha2": p["alpha2"] - p["eps2"], "beta": p["beta"],
              "gamma": p["gamma"] - p["eps1"] - p["eps2"]}
    q = ray_coeffs("Xi1", params, x * omx_i / (1.0 - x * xi_i), y * omx_i,
                   1.0)
    return np.exp(y * omx_i * eta) * poly_arr(q, ome)


class TestGridContraction:
    @pytest.mark.parametrize("rep_id, row", [("4.10", _row_410),
                                             ("4.16", _row_416)])
    def test_matches_per_row_sum(self, rep_id, row, config):
        # the full-grid coupling, contracted once, must equal the sum of
        # one row at a time, each row's coupling computed on its own; level
        # 4's pair holds level 3's value and its own
        params = {k: float(v) for k, v in
                  resolved_params("generic-A", rep_id, config).items()}
        x, y = 0.3, 0.2
        exps = _kernel(REPS[rep_id], params)
        integrand = REPS[rep_id].build(params, x, y, 1e-11)
        got = _level(exps, integrand, 4)
        for level, value in zip((3, 4), got):
            nodes = _nodes(level)
            w1 = _axis_weights(nodes, *exps[0])
            w1 = w1 * integrand.factor(nodes.xi, nodes.omx)
            w2 = _axis_weights(nodes, *exps[1])
            want = math.fsum(
                w1[i] * math.fsum(w2 * row(params, x, y, nodes.xi[i],
                                           nodes.omx[i], nodes.xi, nodes.omx))
                for i in np.flatnonzero(w1)
            )
            assert abs(value - want) <= 1e-13 * abs(want), level

    @pytest.mark.parametrize("kind, params", [
        ("Xi1", {"alpha1": 0.5, "alpha2": 0.75, "beta": 1 / 3,
                 "gamma": 1.25}),
        ("Phi2", {"beta1": 0.5, "beta2": 1 / 3, "gamma": 1.25}),
    ])
    def test_array_rays_match_scalar_rays(self, kind, params):
        cx = np.linspace(-0.6, 0.6, 7)
        cy = np.linspace(0.8, -0.8, 7)
        cols = ray_coeffs(kind, params, cx, cy, 1.0)
        assert cols.shape[1] == cx.size
        for j in range(cx.size):
            one = ray_coeffs(kind, params, cx[j], cy[j], 1.0)
            assert len(one) <= len(cols)
            scale = np.max(np.abs(one))
            assert np.all(np.abs(cols[:len(one), j] - one) <= 1e-15 * scale)
            assert np.all(np.abs(cols[len(one):, j]) <= 1e-15 * scale)

    def test_array_rays_keep_the_x_disk(self):
        params = {"alpha1": 0.5, "alpha2": 0.75, "beta": 1 / 3,
                  "gamma": 1.25}
        with pytest.raises(DomainError, match="convergence region"):
            ray_coeffs("Xi1", params, np.array([0.2, 1.0]), np.zeros(2), 1.0)


def _value_or_refusal(rep_id, params, x, y):
    try:
        value, diag = eval_integral(rep_id, params, x, y)
    except HumbertError as exc:
        return f"{type(exc).__name__}: {exc}"
    return value.hex(), diag["final_level"]


class TestGridBlock:
    @pytest.mark.parametrize("profile", ["generic-A", "generic-B"])
    @pytest.mark.parametrize("rep_id", ["4.10", "4.16"])
    def test_block_keeps_every_bit(self, rep_id, profile, config,
                                   monkeypatch):
        # the coupling on the block of kernel weights >= _PRUNE times their
        # axis's largest gives the value, final level and refusal of the
        # whole live grid (_PRUNE 0).  What the block drops at the final
        # level is at most the dropped kernel weight mass times the block's
        # largest |factor x coupling|.  At x = -100, 4.10's factor exp(x xi)
        # falls as fast as its coupling grows: a block cut by the factor's
        # weights too moves the value there
        params = resolved_params(profile, rep_id, config)
        floats = {k: float(v) for k, v in params.items()}
        exps = _kernel(REPS[rep_id], floats)
        for x in (-100.0, -0.5, 0.05, 0.3, 0.7):
            for y in (-30.0, -2.0, 0.2, 10.0):
                got = _value_or_refusal(rep_id, params, x, y)
                with monkeypatch.context() as whole_grid:
                    whole_grid.setattr(quadrature, "_PRUNE", 0.0)
                    assert got == _value_or_refusal(rep_id, params, x, y), \
                        (x, y)
                if isinstance(got, str):
                    continue
                nodes = _nodes(got[1])
                integrand = REPS[rep_id].build(
                    floats, x, y, QuadratureSpec().rtol * 0.1)
                k1 = _axis_weights(nodes, *exps[0])
                factor = integrand.factor(nodes.xi, nodes.omx)
                live = np.flatnonzero(k1 * factor)
                k1, k2 = k1[live], _axis_weights(nodes, *exps[1])
                rows, cols = quadrature._span(k1), quadrature._span(k2)
                coupling = integrand.grid(nodes.xi[live], nodes.omx[live],
                                          nodes.xi, nodes.omx, rows, cols)
                dropped = (
                    (k1[:rows.start].sum() + k1[rows.stop:].sum()) * k2.sum()
                    + k1[rows].sum()
                    * (k2[:cols.start].sum() + k2[cols.stop:].sum()))
                largest = np.abs(factor[live][rows, None]
                                 * coupling[rows, cols]).max()
                fine = float.fromhex(got[0])
                assert dropped * largest < 1e-25 * abs(fine), (x, y)


class TestPolyArr:
    @pytest.mark.parametrize("shape", [(1,), (12,), (1, 3), (30, 4)])
    def test_within_its_rounding_bound(self, shape):
        # each value within 2 K u sum_k |c_k| |z|^k of the exact polynomial
        # of the same floats: z^k takes k - 1 roundings, its product with
        # c_k one, and any order of the K-term sum K - 1
        rng = np.random.default_rng(20)
        coeffs = rng.standard_normal(shape)
        z = np.array([0.0, 0.25, -0.6, 0.999, math.nextafter(1.0, 0.0),
                      -math.nextafter(1.0, 0.0)])
        got = poly_arr(coeffs, z)
        cols = coeffs.reshape(len(coeffs), -1)
        assert got.shape == coeffs.shape[1:] + z.shape
        got = got.reshape(cols.shape[1], z.size)
        K, u = len(coeffs), Fraction(1, 2 ** 53)
        for j in range(cols.shape[1]):
            for i, zi in enumerate(map(Fraction, z)):
                terms = [Fraction(c) * zi ** k for k, c in enumerate(cols[:, j])]
                bound = 2 * K * u * sum(map(abs, terms))
                assert abs(Fraction(got[j, i]) - sum(terms)) <= bound, (j, i)
        assert np.all(got[:, 0] == cols[0])  # z = 0: the constant term


# eval_integral of every representation and of the corrected 4.14 at its
# first default point, generic-A with the overrides: (value, final_level)
PINNED_INTEGRALS = {
    "4.1": ("0x1.2398546ac6f8bp+0", 4),
    "4.2": ("0x1.242a8df31fdf6p+0", 4),
    "4.3": ("0x1.28186aa329481p+0", 4),
    "4.4": ("0x1.193cb79b8a794p+0", 4),
    "4.5": ("0x1.37c5ce3de934ap+0", 4),
    "4.6": ("0x1.0703019728160p+0", 4),
    "4.7": ("0x1.0703019728160p+0", 4),
    "4.8": ("0x1.0703019728161p+0", 4),
    "4.9": ("0x1.0703019728166p+0", 4),
    "4.10": ("0x1.06e46c72962dap+0", 4),
    "4.11": ("0x1.06e46c72962dbp+0", 4),
    "4.12": ("0x1.06e46c72962dbp+0", 4),
    "4.13": ("0x1.06e46c72962ddp+0", 4),
    "4.14": ("0x1.0803022688b89p+0", 4),
    "4.15": ("0x1.05fa32dc76278p+0", 4),
    "4.16": ("0x1.0582de4b7d5aap+0", 4),
    "4.17": ("0x1.0582de4b7d5aep+0", 4),
    "4.18": ("0x1.0c23923b3386cp+0", 4),
    "4.19": ("0x1.0c23923b33868p+0", 4),
    "4.20": ("0x1.0c23923b33868p+0", 4),
    "4.14-corrected": ("0x1.06e46c72962ddp+0", 4),
}


class TestPinnedIntegrals:
    @pytest.mark.parametrize("rep, name", zip(ALL_REPS, ALL_REP_IDS),
                             ids=ALL_REP_IDS)
    def test_value_and_level_are_kept(self, rep, name, config):
        # a change to the kernels, the contraction or the series targets
        # may move a value by rounding only, and no level
        x, y = default_grid(rep.id)[0]
        params = resolved_params("generic-A", rep.id, config)
        value, diag = eval_integral(rep, params, x, y)
        want, level = PINNED_INTEGRALS[name]
        assert abs(value - float.fromhex(want)) <= 1e-14 * abs(value)
        assert diag["final_level"] == level


class TestPhi1Nodes:
    @pytest.mark.parametrize("rep_id", ["4.6", "4.7"])
    def test_matches_per_node_double_series(self, rep_id, config,
                                            monkeypatch):
        # the node arguments the integrand passes over the default grid,
        # summed again one node at a time: one level-4 call per point, whose
        # even nodes also give level 3
        calls = []

        def record(*args):
            calls.append(args)
            return phi1_arr(*args)

        monkeypatch.setattr(quadrature, "phi1_arr", record)
        params = resolved_params("generic-A", rep_id, config)
        for x, y in default_grid(rep_id):
            _, diag = eval_integral(rep_id, params, x, y)
            assert diag["final_level"] == 4
        assert len(calls) == len(default_grid(rep_id))
        for a, b, c, u, v, tol in calls:
            ref = FunctionRef("Phi1", {"alpha": a, "beta": b, "gamma": c})
            want = np.array([eval_double_series(ref, ui, vi, tol=1e-13)[0]
                             for ui, vi in zip(u, v)])
            got = phi1_arr(a, b, c, u, v, tol)
            assert np.all(np.abs(got - want) <= 1e-11 * np.abs(want))

    @pytest.mark.parametrize("edge", [1.0, -1.0, 1.5])
    def test_needs_the_open_x_disk(self, edge):
        with pytest.raises(DomainError, match=r"\|u\| >= 1") as info:
            phi1_arr(0.5, 1 / 3, 1.25, np.array([0.2, edge]), np.zeros(2),
                     1e-11)
        assert "row-reduced" not in str(info.value)

    def test_no_convergence_near_the_edge(self):
        # 0.995^400 leaves diagonals far above tol: 400 do not settle
        with pytest.raises(NoConvergence, match="within 400 diagonals"):
            phi1_arr(0.5, 1 / 3, 1.25, np.array([0.995]), np.array([0.0]),
                     1e-11)


class TestGuards:
    def test_constraint_violation_raises(self, config):
        params = resolved_params("generic-A", "4.8", config)
        params["eps"] = Fraction(1, 4)  # below alpha: ordering violated
        with pytest.raises(ConstraintViolation, match="eps - alpha > 0"):
            eval_integral("4.8", params, 0.1, 0.1)

    def test_missing_symbol_is_signature_error(self):
        # 4.1's kernel binds alpha and gamma; its integrand also reads beta
        with pytest.raises(SignatureError, match="'beta'"):
            eval_integral("4.1", {"alpha": 0.5, "gamma": 1.25}, 0.1, 0.1)

    def test_unknown_id_is_refused_by_name(self):
        for call in (lambda: eval_integral("4.99", {}, 0.1, 0.1),
                     lambda: cross_check("4.99", {})):
            with pytest.raises(UnknownFormula) as raised:
                call()
            assert str(raised.value) == "unknown representation id '4.99'"

    def test_coupling_outside_its_disk_is_an_error_report(self, config):
        # 4.9's binomial coupling needs |c| zmax < 1, which x = 0.6 breaks
        report = cross_check("4.9", resolved_params("generic-A", "4.9", config),
                             grid=((0.6, 0.2),))
        assert report.status == "error"
        assert report.detail == ("DomainError: binomial coupling outside "
                                 "its disk")

    def test_unsettled_coupling_series_is_refused(self):
        with pytest.raises(NoConvergence) as raised:
            quadrature.exp_coeffs(300.0, 1.0)
        assert str(raised.value) == "exponential: coupling series did not settle"

    def test_domain_guard_on_x(self):
        params = {"alpha": 0.5, "beta": 1 / 3, "gamma": 1.25}
        with pytest.raises(DomainError):
            eval_integral("4.1", params, 1.0, 0.0)

    @pytest.mark.parametrize("rep_id", REP_IDS)
    def test_non_finite_point_is_refused(self, rep_id, config):
        # refused before the integrand is built: no silent 0.0, no bare
        # ValueError from a coefficient sum, no long run to NoConvergence
        params = resolved_params("generic-A", rep_id, config)
        bad = (math.nan, math.inf, -math.inf)
        for pt in [(v, 0.1) for v in bad] + [(0.1, v) for v in bad]:
            with pytest.raises(DomainError, match="needs finite x and y"):
                eval_integral(rep_id, params, *pt)

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_parameter_is_refused(self, value, monkeypatch):
        # refused before any level runs: a NaN alpha used to pass the
        # kernel's exponent test and refine to level 12
        levels = []
        monkeypatch.setattr(quadrature, "_nodes", levels.append)
        params = {"alpha": value, "beta": 1 / 3, "gamma": 1.25}
        with pytest.raises(DomainError, match="parameter alpha is not finite"):
            eval_integral("4.1", params, 0.3, 0.2)
        assert levels == []

    def test_gauss_series_needs_open_disk(self):
        with pytest.raises(DomainError):
            gauss_arr(0.5, 0.5, 1.5, np.array([0.2, 1.0]), 1e-12)

    @pytest.mark.parametrize("tol", [math.nan, 0.0, -1.0, math.inf, "1e-8"])
    def test_cross_check_refuses_a_bad_tol(self, tol, config):
        params = resolved_params("generic-A", "4.1", config)
        with pytest.raises(ValueError, match="tol must be positive"):
            cross_check("4.1", params, tol=tol)

    def test_cross_check_reports_error_status(self, config):
        # an unreachable tolerance inside a single allowed level surfaces
        # as an error report, not an exception
        params = resolved_params("generic-A", "4.1", config)
        spec = QuadratureSpec(start_level=6, max_level=6, rtol=1e-10)
        report = cross_check("4.1", params, spec=spec)
        assert report.status == "error"
        assert report.detail.startswith(
            "NoConvergence: 4.1: tanh-sinh did not reach")

    @pytest.mark.parametrize("kwargs", [
        {"rtol": 0.0}, {"rtol": -1.0}, {"rtol": math.nan}, {"rtol": math.inf},
        {"rtol": True}, {"rtol": "1e-10"}, {"rtol": None}, {"rtol": 1e-10j},
        {"start_level": -1}, {"start_level": 3.0}, {"start_level": True},
        {"max_level": -2}, {"max_level": "12"}, {"max_level": False},
        {"start_level": 7, "max_level": 6},
    ])
    def test_bad_spec_is_refused_when_built(self, kwargs):
        # refused before any level runs, not after all of them as an error
        # report, and not as a TypeError from inside the refinement
        with pytest.raises(ValueError, match=next(iter(kwargs))):
            QuadratureSpec(**kwargs)

    def test_bad_spec_is_a_package_error(self):
        with pytest.raises(HumbertError, match="start_level 7 is past "
                                               "max_level 6"):
            QuadratureSpec(start_level=7, max_level=6)

    def test_cross_check_reports_series_no_convergence(self, config):
        # this close to |x| = 1 the Phi1 target series needs more terms than
        # its budget allows; that too is an error report, not an exception
        params = resolved_params("generic-A", "4.1", config)
        report = cross_check("4.1", params, grid=((0.99999, 0.2),))
        assert report.status == "error"
        assert report.detail.startswith(
            "NoConvergence: Phi1 at (0.99999, 0.2)")

    @pytest.mark.parametrize("grid", [(), []])
    def test_cross_check_refuses_an_empty_grid(self, config, grid):
        # only grid=None selects the default grid; an empty one is no check
        params = resolved_params("generic-A", "4.1", config)
        with pytest.raises(HumbertError, match="empty grid for 4.1"):
            cross_check("4.1", params, grid=grid)

    @pytest.mark.parametrize("grid, bad", [
        ([(0.1,)], "bad grid point (0.1,)"),
        ([(0.1, 0.2, 0.3)], "bad grid point (0.1, 0.2, 0.3)"),
        (["ab"], "bad grid point 'ab'"),
        ([(0.1, None)], "bad grid point (0.1, None)"),
        ([(0.1, 0.2), (True, 0.2)], "bad grid point (True, 0.2)"),
        ([0.1], "bad grid point 0.1"),
        (5, "grid 5 "),
    ])
    def test_cross_check_refuses_a_malformed_grid(self, config, grid, bad,
                                                  monkeypatch):
        # refused before any point is evaluated, as a package error
        params = resolved_params("generic-A", "4.1", config)
        monkeypatch.setattr(quadrature, "series_value", None)
        with pytest.raises(HumbertError) as info:
            cross_check("4.1", params, grid=grid)
        assert str(info.value).startswith(bad)
        assert "for 4.1" in str(info.value)

    def test_cross_check_takes_any_real_pairs_as_floats(self, config):
        params = resolved_params("generic-A", "4.1", config)
        want = cross_check("4.1", params, grid=((0.25, -0.5),))
        for grid in ([[0.25, -0.5]], np.array([[0.25, -0.5]]),
                     [(Fraction(1, 4), np.float64(-0.5))]):
            got = cross_check("4.1", params, grid=grid)
            assert got.settings["grid"] == ((0.25, -0.5),)
            assert type(got.numeric.worst_point[0]) is float
            assert got.numeric == want.numeric

    def test_cross_check_refuses_an_oversized_coupling_grid(self, config):
        # at y = -30 the 4.16 levels agree to three digits but never to
        # rtol; the level whose live-row x node grid passes the cell bound
        # ends the check as an error report before it allocates the grid
        params = resolved_params("generic-A", "4.16", config)
        report = cross_check("4.16", params, grid=((0.3, -30.0),))
        assert report.status == "error"
        assert report.detail.startswith("NoConvergence: level 8 needs a")
        assert report.duration < 10.0

    def test_cross_check_near_the_edge_of_the_x_disk(self, config):
        # the row-summed series target converges at |x| = 0.995
        params = resolved_params("generic-A", "4.1", config)
        report = cross_check("4.1", params, grid=((0.995, 0.2),))
        assert report.status == "pass", report.detail


class TestLargeExponents:
    # Beta(600, 600) normalises by Gamma(1200) / Gamma(600)^2 ~ e^828,
    # past double range; each axis's weights carry it in log space
    @pytest.mark.parametrize("a, b, levels", [
        (0.5, 0.5, (4, 5)),
        (2.5, 0.75, (4, 5)),
        # the kernel's width, ~0.014, is resolved from level 7 on, where
        # the node spacing at the centre is pi/4 * 2^-7 ~ 0.006
        (600.0, 600.0, (7, 8)),
    ])
    def test_normalised_weights_sum_to_one(self, a, b, levels):
        log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
        for level in levels:
            weights = _axis_weights(_nodes(level), a, b, log_norm)
            assert abs(float(np.sum(weights)) - 1.0) <= 1e-12

    @pytest.mark.parametrize("rep_id", ["4.1", "4.5"])
    def test_cross_check_past_float_range_of_the_norm(self, rep_id):
        params = {"alpha": 600, "beta": Fraction(1, 3), "gamma": 1200}
        report = cross_check(rep_id, params)
        assert report.status == "pass", report.to_json()


class TestTableShape:
    def test_twenty_reps(self):
        assert len(REP_IDS) == 20
        assert REP_IDS[0] == "4.1" and REP_IDS[-1] == "4.20"

    def test_default_grids_and_tolerances(self):
        for rep_id in REP_IDS:
            grid = default_grid(rep_id)
            tol = default_tolerance(rep_id)
            if rep_id in ("4.1", "4.2", "4.3", "4.4", "4.5"):
                assert len(grid) == 3 and tol == 1e-8
            else:
                assert len(grid) == 9 and tol == 1e-7
            assert all(abs(gx) <= 0.4 and abs(gy) <= 0.5 for gx, gy in grid)

    def test_constraints_reference_known_symbols(self):
        from humbert.expressions import affine_symbols
        from humbert.scalars import SYMBOLS

        for rep in REPS.values():
            for axis in rep.kernel:
                for expr in axis:
                    assert affine_symbols(expr) <= set(SYMBOLS)
