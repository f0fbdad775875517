"""Acceptance gate: one test per criterion, one pass/fail line each.

Every tolerance and cardinality below is pinned by the package contract;
failures here mean the artifact does not meet its stated guarantees.
"""

import copy
import json
import math
import random
import time
from fractions import Fraction

import pytest

from conftest import collapse_substitutions
from humbert.catalog import get_formula, load_catalog, verify_formula
from humbert.cli import main
from humbert.expressions import assemble_expression, eval_affine
from humbert.identities import (
    check_phi1_reconstruction,
    check_phi1_shift,
)
from humbert.operators import (
    apply_H,
    apply_H_bar,
    apply_delta_op,
    apply_nabla,
)
from humbert.profiles import resolved_params
from humbert.quadrature import (
    REP_IDS,
    cross_check,
    integrate_beta_kernel,
)
from humbert.series import (
    BIVARIATE_KINDS,
    FunctionRef,
    TruncatedBiseries,
    eval_double_series,
    truncated_series,
)


def _line(number: int, passed: bool, description: str) -> None:
    status = "PASS" if passed else "FAIL"
    print(f"[criterion {number}] {status} - {description}")


def test_criterion_1_exact_catalog_sweep(capsys):
    start = time.perf_counter()
    code = main(["verify", "all", "--profile", "generic-A", "--n", "8"])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    reports = [json.loads(line) for line in out.strip().splitlines()]
    formula = [r for r in reports if r["target"] >= "2.36"
               and len(r["target"]) == 4]
    identity = [r for r in reports if r not in formula]
    catalog = load_catalog()
    in_sequence = sum(e["printed_label"] == e["id"] for e in catalog)
    witnessed = all(
        r["status"] == "pass"
        or (r["status"] == "fail" and r.get("mismatch") is not None)
        for r in reports
    )
    ok = (
        code == 0
        and elapsed < 60.0
        and sorted(r["target"] for r in formula)
        == sorted(f"2.{k}" for k in range(36, 71))
        and sorted(r["target"] for r in identity)
        == sorted(f"2.{k}" for k in range(1, 36))
        and in_sequence == 34
        and witnessed
    )
    with capsys.disabled():
        _line(1, ok, f"catalog sweep: {len(formula)} formula reports "
              f"(34 in-sequence labels) + {len(identity)} identity reports, "
              f"all adjudicated, {elapsed:.1f}s")
    assert ok


def test_criterion_2_collapse_suite(capsys, profile_a):
    catalog = load_catalog()
    checked = 0
    residues = []
    for entry in catalog:
        derived = collapse_substitutions(entry, profile_a)
        if derived is None:
            continue
        collapsed, _ = derived
        lhs = assemble_expression(entry["lhs"], collapsed, 8)
        rhs = assemble_expression(entry["rhs"], collapsed, 8)
        if lhs != rhs:
            residues.append(entry["id"])
        checked += 1
    ok = checked >= 20 and not residues
    with capsys.disabled():
        _line(2, ok, f"{checked} collapse checks exact at N=8 "
              f"(residues: {residues or 'none'})")
    assert ok


def test_criterion_3_operator_algebra(capsys):
    rng = random.Random(90210)

    def rational():
        return Fraction(rng.randint(1, 60), rng.randint(61, 120))

    ones = TruncatedBiseries(12, [[Fraction(1)] * (13 - m) for m in range(13)])
    agree = True
    for _ in range(20):
        a, b = rational(), rational()
        closed = apply_H(ones, a, b, mode="closed_form")
        summed = apply_H(ones, a, b, mode="double_sum")
        agree = agree and closed == summed
    random_triangle = TruncatedBiseries(8, [
        [Fraction(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(9 - m)]
        for m in range(9)])
    a, b, h = rational(), rational(), rational()
    round_trip = apply_H_bar(apply_H(random_triangle, a, b), a, b)
    inverse_ok = round_trip == random_triangle
    nabla_delta = apply_nabla(apply_delta_op(random_triangle, h), h)
    nabla_ok = nabla_delta == random_triangle
    ok = agree and inverse_ok and nabla_ok
    with capsys.disabled():
        _line(3, ok, "double_sum == closed_form on 20 rational pairs "
              "(m+n <= 12); inverse pairs restore random degree-8 triangles")
    assert ok


def test_criterion_4_shift_mechanics(capsys, profile_a, profile_b):
    failures = []
    for profile_name, params in (("A", profile_a), ("B", profile_b)):
        for total in range(5):
            for i in range(total + 1):
                witness = check_phi1_shift(params, 8, i, total - i)
                if witness is not None:
                    failures.append((profile_name, i, total - i, witness))
        if check_phi1_reconstruction(params, 8) is not None:
            failures.append((profile_name, "reconstruction"))
    ok = not failures
    with capsys.disabled():
        _line(4, ok, "shift mechanics exact for all i+j <= 4, slots "
              f"m+n <= 8, two profiles (failures: {failures or 'none'})")
    assert ok


def _eval_term_numeric(term, params, x, y):
    env = dict(params)
    xx = {"identity": x, "negate": -x, "moebius_x": x / (x - 1.0)}[
        term.get("transform_x", "identity")
    ]
    yy = {"identity": y, "negate": -y,
          "scale_by_geometric": y / (1.0 - x)}[
        term.get("transform_y", "identity")
    ]
    pre = 1.0
    prefactor = term.get("prefactor") or {}
    if "exp_y" in prefactor:
        pre *= math.exp(float(eval_affine(prefactor["exp_y"], env)) * y)
    if "pow_one_minus_x" in prefactor:
        pre *= (1.0 - x) ** float(
            eval_affine(prefactor["pow_one_minus_x"], env)
        )
    if term.get("kind") is None:
        return pre
    slots = {
        slot: eval_affine(expr, env)
        for slot, expr in term["params"].items()
    }
    ref = FunctionRef(term["kind"], slots)
    value, _ = eval_double_series(ref, xx, yy, tol=1e-13)
    return pre * value


def test_criterion_5_transformation_formulas(capsys, profile_a):
    worst = 0.0
    for formula_id in ("2.39", "2.54"):
        entry = get_formula(formula_id)
        for gx in (-0.4, -0.15, 0.15, 0.4):
            for gy in (-0.5, -0.2, 0.2, 0.5):
                lhs = _eval_term_numeric(entry["lhs"], profile_a, gx, gy)
                rhs = _eval_term_numeric(entry["rhs"], profile_a, gx, gy)
                worst = max(worst, abs(lhs - rhs) / abs(lhs))
    exact_ok = all(
        verify_formula(fid, profile_a, degree=8).status == "pass"
        for fid in ("2.39", "2.54")
    )
    ok = worst < 1e-10 and exact_ok
    with capsys.disabled():
        _line(5, ok, "transformation pair: numeric worst rel err "
              f"{worst:.2e} on 4x4 grid; exact at N=8")
    assert ok


def test_criterion_6_float_exact_agreement(capsys, profile_a):
    rng = random.Random(61803)
    worst = 0.0
    for kind in BIVARIATE_KINDS:
        info_slots = {
            "Phi1": ("alpha", "beta", "gamma"),
            "Phi2": ("beta1", "beta2", "gamma"),
            "Phi3": ("beta", "gamma"),
            "Psi1": ("alpha", "beta", "gamma1", "gamma2"),
            "Psi2": ("alpha", "gamma1", "gamma2"),
            "Xi1": ("alpha1", "alpha2", "beta", "gamma"),
            "Xi2": ("alpha", "beta", "gamma"),
        }[kind]
        ref = FunctionRef(kind, {s: profile_a[s] for s in info_slots})
        exact = truncated_series(ref, 24)
        for _ in range(5):
            px = Fraction(rng.randint(-25, 25), 100)
            py = Fraction(rng.randint(-25, 25), 100)
            target = float(exact.evaluate(px, py))
            value, _ = eval_double_series(
                ref, float(px), float(py), tol=1e-14
            )
            worst = max(worst, abs(value - target) / max(abs(target), 1.0))
    ok = worst < 1e-12
    with capsys.disabled():
        _line(6, ok, "series evaluation vs exact degree-24 truncation: "
              f"worst rel err {worst:.2e} over 7 kinds x 5 points")
    assert ok


def test_criterion_7_quadrature_sanity(capsys, config):
    start = time.perf_counter()
    beta_worst = 0.0
    for a in (0.25, 0.5, 1.0, 1.5, 2.5):
        for b in (0.25, 0.5, 1.0, 1.5, 2.5):
            value, _ = integrate_beta_kernel(a, b)
            exact = math.exp(
                math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b)
            )
            beta_worst = max(beta_worst, abs(value - exact) / exact)
    statuses = {}
    diagnostics_ok = True
    for rep_id in REP_IDS:
        params = resolved_params("generic-A", rep_id, config)
        report = cross_check(rep_id, params)
        statuses[rep_id] = report.status
        if report.status == "fail":
            diagnostics_ok = diagnostics_ok and (
                report.numeric is not None
                and report.numeric.get("worst_point") is not None
                and report.numeric.get("max_rel_error") is not None
            )
    elapsed = time.perf_counter() - start
    failing = sorted(k for k, v in statuses.items() if v != "pass")
    ok = (
        beta_worst < 1e-12
        and failing == ["4.14", "4.15"]
        and all(statuses[r] == "pass" for r in REP_IDS
                if r not in ("4.14", "4.15"))
        and diagnostics_ok
        and elapsed < 300.0
    )
    with capsys.disabled():
        _line(7, ok, f"Beta suite {beta_worst:.1e}; 18/20 reps match series "
              f"(as-printed failures {failing} carry worst-point "
              f"diagnostics); {elapsed:.0f}s")
    assert ok


def test_criterion_8_mutation_sensitivity(capsys, profile_a):
    rng = random.Random(31415)
    catalog = [e for e in load_catalog() if e["rhs"].get("type") == "sum"]
    detected = 0
    late_or_missed = []
    trials = 0
    while detected + len(late_or_missed) < 10 and trials < 40:
        trials += 1
        entry = copy.deepcopy(catalog[rng.randrange(len(catalog))])
        rhs = entry["rhs"]
        spots = (
            [("num", f) for f in rhs.get("num", [])]
            + [("den", f) for f in rhs.get("den", [])]
            + [("inner", s) for s in rhs["inner"]["params"]]
        )
        where, spot = spots[rng.randrange(len(spots))]
        if where == "inner":
            rhs["inner"]["params"][spot] += " + 1"
        else:
            spot["param"] += " + 1"
        report = verify_formula(entry["id"], profile_a, degree=8,
                                catalog=[entry])
        if report.status == "fail" and (
            report.mismatch["m"] + report.mismatch["n"] <= 3
        ):
            detected += 1
        else:
            late_or_missed.append((entry["id"], where, report.status))
    ok = detected == 10 and not late_or_missed
    with capsys.disabled():
        _line(8, ok, f"10/10 mutations detected with first mismatch at "
              f"total degree <= 3 (anomalies: {late_or_missed or 'none'})")
    assert ok
