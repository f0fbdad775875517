"""Tests of the benchmark itself: seeded generators, oracles, traced mode.

Run with `python3 -m pytest perfbench`.
"""

import shutil
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))

import humbert  # noqa: E402
import humbert.quadrature as quadrature  # noqa: E402
import humbert.scalars as scalars  # noqa: E402
import humbert.series as series  # noqa: E402
from humbert.errors import NoConvergence  # noqa: E402
from humbert.reports import VerificationReport  # noqa: E402

import run  # noqa: E402
import workloads as w  # noqa: E402
from tracing import OP_SPAN, Tracer  # noqa: E402


@pytest.fixture(scope="module")
def entries():
    return humbert.load_catalog()


@pytest.fixture(scope="module")
def small_eval():
    return w.point_eval_inputs(3, count=20)


# --- generators ---------------------------------------------------------------

@pytest.mark.parametrize("seed", [0, 1, 7])
def test_exact_inputs_deterministic(entries, seed):
    assert w.exact_catalog_inputs(seed, entries) == \
        w.exact_catalog_inputs(seed, entries)


@pytest.mark.parametrize("seed", [0, 1, 7])
def test_integral_points_deterministic(seed):
    assert w.integral_points(seed) == w.integral_points(seed)


def test_point_eval_inputs_deterministic(small_eval):
    assert w.point_eval_inputs(3, count=20) == small_eval


def test_seeds_differ(entries):
    a, b = (w.exact_catalog_inputs(s, entries) for s in (1, 2))
    assert a != b
    assert w.integral_points(1) != w.integral_points(2)
    assert w.point_eval_inputs(4, count=20)[0] != w.point_eval_inputs(
        5, count=20)[0]


def test_point_eval_seeds_share_the_panel():
    """Seeds order the same points with the same references, so point-eval's
    failed count does not depend on the seed."""
    def pairs(seed):
        points, refs, _ = w.point_eval_inputs(seed, count=20)
        return sorted(zip(points, refs), key=repr)

    assert pairs(4) == pairs(5) == pairs(0)


def test_seed_zero_is_the_shipped_commands(entries):
    inputs = w.exact_catalog_inputs(0, entries)
    generic_a = humbert.profile_params("generic-A")
    assert inputs["formulas"] == [(e["id"], generic_a) for e in entries]
    assert inputs["identities"] == [(i, generic_a) for i in humbert.IDENTITIES]
    assert len(inputs["mutants"]) == w.MUTANTS
    assert all(p == generic_a for _, _, p in inputs["mutants"])
    assert w.REP_IDS == humbert.REP_IDS
    grids = w.integral_points(0)
    for rep_id in humbert.REP_IDS:
        assert grids[rep_id] == quadrature.default_grid(rep_id)
        assert w.integral_params(rep_id) == humbert.resolved_params(
            "generic-A", rep_id)


def test_generic_profiles_are_generic(entries):
    inputs = w.exact_catalog_inputs(5, entries)
    profiles = [p for _, p in inputs["formulas"] + inputs["identities"]]
    profiles += [p for _, _, p in inputs["mutants"]]
    assert len(profiles) == 100 and profiles[0] != profiles[1]
    for profile in profiles:
        values = list(profile.values())
        assert list(profile) == list(w.SYMBOLS)
        assert len({v.denominator for v in values}) == len(values)
        for i, v in enumerate(values):
            assert 0 < v < 2 and 2 <= v.denominator <= 16
            for u in values[:i]:
                assert (v + u).denominator > 1 and (v - u).denominator > 1


def test_point_eval_slices(small_eval):
    points, refs, _ = small_eval
    counts = {}
    for pt in points:
        counts[pt.slice] = counts.get(pt.slice, 0) + 1
        x_restricted = w.EVAL_KINDS[pt.kind][0]
        if pt.slice == "edge":
            assert x_restricted and 0.85 <= abs(pt.x) <= 0.95
        elif pt.slice == "cancel":
            assert -40 <= pt.y <= -10
        else:
            assert abs(pt.x) <= 0.6 and abs(pt.y) <= 2
        assert all(0 < v <= 2 for _, v in pt.params)
    assert counts == {"interior": 16, "edge": 2, "cancel": 2}
    assert len(refs) == len(points)


def test_oracle_kinds_match_the_package():
    for kind, (x_restricted, slots, _) in w.EVAL_KINDS.items():
        info = humbert.KINDS[kind]
        assert (info.x_restricted, info.slots) == (x_restricted, slots)
    assert set(w.EVAL_KINDS) == set(humbert.BIVARIATE_KINDS)


def test_reference_matches_an_easy_point():
    params = (("alpha", Fraction(1, 2)), ("beta", Fraction(1, 3)),
              ("gamma", Fraction(5, 4)))
    ref = w.reference(w.EvalPoint("Phi1", params, 0.3, 0.2, "interior"))
    value, _ = humbert.eval_double_series(
        humbert.FunctionRef("Phi1", dict(params)), 0.3, 0.2, tol=1e-15)
    assert abs(float(ref) - value) <= 1e-14 * abs(value)


def test_reference_cache_round_trip(tmp_path):
    first = w.cached_point_eval_inputs(11, tmp_path)
    assert len(list(tmp_path.iterdir())) == 1
    assert w.cached_point_eval_inputs(11, tmp_path) == first


# --- oracles ------------------------------------------------------------------

def _report(target, status, m=0, n=1):
    mismatch = {"m": m, "n": n, "lhs": "1", "rhs": "2", "diff": "-1"}
    return VerificationReport(target=target, mode="exact", status=status,
                              mismatch=mismatch if status == "fail" else None)


def _counts(ops, outputs, judge):
    zeros = [0.0] * len(ops)
    return run.verdicts(ops, [run.Pass(1.0, zeros, zeros, outputs, [])], judge)


def test_exact_oracle_counts_wrong_statuses(entries):
    ops, judge, _ = run.build("exact-catalog", 0)
    good = [_report(op.group, "pass" if op.expect == "pass" else "fail")
            for op in ops]
    assert _counts(ops, good, judge)[1:3] == (0, True)
    formula = next(i for i, op in enumerate(ops) if op.expect == "pass")
    mutant = next(i for i, op in enumerate(ops) if op.expect == "caught")
    for i, bad in ((formula, _report("x", "fail")),
                   (mutant, _report("x", "pass")),
                   (mutant, _report("x", "fail", m=2, n=2)),
                   (formula, RuntimeError("crash"))):
        outputs = list(good)
        outputs[i] = bad
        attempted, failed, correct, _ = _counts(ops, outputs, judge)
        assert (attempted, failed, correct) == (len(ops), 1, False)


def test_integral_oracle_counts_wrong_adjudication():
    ops, judge, _ = run.build("integral-sweep", 0)

    def numeric(op, status):
        return VerificationReport(
            target=op.group, mode="numeric", status=status,
            numeric={"max_rel_error": 0.0, "worst_point": None,
                     "tolerance": 1e-8})

    good = [numeric(op, op.expect) for op in ops]
    assert _counts(ops, good, judge)[1:3] == (0, True)
    outputs = [numeric(op, "pass") for op in ops]  # 4.14 and 4.15 missed
    wrong = sum(op.group in w.EXPECTED_FAIL for op in ops)
    assert _counts(ops, outputs, judge)[1:3] == (wrong, False)
    outputs = list(good)
    outputs[0] = NoConvergence("refused")
    failed = sum(op.group == ops[0].group for op in ops)
    assert _counts(ops, outputs, judge)[1:3] == (failed, False)


def test_point_eval_oracle_counts_wrong_values(small_eval):
    points, refs, _ = small_eval
    ops = w.point_eval_ops(points, refs)

    def judge(ops, outs):
        return [w.eval_outcome(op, o) for op, o in zip(ops, outs)]

    exact = [(op.expect, {"est_error": 1e-15}) for op in ops]
    assert _counts(ops, exact, judge)[1:3] == (0, True)
    for bad, outcome in (
        ((refs[0] * (1 + 1e-9) + 1e-9, {"est_error": 1e-15}), "wrong"),
        ((refs[0] * (1 + 1e-9) + 1e-9, {"est_error": 1.0}), None),
        ((float("nan"), {"est_error": 1e-15}), "wrong"),
        (NoConvergence("refused"), "refused"),
        (ValueError("crash"), "error"),
    ):
        outputs = list(exact)
        outputs[0] = bad
        _, failed, correct, counts = _counts(ops, outputs, judge)
        assert correct  # point-eval failures count in failed only
        assert failed == (outcome is not None)
        assert outcome is None or counts[outcome] == 1


def test_counts_do_not_depend_on_the_pass_count(small_eval):
    points, refs, _ = small_eval
    ops = w.point_eval_ops(points, refs)

    def judge(ops, outs):
        return [w.eval_outcome(op, o) for op, o in zip(ops, outs)]

    zeros = [0.0] * len(ops)
    exact = [(op.expect, {"est_error": 1e-15}) for op in ops]
    flaky = list(exact)
    flaky[0] = NoConvergence("refused")
    for outputs in ([exact, exact], [exact, flaky, exact], [flaky] * 5):
        passes = [run.Pass(1.0, zeros, zeros, out, []) for out in outputs]
        attempted, failed, _, counts = run.verdicts(ops, passes, judge)
        assert attempted == len(ops)
        assert failed == (flaky in outputs)
        assert counts.get("refused", 0) == failed


# --- traced mode --------------------------------------------------------------

def test_traced_and_untraced_verdicts_match(small_eval):
    cases = []
    exact_ops, exact_judge, _ = run.build("exact-catalog", 0)
    cheap = [op for op in exact_ops if op.group in ("2.36", "2.1", "2.4")]
    cases.append((cheap, exact_judge))
    int_ops, int_judge, _ = run.build("integral-sweep", 0)
    cases.append(([op for op in int_ops if op.group in ("4.1", "4.14")],
                  lambda ops, outs: [getattr(o, "status", "error")
                                     for o in outs]))
    points, refs, _ = small_eval
    cases.append((w.point_eval_ops(points, refs),
                  lambda ops, outs: [w.eval_outcome(op, o)
                                     for op, o in zip(ops, outs)]))
    for ops, judge in cases:
        plain = run.run_passes(ops, 0.0, lambda op: op.call())
        tracer = Tracer()
        with tracer:
            traced = run.run_passes(ops, 0.0,
                                    tracer.wrap(OP_SPAN, lambda op: op.call()))
        assert judge(ops, traced[0].outputs) == judge(ops, plain[0].outputs)
        totals = tracer.layer_totals()
        assert totals[OP_SPAN][0] == len(ops)
        assert all(busy >= -1e-6 for _, busy in totals.values())


def test_tracer_restores_the_program(tmp_path):
    before = (scalars.pochhammer, series.pochhammer,
              series.TruncatedBiseries.__mul__, series.eval_double_series,
              quadrature.eval_double_series, humbert.eval_double_series)
    tracer = Tracer()
    with tracer:
        assert series.pochhammer is not before[1]
        assert quadrature.eval_double_series is series.eval_double_series
        series.truncated_series(
            series.FunctionRef("Phi1", {"alpha": Fraction(1, 2),
                                        "beta": Fraction(1, 3),
                                        "gamma": Fraction(5, 4)}), 3)
    after = (scalars.pochhammer, series.pochhammer,
             series.TruncatedBiseries.__mul__, series.eval_double_series,
             quadrature.eval_double_series, humbert.eval_double_series)
    assert after == before
    assert series.TruncatedBiseries.__rmul__ is series.TruncatedBiseries.__mul__
    totals = tracer.layer_totals()
    assert totals["series.truncated_series"][0] == 1
    assert totals["scalars.pochhammer"][0] > 0
    assert tracer.counts["series.truncated_series.cells"] == 10
    tracer.write_spans(tmp_path / "spans.npz")
    spans = np.load(tmp_path / "spans.npz")
    assert len(spans["start"]) == sum(c for c, _ in totals.values())
    assert list(spans["names"]) == tracer.names
    assert (spans["end"] >= spans["start"]).all()


def test_fails_without_the_program(tmp_path):
    """In a directory with only the benchmark, it exits non-zero and prints
    no result."""
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__", ".cache"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "point-eval",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
