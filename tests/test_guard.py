"""The refactor guard: digests of whole output groups (reports, values,
actions and triangles), pinned so that a change meant to keep every output
can show that it did.

A change that moves a group on purpose re-pins that group's digest and says
which group moved and why.
"""

import hashlib
import json
import random
from fractions import Fraction

from humbert.catalog import load_catalog, load_errata, verify_all
from humbert.errors import HumbertError
from humbert.expressions import assemble_expression
from humbert.identities import IDENTITIES, verify_all_identities
from humbert.operators import (AXES, apply_delta_op, apply_H, apply_H_bar,
                               apply_nabla, apply_nabla_delta)
from humbert.profiles import profile_params, resolved_params
from humbert.quadrature import (CORRECTED, REP_IDS, cross_check,
                                eval_integral)
from humbert.scalars import SYMBOLS
from humbert.series import (BIVARIATE_KINDS, KINDS, SINGLE_KINDS, FunctionRef,
                            TruncatedBiseries, eval_double_series,
                            eval_single_series, graded_indices)
from humbert.summation import ROW_ROUTE_X

from conftest import plus_one_mutants


def _digest(reports) -> str:
    """SHA-256 over the reports' sorted-key JSON, each without `duration`."""
    h = hashlib.sha256()
    for report in reports:
        out = report.to_dict()
        del out["duration"]
        h.update(json.dumps(out, sort_keys=True).encode())
    return h.hexdigest()


# every representation as printed, then the corrected 4.14, on their default
# grids, for generic-A and then generic-B
NUMERIC_DIGEST = (
    "9cbc39a66a7a9c91b53b6721963fd4830497117993bf6112492fd0334e11c404")


def test_numeric_reports_are_kept(config):
    def reports():
        for profile in ("generic-A", "generic-B"):
            for rep_id in REP_IDS:
                yield cross_check(rep_id,
                                  resolved_params(profile, rep_id, config))
            yield cross_check(CORRECTED["4.14"],
                              resolved_params(profile, "4.14", config))

    assert _digest(reports()) == NUMERIC_DIGEST


# every formula and identity report, errata included, at N = 8 and then
# N = 12, for generic-A and then generic-B
EXACT_DIGEST = (
    "a6a142180bdb4205fdaffb61a0af51ebc4feb8b5bb89b1c3ca5cec609e68655a")


def test_exact_reports_are_kept(config):
    def reports():
        errata = load_errata(config.get("errata"))
        for profile in ("generic-A", "generic-B"):
            params = profile_params(profile, config)
            for degree in (8, 12):
                yield from verify_all(params, degree, errata=errata)
                yield from verify_all_identities(params, degree)

    assert _digest(reports()) == EXACT_DIGEST


# every formula and identity report at N = 4 on generic-A with one symbol
# moved, in turn, to each of DEGENERATE_VALUES: the pole and vanishing paths
DEGENERATE_VALUES = (0, -1, -2, 1, 2)
DEGENERATE_DIGEST = (
    "53190d9c64a5e3e0c89d7e9b6891e4afdad247c8bad2f13f9d2b593e93d7fffb")


def test_degenerate_reports_are_kept(profile_a):
    def reports():
        for sym in SYMBOLS:
            for value in DEGENERATE_VALUES:
                params = {**profile_a, sym: Fraction(value)}
                yield from verify_all(params, 4)
                yield from verify_all_identities(params, 4)

    assert _digest(reports()) == DEGENERATE_DIGEST


# every one-slot "+1" mutant of the sum-type formulas and identities (220),
# at N = 8, for generic-A and then generic-B: each fails at total degree 1,
# so this group pins the witness, which the groups above never reach
MUTANT_DIGEST = (
    "920c5f0fe4a646b85037a8873e024eda9aee50f2ddade7be439465a8d014c653")


def test_mutant_reports_are_kept(config):
    entries = load_catalog() + list(IDENTITIES.values())
    mutants = [mutant for entry in entries if entry["rhs"]["type"] == "sum"
               for mutant in plus_one_mutants(entry)]

    def reports():
        for profile in ("generic-A", "generic-B"):
            yield from verify_all(profile_params(profile, config), 8,
                                  catalog=mutants)

    assert _digest(reports()) == MUTANT_DIGEST


FLOAT_POINTS = 40


def _float_points(rng: random.Random):
    """(kind, params, x, y): FLOAT_POINTS per bivariate kind, half of an
    x-restricted kind's on the row route (ROW_ROUTE_X <= |x| < 1), then a
    few per single-variable kind (y None)."""
    def params(kind):
        return {s: Fraction(rng.randrange(1, 32), rng.randrange(2, 17))
                for s in KINDS[kind].slots}

    for kind in BIVARIATE_KINDS:
        for i in range(FLOAT_POINTS):
            if not KINDS[kind].x_restricted:
                x = rng.uniform(-4.0, 4.0)
            elif i % 2:
                x = rng.choice((-1.0, 1.0)) * rng.uniform(ROW_ROUTE_X, 0.99)
            else:
                x = rng.uniform(-ROW_ROUTE_X, ROW_ROUTE_X)
            yield kind, params(kind), x, rng.uniform(-2.0, 2.0)
    for kind in SINGLE_KINDS:
        reach = 0.95 if KINDS[kind].x_restricted else 20.0
        for _ in range(4):
            yield kind, params(kind), rng.uniform(-reach, reach), None


FLOAT_DIGEST = (
    "0e98cbd20deeadbd40e6dafef15925e834c1c0de330917c377a1cf1f2c6e2ca5")


def test_float_values_are_kept():
    """The value and est_error bits of every point, or its refusal's type and
    message, in draw order."""
    h = hashlib.sha256()
    for kind, params, x, y in _float_points(random.Random(0)):
        try:
            if y is None:
                value, diag = eval_single_series(kind, params, x)
            else:
                value, diag = eval_double_series(FunctionRef(kind, params),
                                                 x, y)
            line = f"{value.hex()} {diag['est_error'].hex()}"
        except HumbertError as exc:
            line = f"{type(exc).__name__}: {exc}"
        h.update(f"{kind} {params} {x.hex()} {y} {line}\n".encode())
    assert h.hexdigest() == FLOAT_DIGEST


# every closed-form and finite-sum operator action on one seeded N = 6
# triangle, its parameters drawn from OPERATOR_VALUES: H and H_bar in both
# modes on each axis, nabla-delta in both modes, nabla and delta (516
# actions, 288 of them PoleErrors), so both routes' pole raises are reached
OPERATOR_VALUES = tuple(Fraction(v) for v in ("-3", "-2", "-1", "0", "1/2",
                                              "5/3"))
OPERATOR_DIGEST = (
    "0f6fdc379903ff6600d347968a80e0e20e56840a36d3bb7e84b74e8d4a2b8703")


def test_operator_actions_are_kept():
    rng = random.Random(0)
    s = TruncatedBiseries(6, [[Fraction(rng.randint(-20, 20),
                                        rng.randint(1, 9))
                               for _ in range(7 - m)] for m in range(7)])
    pairs = [(a, b) for a in OPERATOR_VALUES for b in OPERATOR_VALUES]
    actions = [(apply, (a, b), {"mode": mode, "axis": axis})
               for apply in (apply_H, apply_H_bar) for a, b in pairs
               for mode in ("closed_form", "double_sum") for axis in AXES]
    actions += [(apply_nabla_delta, (h, g), {"mode": mode}) for h, g in pairs
                for mode in ("closed_form", "k_sum")]
    actions += [(apply, (h,), {}) for apply in (apply_nabla, apply_delta_op)
                for h in OPERATOR_VALUES]
    h = hashlib.sha256()
    for apply, args, kwargs in actions:
        try:
            out = apply(s, *args, **kwargs)
            line = " ".join(str(out.coeff(m, n))
                            for m, n in graded_indices(out.degree))
        except HumbertError as exc:
            line = f"{type(exc).__name__}: {exc}"
        h.update(f"{apply.__name__} {args} {kwargs} {line}\n".encode())
    assert h.hexdigest() == OPERATOR_DIGEST


# the reduced lhs and rhs triangles (denominator and integer rows) of every
# formula, at N = 6 and then N = 16, for generic-A and then generic-B: the
# catalog side's triangles themselves, which a report shows only by verdict
# and witness, so a change that scales both sides alike moves only this group
TRIANGLE_DIGEST = (
    "997a2c6aaa89272a4215aa523625622f1fc88793f3b95fd22059d2da3dc0aeba")


def test_assembled_triangles_are_kept(config):
    h = hashlib.sha256()
    for profile in ("generic-A", "generic-B"):
        params = profile_params(profile, config)
        for degree in (6, 16):
            for entry in load_catalog():
                for side in ("lhs", "rhs"):
                    t = assemble_expression(entry[side], params, degree)
                    h.update(f"{entry['id']} {side} {profile} {degree} "
                             f"{t._den} {t._rows}\n".encode())
    assert h.hexdigest() == TRIANGLE_DIGEST


# the value and est_error bits, and final level, of the two node-grid
# representations 4.10 and 4.16, or their refusal's type and message, on a
# 4 x 4 grid of points off the default grids, for generic-A and then
# generic-B: the reports above keep only each check's worst error, which a
# one-ulp move of a grid-route value need not change
GRID_DIGEST = (
    "c38ed41199dca453d9bc9307974a2904ec489ebb4e1c15dc036426632be161f7")


def test_grid_route_values_are_kept(config):
    h = hashlib.sha256()
    for profile in ("generic-A", "generic-B"):
        for rep_id in ("4.10", "4.16"):
            params = resolved_params(profile, rep_id, config)
            for x in (-0.5, 0.05, 0.3, 0.7):
                for y in (-10.0, -2.0, 0.2, 10.0):
                    try:
                        value, diag = eval_integral(rep_id, params, x, y)
                        line = (f"{value.hex()} {diag['est_error'].hex()} "
                                f"{diag['final_level']}")
                    except HumbertError as exc:
                        line = f"{type(exc).__name__}: {exc}"
                    h.update(f"{profile} {rep_id} {x} {y} {line}\n".encode())
    assert h.hexdigest() == GRID_DIGEST
