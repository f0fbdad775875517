"""The three benchmark workloads: seeded input generators, the ops that call
into the program, and the correctness oracles that judge each op.

An op is one call into a public function of the package.  Every call looks
the function up on its module at call time, so the traced run sees the
wrapped versions that `tracing.Tracer` installs and the untraced run sees
the program untouched.

Each workload builds its inputs from the seed alone; seed 0 reproduces the
shipped commands (`humbert verify all --n 10`, `humbert integral-check
all`, profile `generic-A`).  Point-eval is the exception: the seed only
orders a fixed panel of points, so that its failed count, which is not 0
on the shipped program, is the same on every seed.
"""

from __future__ import annotations

import copy
import hashlib
import json
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import mpmath

import humbert.catalog as catalog
import humbert.identities as identities
import humbert.quadrature as quadrature
import humbert.series as series
from humbert.errors import NoConvergence

SYMBOLS = (
    "alpha", "beta", "gamma", "gamma1", "gamma2", "beta1", "beta2",
    "alpha1", "alpha2", "eps", "eps1", "eps2", "h", "g",
)

# The shipped profile generic-A and its per-representation overrides, kept
# here so that the benchmark's inputs do not move when the program's own
# config does (a test checks they still equal the shipped ones).
GENERIC_A = {
    "alpha": "1/2", "beta": "1/3", "gamma": "5/4", "gamma1": "6/5",
    "gamma2": "7/6", "beta1": "2/7", "beta2": "3/8", "alpha1": "2/9",
    "alpha2": "5/11", "eps": "3/7", "eps1": "5/13", "eps2": "7/16",
    "h": "4/9", "g": "7/10",
}
OVERRIDES = {
    "4.8": {"eps": "3/4"}, "4.9": {"eps": "1/4"}, "4.10": {"eps": "1"},
    "4.15": {"eps": "3/4"}, "4.19": {"eps1": "3/4"}, "4.20": {"eps1": "3/4"},
}

EXACT_DEGREE = 10
MUTANTS = 30
WITNESS_MAX_DEGREE = 3

REP_IDS = tuple(f"4.{k}" for k in range(1, 21))
DIRECT_REPS = ("4.1", "4.2", "4.3", "4.4", "4.5")
DEFAULT_POINTS = ((0.3, 0.2), (0.1, 0.35), (0.25, 0.15))
DEFAULT_AXIS = (0.05, 0.2, 0.35)
EXPECTED_FAIL = frozenset({"4.14", "4.15"})

EVAL_TOL = 1e-12
EVAL_POINTS = 1200
EVAL_SLICES = (("interior", 0.8), ("edge", 0.1), ("cancel", 0.1))
REF_DPS = (40, 50)
REF_AGREE = mpmath.mpf(10) ** -25
MAX_REDRAWS = 50
PANEL_SEED = 0  # the point-eval panel's stream; --seed orders the panel


@dataclass
class Op:
    """One call into the program.  `group` names the catalog entry,
    representation or slice the op belongs to.  A failed op is counted
    either way; one with `must_pass` also makes the run's outputs incorrect.
    Point-eval ops are not must_pass: the shipped summation gets some of
    them wrong beyond its own error estimate (cancellation, the edge of the
    x disk), and those failures are what that workload measures."""

    label: str
    group: str
    call: Callable[[], object]
    must_pass: bool = True
    expect: object = None


def _params(raw: dict) -> dict:
    return {k: Fraction(v) for k, v in raw.items()}


def _rng(workload: str, seed: int, part: str = "") -> random.Random:
    return random.Random(f"{workload}/{part}/{seed}")


# --- exact-catalog ----------------------------------------------------------

def generic_profile(rng: random.Random) -> dict:
    """A rational profile in (0, 2) whose reduced denominators are 14
    distinct values of 2..16, as in generic-A.  Distinct denominators make
    every value, and every sum or difference of two values, a non-integer;
    the catalog's parameter expressions have no other shape, so no
    Pochhammer factor hits a pole or collapses."""
    profile = {}
    for sym, q in zip(SYMBOLS, rng.sample(range(2, 17), len(SYMBOLS))):
        p = rng.choice([p for p in range(1, 2 * q) if math.gcd(p, q) == 1])
        profile[sym] = Fraction(p, q)
    return profile


def mutate(entry: dict, rng: random.Random) -> tuple[dict, str]:
    """Add +1 to one Pochhammer parameter expression of a sum-type right
    side: an outer numerator or denominator factor, or an inner slot."""
    entry = copy.deepcopy(entry)
    rhs = entry["rhs"]
    spots = [("num", f) for f in rhs.get("num", [])]
    spots += [("den", f) for f in rhs.get("den", [])]
    spots += [("inner", slot) for slot in rhs["inner"]["params"]]
    where, spot = spots[rng.randrange(len(spots))]
    if where == "inner":
        rhs["inner"]["params"][spot] += " + 1"
        return entry, f"inner.{spot}"
    spot["param"] += " + 1"
    return entry, f"{where}.{spot['param']}"


def exact_catalog_inputs(seed: int, entries: list[dict]) -> dict:
    """Every formula and identity, and mutants of MUTANTS distinct sum-type
    formulas, each with its parameter profile: generic-A for seed 0, else a
    fresh generic profile per check, so that a run's cost averages over
    many profiles."""
    rng = _rng("exact-catalog", seed, "mutants")
    sums = [e for e in entries if e["rhs"].get("type") == "sum"]
    # distinct entries: the set, and so the cost, differs little by seed
    mutants = [mutate(entry, rng) for entry in rng.sample(sums, MUTANTS)]
    rng = _rng("exact-catalog", seed, "profiles")

    def profile():
        return _params(GENERIC_A) if seed == 0 else generic_profile(rng)

    return {
        "formulas": [(e["id"], profile()) for e in entries],
        "identities": [(iid, profile()) for iid in identities.IDENTITIES],
        "mutants": [(m, where, profile()) for m, where in mutants],
    }


def exact_catalog_ops(seed: int, entries: list[dict]) -> list[Op]:
    inp = exact_catalog_inputs(seed, entries)
    n = EXACT_DEGREE
    ops = [
        Op(f"formula {fid}", fid,
           lambda fid=fid, p=p: catalog.verify_formula(
               fid, p, n, catalog=entries),
           expect="pass")
        for fid, p in inp["formulas"]
    ]
    ops += [
        Op(f"identity {iid}", iid,
           lambda iid=iid, p=p: identities.verify_operator_identity(iid, p, n),
           expect="pass")
        for iid, p in inp["identities"]
    ]
    ops += [
        Op(f"mutant {m['id']} {where}", m["id"],
           lambda m=m, p=p: catalog.verify_formula(m["id"], p, n,
                                                   catalog=[m]),
           expect="caught")
        for m, where, p in inp["mutants"]
    ]
    return ops


def judge_exact(op: Op, out) -> bool:
    """True when the op's report is the expected verdict: `pass` for a
    shipped formula or identity; for a mutant, `error`, or `fail` with its
    witness at total degree <= 3."""
    status = getattr(out, "status", None)
    if op.expect == "pass":
        return status == "pass"
    if status == "error":
        return True
    return (status == "fail"
            and out.mismatch["m"] + out.mismatch["n"] <= WITNESS_MAX_DEGREE)


# --- integral-sweep ---------------------------------------------------------

def integral_points(seed: int) -> dict[str, tuple]:
    """The shipped default grids for seed 0.  Otherwise as many points per
    representation, drawn uniformly from [0.05, 0.35]^2 and stratified:
    one point in each cell of the 3x3 partition for a nine-point grid, one
    point per row and column of it for a three-point grid."""
    grids = {}
    rng = _rng("integral-sweep", seed, "grid")
    cell = (DEFAULT_AXIS[-1] - DEFAULT_AXIS[0]) / 3

    def draw(i, j):
        return (DEFAULT_AXIS[0] + cell * (i + rng.random()),
                DEFAULT_AXIS[0] + cell * (j + rng.random()))

    for rep_id in REP_IDS:
        if rep_id in DIRECT_REPS:
            default = DEFAULT_POINTS
            cols = rng.sample(range(3), 3)
            drawn = tuple(draw(i, cols[i]) for i in range(3))
        else:
            default = tuple((x, y) for x in DEFAULT_AXIS for y in DEFAULT_AXIS)
            drawn = tuple(draw(i, j) for i in range(3) for j in range(3))
        grids[rep_id] = default if seed == 0 else drawn
    return grids


def integral_params(rep_id: str) -> dict:
    return _params({**GENERIC_A, **OVERRIDES.get(rep_id, {})})


def integral_sweep_ops(seed: int) -> list[Op]:
    ops = []
    for rep_id, grid in integral_points(seed).items():
        p = integral_params(rep_id)
        expect = "fail" if rep_id in EXPECTED_FAIL else "pass"
        for pt in grid:
            ops.append(Op(
                f"{rep_id} at ({pt[0]:.4f}, {pt[1]:.4f})", rep_id,
                lambda rep_id=rep_id, p=p, pt=pt: quadrature.cross_check(
                    rep_id, p, grid=(pt,), spec=quadrature.QuadratureSpec()),
                expect=expect,
            ))
    return ops


def adjudicate(ops: list[Op], outs: list) -> dict[str, str]:
    """Per-representation verdict over its grid, as `cross_check` would give
    it on the whole grid: error if any point errs, fail if any point fails."""
    verdict: dict[str, str] = {}
    for op, out in zip(ops, outs):
        status = getattr(out, "status", "error")
        prev = verdict.get(op.group, "pass")
        if "error" in (prev, status):
            verdict[op.group] = "error"
        elif "fail" in (prev, status):
            verdict[op.group] = "fail"
        else:
            verdict[op.group] = "pass"
    return verdict


# --- point-eval -------------------------------------------------------------

# The seven bivariate kinds: whether the series needs |x| < 1, the parameter
# slots, and the Pochhammer structure in mpmath.hyper2d form (the oracle's
# own statement of each series, independent of the package's).
EVAL_KINDS = {
    "Phi1": (True, ("alpha", "beta", "gamma"),
             lambda p: ({"m+n": [p["alpha"]], "m": [p["beta"]]},
                        {"m+n": [p["gamma"]]})),
    "Phi2": (False, ("beta1", "beta2", "gamma"),
             lambda p: ({"m": [p["beta1"]], "n": [p["beta2"]]},
                        {"m+n": [p["gamma"]]})),
    "Phi3": (False, ("beta", "gamma"),
             lambda p: ({"m": [p["beta"]]}, {"m+n": [p["gamma"]]})),
    "Psi1": (True, ("alpha", "beta", "gamma1", "gamma2"),
             lambda p: ({"m+n": [p["alpha"]], "m": [p["beta"]]},
                        {"m": [p["gamma1"]], "n": [p["gamma2"]]})),
    "Psi2": (False, ("alpha", "gamma1", "gamma2"),
             lambda p: ({"m+n": [p["alpha"]]},
                        {"m": [p["gamma1"]], "n": [p["gamma2"]]})),
    "Xi1": (True, ("alpha1", "alpha2", "beta", "gamma"),
            lambda p: ({"m": [p["alpha1"], p["beta"]], "n": [p["alpha2"]]},
                       {"m+n": [p["gamma"]]})),
    "Xi2": (True, ("alpha", "beta", "gamma"),
            lambda p: ({"m": [p["alpha"], p["beta"]]}, {"m+n": [p["gamma"]]})),
}


@dataclass(frozen=True)
class EvalPoint:
    kind: str
    params: tuple  # ((slot, Fraction), ...)
    x: float
    y: float
    slice: str


def _draw_point(rng: random.Random, kind: str, where: str, u: float
                ) -> EvalPoint:
    """One point of a slice.  `u` in [0, 1) places the point along the
    slice's hard direction (|x| on the edge, y in the cancellation slice),
    so a slice's points spread evenly over it."""
    x_restricted, slots, _ = EVAL_KINDS[kind]
    params = []
    for slot in slots:
        q = rng.randint(1, 12)
        params.append((slot, Fraction(rng.randint(1, 2 * q), q)))
    x = rng.uniform(-0.6, 0.6)
    y = rng.uniform(-2.0, 2.0)
    if where == "edge":
        x = rng.choice((-1.0, 1.0)) * (0.85 + 0.10 * u)
    elif where == "cancel":
        y = -10.0 - 30.0 * u
        if not x_restricted:
            x = rng.uniform(-40.0, -10.0)
    return EvalPoint(kind, tuple(params), x, y, where)


_SWAP = {"m": "n", "n": "m", "m+n": "m+n"}


def reference(pt: EvalPoint):
    """mpmath.hyper2d at 40 digits, or None where it does not converge.

    hyper2d sums the x index outside and the y series inside, where mpmath
    raises its working precision as the series cancels.  The outer sum gets
    no such care, so where |x| or |y| exceeds 2 and terms can grow far past
    the value, the value stands only if a 50-digit sum agrees to 25 digits.
    Where the kind needs |x| < 1 and |y| <= 2 the x series is the slow one;
    the roles are then swapped, so that it is the inner one, which mpmath
    sums fastest."""
    swap = EVAL_KINDS[pt.kind][0] and abs(pt.y) <= 2
    precisions = REF_DPS if max(abs(pt.x), abs(pt.y)) > 2 else REF_DPS[:1]
    values = []
    for dps in precisions:
        with mpmath.workdps(dps):
            p = {s: mpmath.mpf(v.numerator) / v.denominator
                 for s, v in pt.params}
            a, b = EVAL_KINDS[pt.kind][2](p)
            x, y = mpmath.mpf(pt.x), mpmath.mpf(pt.y)
            if swap:
                a = {_SWAP[k]: v for k, v in a.items()}
                b = {_SWAP[k]: v for k, v in b.items()}
                x, y = y, x
            try:
                values.append(mpmath.hyper2d(a, b, x, y))
            except mpmath.libmp.NoConvergence:
                return None
    with mpmath.workdps(REF_DPS[-1]):
        if abs(values[0] - values[-1]) > REF_AGREE * abs(values[-1]):
            return None
    return values[-1]


def point_eval_panel(count: int = EVAL_POINTS
                     ) -> tuple[list[EvalPoint], list[float], int]:
    """The fixed panel of points, drawn once from one stream, with exact
    slice shares: 80% interior (|x| <= 0.6, |y| <= 2), 10% edge
    (0.85 <= |x| <= 0.95, x-restricted kinds), 10% cancellation (y in
    [-40, -10], and x too for the entire kinds).  Returns the points, their
    float references and the number of points redrawn because the reference
    did not converge."""
    rng = _rng("point-eval", PANEL_SEED, "points")
    restricted = [k for k, (xr, _, _) in EVAL_KINDS.items() if xr]
    plan = []
    for where, share in EVAL_SLICES:
        n = round(count * share)
        kinds = restricted if where == "edge" else list(EVAL_KINDS)
        plan += [(kinds[i % len(kinds)], where, (i + rng.random()) / n)
                 for i in range(n)]
    rng.shuffle(plan)
    points, refs, redrawn = [], [], 0
    for kind, where, u in plan:
        for _ in range(MAX_REDRAWS):
            pt = _draw_point(rng, kind, where, u)
            ref = reference(pt)
            if ref is not None:
                break
            redrawn += 1
        else:
            raise RuntimeError(f"no convergent reference in the {where} slice")
        points.append(pt)
        refs.append(float(ref))
    return points, refs, redrawn


def _in_seed_order(seed: int, panel):
    """The panel's points and references in the order the seed draws."""
    points, refs, redrawn = panel
    order = list(range(len(points)))
    _rng("point-eval", seed, "order").shuffle(order)
    return [points[i] for i in order], [refs[i] for i in order], redrawn


def point_eval_inputs(seed: int, count: int = EVAL_POINTS
                      ) -> tuple[list[EvalPoint], list[float], int]:
    """The panel in the seed's order.  Every seed evaluates the same points:
    the shipped summation gets some of them wrong, and a seed-drawn set
    would make the failed count, not only the order, depend on the seed."""
    return _in_seed_order(seed, point_eval_panel(count))


def cached_point_eval_inputs(seed: int, cache_dir: Path):
    """`point_eval_inputs`, with the panel kept in `cache_dir`: its
    references cost about 15 ms a point.  The file name carries a hash of
    this module, so a change to the generator or the oracle starts a new
    file."""
    digest = hashlib.sha256(Path(__file__).read_bytes()).hexdigest()[:16]
    path = cache_dir / f"point-eval-panel-{digest}.json"
    if path.is_file():
        data = json.loads(path.read_text(encoding="utf-8"))
        points = [
            EvalPoint(kind, tuple((s, Fraction(v)) for s, v in params), x, y,
                      where)
            for kind, params, x, y, where in data["points"]
        ]
        return _in_seed_order(seed, (points, data["refs"], data["redrawn"]))
    points, refs, redrawn = point_eval_panel()
    cache_dir.mkdir(exist_ok=True)
    path.write_text(json.dumps({
        "points": [[pt.kind, [[s, str(v)] for s, v in pt.params], pt.x, pt.y,
                    pt.slice] for pt in points],
        "refs": refs,
        "redrawn": redrawn,
    }), encoding="utf-8")
    return _in_seed_order(seed, (points, refs, redrawn))


def point_eval_ops(points: list[EvalPoint], refs: list[float]) -> list[Op]:
    return [
        Op(f"{pt.kind} {pt.slice} ({pt.x:.4g}, {pt.y:.4g})", pt.slice,
           lambda pt=pt: series.eval_double_series(
               series.FunctionRef(pt.kind, dict(pt.params)), pt.x, pt.y,
               tol=EVAL_TOL),
           must_pass=False, expect=ref)
        for pt, ref in zip(points, refs)
    ]


def eval_outcome(op: Op, out) -> str:
    """ok, refused (NoConvergence), error (any other exception) or wrong:
    |v - ref| > max(est_error, tol |ref|)."""
    if isinstance(out, NoConvergence):
        return "refused"
    if isinstance(out, Exception):
        return "error"
    value, diag = out
    ref = op.expect
    if not math.isfinite(value) or (
        abs(value - ref) > max(diag["est_error"], EVAL_TOL * abs(ref))
    ):
        return "wrong"
    return "ok"
