"""Declarative expression model and its exact assembler.

Both sides of every cataloged formula and operator identity are data: a
function node (an optional elementary prefactor times a referenced series
with argument transforms), a sum node (a signed Pochhammer-weighted sum of
shifted inner series), or an ops node (a chain of H / H_bar operators
applied left to right to an operand expression).  One interpreter
assembles any of them into an exact truncated triangle, so there is a
single code path to trust and entries stay diffable.  A sum is
assembled as one exact convolution of stepped Pochhammer signatures where
its inner signature factors that way (see _convolution_plan), in two
one-axis passes where its kernel is f(m) g(n), and term by term otherwise;
each pass is one integer accumulation `TruncatedBiseries.shifted_sum`,
which also applies a function node's prefactors.

Parameter expressions use a tiny affine language: sums of signed symbols
and integer constants, e.g. "eps - alpha", "gamma + i + j", "1 - beta".
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import lru_cache

from .errors import PoleError, SignatureError
from .operators import AXES, apply_H, apply_H_bar
from .scalars import (
    SYMBOLS,
    Scalar,
    as_exact,
    as_scalar,
    is_nonpositive_integer,
)
from .series import (
    FunctionRef,
    KINDS,
    PREFACTORS,
    SINGLE_KINDS,
    X_TRANSFORMS,
    Y_TRANSFORMS,
    TruncatedBiseries,
    single_series_on_axis,
    step_signature,
    stepped_triangle,
    substitute_args,
    truncated_series,
)

INDEX_SYMBOLS = ("i", "j")
AFFINE_SYMBOLS = SYMBOLS + INDEX_SYMBOLS

_TOKEN = re.compile(r"\s*([+-]|[A-Za-z][A-Za-z0-9]*|\d+)")

SIGNS = ("+1", "(-1)^i", "(-1)^(i+j)")
INDEX_EXPRS = ("i", "j", "i+j")
WEIGHTS = ("xy", "x", "y")
INDICES = ("ij", "i")


@lru_cache(maxsize=None)
def parse_affine(expr: str) -> tuple[Fraction, tuple[tuple[str, int], ...]]:
    """Parse an affine expression into (constant, ((symbol, coeff), ...))."""
    pos = 0
    sign = 1
    expect_term = True
    const = Fraction(0)
    coeffs: dict[str, int] = {}
    while pos < len(expr):
        m = _TOKEN.match(expr, pos)
        if not m:
            raise SignatureError(f"bad affine expression {expr!r} at offset {pos}")
        tok = m.group(1)
        pos = m.end()
        if tok in "+-":
            if expect_term and tok == "-":
                sign = -sign
            elif expect_term:
                pass
            else:
                sign = -1 if tok == "-" else 1
                expect_term = True
            continue
        if not expect_term:
            raise SignatureError(f"missing operator in {expr!r}")
        if tok.isdigit():
            const += sign * int(tok)
        elif tok in AFFINE_SYMBOLS:
            coeffs[tok] = coeffs.get(tok, 0) + sign
        else:
            raise SignatureError(f"unknown symbol {tok!r} in {expr!r}")
        sign = 1
        expect_term = False
    if expect_term and expr.strip():
        raise SignatureError(f"dangling operator in {expr!r}")
    if not expr.strip():
        raise SignatureError("empty affine expression")
    return const, tuple(sorted((k, v) for k, v in coeffs.items() if v))


def affine_symbols(expr: str) -> set[str]:
    return {name for name, _ in parse_affine(str(expr))[1]}


def eval_affine(expr, env: dict) -> Scalar:
    """Evaluate an affine expression (or bare number) under a symbol table."""
    if isinstance(expr, (int, Fraction)):
        return as_scalar(expr)
    const, coeffs = parse_affine(str(expr))
    total: Scalar = const
    for name, coeff in coeffs:
        if name not in env:
            raise SignatureError(f"symbol {name!r} unbound in {expr!r}")
        total = total + coeff * env[name]
    return total


def _sign_value(sign: str, i: int, j: int) -> int:
    """Value of one of SIGNS at (i, j)."""
    if sign == "+1":
        return 1
    return -1 if (i if sign == "(-1)^i" else i + j) % 2 else 1


def _assemble_function_term(
    term: dict, env: dict, degree: int
) -> TruncatedBiseries:
    kind = term.get("kind")
    if kind is not None:
        params = {
            slot: eval_affine(expr, env) for slot, expr in term["params"].items()
        }
        ref = FunctionRef(kind, params)
        if KINDS[kind].bivariate:
            series = truncated_series(ref, degree)
        else:
            series = single_series_on_axis(ref, degree, term.get("axis", "x"))
    else:
        series = TruncatedBiseries.one(degree)
    pre = term.get("prefactor") or {}
    return substitute_args(
        series, term.get("transform_x", "identity"),
        term.get("transform_y", "identity"),
        **{key: eval_affine(pre[key], env) for key in PREFACTORS if key in pre})


def _sum_shift(weight: str, i: int, j: int) -> tuple[int, int]:
    """Powers (si, sj) of the monomial x^si y^sj that weights term (i, j)."""
    if weight == "xy":
        return i, j
    return (i, 0) if weight == "x" else (0, i)


def _convolution_plan(e: dict, env: dict, indices: str, weight: str):
    """Split the inner signature for the convolution route, or None where
    the route does not apply and the per-term loop must run.

    An inner slot b + a*i + c*j (b its value at i = j = 0, a, c integers)
    enters term (i, j) at index idx(m, n) of the inner kind's signature,
    with (m, n) = (M - si, N - sj) for output cell (M, N).  Its shift
    s = a*i + c*j gives (b + s)_idx = (b)_{s+idx} / (b)_s.  The factor is
    *aligned* when s = idx(si, sj) on every term: then s + idx = idx(M, N)
    and (b)_{idx(M,N)} goes to the cell factor C, 1/(b)_s to the term
    weight (inverted for a denominator factor).  It is *unshifted* when
    s = 0: (b)_idx(m, n) stays in the kernel.  Both are linear in (i, j),
    so checking them on unit steps checks every term.  Returns the base
    values by slot and the (num, den) signatures, over the inner kind's
    slots, of the kernel's unshifted and the cell's aligned factors.

    Only a plain bivariate inner kind qualifies, and no inner base value
    may be a non-positive integer (1/(b)_s would divide by zero); an inner
    term the per-term loop would reject (wrong slots or unbound symbols)
    also goes there, so its error is raised as before.
    """
    inner = e["inner"]
    info, params = KINDS.get(inner["kind"]), inner["params"]
    if not (set(inner) <= {"kind", "params"} and info is not None
            and info.bivariate and set(params) == set(info.slots)):
        return None
    units = [(1, 0), (0, 1)] if indices == "ij" else [(1, 0)]
    env0 = {**env, "i": Fraction(0), "j": Fraction(0)}
    slots = {}
    for slot, expr in params.items():
        try:
            base = eval_affine(expr, env0)
        except SignatureError:
            return None
        if is_nonpositive_integer(base):
            return None
        step = dict(parse_affine(expr)[1]) if isinstance(expr, str) else {}
        slots[slot] = base, [step.get("i", 0) * i + step.get("j", 0) * j
                             for i, j in units]
    unit_shifts = [_sum_shift(weight, i, j) for i, j in units]
    kernel, cell = ([], []), ([], [])
    for side, factors in enumerate((info.num, info.den)):
        for slot, index in factors:
            shifts = slots[slot][1]
            if shifts == [("m" in index) * si + ("n" in index) * sj
                          for si, sj in unit_shifts]:
                cell[side].append((slot, index))
            elif not any(shifts):
                kernel[side].append((slot, index))
            else:
                return None
    return {slot: base for slot, (base, _) in slots.items()}, kernel, cell


def _separable(indices: str, kernel) -> bool:
    """Whether a planned sum is over ij (so weighted xy) and its kernel's
    (slot, index) factors split as f(m) g(n), none indexed m+n."""
    return indices == "ij" and all("+" not in index for _, index in kernel)


def _outer_terms(e: dict, env: dict, degree: int, moved=((), (), {})):
    """(D, the (i, j, signed weight numerator over D, si, sj) of every
    nonzero term, lazily in the outer loop's order); a valid sum shifts
    term (i, j) to degree i + j.  The sum's num / den factors are a
    signature in (i, j), read as (m, n), over their params' base values,
    each evaluated once; `moved` = (num, den, p) adds the factors of
    another signature in (i, j) to it, and the whole is stepped with its
    pole rule (step_signature)."""
    sign, weight = e.get("sign", "+1"), e.get("weight", "xy")
    num, den = ([(f["param"], f["index"].replace("i", "m").replace("j", "n"))
                 for f in e.get(key, ())] for key in ("num", "den"))
    p = {param: eval_affine(param, env) for param, _ in num + den}
    bivariate = e.get("indices", "ij") == "ij"
    pairs = ((i, j) for i in range(degree + 1)
             for j in range(degree + 1 - i if bivariate else 1))
    D, weights = step_signature(num + list(moved[0]), den + list(moved[1]),
                                {**p, **moved[2]}, degree,
                                bivariate=bivariate)
    return D, ((i, j, _sign_value(sign, i, j) * a, *_sum_shift(weight, i, j))
               for (i, j), a in zip(pairs, weights) if a)


def _assemble_sum(e: dict, env: dict, degree: int) -> TruncatedBiseries:
    """The sum's triangle, by `TruncatedBiseries.shifted_sum`: a
    convolution with one shared kernel where _convolution_plan splits the
    inner signature, else with one inner triangle per term.

    Convolution: rhs(M, N) = C(M, N) * sum over terms of
    A(i, j) * B(M - si, N - sj), with B the unshifted factors over m! n!
    (every term's K) and C the aligned (b)_idx(M, N) (the cell factor),
    both stepped signatures.  The weight A(i, j) / C(si, sj) is one
    signature too, stepped as the outer weight is: the outer factors plus
    C's factors read at the term's shift, C's numerator among its
    denominator and C's denominator among its numerator.  No moved factor
    vanishes, as no inner base value is a non-positive integer.

    A B that _separable splits is f(m) g(n) over m! n!, and the sum is two
    passes, O(N^3) for O(N^4): with W the weights at their shifts (i, j),
    T(M, j) = sum_i f(M - i) W(i, j), then rhs(M, N) = C(M, N) *
    sum_j g(N - j) T(M, j), which reads T(M, j) at j <= N only.
    """
    weight = e.get("weight", "xy")
    plan = _convolution_plan(e, env, e.get("indices", "ij"), weight)
    if plan is None:
        D, terms = _outer_terms(e, env, degree)

        def inner_terms():
            for i, j, a, si, sj in terms:
                # x^si y^sj pushes inner degrees above degree - si - sj out
                # of the triangle, and no inner step reads a higher degree
                # to build a lower one, so the inner term is assembled only
                # that far.
                env2 = {**env, "i": Fraction(i), "j": Fraction(j)}
                try:
                    inner = _assemble_function_term(
                        e["inner"], env2, degree - si - sj)
                except PoleError as exc:
                    raise PoleError(f"at (i, j) = ({i}, {j}): {exc}") from exc
                yield a, si, sj, inner

        return TruncatedBiseries.shifted_sum(degree, inner_terms(), den=D)

    p, (b_num, b_den), (c_num, c_den) = plan
    # C's index at the shift (si, sj), as an index in (i, j): weight "y"
    # puts i on y, so m and n swap; "x" leaves j, and so n, at 0.  The
    # inner slots are keyed apart from the outer params ("C.alpha").
    swap = {"m": "n", "n": "m"} if weight == "y" else {}
    moved = ([("C." + slot, swap.get(index, index)) for slot, index in c_den],
             [("C." + slot, swap.get(index, index)) for slot, index in c_num],
             {"C." + slot: v for slot, v in p.items()})
    D, terms = _outer_terms(e, env, degree, moved)
    cell = stepped_triangle(
        step_signature(c_num, c_den, p, degree, factorial=False), degree)
    if _separable(e.get("indices", "ij"), b_num + b_den):
        rows = [[0] * (degree + 1 - m) for m in range(degree + 1)]
        for _, _, a, si, sj in terms:
            rows[si][sj] = a
        out = stepped_triangle((D, (v for row in rows for v in row)), degree)
        for axis in "mn":
            num, den = ([(slot, "m") for slot, index in b if index == axis]
                        for b in (b_num, b_den))
            d, steps = step_signature(num, den, p, degree, bivariate=False)
            out = TruncatedBiseries.shifted_sum(degree, [
                (f, s * (axis == "m"), s * (axis == "n"), out)
                for s, f in enumerate(steps)], cell if axis == "n" else None,
                den=d)
        return out
    kernel = stepped_triangle(step_signature(b_num, b_den, p, degree), degree)
    return TruncatedBiseries.shifted_sum(
        degree, [(a, si, sj, kernel) for _, _, a, si, sj in terms], cell,
        den=D)


def assemble_expression(e: dict, params: dict, degree: int
                        ) -> TruncatedBiseries:
    """Build the exact degree-`degree` triangle of a declarative expression.

    Every parameter must be an exact rational (`as_exact`), the degree a
    non-negative int, and the expression is validated first
    (`expression_symbols`), so a node outside its schema raises
    SignatureError instead of assembling as some other formula; each
    refusal is a SignatureError, in that order.  A sum's outer summation
    runs to the degree: its monomial weight pushes every later term out of
    the triangle.
    """
    env = exact_env(params, degree)
    expression_symbols(e)
    return _assemble(e, env, degree)


def exact_env(params: dict, degree: int) -> dict:
    """The parameters coerced by `as_exact`, then the degree checked to be
    a non-negative int; each refusal is a SignatureError."""
    env = {k: as_exact(v, f"parameter {k!r}") for k, v in params.items()}
    if type(degree) is not int or degree < 0:
        raise SignatureError(
            f"degree must be a non-negative int, not {degree!r}")
    return env


def _assemble(e: dict, env: dict, degree: int) -> TruncatedBiseries:
    etype = e["type"]
    if etype == "function":
        return _assemble_function_term(e, env, degree)
    if etype == "sum":
        return _assemble_sum(e, env, degree)
    series = _assemble(e["operand"], env, degree)
    for step in e["ops"]:
        # read the module globals per call, so that a wrapped apply_H or
        # apply_H_bar (a tracer's, a test's) sees every step
        apply = apply_H if step["op"] == "H" else apply_H_bar
        series = apply(
            series, eval_affine(step["a"], env), eval_affine(step["b"], env),
            axis=step["axis"])
    return series


_OPERATORS = ("H", "Hbar")


def _check_step(step) -> None:
    """Refuse an ops step that is not {op, axis, a, b} with op H or Hbar,
    axis in AXES and string a and b."""
    if not (isinstance(step, dict) and isinstance(step.get("op"), str)
            and step["op"] in _OPERATORS):
        raise SignatureError(f"ops step needs op H or Hbar, got {step!r}")
    if step.get("axis") not in AXES:
        raise SignatureError(f"ops step axis must be one of {AXES}: {step!r}")
    if not (isinstance(step.get("a"), str) and isinstance(step.get("b"), str)):
        raise SignatureError(f"ops step a and b must be strings: {step!r}")
    _check_keys(step, ("op", "axis", "a", "b"), "ops step")


_FUNCTION_KEYS = ("kind", "params", "axis", "transform_x", "transform_y",
                  "prefactor")
_NODE_KEYS = {
    "function": ("type",) + _FUNCTION_KEYS,
    "sum": ("type", "indices", "weight", "sign", "num", "den", "inner"),
    "ops": ("type", "ops", "operand"),
}


def _check_keys(node: dict, allowed, what: str) -> None:
    unknown = [key for key in node if key not in allowed]
    if unknown:
        raise SignatureError(f"{what} has unknown keys {unknown}")


def _function_symbols(e: dict, what: str) -> set[str]:
    """Symbols of a function node or a sum's inner term, after checking
    its params, axis, transforms and prefactor."""
    kind = e.get("kind")
    if kind is not None:
        if not (isinstance(kind, str) and kind in KINDS):
            raise SignatureError(f"unknown kind {kind!r}")
        if not isinstance(e.get("params"), dict):
            raise SignatureError("a function with a kind needs object params")
    if "axis" in e and not (kind in SINGLE_KINDS and e["axis"] in ("x", "y")):
        raise SignatureError(f"{what} axis must be 'x' or 'y', on a "
                             f"single-variable kind, not {e['axis']!r} on {kind}")
    for key, table in (("transform_x", X_TRANSFORMS),
                       ("transform_y", Y_TRANSFORMS)):
        name = e.get(key, "identity")
        if not (isinstance(name, str) and name in table):
            raise SignatureError(
                f"{what} {key} must be one of {list(table)}, not {name!r}")
    out: set[str] = set()
    for key in ("params", "prefactor"):
        if not isinstance(e.get(key) or {}, dict):
            raise SignatureError(f"function {key} must be an object")
        for expr in (e.get(key) or {}).values():
            out |= affine_symbols(str(expr))
    _check_keys(e.get("prefactor") or {}, PREFACTORS, f"{what} prefactor")
    return out


def expression_symbols(e: dict) -> set[str]:
    """All parameter symbols an expression needs bound (index names
    excluded).  Walks every node, so a malformed one raises SignatureError:
    a node, sum factor, ops step or prefactor may hold only its schema's
    keys; a function's `kind` is one of series.KINDS, its `params`
    (required with a kind) and `prefactor` must be objects, its transforms
    named in series.X_TRANSFORMS / Y_TRANSFORMS, and an `axis` x or y on a
    single-variable kind; a sum's `sign`, `indices` and `weight` are one of
    SIGNS, INDICES and WEIGHTS, with weight xy on a sum over ij, its
    `inner` such a function without a type, and its `num` / `den` lists of
    {param, index} objects with an index in INDEX_EXPRS and a param free of
    i and j; an ops node needs a list of {op, axis, a, b} steps (op H or
    Hbar, axis in AXES, string a and b) and an operand object."""
    if not isinstance(e, dict):
        raise SignatureError(f"an expression must be an object, not {e!r}")
    out: set[str] = set()
    etype = e.get("type")
    if not (isinstance(etype, str) and etype in _NODE_KEYS):
        raise SignatureError(f"unknown expression type {etype!r}")
    _check_keys(e, _NODE_KEYS[etype], f"{etype} node")
    if etype == "function":
        out |= _function_symbols(e, "function")
    elif etype == "sum":
        for key, allowed, default in (("sign", SIGNS, "+1"),
                                      ("indices", INDICES, "ij"),
                                      ("weight", WEIGHTS, "xy")):
            if e.get(key, default) not in allowed:
                raise SignatureError(f"sum {key} must be one of {allowed}, "
                                     f"not {e[key]!r}")
        if e.get("indices", "ij") == "ij" and e.get("weight", "xy") != "xy":
            # x^i or y^i leaves the j-sum without a degree bound
            raise SignatureError(f"a sum over ij needs weight 'xy', "
                                 f"not {e['weight']!r}")
        for key in ("num", "den"):
            factors = e.get(key, [])
            if not isinstance(factors, list) or not all(
                    isinstance(f, dict) and set(f) == {"param", "index"}
                    for f in factors):
                raise SignatureError(
                    f"sum {key} must be a list of {{param, index}} objects")
            for factor in factors:
                if factor["index"] not in INDEX_EXPRS:
                    raise SignatureError(
                        f"sum {key} index must be one of {INDEX_EXPRS}, "
                        f"not {factor['index']!r}")
                symbols = affine_symbols(str(factor["param"]))
                if symbols & set(INDEX_SYMBOLS):
                    raise SignatureError(
                        f"sum {key} param must not contain i or j, "
                        f"not {factor['param']!r}")
                out |= symbols
        inner = e.get("inner")
        if not (isinstance(inner, dict) and "kind" in inner
                and isinstance(inner.get("params"), dict)):
            raise SignatureError(
                "sum inner must be an object with kind and object params")
        _check_keys(inner, _FUNCTION_KEYS, "sum inner")
        out |= _function_symbols(inner, "sum inner")
    else:
        steps, operand = e.get("ops"), e.get("operand")
        if not (isinstance(steps, list) and isinstance(operand, dict)):
            raise SignatureError("ops node needs a list ops and an operand object")
        for step in steps:
            _check_step(step)
            out |= affine_symbols(step["a"]) | affine_symbols(step["b"])
        out |= expression_symbols(operand)
    return out - set(INDEX_SYMBOLS)
