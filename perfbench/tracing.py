"""Traced mode: spans around the package's public functions.

`Tracer` replaces each traced function by a wrapper on every `humbert`
module that holds it, and puts the originals back on exit, so only the
traced passes of a traced run see wrappers.  Each call records a span
(name, parent span, start, end) in flat in-memory arrays; self times and
per-layer totals are computed from the spans when the run ends.  A few
wrappers also count the work the call did (Pochhammer factors, triangle
cells, quadrature nodes, ...).
"""

from __future__ import annotations

import sys
from array import array
from fractions import Fraction
from time import perf_counter

import numpy as np

import humbert.quadrature as quadrature

# (span name, module, attribute path) of every traced function.
TARGETS = (
    ("scalars.pochhammer", "scalars", "pochhammer"),
    ("series.truncated_series", "series", "truncated_series"),
    ("series.mul", "series", "TruncatedBiseries.__mul__"),
    ("series.substitute_args", "series", "substitute_args"),
    ("series.first_mismatch", "series", "TruncatedBiseries.first_mismatch"),
    ("series.eval_double_series", "series", "eval_double_series"),
    ("expressions.assemble_expression", "expressions", "assemble_expression"),
    ("operators.apply_H", "operators", "apply_H"),
    ("operators.apply_H_bar", "operators", "apply_H_bar"),
    ("catalog.verify_formula", "catalog", "verify_formula"),
    ("identities.verify_operator_identity", "identities",
     "verify_operator_identity"),
    ("quadrature.series_value", "quadrature", "series_value"),
    ("quadrature.eval_integral", "quadrature", "eval_integral"),
    ("quadrature.ray_coeffs", "quadrature", "ray_coeffs"),
    ("quadrature.poly_arr", "quadrature", "poly_arr"),
    ("quadrature.kummer_arr", "quadrature", "kummer_arr"),
    ("quadrature.bessel_arr", "quadrature", "bessel_arr"),
    ("quadrature.gauss_arr", "quadrature", "gauss_arr"),
    ("quadrature.phi1_arr", "quadrature", "phi1_arr"),
)
OP_SPAN = "op"


def _coeff_bits(triangle) -> int:
    """Largest numerator or denominator bit length of an exact triangle."""
    best = 0
    for m in range(triangle.degree + 1):
        for n in range(triangle.degree + 1 - m):
            c = triangle.coeff(m, n)
            if isinstance(c, Fraction):
                best = max(best, c.numerator.bit_length(),
                           c.denominator.bit_length())
    return best


def _nodes_per_axis(level: int) -> int:
    """Size of the tanh-sinh abscissa grid t = -T_MAX..T_MAX, step 2^-level."""
    return int(round(2 * quadrature.T_MAX * 2.0 ** level)) + 1


class Tracer:
    """Context manager: installs the wrappers on entry, removes them on exit."""

    def __init__(self):
        self.names = [OP_SPAN] + [name for name, _, _ in TARGETS]
        self.name_id = {name: i for i, name in enumerate(self.names)}
        self.span_name = array("H")
        self.parent = array("l")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []
        self.counts: dict[str, float] = {}
        self._patched: list[tuple[object, str, object]] = []

    # -- counters fed by wrappers --------------------------------------------

    def _add(self, key: str, amount: float) -> None:
        self.counts[key] = self.counts.get(key, 0) + amount

    def _hooks(self) -> dict:
        def pochhammer(args, kwargs, result):
            n = args[1] if len(args) > 1 else kwargs["n"]
            self._add("scalars.pochhammer.factors", n)

        def truncated(args, kwargs, result):
            d = result.degree
            self._add("series.truncated_series.cells", (d + 1) * (d + 2) // 2)

        def assembled(args, kwargs, result):
            bits = _coeff_bits(result)
            if bits > self.counts.get("series.coeff_bits_max", 0):
                self.counts["series.coeff_bits_max"] = bits

        def diagonals(args, kwargs, result):
            self._add("series.eval_double_series.diagonals",
                      result[1]["diagonals"])

        def integral(args, kwargs, result):
            rep = args[0] if not isinstance(args[0], str) \
                else quadrature.REPS[args[0]]
            diag = result[1]
            self._add("quadrature.eval_integral.levels",
                      len(diag["history"]) + 1)
            self._add("quadrature.eval_integral.nodes",
                      _nodes_per_axis(diag["final_level"]) ** rep.dim)

        def coeffs(args, kwargs, result):
            self._add("quadrature.ray_coeffs.coeffs", len(result))

        return {
            "scalars.pochhammer": pochhammer,
            "series.truncated_series": truncated,
            "expressions.assemble_expression": assembled,
            "series.eval_double_series": diagonals,
            "quadrature.eval_integral": integral,
            "quadrature.ray_coeffs": coeffs,
        }

    # -- spans ---------------------------------------------------------------

    def wrap(self, name: str, fn, hook=None):
        sid = self.name_id[name]
        span_name, parent = self.span_name, self.parent
        start, end, stack = self.start, self.end, self.stack

        def traced(*args, **kwargs):
            idx = len(start)
            span_name.append(sid)
            parent.append(stack[-1] if stack else -1)
            end.append(0.0)
            stack.append(idx)
            start.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
            finally:
                end[idx] = perf_counter()
                stack.pop()
            if hook is not None:
                hook(args, kwargs, result)
            return result

        traced.__wrapped__ = fn
        return traced

    def __enter__(self) -> "Tracer":
        hooks = self._hooks()
        modules = [m for key, m in list(sys.modules.items())
                   if key == "humbert" or key.startswith("humbert.")]
        for name, modname, attr in TARGETS:
            owner = sys.modules[f"humbert.{modname}"]
            *path, leaf = attr.split(".")
            for part in path:
                owner = getattr(owner, part)
            original = getattr(owner, leaf)
            wrapper = self.wrap(name, original, hooks.get(name))
            if path:  # a method: patch every class attribute bound to it
                for key, value in list(vars(owner).items()):
                    if value is original:
                        self._patch(owner, key, wrapper)
                continue
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        self._patch(module, key, wrapper)
        return self

    def _patch(self, owner, key: str, wrapper) -> None:
        self._patched.append((owner, key, getattr(owner, key)))
        setattr(owner, key, wrapper)

    def __exit__(self, *exc) -> None:
        for owner, key, original in reversed(self._patched):
            setattr(owner, key, original)
        self._patched.clear()

    # -- results -------------------------------------------------------------

    def layer_totals(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, self seconds): span duration minus the time its
        child spans cover."""
        names = np.frombuffer(self.span_name, dtype=np.uint16)
        parent = np.frombuffer(self.parent, dtype=np.int64)
        dur = (np.frombuffer(self.end, dtype=np.float64)
               - np.frombuffer(self.start, dtype=np.float64))
        covered = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(covered, parent[has_parent], dur[has_parent])
        self_time = dur - covered
        calls = np.bincount(names, minlength=len(self.names))
        busy = np.bincount(names, weights=self_time, minlength=len(self.names))
        return {name: (int(calls[i]), float(busy[i]))
                for i, name in enumerate(self.names)}

    def write_spans(self, path) -> None:
        """All spans, as NumPy columns: span name index into `names`,
        parent span index (-1 for a root), start and end in seconds."""
        np.savez_compressed(
            path, names=np.array(self.names),
            name=np.frombuffer(self.span_name, dtype=np.uint16),
            parent=np.frombuffer(self.parent, dtype=np.int64),
            start=np.frombuffer(self.start, dtype=np.float64),
            end=np.frombuffer(self.end, dtype=np.float64),
        )
