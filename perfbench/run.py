"""Benchmark of the humbert verifier: exact catalog, integral sweep, point
evaluation.

    python3 perfbench/run.py --workload exact-catalog --seed 0 --seconds 30 --trace 0
    python3 perfbench/run.py --workload all --seed 0 --seconds 30

Load is one caller in one process, a serial closed loop: each op is sent
only after the previous one returns.  The op list of a workload is run in
whole passes until the next pass would overrun `--seconds` (at least one
pass).  Every op's output in every pass is judged by the workload's
oracle after the timed passes; `attempted` and `failed` count each op
once.  An op's time is its median over the passes, each time divided by
the host slowdown the calibration kernels measured around it (see
calibration.py), so times read as seconds at a reference speed.

`--trace 0` prints the end-to-end metrics; `--trace 1` spends half the time
on untraced passes and half on traced ones, prints the per-layer metrics,
including the tracing overhead, and writes the spans to
.cache/spans-<workload>-<seed>.npz.  `--workload all` runs every
workload in turn and prints both.  The last line of standard output is
one JSON object: {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
from bisect import bisect_left, bisect_right
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

from calibration import slowdown, time_kernels

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = HERE / ".cache"  # point-eval references and the traced runs' spans
WORKLOADS = ("exact-catalog", "integral-sweep", "point-eval")
SETUP_RUNS = 11
# The reference import's time (setup_probe.py --reference) at the reference
# speed: about its median on a 2.1 GHz x86-64 virtual CPU under CPython 3.11.
SETUP_REFERENCE_S = 0.085
CAL_EVERY = 0.2
CAL_WINDOW = 1.0


@dataclass
class Pass:
    wall: float
    starts: list
    latencies: list
    outputs: list
    kernels: list  # (time, calibration kernel timings) taken during the pass

    @property
    def slowdown(self) -> float:
        return slowdown([k for _, k in self.kernels])

    def scaled(self) -> list[float]:
        """Each op's time divided by the host slowdown measured by the
        kernel timings within CAL_WINDOW seconds of it (by the whole pass's
        when fewer than three are)."""
        times = [t for t, _ in self.kernels]
        timings = [k for _, k in self.kernels]
        whole = slowdown(timings)
        out = []
        for t0, dt in zip(self.starts, self.latencies):
            lo = bisect_left(times, t0 - CAL_WINDOW)
            hi = bisect_right(times, t0 + dt + CAL_WINDOW)
            out.append(dt / (slowdown(timings[lo:hi]) if hi - lo >= 3
                             else whole))
        return out


def run_passes(ops, budget: float, call) -> list[Pass]:
    """Whole passes over `ops` until the next one would end past `budget`
    seconds; an exception raised by an op is its output.  The calibration
    kernels run between ops, about every CAL_EVERY seconds."""
    passes: list[Pass] = []
    began = perf_counter()
    while True:
        starts, latencies, outputs = [], [], []
        kernels = [(perf_counter(), time_kernels())]
        t_pass = next_cal = perf_counter()
        for op in ops:
            t0 = perf_counter()
            try:
                out = call(op)
            except Exception as exc:  # a refused or crashed op is a result
                out = exc
            t1 = perf_counter()
            starts.append(t0)
            latencies.append(t1 - t0)
            outputs.append(out)
            if t1 >= next_cal:
                kernels.append((t1, time_kernels()))
                next_cal = perf_counter() + CAL_EVERY
        wall = perf_counter() - t_pass
        passes.append(Pass(wall, starts, latencies, outputs, kernels))
        if perf_counter() - began + wall > budget:
            return passes


def _probe(*args: str) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "setup_probe.py"), *args],
        capture_output=True, text=True, timeout=120, check=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def measure_setup(runs: int = SETUP_RUNS) -> dict[str, float]:
    """Median over fresh interpreters of each set-up step, and their sum,
    each divided by the host slowdown that the reference import timed just
    before it gives, so that they read as seconds at the reference speed."""
    samples = []
    for _ in range(runs):
        scale = SETUP_REFERENCE_S / _probe("--reference")["reference_s"]
        sample = _probe(str(SRC))
        if not Path(sample.pop("module")).resolve().is_relative_to(SRC):
            raise RuntimeError("set-up probe imported humbert from elsewhere")
        sample = {key: value * scale for key, value in sample.items()}
        sample["setup_s"] = sum(sample.values())
        samples.append(sample)
    return {key: statistics.median(s[key] for s in samples)
            for key in samples[0]}


def build(workload: str, seed: int):
    """(ops, judge, notes): judge(ops, outputs) gives one outcome string
    per op, "ok" meaning the op passed its oracle."""
    import humbert.catalog as catalog

    import workloads as w

    if workload == "exact-catalog":
        ops = w.exact_catalog_ops(seed, catalog.load_catalog())

        def judge(ops, outs):
            return ["ok" if w.judge_exact(op, out) else "failed"
                    for op, out in zip(ops, outs)]
        return ops, judge, {}
    if workload == "integral-sweep":
        ops = w.integral_sweep_ops(seed)

        def judge(ops, outs):
            verdict = w.adjudicate(ops, outs)
            return ["failed" if isinstance(out, Exception)
                    or verdict[op.group] != op.expect else "ok"
                    for op, out in zip(ops, outs)]
        return ops, judge, {}
    points, refs, redrawn = w.cached_point_eval_inputs(seed, CACHE)
    ops = w.point_eval_ops(points, refs)

    def judge(ops, outs):
        return [w.eval_outcome(op, out) for op, out in zip(ops, outs)]
    return ops, judge, {"redrawn": redrawn}


def percentile(values: list[float], q: int) -> float:
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def verdicts(ops, passes: list[Pass], judge):
    """(attempted, failed, correct, outcome counts) of a run.  Each op
    counts once however many passes ran it, so the counts depend on the
    seed alone, not on how many passes the time allowed: an op fails when
    any pass's output for it fails its oracle, with the first such outcome.
    correct is false when an op marked must_pass failed."""
    per_pass = [judge(ops, p.outputs) for p in passes]
    failed = 0
    correct = True
    counts: dict[str, int] = {}
    for op, outcomes in zip(ops, zip(*per_pass)):
        outcome = next((o for o in outcomes if o != "ok"), "ok")
        counts[outcome] = counts.get(outcome, 0) + 1
        if outcome != "ok":
            failed += 1
            correct = correct and not op.must_pass
    return len(ops), failed, correct, counts


def op_times(passes: list[Pass], calibrated: bool = True) -> list[float]:
    """Each op's median time over the passes, calibrated to the reference
    speed unless `calibrated` is false."""
    return [statistics.median(ts) for ts in zip(*(
        p.scaled() if calibrated else p.latencies for p in passes))]


def end_to_end(passes: list[Pass], setup: dict) -> dict[str, tuple]:
    times = op_times(passes)
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    return {
        "setup_s": (setup["setup_s"], "s"),
        "wall_s": (sum(times), "s"),
        "op_p50_ms": (percentile(times, 50) * 1e3, "ms"),
        "op_p90_ms": (percentile(times, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_kb / 1024.0, "MB"),
    }


def per_layer(workload, ops, passes, tracer, judge, untraced, setup):
    """Per-layer metrics of the traced passes, each per pass; times are at
    the reference speed, like the end-to-end ones."""
    import humbert.quadrature as quadrature

    n = len(passes)
    slow = statistics.median(p.slowdown for p in passes)
    totals = tracer.layer_totals()
    out: dict[str, tuple] = {}
    for name, with_calls in (
        ("scalars.pochhammer", True), ("series.truncated_series", True),
        ("series.mul", True), ("series.substitute_args", False),
        ("series.first_mismatch", False),
        ("expressions.assemble_expression", True),
        ("operators.apply_H", False), ("operators.apply_H_bar", False),
        ("catalog.verify_formula", False),
        ("identities.verify_operator_identity", False),
        ("series.eval_double_series", True),
        ("quadrature.eval_integral", True), ("quadrature.ray_coeffs", True),
        ("quadrature.poly_arr", True), ("quadrature.kummer_arr", True),
        ("quadrature.bessel_arr", True), ("quadrature.gauss_arr", True),
        ("quadrature.phi1_arr", True), ("quadrature.series_value", False),
    ):
        calls, busy = totals[name]
        if with_calls:
            out[f"{name}.calls"] = (calls / n, "count")
        out[f"{name}.self_s"] = (busy / n / slow, "s")
    for key in ("scalars.pochhammer.factors", "series.truncated_series.cells",
                "series.eval_double_series.diagonals",
                "quadrature.eval_integral.levels",
                "quadrature.eval_integral.nodes",
                "quadrature.ray_coeffs.coeffs"):
        out[key] = (tracer.counts.get(key, 0) / n, "count")
    out["series.coeff_bits_max"] = (
        tracer.counts.get("series.coeff_bits_max", 0), "bits")
    _, _, _, outcomes = verdicts(ops, passes, judge)  # point-eval's only
    out["series.eval.wrong"] = (outcomes.get("wrong", 0), "count")
    out["series.eval.refused"] = (outcomes.get("refused", 0), "count")
    style = {"1d": 0.0, "ps": 0.0, "rw": 0.0}
    traced_times = op_times(passes)
    if workload == "integral-sweep":
        for op, t in zip(ops, traced_times):
            style[quadrature.REPS[op.group].style] += t
    for key, value in style.items():
        out[f"quadrature.style.{key}.wall_s"] = (value, "s")
    for key in ("import_s", "load_catalog_s", "load_config_s"):
        out[f"setup.{key}"] = (setup[key], "s")
    overhead = sum(traced_times) / sum(op_times(untraced)) - 1.0
    out["trace.overhead"] = (overhead, "ratio")
    return out


def measure(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    from tracing import OP_SPAN, Tracer

    ops, judge, notes = build(workload, seed)
    setup = measure_setup()
    budget = seconds / 2 if trace else seconds
    untraced = run_passes(ops, budget, lambda op: op.call())
    attempted, failed, correct, outcomes = verdicts(ops, untraced, judge)
    result = {
        "workload": workload, "seed": seed, "ops": len(ops),
        "passes": len(untraced), "attempted": attempted, "failed": failed,
        "correct": correct, "outcomes": outcomes, "notes": notes,
        "e2e": end_to_end(untraced, setup),
        "lat": [t for p in untraced for t in p.scaled()],
        "raw_wall_s": sum(op_times(untraced, calibrated=False)),
        "slowdown": [p.slowdown for p in untraced],
        "broken": [op.label
                   for op, o in zip(ops, judge(ops, untraced[0].outputs))
                   if o != "ok" and op.must_pass],
    }
    if trace:
        tracer = Tracer()
        op_span = tracer.wrap(OP_SPAN, lambda op: op.call())
        with tracer:
            traced = run_passes(ops, budget, op_span)
        if judge(ops, traced[0].outputs) != judge(ops, untraced[0].outputs):
            raise RuntimeError("traced and untraced passes gave other verdicts")
        result["layers"] = per_layer(workload, ops, traced, tracer, judge,
                                     untraced, setup)
        result["traced_passes"] = len(traced)
        CACHE.mkdir(exist_ok=True)
        tracer.write_spans(CACHE / f"spans-{workload}-{seed}.npz")
    return result


def environment() -> dict:
    import mpmath
    import numpy

    try:
        sha = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=10, check=True,
        ).stdout.strip()
    except (OSError, subprocess.SubprocessError):
        sha = "unknown"
    return {
        "git_sha": sha, "python": platform.python_version(),
        "numpy": numpy.__version__, "mpmath": mpmath.__version__,
        "nproc": os.cpu_count(),
    }


def report(result: dict) -> None:
    """Human-readable summary of one workload on standard output."""
    lat = result["lat"]
    print(f"== {result['workload']} seed {result['seed']}: {result['ops']} ops"
          f" x {result['passes']} passes = {len(lat)} samples")
    for name, (value, unit) in result["e2e"].items():
        print(f"  {name:<40} {value:>14.6g} {unit}")
    print(f"  {'fail_share':<40} "
          f"{result['failed'] / result['attempted']:>14.6g} "
          f"({result['failed']} of {result['attempted']}; "
          f"{json.dumps(result['outcomes'], sort_keys=True)})")
    if len(lat) >= 1000:  # at least ten samples beyond the 99th percentile
        print(f"  {'op_p99_ms':<40} {percentile(lat, 99) * 1e3:>14.6g} ms")
    print(f"  {'raw wall_s (uncalibrated)':<40} {result['raw_wall_s']:>14.6g} s")
    print(f"  {'host slowdown per pass':<40} "
          + " ".join(f"{x:.3f}" for x in result["slowdown"]))
    for key, value in result["notes"].items():
        print(f"  {key:<40} {value:>14}")
    for label in result["broken"]:
        print(f"  FAILED {label}")
    if "layers" in result:
        print(f"  traced passes: {result['traced_passes']}")
        for name, (value, unit) in result["layers"].items():
            print(f"  {name:<40} {value:>14.6g} {unit}")


def _metrics(pairs: dict, prefix: str = "") -> dict:
    return {prefix + name: {"value": value, "unit": unit}
            for name, (value, unit) in pairs.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "humbert" / "__init__.py").is_file():
        print(f"no humbert package under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import humbert

    if not Path(humbert.__file__).resolve().is_relative_to(SRC):
        print(f"humbert imported from {humbert.__file__}, not {SRC}",
              file=sys.stderr)
        return 2

    print("environment:", json.dumps(environment(), sort_keys=True))
    if args.workload != "all":
        result = measure(args.workload, args.seed, args.seconds,
                         bool(args.trace))
        report(result)
        metrics = result["layers"] if args.trace else result["e2e"]
        print(json.dumps({
            "correct": result["correct"], "attempted": result["attempted"],
            "failed": result["failed"], "metrics": _metrics(metrics),
        }))
        return 0
    results = [measure(name, args.seed, args.seconds, True)
               for name in WORKLOADS]
    metrics = {}
    for result in results:
        report(result)
        metrics.update(_metrics(result["e2e"], result["workload"] + "/"))
        metrics.update(_metrics(result["layers"], result["workload"] + "/"))
    print(json.dumps({
        "correct": all(r["correct"] for r in results),
        "attempted": sum(r["attempted"] for r in results),
        "failed": sum(r["failed"] for r in results),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
