"""Benchmark of the conjrisk CLI and library: three workloads, oracle checks,
end-to-end metrics and a traced per-layer run.

Run from the repository root::

    python3 benchmarks/run.py --workload triage --seed 1 --seconds 30 --trace 0

``--trace 0`` cycles through the workload's operations for ``--seconds``
with tracing off and reports the end-to-end metrics. ``--trace 1`` runs the
first third of the operations, each once untraced and once traced, and
reports the
per-layer metrics, the tracing overhead among them; the spans go to
``benchmarks/out/trace-<workload>-<seed>.json``. Either way every metric is printed by name and unit, and the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``.

Load comes from one closed-loop client in this process: operations run one
after another, each through ``conjrisk.cli.run_command`` (or, for the 3-D
validity experiment, the library), with stdout and stderr captured.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import itertools
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import numpy as np

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

SETUP_PROBES = 5
BARE_PROBES = 3
#: The machine's speed is sampled with ``calibration_s`` this often, and
#: each timing is scaled by NOMINAL_CAL_S over the median sample within
#: SPEED_WINDOW_S of it (see ``Speed``).
CAL_EVERY_S = 0.5
SPEED_WINDOW_S = 2.0
NOMINAL_CAL_S = 2.5e-3
#: The traced run takes this share of the operations, once untraced and
#: once traced, so that it lasts about as long as an untimed run.
TRACE_SHARE = 3


def _fail(message: str) -> int:
    print(f"benchmark error: {message}", file=sys.stderr)
    return 2


def _quantile(values, q: float) -> float:
    """Linear-interpolated quantile ``q`` in [0, 1]."""
    ordered = sorted(values)
    pos = q * (len(ordered) - 1)
    lo = math.floor(pos)
    hi = min(lo + 1, len(ordered) - 1)
    return ordered[lo] + (ordered[hi] - ordered[lo]) * (pos - lo)


_CAL_MATRIX = np.array([[4.0, 1.0, 0.5], [1.0, 3.0, 0.2], [0.5, 0.2, 2.0]])


def calibration_s() -> float:
    """Time of a fixed mix of interpreter and small-array work that does not
    touch conjrisk, like the mix the toolkit itself runs."""
    start = time.perf_counter()
    acc = 0.0
    for i in range(6000):
        acc += math.sqrt(i + 1.0)
    mat = _CAL_MATRIX
    for _ in range(120):
        vals, vecs = np.linalg.eigh(mat)
        mat = (vecs * vals) @ vecs.T
    return time.perf_counter() - start


class Speed:
    """Machine speed over a run, for timings that do not depend on it.

    Shared machines drift between speed phases tens of percent apart that
    last seconds to minutes, far longer than one operation. A calibration
    kernel timed every CAL_EVERY_S tracks the phase; a timing taken at time
    ``t`` is reported as its wall time times NOMINAL_CAL_S over the median
    kernel time within SPEED_WINDOW_S of ``t``: the time it would have taken
    on a machine where the kernel takes NOMINAL_CAL_S.
    """

    def __init__(self):
        self.samples: list[tuple[float, float]] = []   # (perf_counter, kernel s)

    def sample(self, force: bool = False) -> None:
        now = time.perf_counter()
        if force or not self.samples or now - self.samples[-1][0] >= CAL_EVERY_S:
            self.samples.append((now, calibration_s()))

    def factor(self, t: float) -> float:
        near = [c for at, c in self.samples if abs(at - t) <= SPEED_WINDOW_S]
        if not near:
            near = [min(self.samples, key=lambda sample: abs(sample[0] - t))[1]]
        return NOMINAL_CAL_S / statistics.median(near)


class Client:
    """Runs operations one at a time and records latency and verdicts."""

    def __init__(self, run_command):
        self.run_command = run_command
        self.records: list[tuple] = []   # (op, seconds, failed, exact, gross, start)

    def run(self, op) -> float:
        out, err = io.StringIO(), io.StringIO()
        result = None
        failed = False
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                if op.call is not None:
                    result = op.call()
                else:
                    failed = self.run_command(op.argv) != 0
            except Exception:           # an escaped exception is a failed operation
                failed = True
                result = traceback.format_exc()
            elapsed = time.perf_counter() - start
        exact = gross = False
        if failed:
            print(f"operation failed: {op.argv or op.kind}\n{err.getvalue()}{result or ''}",
                  file=sys.stderr)
        else:
            try:
                exact, gross = op.check(out.getvalue(), result)
            except (ValueError, KeyError, IndexError, TypeError):
                exact = gross = False    # malformed output misses its oracle
        self.records.append((op, elapsed, failed, exact, gross, start))
        return elapsed


def _probe(argv: list[str], repeats: int, speed: Speed) -> list[float]:
    """Speed-scaled wall times of ``repeats`` sequential subprocesses; each
    must exit 0."""
    times = []
    for _ in range(repeats):
        speed.sample(force=True)
        start = time.perf_counter()
        proc = subprocess.run(argv, stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              cwd=ROOT, timeout=120, check=False)
        times.append((time.perf_counter() - start) * speed.factor(start))
        if proc.returncode != 0:
            raise RuntimeError(f"probe {argv[1:3]} exited {proc.returncode}: "
                               f"{proc.stderr.decode(errors='replace')}")
    return times


def end_to_end(records, setup: list[float], bare: list[float], speed: Speed) -> dict:
    """End-to-end metrics; every time is speed-scaled (see ``Speed``)."""
    scaled = {id(r): r[1] * speed.factor(r[5]) for r in records}
    lat = [scaled[id(r)] for r in records]
    busy = sum(lat)
    n = len(records)

    def kind_stats(kinds):
        sel = [scaled[id(r)] * 1e3 for r in records if r[0].kind in kinds]
        return (_quantile(sel, 0.5), _quantile(sel, 0.9), len(sel)) if sel else None

    metrics = {
        "setup_s": (statistics.median(setup), "s", len(setup)),
        "ops_per_s": (n / busy, "1/s", n),
        "op_p50_ms": (_quantile(lat, 0.5) * 1e3, "ms", n),
        "op_p90_ms": (_quantile(lat, 0.9) * 1e3, "ms", n),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB", 1),
    }
    for prefix, kinds in (("pc", {"pc"}), ("screen", {"screen"}),
                          ("curve", {"dilution", "curve_semi", "curve_mc"})):
        stats = kind_stats(kinds)
        if stats:
            metrics[f"{prefix}_p50_ms"] = (stats[0], "ms", stats[2])
            metrics[f"{prefix}_p90_ms"] = (stats[1], "ms", stats[2])
    for name, attr in (("mc_trials_per_s", "mc_trials"), ("belief_evals_per_s", "belief_evals")):
        sel = [(getattr(r[0], attr), scaled[id(r)]) for r in records if getattr(r[0], attr)]
        if sel:
            metrics[name] = (sum(w for w, _ in sel) / sum(t for _, t in sel), "1/s", len(sel))
    metrics["failed_frac"] = (sum(r[2] for r in records) / n, "1", n)
    metrics["wrong_frac"] = (sum(not r[2] and not r[3] for r in records) / n, "1", n)
    metrics["bare_python_s"] = (statistics.median(bare), "s", len(bare))
    factors = [speed.factor(r[5]) for r in records]
    metrics["speed_factor_min"] = (min(factors), "1", len(speed.samples))
    metrics["speed_factor_max"] = (max(factors), "1", len(speed.samples))
    metrics["raw_ops_per_s"] = (n / sum(r[1] for r in records), "1/s", n)
    return metrics


def per_layer(tracer, records, untraced_s: float, traced_s: float) -> dict:
    """Per-layer metrics from the spans of one traced pass."""
    durations = tracer.durations()
    self_times = tracer.self_times()
    index = tracer.by_name()
    n_ops = len(records)

    def spans(name):
        return index.get(name, [])

    def calls(name):
        return float(len(spans(name)))

    def ms_per_call(name):
        ids = spans(name)
        return 1e3 * sum(durations[i] for i in ids) / len(ids) if ids else 0.0

    def self_ms(name):
        ids = spans(name)
        return 1e3 * sum(self_times[i] for i in ids) / len(ids) if ids else 0.0

    def attr_values(name, key):
        return [tracer.attrs[i][key] for i in spans(name) if i in tracer.attrs]

    def per_call(ancestor, name):
        ids = spans(ancestor)
        counts = tracer.descendant_counts(ancestor, name)
        return sum(counts.values()) / len(ids) if ids else 0.0

    n_quad = attr_values("probability.pc_contour", "n_quad")
    quad_err = attr_values("probability.pc_contour", "quad_error_est")
    batch = spans("probability.pc_circular_batch")
    batch_time = sum(durations[i] for i in batch)
    beliefs = spans("validity.belief")
    waste = sum(1 for i in spans("propositions.intersects_region")
                if tracer.parents[i] >= 0
                and tracer.names[tracer.parents[i]] == "validity.region_belief")

    values = {
        "cli.overhead_ms": self_ms("cli.run_command"),
        "fileio.parse_json.ms_per_call": ms_per_call("fileio.parse_json"),
        "fileio.parse_kvn.ms_per_call": ms_per_call("fileio.parse_kvn"),
        "geometry.joint_state.ms_per_call": ms_per_call("geometry.joint_state"),
        "geometry.relative_covariance.ms_per_call": ms_per_call("geometry.relative_covariance"),
        "geometry.encounter_frame.ms_per_call": ms_per_call("geometry.encounter_frame"),
        "geometry.standardize.ms_per_call": ms_per_call("geometry.standardize"),
        "probability.pc_contour.ms_per_call": ms_per_call("probability.pc_contour"),
        "probability.pc_contour.n_quad_mean": statistics.fmean(n_quad) if n_quad else 0.0,
        "probability.pc_contour.n_quad_max": float(max(n_quad, default=0)),
        "probability.pc_contour.quad_error_est_max": float(max(quad_err, default=0.0)),
        "probability.pc_circular.calls_per_op": calls("probability.pc_circular") / n_ops,
        "probability.pc_circular.ms_per_call": ms_per_call("probability.pc_circular"),
        "probability.pc_circular_batch.points_per_s":
            sum(tracer.attrs[i]["points"] for i in batch) / batch_time if batch_time else 0.0,
        "detection.critical_displacement.calls": calls("detection.critical_displacement"),
        "detection.critical_displacement.ms_per_call":
            ms_per_call("detection.critical_displacement"),
        "detection.critical_displacement.pc_evals_per_call":
            per_call("detection.critical_displacement", "probability.pc_circular"),
        "detection.ncx2_cdf.calls": calls("detection.ncx2_cdf"),
        "detection.ncx2_cdf.ms_per_call": ms_per_call("detection.ncx2_cdf"),
        "rng.stream.calls": calls("rng.stream"),
        "rng.stream.ms_per_call": ms_per_call("rng.stream"),
        "ellipsoids.min_distance.ms_per_call": ms_per_call("ellipsoids.min_distance"),
        "ellipsoids.min_distance.project_point_calls_per_call":
            per_call("ellipsoids.min_distance", "ellipsoids.project_point"),
        "ellipsoids.standardized_range.calls": calls("ellipsoids.standardized_range"),
        "ellipsoids.standardized_range.ms_per_call": ms_per_call("ellipsoids.standardized_range"),
        "ellipsoids.build_ellipsoid.calls": calls("ellipsoids.build_ellipsoid"),
        "ellipsoids.build_ellipsoid.ms_per_call": ms_per_call("ellipsoids.build_ellipsoid"),
        "screening.position_ellipsoids.ms_per_call": ms_per_call("screening.position_ellipsoids"),
        "screening.screen_conjunction.self_ms": self_ms("screening.screen_conjunction"),
        "propositions.contains_region.calls": calls("propositions.contains_region"),
        "propositions.intersects_region.calls": calls("propositions.intersects_region"),
        "validity.belief.ms_per_call": ms_per_call("validity.belief"),
        "validity.plausibility_waste": waste / len(beliefs) if beliefs else 0.0,
        "trace.overhead_ms": 1e3 * (traced_s - untraced_s) / n_ops,
    }
    return values


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "conjrisk" / "__init__.py").is_file():
        return _fail(f"no conjrisk package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    import layers
    import workloads
    if args.workload not in workloads.WORKLOADS:
        return _fail(f"unknown workload {args.workload!r}; "
                     f"choose from {', '.join(workloads.WORKLOADS)}")
    import conjrisk.cli

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix="inputs-", dir=OUT))
    try:
        prepared = time.perf_counter()
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        prepared = time.perf_counter() - prepared
        client = Client(conjrisk.cli.run_command)
        if args.trace == 0:
            speed = Speed()
            first = ops[0].argv
            setup = _probe([sys.executable, str(HERE / "probe.py"), str(SRC), *first],
                           SETUP_PROBES, speed)
            bare = _probe([sys.executable, "-c", "pass"], BARE_PROBES, speed)
            # cycle through the operations (in their seeded random order)
            # until the time is up, sampling the machine's speed between them
            started = time.perf_counter()
            for i in itertools.count():
                speed.sample()
                client.run(ops[i % len(ops)])
                if time.perf_counter() - started >= args.seconds:
                    break
            speed.sample(force=True)
            records = client.records
            report = end_to_end(records, setup, bare, speed)
            declared = [m[0] for m in layers.END_TO_END[:5]]
        else:
            import spans as tracing
            ops = ops[:max(1, len(ops) // TRACE_SHARE)]
            tracer = tracing.Tracer()
            traced_client = Client(tracer.span("cli.run_command", conjrisk.cli.run_command))
            untraced_s = traced_s = 0.0
            # each operation untraced then traced, so that drift in the
            # machine's speed cancels out of the overhead
            for op in ops:
                untraced_s += client.run(op)
                tracer.install()
                try:
                    traced_s += traced_client.run(op)
                finally:
                    tracer.restore()
            records = client.records + traced_client.records
            values = per_layer(tracer, traced_client.records, untraced_s, traced_s)
            units = {m[0]: m[1] for m in layers.PER_LAYER}
            report = {name: (value, units[name], len(ops)) for name, value in values.items()}
            declared = [m[0] for m in layers.PER_LAYER]
            unreached = [m[0] for m in layers.PER_LAYER
                         if args.workload in m[3] and not values[m[0]] > 0.0]
            for name in unreached:
                print(f"warning: {name} is 0 on {args.workload}, whose layer it should see",
                      file=sys.stderr)
            trace_path = OUT / f"trace-{args.workload}-{args.seed}.json"
            trace_path.write_text(json.dumps({
                "workload": args.workload, "seed": args.seed, "metrics": values,
                "unreached": unreached, "spans": tracer.to_json()}) + "\n", encoding="utf-8")
            print(f"spans: {len(tracer.names)} written to {trace_path.relative_to(ROOT)}")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failed = sum(r[2] for r in records)
    gross_misses = sum(not r[2] and not r[4] for r in records)
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(records)} operations, {failed} failed, {gross_misses} off the gross bound; "
          f"inputs and references took {prepared:.1f} s")
    for kind in sorted({r[0].kind for r in records}):
        mine = [r for r in records if r[0].kind == kind]
        print(f"  {kind}: {len(mine)} operations, "
              f"{sum(not r[2] and not r[3] for r in mine)} off the exact oracle")
    for name, (value, unit, count) in report.items():
        print(f"  {name:<55} {value:>16.6g} {unit:<10} n={count}")
    result = {
        "correct": failed == 0 and gross_misses == 0,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": report[name][0], "unit": report[name][1]}
                    for name in declared},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
