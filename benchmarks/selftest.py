"""Tests of the benchmark itself, at small sizes.

Run from the repository root with ``python3 -m pytest benchmarks/selftest.py``.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import inputs  # noqa: E402
import layers  # noqa: E402
import oracles  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from conjrisk.cli import run_command  # noqa: E402

SMALL = {
    "triage": dict(n_files=6),
    "threshold_study": dict(n_draws=2, mc_trials=2000),
    "validity_harness": dict(n_rounds=1, n_fc=1, fc_trials=2000),
}


def _ops(workload, tmp_path, seed=3):
    return workloads.WORKLOADS[workload](seed, tmp_path, **SMALL[workload])


@pytest.mark.parametrize("workload", list(workloads.WORKLOADS))
def test_workload_reports_every_declared_metric(workload, tmp_path):
    ops = _ops(workload, tmp_path)
    client = run.Client(run_command)
    untraced = sum(client.run(op) for op in ops)
    assert all(not r[2] and r[4] for r in client.records)

    speed = run.Speed()
    speed.sample()
    report = run.end_to_end(client.records, [1.0], [0.05], speed)
    for name, unit, _better, where, _what in layers.END_TO_END:
        if where == "all" or workload in where.split():
            assert report[name][1] == unit
            assert math.isfinite(report[name][0])

    tracer = spans.Tracer()
    traced_client = run.Client(tracer.span("cli.run_command", run_command))
    tracer.install()
    try:
        traced = sum(traced_client.run(op) for op in ops)
    finally:
        tracer.restore()
    values = run.per_layer(tracer, traced_client.records, untraced, traced)
    assert set(values) == {m[0] for m in layers.PER_LAYER}
    # a wrapper that misses its target leaves its layer at zero
    for name, _unit, _better, where, _moves in layers.PER_LAYER:
        if workload in where:
            assert values[name] > 0.0, name


def test_tracer_restores_every_function(tmp_path):
    import conjrisk.detection
    import conjrisk.probability
    before = (conjrisk.detection.pc_circular, conjrisk.probability.pc_circular)
    tracer = spans.Tracer()
    tracer.install()
    assert conjrisk.detection.pc_circular is conjrisk.probability.pc_circular
    assert conjrisk.detection.pc_circular is not before[0]
    tracer.restore()
    assert (conjrisk.detection.pc_circular, conjrisk.probability.pc_circular) == before


def test_self_time_excludes_children():
    tracer = spans.Tracer()
    tracer.names[:] = ["a", "b", "b"]
    tracer.parents[:] = [-1, 0, 0]
    tracer.starts[:] = [0.0, 1.0, 3.0]
    tracer.ends[:] = [10.0, 2.0, 5.0]
    assert tracer.self_times() == [7.0, 1.0, 2.0]
    assert tracer.descendant_counts("a", "b") == {0: 2}


def _output(op):
    buf = io.StringIO()
    with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
        assert run_command(op.argv) == 0
    return buf.getvalue()


def test_oracle_flags_perturbed_pc(tmp_path):
    checked = 0
    for pc in (op for op in _ops("triage", tmp_path) if op.kind == "pc"):
        value = float(_output(pc))
        if pc.check(f"{value!r}\n", None)[0]:
            assert not pc.check(f"{value * 1.001 + 1e-12!r}\n", None)[0]
            checked += 1
        assert not pc.check(f"{value + 0.3!r}\n", None)[1]
    assert checked


def test_oracle_flags_perturbed_screen(tmp_path):
    for screen in (op for op in _ops("triage", tmp_path) if op.kind == "screen"):
        doc = json.loads(_output(screen))
        assert screen.check(json.dumps(doc), None) == (True, True)
        doc["min_distance_m"] = doc["min_distance_m"] * 1.01 + 1.0
        assert screen.check(json.dumps(doc), None) == (False, False)


def test_oracle_flags_perturbed_detection_rate(tmp_path):
    semi = next(op for op in _ops("threshold_study", tmp_path) if op.kind == "curve_semi")
    lines = _output(semi).splitlines()
    assert semi.check("\n".join(lines), None)[1]
    rows = [line.split(",") for line in lines[1:]]
    bad = [lines[0]] + [f"{t},{float(r) * 0.9!r},{1 - float(r) * 0.9!r}" for t, r, _f in rows]
    assert not semi.check("\n".join(bad), None)[0]


def test_oracle_flags_flipped_validity_verdict(tmp_path):
    op = next(op for op in _ops("validity_harness", tmp_path) if op.kind == "validity_additive")
    out = _output(op)
    assert op.check(out, None)[0]
    assert not op.check(out.replace("fail", "pass"), None)[0]


def test_same_seed_same_inputs():
    first = inputs.triage_catalogue(5, 8, oracles.touching_k)
    again = inputs.triage_catalogue(5, 8, oracles.touching_k)
    other = inputs.triage_catalogue(6, 8, oracles.touching_k)
    assert [c.data for c in first] == [c.data for c in again]
    assert [c.k_sigma for c in first] == [c.k_sigma for c in again]
    assert [c.data for c in first] != [c.data for c in other]
    assert inputs.threshold_draws(5, 8) == inputs.threshold_draws(5, 8)
    a, b = inputs.validity_draws(5, 3, 2), inputs.validity_draws(5, 3, 2)
    assert all(np.array_equal(x.cov3, y.cov3) and x.seeds == y.seeds for x, y in zip(a, b))


def test_catalogue_covers_classes_and_layouts():
    cases = inputs.triage_catalogue(2, 12, oracles.touching_k)
    assert sorted(c.gap_class for c in cases) == sorted(inputs.GAP_CLASSES * 4)
    assert sum(c.fmt == "kvn" for c in cases) == 6


@pytest.mark.parametrize("b, a", [(1.0, 0.0), (1.0, 1.0), (100.0, 102.0), (1.0, 10.0),
                                  (2.0, 10.0), (20.0, 0.3)])
def test_circular_reference_matches_mpmath(b, a):
    assert oracles.circular_cdf(b, a) == pytest.approx(oracles.circular_cdf_mp(b, a), rel=1e-12)


@pytest.mark.parametrize("d, s", [(0.0, 1.0), (1.0, 0.01), (5.0, 0.5), (10.0, 1.0)])
def test_planar_reference_matches_circular(d, s):
    assert oracles.pc_reference(d, 0.0, s, s, 1.0) == pytest.approx(
        oracles.pc_circular_reference(d, s), rel=1e-10)


def test_gap_bounds_bracket_spheres():
    lo, hi = oracles.gap_bounds(np.array([10.0, 0.0, 0.0]), np.eye(3) * 4.0, np.eye(3) * 9.0)
    assert lo == pytest.approx(5.0, rel=1e-12) and hi == pytest.approx(5.0, rel=1e-12)
    assert oracles.gap_bounds(np.array([4.0, 0.0, 0.0]), np.eye(3) * 4.0, np.eye(3) * 9.0)[0] == 0.0


def test_benchmark_json_matches_layer_table():
    doc = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [(m["name"], m["unit"], m["better"]) for m in doc["end_to_end"]] == [
        m[:3] for m in layers.END_TO_END[:5]]
    assert [(m["name"], m["unit"], m["better"]) for m in doc["per_layer"]] == [
        m[:3] for m in layers.PER_LAYER]
    assert {w["name"] for w in doc["workloads"]} == set(workloads.WORKLOADS)


def test_refuses_to_run_without_the_program(tmp_path):
    bench = tmp_path / "benchmarks"
    bench.mkdir()
    for path in HERE.glob("*.py"):
        (bench / path.name).write_bytes(path.read_bytes())
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", "triage", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
