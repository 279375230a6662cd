"""Names, units and meaning of every metric the benchmark reports.

``END_TO_END`` lists the user-visible metrics; the first five are the ones
every workload reports and ``BENCHMARK.json`` gates. ``PER_LAYER`` maps each
layer metric to the workloads that exercise its layer (where the traced run
must see it non-zero) and to the end-to-end metric it should move.
"""

from __future__ import annotations

# (name, unit, better, workloads reporting it, what it is)
END_TO_END = [
    ("setup_s", "s", "lower", "all",
     "fresh interpreter, import conjrisk, first operation (median of 5 subprocesses)"),
    ("ops_per_s", "1/s", "higher", "all", "operations completed per second of operation time"),
    ("op_p50_ms", "ms", "lower", "all", "median operation latency"),
    ("op_p90_ms", "ms", "lower", "all", "90th-percentile operation latency"),
    ("peak_rss_mb", "MB", "lower", "all", "peak resident memory of the benchmark process"),
    ("pc_p50_ms", "ms", "lower", "triage", "median latency of `pc`"),
    ("pc_p90_ms", "ms", "lower", "triage", "90th-percentile latency of `pc`"),
    ("screen_p50_ms", "ms", "lower", "triage", "median latency of `screen`"),
    ("screen_p90_ms", "ms", "lower", "triage", "90th-percentile latency of `screen`"),
    ("curve_p50_ms", "ms", "lower", "threshold_study",
     "median latency of `dilution-curve` and `detection-curve`"),
    ("curve_p90_ms", "ms", "lower", "threshold_study",
     "90th-percentile latency of the curve commands"),
    ("mc_trials_per_s", "1/s", "higher", "threshold_study validity_harness",
     "Monte Carlo draws per second of Monte Carlo operation time"),
    ("belief_evals_per_s", "1/s", "higher", "validity_harness",
     "trials x levels x propositions per second of validity operation time"),
    ("failed_frac", "1", "lower", "all", "operations with a non-zero exit or an exception"),
    ("wrong_frac", "1", "lower", "all", "operations whose answer misses its oracle"),
    ("bare_python_s", "s", "lower", "all", "bare interpreter start, next to setup_s"),
]

T, S, V = "triage", "threshold_study", "validity_harness"

# (name, unit, better, workloads where non-zero, end-to-end metric it moves)
PER_LAYER = [
    ("cli.overhead_ms", "ms", "lower", (T, S, V), "pc_p50_ms, op_p50_ms on triage"),
    ("fileio.parse_json.ms_per_call", "ms", "lower", (T,), "pc_p50_ms on triage"),
    ("fileio.parse_kvn.ms_per_call", "ms", "lower", (T,), "pc_p50_ms on triage"),
    ("geometry.joint_state.ms_per_call", "ms", "lower", (T,), "pc_p50_ms on triage"),
    ("geometry.relative_covariance.ms_per_call", "ms", "lower", (T,), "pc_p50_ms on triage"),
    ("geometry.encounter_frame.ms_per_call", "ms", "lower", (T,), "pc_p50_ms on triage"),
    ("geometry.standardize.ms_per_call", "ms", "lower", (T,), "pc_p50_ms on triage"),
    ("probability.pc_contour.ms_per_call", "ms", "lower", (T, S), "pc_p90_ms on triage"),
    ("probability.pc_contour.n_quad_mean", "count", "lower", (T, S), "pc_p90_ms on triage"),
    ("probability.pc_contour.n_quad_max", "count", "lower", (T, S), "pc_p90_ms on triage"),
    ("probability.pc_contour.quad_error_est_max", "prob", "lower", (T, S),
     "wrong_frac on triage"),
    ("probability.pc_circular.calls_per_op", "count/op", "lower", (S,),
     "curve_p50_ms on threshold_study"),
    ("probability.pc_circular.ms_per_call", "ms", "lower", (S,),
     "curve_p50_ms on threshold_study"),
    ("probability.pc_circular_batch.points_per_s", "1/s", "higher", (S,),
     "mc_trials_per_s on threshold_study"),
    ("detection.critical_displacement.calls", "count", "lower", (S,),
     "curve_p50_ms on threshold_study"),
    ("detection.critical_displacement.ms_per_call", "ms", "lower", (S,),
     "curve_p50_ms on threshold_study"),
    ("detection.critical_displacement.pc_evals_per_call", "count/call", "lower", (S,),
     "curve_p50_ms on threshold_study"),
    ("detection.ncx2_cdf.calls", "count", "lower", (S, V),
     "curve_p50_ms on threshold_study; belief_evals_per_s (additive) on validity_harness"),
    ("detection.ncx2_cdf.ms_per_call", "ms", "lower", (S, V),
     "curve_p50_ms on threshold_study; belief_evals_per_s (additive) on validity_harness"),
    ("rng.stream.calls", "count", "lower", (S, V), "mc_trials_per_s"),
    ("rng.stream.ms_per_call", "ms", "lower", (S, V), "mc_trials_per_s"),
    ("ellipsoids.min_distance.ms_per_call", "ms", "lower", (T,), "screen_p50_ms, screen_p90_ms on triage"),
    ("ellipsoids.min_distance.project_point_calls_per_call", "count/call", "lower", (T,),
     "screen_p50_ms, screen_p90_ms on triage"),
    ("ellipsoids.standardized_range.calls", "count", "lower", (T, V),
     "belief_evals_per_s on validity_harness; screen_p50_ms on triage"),
    ("ellipsoids.standardized_range.ms_per_call", "ms", "lower", (T, V),
     "belief_evals_per_s on validity_harness; screen_p50_ms on triage"),
    ("ellipsoids.build_ellipsoid.calls", "count", "lower", (T, V),
     "belief_evals_per_s on validity_harness; screen_p50_ms on triage"),
    ("ellipsoids.build_ellipsoid.ms_per_call", "ms", "lower", (T, V),
     "belief_evals_per_s on validity_harness; screen_p50_ms on triage"),
    ("screening.position_ellipsoids.ms_per_call", "ms", "lower", (T,), "screen_p50_ms on triage"),
    ("screening.screen_conjunction.self_ms", "ms", "lower", (T,), "screen_p50_ms on triage"),
    ("propositions.contains_region.calls", "count", "lower", (V,),
     "belief_evals_per_s on validity_harness"),
    ("propositions.intersects_region.calls", "count", "lower", (V,),
     "belief_evals_per_s on validity_harness"),
    ("validity.belief.ms_per_call", "ms", "lower", (V,), "belief_evals_per_s on validity_harness"),
    ("validity.plausibility_waste", "count/call", "lower", (V,),
     "belief_evals_per_s on validity_harness (ideal 0)"),
    # not a layer: the tracer's own cost, which may read 0 or below
    ("trace.overhead_ms", "ms", "lower", (), "none: traced minus untraced time per operation"),
]
