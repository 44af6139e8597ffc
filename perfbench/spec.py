"""What the benchmark fixes beside ``BENCHMARK.json``.

``BENCHMARK.json`` holds the metric names, units, directions and bounds
and each workload's reason.  Its key set is fixed, so the seeds and the
expected effect of each per-layer metric live here, and every run record
repeats them.
"""

#: The seed runs are compared on by default.
DEFAULT_SEED = 0
#: A seed no tuning looks at: re-check a claimed gain on it.
HELD_OUT_SEED = 7_919_113

#: The machine's speed is read before every op by timing this many
#: rounds of a fixed pure-Python loop.  Op times are reported at the
#: speed where that loop takes ``CALIBRATION_NOMINAL_S`` seconds: other
#: tenants change the machine's speed by up to 1.8x for minutes at a
#: time, which no choice of ops or statistics inside a run can remove.
#: Raw host times are kept in every run record beside the scaled ones.
CALIBRATION_LOOP = 15_000
CALIBRATION_NOMINAL_S = 0.0012
#: Fresh-interpreter set-ups per run beside the run's own (median taken).
SETUP_REPEATS = 2
#: A parent span's children must cover it to within this share.
SPAN_TOLERANCE = 0.05

#: The end-to-end metric (and workload) each per-layer metric should move.
MOVES = {
    "setup.import_s": "setup_s on every workload",
    "setup.inputs_s": "setup_s on every workload",
    "semantics.simulate_s": "op_ms_p50, op_ms_p90, ops_per_s on single-sim",
    "semantics.us_per_step": "sim_steps_per_s on single-sim",
    "semantics.combinational_s": "sim_steps_per_s on single-sim",
    "semantics.control_s": "sim_steps_per_s on single-sim",
    "semantics.cache_hit_rate": "sim_steps_per_s on single-sim",
    "semantics.port_evaluations": "sim_steps_per_s on single-sim",
    "semantics.steps": "exact count (single-sim)",
    "semantics.events": "exact count (single-sim)",
    "vector.compile_s": "setup_s on batch-sim",
    "vector.advance_s": "ops_per_s, sim_steps_per_s, op_ms_p50 on batch-sim",
    "vector.extract_s": "ops_per_s, sim_steps_per_s, op_ms_p50 on batch-sim",
    "vector.lanes": "exact count (batch-sim)",
    "vector.lane_steps": "exact count (batch-sim)",
    "vector.range_errors": "error_rate on batch-sim",
    "faults.campaign_s": "ops_per_s, op_ms_p50, op_ms_p90 on fault-campaign",
    "faults.masked": "exact count (fault-campaign)",
    "faults.detected": "exact count (fault-campaign)",
    "faults.silent": "exact count (fault-campaign)",
    "faults.error": "exact count (fault-campaign)",
    "runtime.run_s": "ops_per_s on fault-campaign",
    "runtime.overhead_s": "ops_per_s on fault-campaign",
    "runtime.queue_s": "stays near 0 on the serial engine (fault-campaign)",
    "runtime.jobs": "ops_per_s on fault-campaign",
    "runtime.dispatched": "ops_per_s on fault-campaign",
    "runtime.cache_hit_rate": "ops_per_s on fault-campaign",
    "runtime.retries": "error_rate on fault-campaign",
    "runtime.failed": "error_rate on fault-campaign",
    "synthesis.optimize_s": "ops_per_s, op_ms_p50 on synth-verify",
    "synthesis.moves": "exact count (synth-verify)",
    "synthesis.cost": "exact value (synth-verify)",
    "core.properness_s": "op_ms_p90, ops_per_s on synth-verify",
    "core.truncated": "proved_ratio on synth-verify",
    "core.equiv_explicit_s": "ops_per_s on synth-verify",
    "analysis.equiv_symbolic_s": "ops_per_s on synth-verify",
    "analysis.lint_s": "ops_per_s on synth-verify",
    "analysis.equiv_disagreements": "error_rate on synth-verify",
    "trace.overhead_s": "none: traced minus untraced time per op",
    "trace.unattributed_share": "none: op time outside every layer span",
}
