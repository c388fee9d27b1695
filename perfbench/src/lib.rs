//! Closed-loop benchmark of the optimize → simulate path.
//!
//! See `README.md` in this directory for the workloads, metrics and the
//! checks made on every operation's output.

pub mod check;
pub mod host;
pub mod stats;
pub mod workloads;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: [(&str, &str); 3] =
    [("op_ms.min", "ms"), ("setup_s", "s"), ("peak_rss_mb", "MB")];

/// Per-layer metrics, printed with `--trace 1`. A layer the workload
/// never calls reports 0.
pub const PER_LAYER: [(&str, &str); 26] = [
    ("core.monolithic.ms", "ms"),
    ("core.monolithic.infeasible_ms", "ms"),
    ("core.monolithic.evals", "count"),
    ("core.enforced.ms", "ms"),
    ("core.enforced.iterations", "count"),
    ("core.comparison.efficiency", "ratio"),
    ("bench.manifest.ms", "ms"),
    ("bench.manifest.bytes", "bytes"),
    ("core.dag.enforced_ms", "ms"),
    ("core.dag.enforced_iterations", "count"),
    ("core.dag.monolithic_ms", "ms"),
    ("core.dag.monolithic_evals", "count"),
    ("core.dag.monolithic_wrong_cells", "count"),
    ("solver.convex.ms", "ms"),
    ("solver.convex.newton_iterations", "count"),
    ("solver.linalg.kkt_ms", "ms"),
    ("solver.convex.other_ms", "ms"),
    ("pipeline_sim.enforced.ms", "ms"),
    ("pipeline_sim.monolithic.ms", "ms"),
    ("pipeline_sim.enforced.items_per_s", "1/s"),
    ("pipeline_sim.monolithic.items_per_s", "1/s"),
    ("pipeline_sim.enforced.firings", "count"),
    ("pipeline_sim.runner.efficiency", "ratio"),
    ("apps.logalytics.ms", "ms"),
    ("apps.deepchain.ms", "ms"),
    ("bench.trace.overhead", "ratio"),
];
