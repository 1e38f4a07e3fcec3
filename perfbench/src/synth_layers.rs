//! Work counts and per-layer metrics shared by the two workloads that
//! run whole synthesis sessions (`table1` and `fleet`).

use crate::layer;
use crate::pass::Pass;
use crate::spans::Tracer;
use cso_synth::stats::SolverTelemetry;
use cso_synth::SynthResult;

/// Record the fingerprint of the finished sessions and, on a traced
/// pass, the engine, oracle and solver metrics.
pub fn finish(pass: &mut Pass, results: &[&SynthResult], tr: &Tracer) {
    let mut solver = SolverTelemetry::default();
    for r in results {
        solver.merge(&r.stats.solver_totals);
    }
    let iterations: usize = results.iter().map(|r| r.stats.iterations()).sum();
    pass.fingerprint.extend([
        ("ops", pass.op_ms.len() as u64),
        ("sessions_done", results.len() as u64),
        ("iterations", iterations as u64),
        ("solver_queries", solver.queries as u64),
        ("boxes_explored", solver.boxes_explored as u64),
        ("boxes_pruned", solver.boxes_pruned as u64),
        ("samples", solver.samples_tried as u64),
        ("cache_hits", solver.cache_hits as u64),
        ("clauses_reused", solver.clauses_reused as u64),
        ("stale_answers", pass.stale_answers as u64),
    ]);
    if !tr.enabled() {
        return;
    }
    let step = tr.durations_ms("engine.step");
    let bnp_s = solver.bnp_time.as_secs_f64();
    pass.layers.extend([
        ("engine.step_ms_p50", layer::pct(&step, 0.5), "ms"),
        ("engine.step_ms_p90", layer::pct(&step, 0.9), "ms"),
        ("engine.answer_us_p50", layer::pct(&tr.durations_ms("engine.answer"), 0.5) * 1e3, "us"),
        ("engine.steps", step.len() as f64, "count"),
        ("engine.new_ms", layer::mean(&tr.durations_ms("engine.new")), "ms"),
        ("engine.iterations_mean", layer::ratio(iterations, results.len()), "count"),
        ("engine.stale_answers", pass.stale_answers as f64, "count"),
        ("sketch.parse_us", layer::mean(&tr.durations_ms("sketch.parse")) * 1e3, "us"),
        ("analysis.analyze_ms", layer::mean(&tr.durations_ms("analysis.analyze")), "ms"),
        ("oracle.rank_us_p50", layer::pct(&tr.durations_ms("oracle.rank"), 0.5) * 1e3, "us"),
        ("solver.queries", solver.queries as f64, "count"),
        ("solver.boxes_explored", solver.boxes_explored as f64, "count"),
        ("solver.boxes_pruned", solver.boxes_pruned as f64, "count"),
        (
            "solver.prune_ratio",
            layer::ratio(solver.boxes_pruned, solver.boxes_explored),
            "fraction",
        ),
        ("solver.cache_hits", solver.cache_hits as f64, "count"),
        (
            "solver.memo_hit_ratio",
            layer::ratio(solver.cache_hits, solver.queries + solver.cache_hits),
            "fraction",
        ),
        ("solver.clauses_reused", solver.clauses_reused as f64, "count"),
        ("solver.bnp_s", bnp_s, "s"),
        ("solver.seeding_s", solver.seeding_time.as_secs_f64(), "s"),
        ("solver.us_per_box", layer::per(bnp_s * 1e6, solver.boxes_explored), "us"),
        ("solver.boxes_per_query", layer::ratio(solver.boxes_explored, solver.queries), "count"),
        ("solver.samples_per_query", layer::ratio(solver.samples_tried, solver.queries), "count"),
        (
            "solver.seeding_share",
            layer::share(solver.seeding_time.as_secs_f64(), bnp_s),
            "fraction",
        ),
    ]);
}
