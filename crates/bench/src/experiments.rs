//! Experiment runners.

use cso_numeric::Rat;
use cso_sketch::swan::{swan_sketch, swan_target_with};
use cso_synth::verify::preference_agreement;
use cso_synth::{
    GroundTruthOracle, IndifferenceOracle, MetricSpace, NoisyOracle, Oracle, RunSummary,
    StepResult, SynthConfig, SynthError, SynthOutcome, SynthResult, Synthesizer,
};

/// Run `synth` against `oracle` to completion.
///
/// With `CSO_REPRO_DRIVER=session` the loop is driven through the public
/// step/answer session machinery instead of the in-process
/// [`Synthesizer::run`] driver. Synthesis outcomes are byte-identical
/// either way (CI golden-diffs `table1.csv` across both drivers); the
/// session path ranks while the engine is parked, so the non-deterministic
/// `oracle_secs` telemetry column reads 0 there — park time is excluded
/// from synthesis time by design.
fn drive(synth: &mut Synthesizer, oracle: &mut dyn Oracle) -> Result<SynthResult, SynthError> {
    let by_session = std::env::var("CSO_REPRO_DRIVER").is_ok_and(|v| v == "session");
    if !by_session {
        return synth.run(oracle);
    }
    loop {
        match synth.step() {
            StepResult::NeedsRanking { scenarios, .. } => {
                let ranking = oracle.rank(&scenarios);
                synth.answer(&ranking)?;
            }
            StepResult::Done(r) => return Ok(*r),
            StepResult::Rejected(e) => return Err(e),
        }
    }
}

/// How heavy an experiment campaign to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ExperimentProfile {
    /// 3 runs per configuration with the fast solver profile — minutes on
    /// a laptop core; the shapes match the paper.
    Quick,
    /// 9 runs per configuration (as in the paper) with the default solver
    /// profile — expect a couple of hours on one core.
    Paper,
}

impl ExperimentProfile {
    /// Runs per configuration.
    #[must_use]
    pub fn runs(self) -> usize {
        match self {
            ExperimentProfile::Quick => 3,
            ExperimentProfile::Paper => 9,
        }
    }

    /// The synthesis configuration template.
    #[must_use]
    pub fn synth_config(self) -> SynthConfig {
        let mut cfg = match self {
            ExperimentProfile::Quick => SynthConfig::fast_test(),
            ExperimentProfile::Paper => {
                let mut cfg = SynthConfig::default();
                // The default margin (1) and δ (2e-3) are the "paper"
                // fidelity; cap the per-query budget so a pathological
                // query cannot stall a 9-run campaign.
                cfg.solver.max_boxes = 120_000;
                cfg
            }
        };
        // Sweeps are parallelized at the run level (one thread per run via
        // `parallel_map`); per-query solver threads on top of that would
        // oversubscribe the host, so campaigns always run the sequential
        // solver — even under a `CSO_SOLVER_THREADS` override.
        cfg.solver.threads = 1;
        cfg
    }
}

/// One synthesis run's reduced outcome.
#[derive(Debug, Clone)]
pub struct RunOutcome {
    /// Interactive iterations.
    pub iterations: usize,
    /// Mean synthesis seconds per iteration.
    pub secs_per_iteration: f64,
    /// Total synthesis seconds.
    pub total_secs: f64,
    /// Preference agreement with the hidden target (margin-filtered).
    pub agreement: f64,
    /// Termination reason.
    pub outcome: SynthOutcome,
    /// Solver queries issued over the run (deterministic given the seed).
    pub solver_queries: usize,
    /// Branch-and-prune boxes explored over the run (deterministic).
    pub boxes_explored: usize,
    /// Boxes pruned by interval refutation over the run (deterministic).
    pub boxes_pruned: usize,
    /// Exact sample evaluations that surfaced a partiality error instead
    /// of a verdict. The compiled tape's interval fast path can reject
    /// such samples before the exact evaluator runs, so this is the one
    /// counter that varies with `CSO_EVAL_TAPE` — telemetry CSV only.
    pub eval_errors: usize,
    /// Solver queries answered by exact memo replay (deterministic given
    /// the seed and cache mode; zero when the cache is off).
    pub cache_hits: usize,
    /// Preference-edge clauses served from the query-layer cache instead
    /// of recompiled (zero when the cache is off).
    pub clauses_reused: usize,
    /// Wall-clock seconds spent in solver seeding phases (not
    /// deterministic — telemetry CSV only).
    pub seeding_secs: f64,
    /// Wall-clock seconds spent in branch-and-prune (not deterministic).
    pub bnp_secs: f64,
    /// Wall-clock seconds spent inside oracle ranking calls — measured
    /// separately because the paper *excludes* oracle time from synthesis
    /// time (not deterministic — telemetry CSV only).
    pub oracle_secs: f64,
}

/// Run one synthesis against a ground-truth target.
fn one_run(target: (i64, i64, i64, i64), cfg_template: &SynthConfig, seed: u64) -> RunOutcome {
    let target_obj = swan_target_with(target.0, target.1, target.2, target.3);
    let mut cfg = cfg_template.clone();
    cfg.seed = seed;
    let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)
        .expect("SWAN sketch matches its metric space");
    let mut oracle = GroundTruthOracle::new(target_obj.clone());
    let result = drive(&mut synth, &mut oracle).expect("ground-truth oracle is consistent");
    let agreement = preference_agreement(
        &result.objective,
        &target_obj,
        &MetricSpace::swan(),
        300,
        seed ^ 0xA6E,
        &Rat::from_int(20),
    );
    let solver = result.stats.solver_totals;
    RunOutcome {
        iterations: result.stats.iterations(),
        secs_per_iteration: result.stats.avg_iteration_secs(),
        total_secs: result.stats.total_secs(),
        agreement,
        outcome: result.outcome,
        solver_queries: solver.queries,
        boxes_explored: solver.boxes_explored,
        boxes_pruned: solver.boxes_pruned,
        eval_errors: solver.eval_errors,
        cache_hits: solver.cache_hits,
        clauses_reused: solver.clauses_reused,
        seeding_secs: solver.seeding_time.as_secs_f64(),
        bnp_secs: solver.bnp_time.as_secs_f64(),
        oracle_secs: result.stats.oracle_secs(),
    }
}

/// Run `n` seeds of a configuration, parallelized over available threads.
fn runs_for(
    target: (i64, i64, i64, i64),
    cfg: &SynthConfig,
    n: usize,
    seed_base: u64,
) -> Vec<RunOutcome> {
    cso_runtime::pool::parallel_map((0..n as u64).collect(), |i| {
        one_run(target, cfg, seed_base + i)
    })
}

/// Table 1: summaries over `profile.runs()` baseline runs.
#[derive(Debug, Clone)]
pub struct Table1Result {
    /// Summary of iteration counts.
    pub iterations: RunSummary,
    /// Summary of per-iteration synthesis time (seconds).
    pub secs_per_iteration: RunSummary,
    /// Summary of total synthesis time (seconds).
    pub total_secs: RunSummary,
    /// Mean agreement with the target across runs.
    pub mean_agreement: f64,
    /// The raw runs.
    pub runs: Vec<RunOutcome>,
}

/// Reproduce Table 1.
#[must_use]
pub fn table1(profile: ExperimentProfile) -> Table1Result {
    let cfg = profile.synth_config();
    let runs = runs_for((1, 50, 1, 5), &cfg, profile.runs(), 1000);
    summarize(runs)
}

fn summarize(runs: Vec<RunOutcome>) -> Table1Result {
    let iters: Vec<f64> = runs.iter().map(|r| r.iterations as f64).collect();
    let per: Vec<f64> = runs.iter().map(|r| r.secs_per_iteration).collect();
    let tot: Vec<f64> = runs.iter().map(|r| r.total_secs).collect();
    let mean_agreement = runs.iter().map(|r| r.agreement).sum::<f64>() / runs.len().max(1) as f64;
    Table1Result {
        iterations: RunSummary::of(&iters),
        secs_per_iteration: RunSummary::of(&per),
        total_secs: RunSummary::of(&tot),
        mean_agreement,
        runs,
    }
}

/// One Figure 3 point: a tuned target variant.
#[derive(Debug, Clone)]
pub struct Fig3Row {
    /// Which hole was tuned (`baseline` for the untuned target).
    pub series: &'static str,
    /// The tuned value.
    pub value: i64,
    /// Average iterations across runs.
    pub avg_iterations: f64,
    /// Average synthesis seconds per iteration.
    pub avg_secs_per_iteration: f64,
    /// Mean agreement with the variant target.
    pub mean_agreement: f64,
}

/// Reproduce Figure 3: tune each hole separately.
#[must_use]
pub fn fig3(profile: ExperimentProfile) -> Vec<Fig3Row> {
    let cfg = profile.synth_config();
    let n = profile.runs();
    let mut rows = Vec::new();

    let mut push = |series: &'static str, value: i64, target: (i64, i64, i64, i64), base: u64| {
        let runs = runs_for(target, &cfg, n, base);
        let t = summarize(runs);
        rows.push(Fig3Row {
            series,
            value,
            avg_iterations: t.iterations.average,
            avg_secs_per_iteration: t.secs_per_iteration.average,
            mean_agreement: t.mean_agreement,
        });
    };

    push("baseline", 0, (1, 50, 1, 5), 3000);
    for (i, v) in [1i64, 2, 3, 4, 5].into_iter().enumerate() {
        push("tp_thrsh", v, (v, 50, 1, 5), 3100 + 10 * i as u64);
    }
    for (i, v) in [20i64, 35, 50, 65, 80].into_iter().enumerate() {
        push("l_thrsh", v, (1, v, 1, 5), 3200 + 10 * i as u64);
    }
    for (i, v) in [1i64, 2, 3, 4, 5].into_iter().enumerate() {
        push("slope1", v, (1, 50, v, 5), 3300 + 10 * i as u64);
    }
    for (i, v) in [1i64, 2, 3, 4, 5].into_iter().enumerate() {
        push("slope2", v, (1, 50, 1, v), 3400 + 10 * i as u64);
    }
    rows
}

/// One Figure 4 point.
#[derive(Debug, Clone)]
pub struct Fig4Row {
    /// Pairs of scenarios ranked per iteration.
    pub pairs_per_iteration: usize,
    /// Average interactive iterations.
    pub avg_iterations: f64,
    /// Average synthesis seconds per iteration.
    pub avg_secs_per_iteration: f64,
    /// Average total synthesis seconds.
    pub avg_total_secs: f64,
}

/// Reproduce Figure 4: more ranked pairs per iteration.
#[must_use]
pub fn fig4(profile: ExperimentProfile) -> Vec<Fig4Row> {
    let n = profile.runs();
    (1..=5)
        .map(|pairs| {
            let mut cfg = profile.synth_config();
            cfg.pairs_per_iteration = pairs;
            let runs = runs_for((1, 50, 1, 5), &cfg, n, 4000 + 100 * pairs as u64);
            let t = summarize(runs);
            Fig4Row {
                pairs_per_iteration: pairs,
                avg_iterations: t.iterations.average,
                avg_secs_per_iteration: t.secs_per_iteration.average,
                avg_total_secs: t.total_secs.average,
            }
        })
        .collect()
}

/// One Figure 5 point.
#[derive(Debug, Clone)]
pub struct Fig5Row {
    /// Number of initial random scenarios ranked up front.
    pub initial_scenarios: usize,
    /// Average interactive iterations.
    pub avg_iterations: f64,
    /// Average synthesis seconds per iteration.
    pub avg_secs_per_iteration: f64,
    /// Average total synthesis seconds.
    pub avg_total_secs: f64,
}

/// Reproduce Figure 5: number of initial random scenarios.
#[must_use]
pub fn fig5(profile: ExperimentProfile) -> Vec<Fig5Row> {
    let n = profile.runs();
    [0usize, 2, 5, 7, 10]
        .into_iter()
        .map(|init| {
            let mut cfg = profile.synth_config();
            cfg.initial_scenarios = init;
            let runs = runs_for((1, 50, 1, 5), &cfg, n, 5000 + 100 * init as u64);
            let t = summarize(runs);
            Fig5Row {
                initial_scenarios: init,
                avg_iterations: t.iterations.average,
                avg_secs_per_iteration: t.secs_per_iteration.average,
                avg_total_secs: t.total_secs.average,
            }
        })
        .collect()
}

/// One ablation row.
#[derive(Debug, Clone)]
pub struct AblationRow {
    /// Configuration description.
    pub label: String,
    /// Average iterations (f64::NAN when the configuration failed).
    pub avg_iterations: f64,
    /// Average total synthesis seconds.
    pub avg_total_secs: f64,
    /// Mean agreement with the target.
    pub mean_agreement: f64,
    /// Fraction of runs that completed.
    pub completion_rate: f64,
}

/// Design-choice ablations (DESIGN.md §5): solver seeding, indifference
/// oracles, and noisy oracles with/without repair.
#[must_use]
pub fn ablation(profile: ExperimentProfile) -> Vec<AblationRow> {
    let n = profile.runs();
    let target = swan_target_with(1, 50, 1, 5);
    let mut rows = Vec::new();

    // 1. Seeding on (baseline) vs off. Without model seeding every query
    // must be answered by branch-and-prune alone; at the Quick budget that
    // usually cannot even find a consistent candidate, which is the point
    // of the ablation — report completion rates instead of panicking.
    for (label, seeding) in [("seeding on (baseline)", true), ("seeding off", false)] {
        let mut iters = Vec::new();
        let mut totals = Vec::new();
        let mut agreements = Vec::new();
        let mut completed = 0usize;
        for i in 0..n {
            let mut cfg = profile.synth_config();
            cfg.solver.use_seeding = seeding;
            // Give the un-seeded variant a fighting chance.
            if !seeding {
                cfg.solver.max_boxes *= 8;
                cfg.max_iterations = cfg.max_iterations.min(40);
            }
            cfg.seed = 6000 + i as u64;
            let mut synth =
                Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg).expect("valid setup");
            let mut oracle = GroundTruthOracle::new(target.clone());
            if let Ok(r) = drive(&mut synth, &mut oracle) {
                completed += 1;
                iters.push(r.stats.iterations() as f64);
                totals.push(r.stats.total_secs());
                agreements.push(preference_agreement(
                    &r.objective,
                    &target,
                    &MetricSpace::swan(),
                    300,
                    i as u64,
                    &Rat::from_int(20),
                ));
            }
        }
        rows.push(AblationRow {
            label: label.to_owned(),
            avg_iterations: mean(&iters),
            avg_total_secs: mean(&totals),
            mean_agreement: mean(&agreements),
            completion_rate: completed as f64 / n as f64,
        });
    }

    // 2. Indifference oracle (vague user, §6.1).
    {
        let cfg = profile.synth_config();
        let mut iters = Vec::new();
        let mut totals = Vec::new();
        let mut agreements = Vec::new();
        let mut completed = 0usize;
        for i in 0..n {
            let mut c = cfg.clone();
            c.seed = 6200 + i as u64;
            let mut synth =
                Synthesizer::new(swan_sketch(), MetricSpace::swan(), c).expect("valid setup");
            let mut oracle = IndifferenceOracle::new(target.clone(), Rat::from_int(10));
            if let Ok(r) = drive(&mut synth, &mut oracle) {
                completed += 1;
                iters.push(r.stats.iterations() as f64);
                totals.push(r.stats.total_secs());
                agreements.push(preference_agreement(
                    &r.objective,
                    &target,
                    &MetricSpace::swan(),
                    300,
                    i as u64,
                    &Rat::from_int(20),
                ));
            }
        }
        rows.push(AblationRow {
            label: "indifference oracle (eps = 10)".to_owned(),
            avg_iterations: mean(&iters),
            avg_total_secs: mean(&totals),
            mean_agreement: mean(&agreements),
            completion_rate: completed as f64 / n as f64,
        });
    }

    // 3. Noisy oracle with and without repair.
    for (label, repair) in
        [("noisy oracle p=0.1, repair on", true), ("noisy oracle p=0.1, repair off", false)]
    {
        let cfg = profile.synth_config();
        let mut iters = Vec::new();
        let mut totals = Vec::new();
        let mut agreements = Vec::new();
        let mut completed = 0usize;
        for i in 0..n {
            let mut c = cfg.clone();
            c.seed = 6400 + i as u64;
            c.repair_noise = repair;
            c.max_iterations = c.max_iterations.min(60);
            let mut synth =
                Synthesizer::new(swan_sketch(), MetricSpace::swan(), c).expect("valid setup");
            let mut oracle =
                NoisyOracle::new(GroundTruthOracle::new(target.clone()), 0.1, 77 + i as u64);
            if let Ok(r) = drive(&mut synth, &mut oracle) {
                completed += 1;
                iters.push(r.stats.iterations() as f64);
                totals.push(r.stats.total_secs());
                agreements.push(preference_agreement(
                    &r.objective,
                    &target,
                    &MetricSpace::swan(),
                    300,
                    i as u64,
                    &Rat::from_int(20),
                ));
            }
        }
        rows.push(AblationRow {
            label: label.to_owned(),
            avg_iterations: mean(&iters),
            avg_total_secs: mean(&totals),
            mean_agreement: mean(&agreements),
            completion_rate: completed as f64 / n as f64,
        });
    }

    rows
}

fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        f64::NAN
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// Run a custom oracle campaign (exposed for integration tests).
pub fn run_with_oracle<O: Oracle>(
    cfg: SynthConfig,
    oracle: &mut O,
) -> Result<cso_synth::SynthResult, cso_synth::SynthError> {
    let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)?;
    drive(&mut synth, oracle)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn table1_quick_shape() {
        let t = table1(ExperimentProfile::Quick);
        assert_eq!(t.runs.len(), 3);
        assert!(t.iterations.average >= 1.0);
        assert!(t.total_secs.average > 0.0);
        assert!(t.mean_agreement > 0.85, "agreement {}", t.mean_agreement);
        for r in &t.runs {
            assert!(r.solver_queries > 0, "solver telemetry must be populated");
            assert!(r.seeding_secs + r.bnp_secs > 0.0);
            // The incremental caches default on: every multi-iteration run
            // rebuilds feasibility over mostly-unchanged edges. (Vacuous
            // under the CSO_SYNTH_CACHE=off CI pass, which forces cold.)
            let env_cold =
                matches!(std::env::var("CSO_SYNTH_CACHE").ok().as_deref(), Some("off" | "0"));
            assert!(env_cold || r.clauses_reused > 0, "cache telemetry must be populated");
        }
    }

    #[test]
    fn campaign_configs_pin_sequential_solver() {
        // Per-query threads would oversubscribe the run-level parallelism.
        assert_eq!(ExperimentProfile::Quick.synth_config().solver.threads, 1);
        assert_eq!(ExperimentProfile::Paper.synth_config().solver.threads, 1);
    }

    #[test]
    fn table1_csv_is_byte_identical_across_runs() {
        // The CSV keeps only seed-determined fields (iterations,
        // agreement, outcome, solver box counts), so two campaigns of the
        // same build must serialize identically byte for byte. Wall-clock
        // solver telemetry lives in its own CSV, which makes no such
        // promise.
        let a_res = table1(ExperimentProfile::Quick);
        let b_res = table1(ExperimentProfile::Quick);
        let a = crate::report::csv_table1(&a_res);
        let b = crate::report::csv_table1(&b_res);
        assert!(!a.is_empty() && a.lines().count() == 4, "header + 3 runs:\n{a}");
        assert!(a.starts_with("run,iterations,agreement,outcome\n"));
        assert_eq!(a, b, "table1 CSV must be deterministic");
        let tel = crate::report::csv_table1_telemetry(&a_res);
        assert!(tel.starts_with(
            "run,solver_queries,boxes_explored,boxes_pruned,eval_errors,\
             cache_hits,clauses_reused,seeding_secs,bnp_secs,oracle_secs\n"
        ));
        assert_eq!(tel.lines().count(), 4, "header + 3 runs:\n{tel}");
    }

    #[test]
    fn profiles_differ() {
        assert_eq!(ExperimentProfile::Quick.runs(), 3);
        assert_eq!(ExperimentProfile::Paper.runs(), 9);
        assert!(
            ExperimentProfile::Paper.synth_config().delta_rel
                < ExperimentProfile::Quick.synth_config().delta_rel
        );
    }
}
