//! `table1`: the paper's Table 1 campaign, one architect per session,
//! driven step by step through the engine's public step/answer API.
//!
//! Few, expensive questions: branch-and-prune dominates and the
//! engine's incremental caches hit, so solver and cache changes show here.

use crate::pass::{check_session, Asked, Pass};
use crate::spans::Tracer;
use crate::speed::Clock;
use crate::synth_layers;
use cso_analysis::{analyze, AnalysisConfig};
use cso_bench::experiments::ExperimentProfile;
use cso_runtime::Rng;
use cso_sketch::swan::{swan_target_with, SWAN_SKETCH_SRC};
use cso_sketch::{CompletedObjective, Sketch};
use cso_synth::{
    GroundTruthOracle, MetricSpace, Oracle, StepResult, SynthConfig, SynthResult, Synthesizer,
};

/// Hidden target of Table 1: `(tp_thrsh, l_thrsh, slope1, slope2)`.
const TARGET: (i64, i64, i64, i64) = (1, 50, 1, 5);

/// Session seeds start here, as in `repro table1`, so the first sessions
/// must match `results/table1.csv`.
pub const SEED_BASE: u64 = 1000;

/// The committed Table 1 rows the first sessions must equal.
const TABLE1_CSV: &str = "results/table1.csv";

fn target() -> CompletedObjective {
    swan_target_with(TARGET.0, TARGET.1, TARGET.2, TARGET.3)
}

fn config(seed: u64) -> SynthConfig {
    let mut cfg = ExperimentProfile::Quick.synth_config();
    cfg.seed = seed;
    cfg.solver.threads = 1;
    cfg
}

/// Parse the sketch and build one synthesizer, as a session's arrival
/// would. A traced pass also times the analyzer the engine runs inside
/// `Synthesizer::new`, called once more from outside.
pub fn new_synth(cfg: SynthConfig, tr: &mut Tracer) -> Synthesizer {
    let sketch = tr.span("sketch.parse", |_| Sketch::parse(SWAN_SKETCH_SRC)).expect("SWAN parses");
    if tr.enabled() {
        let acfg = AnalysisConfig {
            param_bounds: MetricSpace::swan().all_bounds().to_vec(),
            default_hole_range: cfg.default_hole_range.clone(),
        };
        std::hint::black_box(tr.span("analysis.analyze", |_| analyze(&sketch, &acfg)));
    }
    tr.span("engine.new", |_| Synthesizer::new(sketch, MetricSpace::swan(), cfg))
        .expect("SWAN sketch passes lint")
}

struct Run {
    synth: Synthesizer,
    oracle: GroundTruthOracle,
    seed: u64,
    asked: Vec<Asked>,
    result: Option<SynthResult>,
    agreement: Option<f64>,
}

fn setup(order: &[u64], tr: &mut Tracer) -> Vec<Run> {
    let runs = order
        .iter()
        .map(|&seed| Run {
            synth: new_synth(config(seed), tr),
            oracle: GroundTruthOracle::new(target()),
            seed,
            asked: Vec::new(),
            result: None,
            agreement: None,
        })
        .collect();
    // Warm-up: the initial ranking and the first iteration of a session
    // outside the timed set, untraced, with the same seed for every
    // campaign so set-up time does not vary with the campaign seed.
    let mut warm = new_synth(config(SEED_BASE - 1), &mut Tracer::new(false));
    let mut oracle = GroundTruthOracle::new(target());
    for _ in 0..2 {
        if let StepResult::NeedsRanking { scenarios, .. } = warm.step() {
            warm.answer(&oracle.rank(&scenarios)).expect("warm-up answer is accepted");
        }
    }
    runs
}

/// Run the campaign: the sessions seeded `SEED_BASE ..  SEED_BASE +
/// sessions`, back to back, in an order drawn from `seed`. One op is one
/// `Synthesizer::step`. With `rescale`, times are at the nominal host
/// speed (see [`crate::speed`]).
///
/// The session set does not depend on `seed`: one session costs up to
/// three times another, and with 14 seed-drawn sessions per run the
/// boxes explored differed by a third between seeds, far more than any
/// regression worth catching.
pub fn run(seed: u64, sessions: usize, setups: usize, rescale: bool, tr: &mut Tracer) -> Pass {
    let mut order: Vec<u64> = (SEED_BASE..SEED_BASE + sessions as u64).collect();
    Rng::seed_from_u64(seed).shuffle(&mut order);
    let mut pass = Pass::default();
    let mut runs = Vec::new();
    for _ in 0..setups {
        drop(runs);
        let mut clock = Clock::start(rescale);
        runs = setup(&order, tr);
        pass.setup_s.push(clock.lap());
    }

    let mut clock = Clock::start(rescale);
    tr.span("bench.work", |tr| {
        let mut op = 0u64;
        for run in &mut runs {
            loop {
                op += 1;
                tr.set_op(op);
                pass.work_s += clock.lap();
                let step = tr.span("engine.step", |_| run.synth.step());
                let op_s = clock.lap();
                pass.work_s += op_s;
                pass.op_ms.push(op_s * 1e3);
                match step {
                    StepResult::NeedsRanking { scenarios, iteration, .. } => {
                        let ranking = tr.span("oracle.rank", |_| run.oracle.rank(&scenarios));
                        let answered = tr.span("engine.answer", |_| run.synth.answer(&ranking));
                        run.asked.push(Asked { iteration, scenarios, ranking });
                        if let Err(e) = answered {
                            pass.fail(format!("seed {}: answer rejected: {e}", run.seed));
                            break;
                        }
                    }
                    StepResult::Done(result) => {
                        run.result = Some(*result);
                        break;
                    }
                    StepResult::Rejected(e) => {
                        pass.fail(format!("seed {}: step rejected: {e}", run.seed));
                        break;
                    }
                }
            }
        }
    });
    pass.work_s += clock.lap();
    pass.probes = clock.probes().to_vec();

    let target = target();
    let tie_tol = config(SEED_BASE).tie_tolerance;
    for run in &mut runs {
        let Some(result) = &run.result else { continue };
        let who = format!("seed {}", run.seed);
        check_session(&mut pass, &who, run.seed, result, &target, &run.asked, &tie_tol);
        run.agreement = pass.agreement.last().copied();
    }
    check_table1_csv(&runs, &mut pass);
    let results: Vec<&SynthResult> = runs.iter().filter_map(|r| r.result.as_ref()).collect();
    synth_layers::finish(&mut pass, &results, tr);
    pass
}

/// The first rows of `results/table1.csv` (`run,iterations,agreement,
/// outcome`) must equal this campaign's first sessions.
fn check_table1_csv(runs: &[Run], pass: &mut Pass) {
    let text = match std::fs::read_to_string(TABLE1_CSV) {
        Ok(t) => t,
        Err(e) => return pass.fail(format!("{TABLE1_CSV}: {e}")),
    };
    for (i, line) in text.lines().skip(1).enumerate() {
        let Some(run) = runs.iter().find(|r| r.seed == SEED_BASE + i as u64) else {
            return pass.fail(format!("{TABLE1_CSV} has more rows than the campaign"));
        };
        let (Some(result), Some(agreement)) = (&run.result, run.agreement) else { continue };
        let got = format!("{i},{},{agreement},{:?}", result.stats.iterations(), result.outcome);
        if got != line {
            pass.fail(format!("{TABLE1_CSV} row {i}: expected `{line}`, got `{got}`"));
        }
    }
}
