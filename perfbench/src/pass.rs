//! What one pass over a workload produces, and the checks the synthesis
//! workloads share.

use cso_numeric::Rat;
use cso_sketch::CompletedObjective;
use cso_synth::verify::preference_agreement;
use cso_synth::{MetricSpace, Ranking, Scenario, SynthOutcome, SynthResult};

/// One pass: set-up, the timed ops, and everything checked afterwards.
#[derive(Debug, Default)]
pub struct Pass {
    /// Seconds of each repetition of the set-up.
    pub setup_s: Vec<f64>,
    /// Time of the timed ops.
    pub work_s: f64,
    /// Latency of every timed op, in milliseconds.
    pub op_ms: Vec<f64>,
    /// Seconds of each host-speed probe taken in the timed phase; empty
    /// when times are wall time (see [`crate::speed`]).
    pub probes: Vec<f64>,
    /// Ops that failed or whose output failed a check.
    pub failed: usize,
    /// One line per failure, for stderr.
    pub problems: Vec<String>,
    /// Agreement of each learnt or feasible objective with its target.
    pub agreement: Vec<f64>,
    /// Seed-determined work counts; identical for identical seeds.
    pub fingerprint: Vec<(&'static str, u64)>,
    /// Per-layer metrics (name, value, unit); filled by traced passes.
    pub layers: Vec<(&'static str, f64, &'static str)>,
    /// Answers a finished session's objective contradicts because they
    /// arrived after the engine had picked that objective (see
    /// [`check_session`]).
    pub stale_answers: usize,
}

impl Pass {
    /// Record a failed op.
    pub fn fail(&mut self, why: String) {
        self.failed += 1;
        self.problems.push(why);
    }
}

/// Agreement of `learnt` with `target` on 300 sampled scenario pairs the
/// target separates by more than 20, as `repro table1` reports it.
#[must_use]
pub fn agreement(learnt: &CompletedObjective, target: &CompletedObjective, seed: u64) -> f64 {
    preference_agreement(
        learnt,
        target,
        &MetricSpace::swan(),
        300,
        seed ^ 0xA6E,
        &Rat::from_int(20),
    )
}

/// One question a session asked and the oracle's answer to it.
#[derive(Debug)]
pub struct Asked {
    /// The iteration the question belongs to (0 for the initial ranking).
    pub iteration: usize,
    /// The scenarios to rank.
    pub scenarios: Vec<Scenario>,
    /// The oracle's ranking of them.
    pub ranking: Ranking,
}

/// Score a finished session: record its agreement with `target`, and
/// check that its objective honours every answer it was given.
///
/// The engine picks the objective it returns at the start of an
/// iteration. When the iteration cap ends the run, the last iteration's
/// answer arrives after that pick, so the result cannot reflect it; a
/// contradiction of such an answer is counted in `stale_answers`, and any
/// other contradiction fails the session.
pub fn check_session(
    pass: &mut Pass,
    who: &str,
    seed: u64,
    result: &SynthResult,
    target: &CompletedObjective,
    asked: &[Asked],
    tie_tol: &Rat,
) {
    pass.agreement.push(agreement(&result.objective, target, seed));
    let last = result.stats.iterations();
    for q in asked {
        if let Err(e) = honours(&result.objective, &q.scenarios, &q.ranking, tie_tol) {
            if result.outcome == SynthOutcome::IterationLimit && q.iteration == last {
                pass.stale_answers += 1;
            } else {
                pass.fail(format!("{who}: learnt objective contradicts an answer: {e}"));
                return;
            }
        }
    }
}

/// Check under exact evaluation that `objective` orders `scenarios` as
/// `ranking` does: every scenario of a group above every scenario of a
/// later group, and scenarios within a group within `tie_tol` of each
/// other. Returns the first violation.
pub fn honours(
    objective: &CompletedObjective,
    scenarios: &[Scenario],
    ranking: &Ranking,
    tie_tol: &Rat,
) -> Result<(), String> {
    let value = |i: usize| {
        objective.eval(scenarios[i].values()).map_err(|e| format!("evaluating scenario {i}: {e}"))
    };
    for (g, group) in ranking.groups.iter().enumerate() {
        for &a in group {
            let va = value(a)?;
            for &b in group {
                if (&va - &value(b)?).abs() > *tie_tol {
                    return Err(format!(
                        "tied scenarios {a} and {b} differ by more than {tie_tol}"
                    ));
                }
            }
            for &b in ranking.groups[g + 1..].iter().flatten() {
                if va <= value(b)? {
                    return Err(format!("scenario {a} was ranked above {b} but scores no higher"));
                }
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use cso_sketch::swan::swan_target;

    #[test]
    fn honours_accepts_the_targets_own_ranking_and_rejects_a_flip() {
        use cso_synth::{GroundTruthOracle, Oracle};
        let target = swan_target();
        let scenarios: Vec<Scenario> =
            [[5, 10], [0, 150], [2, 40], [8, 180]].iter().map(|v| Scenario::from_ints(v)).collect();
        let ranking = GroundTruthOracle::new(target.clone()).rank(&scenarios);
        let tol = Rat::from_frac(1, 1000);
        assert_eq!(honours(&target, &scenarios, &ranking, &tol), Ok(()));
        let mut flipped = ranking.clone();
        flipped.groups.reverse();
        assert!(honours(&target, &scenarios, &flipped, &tol).is_err());
    }
}
