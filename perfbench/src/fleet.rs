//! `fleet`: the `cso-serve` pattern. Many cheap sessions with `cso-serve
//! --bench`'s coarse budgets, multiplexed by one `SessionManager` on one
//! thread. Every session is evicted to a snapshot after each answer, so
//! each next step restores it first.
//!
//! Many cheap questions: per-session fixed costs (snapshot encode and
//! decode, query compilation, seeding) weigh more here than
//! branch-and-prune does.

use crate::layer;
use crate::pass::{check_session, Asked, Pass};
use crate::spans::Tracer;
use crate::speed::Clock;
use crate::synth_layers;
use crate::table1::new_synth;
use cso_numeric::Rat;
use cso_runtime::Rng;
use cso_serve::{ServeConfig, SessionManager};
use cso_sketch::swan::swan_target_with;
use cso_synth::{GroundTruthOracle, Oracle, Session, StepResult, SynthConfig, SynthResult};
use std::path::{Path, PathBuf};

/// `cso-serve --bench`'s per-session configuration: coarse enough that a
/// session costs milliseconds, still converging on SWAN for every seed.
fn fleet_cfg(seed: u64) -> SynthConfig {
    let mut cfg = SynthConfig {
        seed,
        delta_rel: 0.2,
        max_iterations: 8,
        initial_scenarios: 2,
        max_exhausted_streak: 1,
        disamb_attempts: 2,
        margin: Rat::from_int(10),
        ..SynthConfig::default()
    };
    cfg.solver.delta = 0.05;
    cfg.solver.max_boxes = 300;
    cfg.solver.initial_samples = 12;
    cfg.solver.jitters_per_seed = 4;
    cfg.solver.threads = 1;
    cfg
}

/// `cso-serve --bench`'s architects: each id wants a slightly different
/// objective, so sessions build distinct preference graphs.
fn architect_for(id: u64) -> GroundTruthOracle {
    let tp_thrsh = 1 + (id % 3) as i64;
    let l_thrsh = 40 + 10 * (id % 3) as i64;
    let slope1 = 1 + (id % 2) as i64;
    let slope2 = 5 + (id % 3) as i64;
    GroundTruthOracle::new(swan_target_with(tp_thrsh, l_thrsh, slope1, slope2))
}

struct Architect {
    oracle: GroundTruthOracle,
    seed: u64,
    asked: Vec<Asked>,
    result: Option<SynthResult>,
}

fn manager(snapdir: &Path) -> SessionManager {
    SessionManager::new(ServeConfig { batch: 1, threads: 1, snapdir: Some(snapdir.to_owned()) })
}

fn setup(sessions: usize, snapdir: &Path, tr: &mut Tracer) -> (SessionManager, Vec<Architect>) {
    let mut mgr = manager(snapdir);
    let mut architects = Vec::with_capacity(sessions);
    for id in 0..sessions as u64 {
        let seed = id + 1;
        mgr.insert(Session::new(id, new_synth(fleet_cfg(seed), tr)));
        architects.push(Architect {
            oracle: architect_for(id),
            seed,
            asked: Vec::new(),
            result: None,
        });
    }
    // Warm-up: one step, answer, eviction and restoring step of a session
    // outside the timed set, on a manager of its own.
    let mut warm = manager(&snapdir.join("warm-up"));
    warm.insert(Session::new(0, new_synth(fleet_cfg(0), &mut Tracer::new(false))));
    let mut oracle = architect_for(0);
    for _ in 0..2 {
        let stepped = warm.step_batch(&[0]).expect("warm-up session steps");
        if let Some((_, StepResult::NeedsRanking { scenarios, .. })) = stepped.first() {
            warm.answer(0, &oracle.rank(scenarios)).expect("warm-up answer is accepted");
            warm.evict(0).expect("warm-up session evicts");
        }
    }
    (mgr, architects)
}

/// Drive the sessions seeded `1 ..= sessions` round robin to completion,
/// in an order drawn from `seed`. One op is one
/// `SessionManager::step_batch` of a single session.
///
/// The session set does not depend on `seed`: with 150 seed-drawn
/// sessions per run the boxes explored differed by a fifth between seeds
/// (327 207 against 394 219 for seeds 12 and 11), and `work_s` with them.
pub fn run(
    seed: u64,
    sessions: usize,
    setups: usize,
    rescale: bool,
    scratch: &Path,
    tr: &mut Tracer,
) -> Pass {
    let snapdir: PathBuf = scratch.join("snapshots");
    let mut pass = Pass::default();
    let mut fleet = None;
    for _ in 0..setups {
        drop(fleet.take());
        let _ = std::fs::remove_dir_all(&snapdir);
        let mut clock = Clock::start(rescale);
        fleet = Some(setup(sessions, &snapdir, tr));
        pass.setup_s.push(clock.lap());
    }
    let (mut mgr, mut architects) = fleet.expect("at least one set-up");

    let mut snapshot_bytes: Vec<f64> = Vec::new();
    let mut restores = 0usize;
    let mut clock = Clock::start(rescale);
    tr.span("bench.work", |tr| {
        let mut pending: Vec<u64> = mgr.ids();
        Rng::seed_from_u64(seed).shuffle(&mut pending);
        let mut op = 0u64;
        while !pending.is_empty() {
            let mut next = Vec::with_capacity(pending.len());
            for &id in &pending {
                let arch = &mut architects[id as usize];
                op += 1;
                tr.set_op(op);
                restores += usize::from(mgr.is_evicted(id));
                pass.work_s += clock.lap();
                let stepped = tr.span("serve.step", |_| mgr.step_batch(&[id]));
                let op_s = clock.lap();
                pass.work_s += op_s;
                pass.op_ms.push(op_s * 1e3);
                let step = match stepped.map(|mut r| r.pop()) {
                    Ok(Some((_, step))) => step,
                    Ok(None) => {
                        pass.fail(format!("session {id}: step_batch returned nothing"));
                        continue;
                    }
                    Err(e) => {
                        pass.fail(format!("session {id}: {e}"));
                        continue;
                    }
                };
                match step {
                    StepResult::NeedsRanking { scenarios, iteration, .. } => {
                        let ranking = tr.span("oracle.rank", |_| arch.oracle.rank(&scenarios));
                        if let Err(e) = tr.span("serve.answer", |_| mgr.answer(id, &ranking)) {
                            pass.fail(format!("session {id}: answer rejected: {e}"));
                            continue;
                        }
                        arch.asked.push(Asked { iteration, scenarios, ranking });
                        if tr.enabled() {
                            match snapshot_round_trip(&mut mgr, id, tr) {
                                Ok(bytes) => snapshot_bytes.push(bytes as f64),
                                Err(e) => {
                                    pass.fail(format!("session {id}: snapshot: {e}"));
                                    continue;
                                }
                            }
                        }
                        if let Err(e) = tr.span("serve.evict", |_| mgr.evict(id)) {
                            pass.fail(format!("session {id}: evict: {e}"));
                            continue;
                        }
                        next.push(id);
                    }
                    StepResult::Done(result) => arch.result = Some(*result),
                    StepResult::Rejected(e) => pass.fail(format!("session {id}: rejected: {e}")),
                }
            }
            pending = next;
        }
    });
    pass.work_s += clock.lap();
    pass.probes = clock.probes().to_vec();

    let tie_tol = fleet_cfg(0).tie_tolerance;
    for (id, arch) in architects.iter().enumerate() {
        let Some(result) = &arch.result else {
            pass.fail(format!("session {id} (seed {}) never reached Done", arch.seed));
            continue;
        };
        let who = format!("session {id}");
        check_session(
            &mut pass,
            &who,
            arch.seed,
            result,
            arch.oracle.target(),
            &arch.asked,
            &tie_tol,
        );
    }
    let results: Vec<&SynthResult> = architects.iter().filter_map(|a| a.result.as_ref()).collect();
    synth_layers::finish(&mut pass, &results, tr);
    // The last snapshot of every session stays on disk; its total size is
    // seed-determined.
    pass.fingerprint.push(("snapshot_bytes_on_disk", dir_bytes(&snapdir)));
    let _ = std::fs::remove_dir_all(&snapdir);
    if tr.enabled() {
        let steps = tr.durations_ms("serve.step");
        let evictions = tr.durations_ms("serve.evict");
        pass.layers.extend([
            ("serve.step_ms_p50", layer::pct(&steps, 0.5), "ms"),
            ("serve.step_ms_p90", layer::pct(&steps, 0.9), "ms"),
            ("serve.evict_ms_p50", layer::pct(&evictions, 0.5), "ms"),
            ("serve.answer_us_p50", layer::pct(&tr.durations_ms("serve.answer"), 0.5) * 1e3, "us"),
            ("serve.evictions", evictions.len() as f64, "count"),
            ("serve.restores", restores as f64, "count"),
            ("snapshot.encode_ms_p50", layer::pct(&tr.durations_ms("snapshot.encode"), 0.5), "ms"),
            ("snapshot.decode_ms_p50", layer::pct(&tr.durations_ms("snapshot.decode"), 0.5), "ms"),
            ("snapshot.bytes_mean", layer::mean(&snapshot_bytes), "bytes"),
        ]);
    }
    pass
}

/// Take session `id` out of the manager, time its snapshot encode and
/// decode, and put the decoded session back. Returns the snapshot size.
fn snapshot_round_trip(
    mgr: &mut SessionManager,
    id: u64,
    tr: &mut Tracer,
) -> Result<usize, String> {
    let session = mgr.remove(id).map_err(|e| e.to_string())?;
    let bytes = tr.span("snapshot.encode", |_| session.snapshot()).map_err(|e| e.to_string())?;
    let revived =
        tr.span("snapshot.decode", |_| Session::restore(&bytes)).map_err(|e| e.to_string())?;
    mgr.insert(revived);
    Ok(bytes.len())
}

fn dir_bytes(dir: &Path) -> u64 {
    std::fs::read_dir(dir)
        .map(|entries| {
            entries
                .filter_map(|e| e.ok()?.metadata().ok())
                .filter(std::fs::Metadata::is_file)
                .map(|m| m.len())
                .sum()
        })
        .unwrap_or(0)
}
