//! δ-complete satisfiability solver for bounded nonlinear rational formulas.
//!
//! The solver answers existential queries `∃ x ∈ Box. φ(x)` for the formula
//! language of this crate. It combines two phases:
//!
//! 1. **Model seeding** — caller-provided seed models, jittered variants of
//!    them, and uniform random samples are checked *exactly* (rational
//!    arithmetic). This is what keeps satisfiable queries fast in the
//!    synthesis loop, where the previous iteration's model is usually close
//!    to a model of the next query. Disable via
//!    [`SolverConfig::use_seeding`] for the ablation study.
//! 2. **Branch-and-prune** — bisection over the box. A box is pruned when
//!    interval evaluation certainly refutes one conjunct; a box whose every
//!    conjunct is certainly true yields a model immediately. Boxes narrower
//!    than [`SolverConfig::delta`] in every dimension that still cannot be
//!    decided are *residual*.
//!
//! The outcome is:
//! * [`Outcome::Sat`] — with an **exactly certified** rational model;
//! * [`Outcome::Unsat`] — every box was refuted by sound interval
//!   arithmetic: a proof of unsatisfiability;
//! * [`Outcome::DeltaUnsat`] — refuted everywhere except residual sub-δ
//!   boxes where exhaustive sampling found nothing. Following the
//!   δ-decidability literature (dReal), callers treat this as "unsat for
//!   all practical purposes"; the synthesis engine uses it as its
//!   convergence signal.
//! * [`Outcome::Exhausted`] — the box budget ran out first.
//!
//! Two monotonicity facts make the pruning loop cheap: once a conjunct is
//! certainly true on a box it stays true on every sub-box, and a conjunct
//! whose variables were untouched by a split keeps its verdict. The solver
//! therefore re-evaluates only the still-unknown conjuncts that mention the
//! split dimension.
//!
//! # Parallel branch-and-prune
//!
//! Branch-and-prune processes the subdivision frontier in deterministic
//! *rounds*: each round pops a fixed-size batch off the depth-first stack
//! (deepest boxes first, preserving the DFS search profile) and evaluates
//! the batch's boxes independently — sequentially for
//! [`SolverConfig::threads`]` == 1`, or spread over scoped worker threads
//! pulling from the shared work queue in `cso_runtime::pool` otherwise.
//! Every box samples from its own RNG stream forked deterministically from
//! `(seed, box id)`, and the round winner is selected by a deterministic
//! rule — the SAT box with the **lowest index in the batch** wins, and
//! statistics only count boxes up to and including the winner — so the
//! outcome, the model, and every counter are byte-identical to the
//! sequential solver given the same seed, regardless of thread count or
//! scheduling. Engine runs keep `threads = 1` because the repro sweeps are
//! already parallelized one level up (one thread per run); `threads > 1`
//! is for single-query workloads where the solver is the whole show.

use crate::eval::eval_formula;
use crate::ieval::{ieval_formula, Tri};
use crate::model::Model;
use crate::tape::{CompiledQuery, ExactScratch, Tape, TapeScratch};
use crate::term::Formula;
use crate::vars::BoxDomain;
use cso_numeric::{Interval, Rat};
use cso_runtime::metrics::{self, Counter, Histogram};
use cso_runtime::trace::{self, Value};
use cso_runtime::{pool, Rng};
use std::cell::RefCell;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

/// Worker threads to use when `CSO_SOLVER_THREADS` is unset: 1 (the
/// sequential solver). The environment override lets a whole test suite or
/// CI pass exercise the parallel path without touching every config.
fn default_threads() -> usize {
    static THREADS: std::sync::OnceLock<usize> = std::sync::OnceLock::new();
    *THREADS.get_or_init(|| {
        std::env::var("CSO_SOLVER_THREADS")
            .ok()
            .and_then(|s| s.parse::<usize>().ok())
            .filter(|&t| t >= 1)
            .unwrap_or(1)
    })
}

/// Whether compiled-tape evaluation is on when a config does not say:
/// on unless `CSO_EVAL_TAPE=off` (or `0`). Default-only, like
/// `CSO_SOLVER_THREADS`: configs that set [`SolverConfig::tape`]
/// explicitly (the differential tests do) are never overridden.
fn tape_default() -> bool {
    static TAPE: std::sync::OnceLock<bool> = std::sync::OnceLock::new();
    *TAPE.get_or_init(|| {
        !matches!(std::env::var("CSO_EVAL_TAPE").ok().as_deref(), Some("off" | "0"))
    })
}

thread_local! {
    /// Per-thread interval scratch: branch-and-prune workers certify and
    /// prune through the shared read-only [`Tape`], each with its own
    /// value arrays.
    static IV_SCRATCH: RefCell<TapeScratch> = RefCell::new(TapeScratch::new());
    /// Per-thread exact-evaluation scratch (memo cells for the rational
    /// tape interpreter).
    static EX_SCRATCH: RefCell<ExactScratch> = RefCell::new(ExactScratch::new());
}

/// Tuning knobs for the solver.
#[derive(Debug, Clone)]
pub struct SolverConfig {
    /// Minimum box width: boxes narrower than this in every dimension are
    /// not split further. This is the δ of δ-completeness.
    pub delta: f64,
    /// Optional per-dimension δ overriding `delta` (indexed by variable
    /// index). Dimensions whose ranges differ by orders of magnitude —
    /// throughput in `[0, 10]` vs latency in `[0, 200]` — deserve
    /// proportional resolutions; the split heuristic also normalizes widths
    /// by these values.
    pub delta_per_dim: Option<Vec<f64>>,
    /// Maximum number of boxes to process before giving up with
    /// [`Outcome::Exhausted`].
    pub max_boxes: usize,
    /// Random samples drawn inside each processed box.
    pub samples_per_box: usize,
    /// Uniform random samples drawn across the whole box before
    /// branch-and-prune starts.
    pub initial_samples: usize,
    /// Jittered variants tried around each caller-provided seed.
    pub jitters_per_seed: usize,
    /// RNG seed (the solver is fully deterministic given the config and
    /// query).
    pub seed: u64,
    /// Enable phase 1 (seeding). Disabled for the seeding ablation.
    pub use_seeding: bool,
    /// Worker threads for branch-and-prune (1 = sequential). Outcomes are
    /// byte-identical for every value; this knob only buys wall-clock.
    /// Defaults to `CSO_SOLVER_THREADS` when set, else 1 — engine runs are
    /// parallelized at the sweep level, so per-query parallelism is meant
    /// for single-query workloads.
    pub threads: usize,
    /// Evaluate through a compiled tape (see [`crate::tape`]) instead of
    /// re-walking the AST per conjunct per box. Outcomes and every
    /// deterministic counter except [`SolverStats::eval_errors`] are
    /// byte-identical either way (the tape's interval pre-filter can skip
    /// an exact evaluation that would have errored); this knob only buys
    /// wall-clock. Defaults to on unless `CSO_EVAL_TAPE=off` (or `0`),
    /// which keeps the tree-walking path alive as the differential
    /// reference.
    pub tape: bool,
}

impl Default for SolverConfig {
    fn default() -> SolverConfig {
        SolverConfig {
            delta: 1e-3,
            delta_per_dim: None,
            max_boxes: 200_000,
            samples_per_box: 1,
            initial_samples: 512,
            jitters_per_seed: 16,
            seed: 0xC50_5EED,
            use_seeding: true,
            threads: default_threads(),
            tape: tape_default(),
        }
    }
}

/// Result of a solver invocation.
#[derive(Debug, Clone, PartialEq)]
pub enum Outcome {
    /// Satisfiable, with an exactly certified model.
    Sat(Model),
    /// Proved unsatisfiable over the whole box.
    Unsat,
    /// Unsatisfiable except possibly inside residual sub-δ boxes.
    DeltaUnsat,
    /// Budget exhausted before a decision.
    Exhausted,
}

impl Outcome {
    /// `true` for `Unsat` and `DeltaUnsat` (the convergence signals).
    #[must_use]
    pub fn is_unsat_like(&self) -> bool {
        matches!(self, Outcome::Unsat | Outcome::DeltaUnsat)
    }

    /// The model, if satisfiable.
    #[must_use]
    pub fn model(&self) -> Option<&Model> {
        match self {
            Outcome::Sat(m) => Some(m),
            _ => None,
        }
    }
}

/// Counters describing the work done by the last `solve` call.
///
/// Box and sample counts are deterministic given the config and query —
/// identical for every `threads` value; the two `*_time` fields are
/// wall-clock and exist for telemetry only.
#[derive(Debug, Clone, Copy, Default)]
pub struct SolverStats {
    /// Boxes popped from the subdivision frontier.
    pub boxes_processed: usize,
    /// Boxes pruned by interval refutation.
    pub boxes_pruned: usize,
    /// Sub-δ boxes left undecided.
    pub residual_boxes: usize,
    /// Exact sample evaluations.
    pub samples_tried: usize,
    /// Exact evaluations that errored (division by zero, unbound
    /// variable). Errors count as failed samples, so without this counter
    /// a measure-zero division-by-zero set is invisible in telemetry.
    pub eval_errors: usize,
    /// Whether the model was found during seeding (vs branch-and-prune).
    pub sat_from_seeding: bool,
    /// Wall-clock time spent in the seeding phase.
    pub seeding_time: Duration,
    /// Wall-clock time spent in branch-and-prune.
    pub bnp_time: Duration,
    /// Worker threads branch-and-prune ran with.
    pub workers: usize,
}

/// The solver. Holds configuration, RNG state, and last-run statistics.
#[derive(Debug)]
pub struct Solver {
    cfg: SolverConfig,
    rng: Rng,
    /// Statistics from the most recent `solve` call.
    pub stats: SolverStats,
}

/// Boxes per branch-and-prune round. Fixed — never derived from the
/// thread count — so the processing order, and therefore the outcome, is
/// identical for every `SolverConfig::threads` value.
const ROUND_SIZE: usize = 64;

/// Minimum batch worth spawning worker threads for; smaller rounds run on
/// the calling thread (same result either way, cheaper).
const PAR_MIN_BATCH: usize = 8;

/// Frontier item: a box, the indices of conjuncts still undecided on it,
/// and the deterministic id its sampling RNG is forked from.
struct BoxTask {
    dom: BoxDomain,
    pending: Vec<u32>,
    id: u64,
}

/// What processing one box concluded.
enum TaskVerdict {
    /// An exactly certified model was found inside the box.
    Sat(Model),
    /// Sub-δ in every constrained dimension and sampling found nothing.
    Residual,
    /// Surviving children after the split (0–2 of them).
    Split(Vec<(BoxDomain, Vec<u32>)>),
    /// Not processed: a lower-index box in the round already found SAT.
    Skipped,
}

/// Per-box result plus the counters its processing accrued.
struct TaskResult {
    verdict: TaskVerdict,
    samples: usize,
    pruned: usize,
    errors: usize,
}

/// Shared read-only context for processing frontier boxes (worker-safe).
struct BnpCtx<'a> {
    cfg: &'a SolverConfig,
    f: &'a Formula,
    conjuncts: &'a [Formula],
    mentions: &'a [Vec<u32>],
    tape: Option<&'a Tape>,
}

impl BnpCtx<'_> {
    fn delta_for(&self, dim: usize) -> f64 {
        self.cfg
            .delta_per_dim
            .as_ref()
            .and_then(|v| v.get(dim).copied())
            .unwrap_or(self.cfg.delta)
            .max(f64::MIN_POSITIVE)
    }

    /// The box's private RNG stream, forked deterministically from the
    /// solver seed and the box's id — independent of which worker
    /// processes the box or in what order.
    fn box_rng(&self, id: u64) -> Rng {
        Rng::seed_from_u64(
            self.cfg.seed ^ id.wrapping_add(0x9E37_79B9).wrapping_mul(0xA24B_AED4_963E_E407),
        )
    }

    /// A box is residual when every dimension still read by a pending
    /// conjunct is narrower than its δ; unconstrained dimensions are
    /// irrelevant (splitting them cannot change any verdict).
    fn box_is_residual(&self, task: &BoxTask) -> bool {
        task.pending.iter().all(|&ci| {
            self.mentions[ci as usize].iter().all(|&v| {
                let d = v as usize;
                d >= task.dom.len() || task.dom.intervals()[d].width() <= self.delta_for(d)
            })
        })
    }

    /// Split the dimension with the largest width relative to its δ, among
    /// dimensions mentioned by still-pending conjuncts (splitting a
    /// dimension no undecided conjunct reads can never change a verdict).
    fn pick_split_dim(&self, task: &BoxTask) -> usize {
        let mut relevant = vec![false; task.dom.len()];
        for &ci in &task.pending {
            for &v in &self.mentions[ci as usize] {
                if let Some(r) = relevant.get_mut(v as usize) {
                    *r = true;
                }
            }
        }
        let mut best = None;
        let mut score = f64::NEG_INFINITY;
        for (d, &rel) in relevant.iter().enumerate() {
            if !rel {
                continue;
            }
            let w = task.dom.intervals()[d].width();
            if w <= 0.0 {
                continue;
            }
            let s = w / self.delta_for(d);
            if s > score {
                score = s;
                best = Some(d);
            }
        }
        best.unwrap_or_else(|| task.dom.widest_dim())
    }

    /// Process one frontier box: sample it, then either close it out
    /// (SAT / residual) or split it and interval-check the children.
    fn process(&self, task: &BoxTask) -> TaskResult {
        let mut rng = self.box_rng(task.id);
        let mut samples = 0usize;
        let mut errors = 0usize;
        let try_certify = |vals: &[Rat], samples: &mut usize, errors: &mut usize| {
            *samples += 1;
            let (m, e) = certify_exact(self.tape, self.f, vals);
            *errors += e;
            m
        };

        if task.pending.is_empty() {
            // Certainly true everywhere in the box; certify the midpoint
            // (guaranteed to succeed unless evaluation errors).
            if let Some(m) = try_certify(&Solver::mid_values(&task.dom), &mut samples, &mut errors)
            {
                return TaskResult { verdict: TaskVerdict::Sat(m), samples, pruned: 0, errors };
            }
            for _ in 0..3 {
                let vals = Solver::sample_uniform(&mut rng, &task.dom);
                if let Some(m) = try_certify(&vals, &mut samples, &mut errors) {
                    return TaskResult { verdict: TaskVerdict::Sat(m), samples, pruned: 0, errors };
                }
            }
            // All evaluations errored (division by zero on a measure-zero
            // set can do this); treat conservatively as residual.
            return TaskResult { verdict: TaskVerdict::Residual, samples, pruned: 0, errors };
        }

        // Sample inside the box.
        for _ in 0..self.cfg.samples_per_box {
            let vals = Solver::sample_uniform(&mut rng, &task.dom);
            if let Some(m) = try_certify(&vals, &mut samples, &mut errors) {
                return TaskResult { verdict: TaskVerdict::Sat(m), samples, pruned: 0, errors };
            }
        }

        if self.box_is_residual(task) {
            return TaskResult { verdict: TaskVerdict::Residual, samples, pruned: 0, errors };
        }

        // Split on the widest dimension among those mentioned by pending
        // conjuncts (splitting unconstrained dims cannot help).
        let dim = self.pick_split_dim(task);
        let (lo, hi) = task.dom.bisect(dim);
        let mut pruned = 0usize;
        let mut children = Vec::with_capacity(2);
        // Conjuncts to re-check on the children: those that mention the
        // split dim; others keep their Unknown verdict on the sub-box.
        // With a tape, both children's rechecks run in one batched pass.
        let recheck: Vec<u32> = task
            .pending
            .iter()
            .copied()
            .filter(|&ci| self.mentions[ci as usize].binary_search(&(dim as u32)).is_ok())
            .collect();
        let batched: Option<Vec<Tri>> = self.tape.filter(|_| !recheck.is_empty()).map(|tape| {
            IV_SCRATCH.with(|s| {
                let mut out = Vec::new();
                tape.verdicts(&[&lo, &hi], &recheck, &mut s.borrow_mut(), &mut out);
                out
            })
        });
        'child: for (bi, child_dom) in [lo, hi].into_iter().enumerate() {
            let mut pending = Vec::with_capacity(task.pending.len());
            // Cursor into `recheck` (a subsequence of `pending`, in order).
            let mut j = 0usize;
            for &ci in &task.pending {
                if j < recheck.len() && recheck[j] == ci {
                    let v = match &batched {
                        Some(out) => out[bi * recheck.len() + j],
                        None => ieval_formula(&self.conjuncts[ci as usize], &child_dom),
                    };
                    j += 1;
                    match v {
                        Tri::False => {
                            pruned += 1;
                            continue 'child;
                        }
                        Tri::Unknown => pending.push(ci),
                        Tri::True => {}
                    }
                } else {
                    pending.push(ci);
                }
            }
            children.push((child_dom, pending));
        }
        TaskResult { verdict: TaskVerdict::Split(children), samples, pruned, errors }
    }
}

/// Exact rational check of the (simplified) formula at `vals`, through the
/// tape when one is available (no counters — callers count). Returns the
/// model plus the number of evaluation errors observed (0 or 1). The
/// *decision* is bit-identical to `eval_formula`: the tape path first
/// interval-refutes the point (one-ulp enclosures), and a sound rejection
/// implies exact evaluation returns `Ok(false)` or an error — neither
/// certifies — so only the error tally can differ between the paths.
fn certify_exact(tape: Option<&Tape>, f: &Formula, vals: &[Rat]) -> (Option<Model>, usize) {
    if let Some(t) = tape {
        if IV_SCRATCH.with(|s| t.refutes_point(vals, &mut s.borrow_mut())) {
            return (None, 0);
        }
        match EX_SCRATCH.with(|s| t.eval_exact(vals, &mut s.borrow_mut())) {
            Ok(true) => (Some(Model::new(vals.to_vec())), 0),
            Ok(false) => (None, 0),
            Err(_) => (None, 1),
        }
    } else {
        match eval_formula(f, vals) {
            Ok(true) => (Some(Model::new(vals.to_vec())), 0),
            Ok(false) => (None, 0),
            Err(_) => (None, 1),
        }
    }
}

impl Solver {
    /// Create a solver with the given configuration.
    #[must_use]
    pub fn new(cfg: SolverConfig) -> Solver {
        let rng = Rng::seed_from_u64(cfg.seed);
        Solver { cfg, rng, stats: SolverStats::default() }
    }

    /// The active configuration.
    #[must_use]
    pub fn config(&self) -> &SolverConfig {
        &self.cfg
    }

    /// Solve `∃ x ∈ dom. f(x)` with no seeds.
    pub fn solve(&mut self, f: &Formula, dom: &BoxDomain) -> Outcome {
        self.solve_seeded(f, dom, &[])
    }

    /// Solve with caller-provided seed models (checked first, then
    /// jittered). Seeds outside the box are clamped into it. Compiles the
    /// query (see [`CompiledQuery::prepare`]) and delegates to
    /// [`Solver::solve_compiled`].
    pub fn solve_seeded(&mut self, f: &Formula, dom: &BoxDomain, seeds: &[Model]) -> Outcome {
        let q = CompiledQuery::prepare(f, Some(dom), self.cfg.tape);
        self.solve_compiled(&q, dom, seeds)
    }

    /// Solve a query the caller compiled once with
    /// [`CompiledQuery::prepare`] — the engine prepares per query so the
    /// solver and the exact certifier share one compilation. `dom` must be contained in the box the query
    /// was prepared over (the tape's domain-seeded verdicts are only sound
    /// on sub-boxes).
    pub fn solve_compiled(
        &mut self,
        q: &CompiledQuery,
        dom: &BoxDomain,
        seeds: &[Model],
    ) -> Outcome {
        let out = self.solve_compiled_inner(q, dom, seeds);
        if metrics::enabled() {
            self.record_metrics(&out);
        }
        out
    }

    /// Fold the just-finished query's [`SolverStats`] into the global
    /// metrics registry. Piggybacks on the durations already measured
    /// for `stats` — no extra clock reads on the solve path.
    fn record_metrics(&self, out: &Outcome) {
        static QUERIES: Counter = Counter::new("cso_solver_queries_total");
        static SAT: Counter = Counter::new("cso_solver_sat_total");
        static UNSAT: Counter = Counter::new("cso_solver_unsat_total");
        static DELTA_UNSAT: Counter = Counter::new("cso_solver_delta_unsat_total");
        static EXHAUSTED: Counter = Counter::new("cso_solver_exhausted_total");
        static BOXES: Counter = Counter::new("cso_solver_boxes_total");
        static PRUNED: Counter = Counter::new("cso_solver_boxes_pruned_total");
        static RESIDUAL: Counter = Counter::new("cso_solver_residual_boxes_total");
        static SAMPLES: Counter = Counter::new("cso_solver_samples_total");
        static EVAL_ERRORS: Counter = Counter::new("cso_solver_eval_errors_total");
        static SEEDING_NS: Histogram = Histogram::new("cso_solver_seeding_ns");
        static BNP_NS: Histogram = Histogram::new("cso_solver_bnp_ns");
        QUERIES.inc(1);
        match out {
            Outcome::Sat(_) => SAT.inc(1),
            Outcome::Unsat => UNSAT.inc(1),
            Outcome::DeltaUnsat => DELTA_UNSAT.inc(1),
            Outcome::Exhausted => EXHAUSTED.inc(1),
        }
        BOXES.inc(self.stats.boxes_processed as u64);
        PRUNED.inc(self.stats.boxes_pruned as u64);
        RESIDUAL.inc(self.stats.residual_boxes as u64);
        SAMPLES.inc(self.stats.samples_tried as u64);
        EVAL_ERRORS.inc(self.stats.eval_errors as u64);
        SEEDING_NS.observe_duration(self.stats.seeding_time);
        BNP_NS.observe_duration(self.stats.bnp_time);
    }

    fn solve_compiled_inner(
        &mut self,
        q: &CompiledQuery,
        dom: &BoxDomain,
        seeds: &[Model],
    ) -> Outcome {
        self.stats = SolverStats::default();
        self.stats.workers = 1;
        match q.simplified {
            Formula::True => {
                let m = self.certify(&Formula::True, &Solver::mid_values(dom));
                return Outcome::Sat(m.unwrap_or_else(|| Model::new(Solver::mid_values(dom))));
            }
            Formula::False => return Outcome::Unsat,
            _ => {}
        }

        if self.cfg.use_seeding {
            let _sp = trace::span_with("solver.seeding", || {
                vec![("seeds", Value::U64(seeds.len() as u64))]
            });
            let t0 = Instant::now();
            let seeded = self.seeding_phase(q, dom, seeds);
            self.stats.seeding_time = t0.elapsed();
            if let Some(m) = seeded {
                self.stats.sat_from_seeding = true;
                return Outcome::Sat(m);
            }
        }

        let t0 = Instant::now();
        let out = {
            let _sp = trace::span("solver.bnp");
            self.branch_and_prune(q, dom)
        };
        self.stats.bnp_time = t0.elapsed();
        out
    }

    // -- phase 1: seeding ---------------------------------------------------

    fn seeding_phase(
        &mut self,
        q: &CompiledQuery,
        dom: &BoxDomain,
        seeds: &[Model],
    ) -> Option<Model> {
        // Exact seeds, clamped into the box.
        for s in seeds {
            let vals = Solver::clamp_into(dom, s.values());
            if let Some(m) = self.certify_q(q, &vals) {
                return Some(m);
            }
        }
        // Jitter around each seed, with radius growing geometrically:
        // thin feasible regions want probes close to the (nearly feasible)
        // seed first, wide ones are caught by the later large radii.
        for s in seeds {
            for j in 0..self.cfg.jitters_per_seed {
                let vals = Solver::jitter(&mut self.rng, dom, s.values(), j as u32);
                if let Some(m) = self.certify_q(q, &vals) {
                    return Some(m);
                }
            }
        }
        // Uniform random samples.
        for _ in 0..self.cfg.initial_samples {
            let vals = Solver::sample_uniform(&mut self.rng, dom);
            if let Some(m) = self.certify_q(q, &vals) {
                return Some(m);
            }
        }
        None
    }

    // -- phase 2: branch and prune -------------------------------------------

    fn branch_and_prune(&mut self, q: &CompiledQuery, dom: &BoxDomain) -> Outcome {
        let conjuncts = &q.conjuncts;
        if conjuncts.is_empty() {
            // f simplified to True; handled earlier, but stay safe.
            return Outcome::Sat(Model::new(Solver::mid_values(dom)));
        }
        let tape = q.tape.as_ref();
        let mentions: Vec<Vec<u32>> =
            conjuncts.iter().map(|c| c.vars().iter().map(|v| v.0).collect()).collect();

        // Root: evaluate everything once (one batched tape pass when
        // compiled); scan in conjunct order so the first-False short
        // circuit matches the tree walker's counters exactly.
        let root_verdicts: Option<Vec<Tri>> = tape.map(|t| {
            let cis: Vec<u32> = (0..conjuncts.len() as u32).collect();
            IV_SCRATCH.with(|s| {
                let mut out = Vec::new();
                t.verdicts(&[dom], &cis, &mut s.borrow_mut(), &mut out);
                out
            })
        });
        let mut root_pending = Vec::new();
        for (i, c) in conjuncts.iter().enumerate() {
            let v = match &root_verdicts {
                Some(out) => out[i],
                None => ieval_formula(c, dom),
            };
            match v {
                Tri::False => {
                    self.stats.boxes_processed = 1;
                    self.stats.boxes_pruned = 1;
                    return Outcome::Unsat;
                }
                Tri::Unknown => root_pending.push(i as u32),
                Tri::True => {}
            }
        }

        let workers = self.cfg.threads.clamp(1, ROUND_SIZE);
        self.stats.workers = workers;
        let ctx = BnpCtx { cfg: &self.cfg, f: &q.simplified, conjuncts, mentions: &mentions, tape };

        // Depth-first stack of unexplored boxes; the top is the deepest.
        let mut stack = vec![BoxTask { dom: dom.clone(), pending: root_pending, id: 0 }];
        let mut next_id: u64 = 1;

        while !stack.is_empty() {
            let remaining = self.cfg.max_boxes.saturating_sub(self.stats.boxes_processed);
            if remaining == 0 {
                return Outcome::Exhausted;
            }
            // Pop a fixed-size batch; batch[0] is the stack top — exactly
            // the box a sequential DFS would pop first.
            let b = ROUND_SIZE.min(stack.len()).min(remaining);
            trace::counter("solver.bnp.round", || {
                vec![
                    ("batch", Value::U64(b as u64)),
                    ("stack", Value::U64(stack.len() as u64)),
                    ("explored", Value::U64(self.stats.boxes_processed as u64)),
                ]
            });
            let mut batch: Vec<BoxTask> = Vec::with_capacity(b);
            for _ in 0..b {
                batch.push(stack.pop().expect("b <= stack.len()"));
            }

            let results = if workers > 1 && b >= PAR_MIN_BATCH {
                Solver::run_batch_parallel(&ctx, &batch, workers)
            } else {
                Solver::run_batch_sequential(&ctx, &batch)
            };

            // Deterministic selection and accounting: scan in batch order
            // and stop at the first SAT (lowest box index wins). Work a
            // parallel round performed past the winner is discarded, so
            // every counter matches the sequential solver exactly.
            let mut sat: Option<Model> = None;
            let mut child_sets: Vec<Vec<(BoxDomain, Vec<u32>)>> = Vec::with_capacity(b);
            for res in results {
                match res.verdict {
                    TaskVerdict::Skipped => {
                        // Unreachable before the winning index by
                        // construction; never counted.
                        debug_assert!(false, "skip below the winning box");
                        continue;
                    }
                    verdict => {
                        self.stats.boxes_processed += 1;
                        self.stats.samples_tried += res.samples;
                        self.stats.boxes_pruned += res.pruned;
                        self.stats.eval_errors += res.errors;
                        match verdict {
                            TaskVerdict::Sat(m) => {
                                sat = Some(m);
                                break;
                            }
                            TaskVerdict::Residual => self.stats.residual_boxes += 1,
                            TaskVerdict::Split(children) => child_sets.push(children),
                            TaskVerdict::Skipped => unreachable!("matched above"),
                        }
                    }
                }
            }
            if let Some(m) = sat {
                return Outcome::Sat(m);
            }
            // Push children so that batch[0]'s high child ends up on top,
            // matching the order a sequential DFS would explore.
            for children in child_sets.into_iter().rev() {
                for (child_dom, pending) in children {
                    stack.push(BoxTask { dom: child_dom, pending, id: next_id });
                    next_id += 1;
                }
            }
        }

        if self.stats.residual_boxes == 0 {
            Outcome::Unsat
        } else {
            Outcome::DeltaUnsat
        }
    }

    /// Sequential round: process boxes in order, stopping at the first
    /// SAT (the boxes after it are this round's discarded work).
    fn run_batch_sequential(ctx: &BnpCtx<'_>, batch: &[BoxTask]) -> Vec<TaskResult> {
        let mut out = Vec::with_capacity(batch.len());
        for task in batch {
            let res = ctx.process(task);
            let is_sat = matches!(res.verdict, TaskVerdict::Sat(_));
            out.push(res);
            if is_sat {
                break;
            }
        }
        out
    }

    /// Parallel round: workers pull box indices from the shared work
    /// queue. `best_sat` is the early-exit flag — an `AtomicUsize`
    /// rather than a plain "SAT found" bool because a SAT at a *higher*
    /// index must not suppress boxes that precede it in the deterministic
    /// order (the lowest SAT index wins the round). A skipped box is
    /// therefore always above the winner, and the winner-prefix scan in
    /// `branch_and_prune` never observes it.
    fn run_batch_parallel(ctx: &BnpCtx<'_>, batch: &[BoxTask], workers: usize) -> Vec<TaskResult> {
        let best_sat = AtomicUsize::new(usize::MAX);
        pool::scoped_map((0..batch.len()).collect(), workers, |i: usize| {
            if best_sat.load(Ordering::Relaxed) < i {
                return TaskResult {
                    verdict: TaskVerdict::Skipped,
                    samples: 0,
                    pruned: 0,
                    errors: 0,
                };
            }
            let res = ctx.process(&batch[i]);
            if matches!(res.verdict, TaskVerdict::Sat(_)) {
                best_sat.fetch_min(i, Ordering::Relaxed);
            }
            res
        })
    }

    // -- sampling helpers -----------------------------------------------------

    /// Snap an `f64` to a rational with denominator 10^6, keeping models
    /// human-readable; exactness is preserved because every candidate is
    /// re-certified.
    fn snap(x: f64) -> Rat {
        let scaled = (x * 1e6).round();
        if scaled.abs() < 9e15 {
            Rat::from_frac(scaled as i64, 1_000_000)
        } else {
            Rat::from_f64(x).unwrap_or_else(Rat::zero)
        }
    }

    fn clamp_iv(iv: Interval) -> (f64, f64) {
        const CAP: f64 = 1e9;
        let lo = if iv.lo().is_finite() { iv.lo() } else { -CAP };
        let hi = if iv.hi().is_finite() { iv.hi() } else { CAP };
        (lo, hi)
    }

    fn rat_in(iv: Interval, x: f64) -> Rat {
        let (lo, hi) = Solver::clamp_iv(iv);
        let snapped = Solver::snap(x.clamp(lo, hi));
        // Snapping may push just outside the box; clamp exactly.
        let rlo = Rat::from_f64(lo).unwrap_or_else(Rat::zero);
        let rhi = Rat::from_f64(hi).unwrap_or_else(Rat::zero);
        if rlo <= rhi {
            snapped.clamp(&rlo, &rhi)
        } else {
            snapped
        }
    }

    fn sample_uniform(rng: &mut Rng, dom: &BoxDomain) -> Vec<Rat> {
        (0..dom.len())
            .map(|i| {
                let iv = dom.intervals()[i];
                let (lo, hi) = Solver::clamp_iv(iv);
                let x = if lo == hi { lo } else { rng.random_range(lo..=hi) };
                Solver::rat_in(iv, x)
            })
            .collect()
    }

    fn mid_values(dom: &BoxDomain) -> Vec<Rat> {
        (0..dom.len())
            .map(|i| {
                let iv = dom.intervals()[i];
                Solver::rat_in(iv, iv.midpoint())
            })
            .collect()
    }

    fn clamp_into(dom: &BoxDomain, vals: &[Rat]) -> Vec<Rat> {
        (0..dom.len())
            .map(|i| {
                let iv = dom.intervals()[i];
                let (lo, hi) = Solver::clamp_iv(iv);
                let rlo = Rat::from_f64(lo).unwrap_or_else(Rat::zero);
                let rhi = Rat::from_f64(hi).unwrap_or_else(Rat::zero);
                match vals.get(i) {
                    Some(v) if rlo <= rhi => v.clone().clamp(&rlo, &rhi),
                    Some(v) => v.clone(),
                    None => Solver::rat_in(iv, iv.midpoint()),
                }
            })
            .collect()
    }

    fn jitter(rng: &mut Rng, dom: &BoxDomain, vals: &[Rat], step: u32) -> Vec<Rat> {
        // Radius factor: 0.4% of the range at step 0, growing ~1.5x per
        // step, capped at 15%.
        let factor = (0.004 * 1.5f64.powi(step as i32 / 2)).min(0.15);
        (0..dom.len())
            .map(|i| {
                let iv = dom.intervals()[i];
                let (lo, hi) = Solver::clamp_iv(iv);
                let center = vals.get(i).map_or_else(|| iv.midpoint(), Rat::to_f64);
                let radius = ((hi - lo) * factor).max(1e-6);
                let x = center + rng.random_range(-radius..=radius);
                Solver::rat_in(iv, x)
            })
            .collect()
    }

    fn certify(&mut self, f: &Formula, vals: &[Rat]) -> Option<Model> {
        self.stats.samples_tried += 1;
        let (m, e) = certify_exact(None, f, vals);
        self.stats.eval_errors += e;
        m
    }

    fn certify_q(&mut self, q: &CompiledQuery, vals: &[Rat]) -> Option<Model> {
        self.stats.samples_tried += 1;
        let (m, e) = certify_exact(q.tape.as_ref(), &q.simplified, vals);
        self.stats.eval_errors += e;
        m
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::term::Term;
    use crate::vars::VarRegistry;

    fn solver() -> Solver {
        Solver::new(SolverConfig::default())
    }

    fn setup2() -> (VarRegistry, BoxDomain, crate::vars::VarId, crate::vars::VarId) {
        let mut r = VarRegistry::new();
        let x = r.intern("x");
        let y = r.intern("y");
        let mut d = BoxDomain::new(&r);
        d.set(x, Interval::new(0.0, 10.0));
        d.set(y, Interval::new(0.0, 10.0));
        (r, d, x, y)
    }

    #[test]
    fn sat_simple_linear() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![
            Term::var(x).add(Term::var(y)).ge(Term::int(5)),
            Term::var(x).le(Term::int(2)),
        ]);
        let mut s = solver();
        match s.solve(&f, &d) {
            Outcome::Sat(m) => {
                assert!(eval_formula(&f, m.values()).unwrap());
            }
            o => panic!("expected sat, got {o:?}"),
        }
    }

    #[test]
    fn sat_nonlinear() {
        let (_, d, x, y) = setup2();
        // x*y == near 12 with narrow band, x > y
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
            Term::var(x).mul(Term::var(y)).le(Term::int(13)),
            Term::var(x).gt(Term::var(y)),
        ]);
        let mut s = solver();
        let out = s.solve(&f, &d);
        let m = out.model().expect("sat");
        assert!(eval_formula(&f, m.values()).unwrap());
    }

    #[test]
    fn unsat_proved() {
        let (_, d, x, y) = setup2();
        // x + y > 25 impossible on [0,10]^2
        let f = Term::var(x).add(Term::var(y)).gt(Term::int(25));
        let mut s = solver();
        assert_eq!(s.solve(&f, &d), Outcome::Unsat);
    }

    #[test]
    fn unsat_needs_splitting() {
        let (_, d, x, y) = setup2();
        // x*y >= 60 and x + y <= 10: max of x*y on the simplex is 25.
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(60)),
            Term::var(x).add(Term::var(y)).le(Term::int(10)),
        ]);
        let mut s = solver();
        let out = s.solve(&f, &d);
        assert!(out.is_unsat_like(), "got {out:?}");
    }

    #[test]
    fn thin_sat_band_found() {
        let (_, d, x, y) = setup2();
        // A thin diagonal band: 4.999 <= x + y <= 5.001.
        let f = Formula::and(vec![
            Term::var(x).add(Term::var(y)).ge(Term::constant(Rat::from_frac(4999, 1000))),
            Term::var(x).add(Term::var(y)).le(Term::constant(Rat::from_frac(5001, 1000))),
        ]);
        let mut s = solver();
        let out = s.solve(&f, &d);
        let m = out.model().expect("thin band should be found");
        assert!(eval_formula(&f, m.values()).unwrap());
    }

    #[test]
    fn seeds_accelerate_and_are_clamped() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![Term::var(x).ge(Term::int(9)), Term::var(y).le(Term::int(1))]);
        // A seed outside the box gets clamped in and certified.
        let seed = Model::new(vec![Rat::from_int(50), Rat::from_int(-3)]);
        let mut s = solver();
        match s.solve_seeded(&f, &d, &[seed]) {
            Outcome::Sat(m) => {
                assert!(eval_formula(&f, m.values()).unwrap());
                assert!(s.stats.sat_from_seeding);
                assert_eq!(s.stats.samples_tried, 1, "first clamped seed suffices");
            }
            o => panic!("expected sat, got {o:?}"),
        }
    }

    #[test]
    fn seeding_disabled_still_solves() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![Term::var(x).ge(Term::int(9)), Term::var(y).le(Term::int(1))]);
        let cfg = SolverConfig { use_seeding: false, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        let out = s.solve(&f, &d);
        assert!(out.model().is_some());
        assert!(!s.stats.sat_from_seeding);
    }

    #[test]
    fn trivial_formulas() {
        let (_, d, _, _) = setup2();
        let mut s = solver();
        assert!(matches!(s.solve(&Formula::True, &d), Outcome::Sat(_)));
        assert_eq!(s.solve(&Formula::False, &d), Outcome::Unsat);
    }

    #[test]
    fn exhaustion_reported() {
        let (_, d, x, y) = setup2();
        // Hard thin unsat band with a tiny budget: must report Exhausted,
        // not a bogus unsat.
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(25)),
            Term::var(x).add(Term::var(y)).le(Term::int(10)),
            Term::var(x).sub(Term::var(y)).ge(Term::constant(Rat::from_frac(1, 1000))),
        ]);
        let cfg = SolverConfig {
            max_boxes: 3,
            use_seeding: false,
            delta: 1e-9,
            ..SolverConfig::default()
        };
        let mut s = Solver::new(cfg);
        let out = s.solve(&f, &d);
        assert!(matches!(out, Outcome::Exhausted | Outcome::DeltaUnsat), "got {out:?}");
    }

    #[test]
    fn delta_unsat_on_measure_zero_equality() {
        let (_, d, x, y) = setup2();
        // x == y && x != y is plainly unsat, but x*x == y (a curve) is
        // measure-zero: sampling cannot hit it, interval tests cannot refute
        // it, so we expect DeltaUnsat (residual boxes along the curve) —
        // with an exact-equality atom Sat is also possible if a snapped
        // rational lands exactly on the curve.
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(x)).eq_t(Term::var(y)),
            // Keep it off trivial points.
            Term::var(x).ge(Term::int(1)),
            Term::var(x).mul(Term::var(x)).ne_t(Term::var(x)),
        ]);
        let cfg = SolverConfig { delta: 0.05, max_boxes: 100_000, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        match s.solve(&f, &d) {
            Outcome::Sat(m) => {
                assert!(eval_formula(&f, m.values()).unwrap());
            }
            Outcome::DeltaUnsat => {
                assert!(s.stats.residual_boxes > 0);
            }
            o => panic!("unexpected {o:?}"),
        }
    }

    #[test]
    fn deterministic_given_seed() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
            Term::var(x).add(Term::var(y)).le(Term::int(9)),
        ]);
        let m1 = Solver::new(SolverConfig::default()).solve(&f, &d);
        let m2 = Solver::new(SolverConfig::default()).solve(&f, &d);
        assert_eq!(m1, m2);
    }

    /// The parallel solver must be bit-for-bit the sequential solver:
    /// same outcome, same model, same deterministic counters — for SAT
    /// found by branch-and-prune, UNSAT proofs, and δ-UNSAT residue.
    #[test]
    fn parallel_matches_sequential_byte_for_byte() {
        let (_, d, x, y) = setup2();
        let queries: Vec<Formula> = vec![
            // SAT only reachable through branch-and-prune sampling.
            Formula::and(vec![
                Term::var(x).add(Term::var(y)).ge(Term::constant(Rat::from_frac(4999, 1000))),
                Term::var(x).add(Term::var(y)).le(Term::constant(Rat::from_frac(5001, 1000))),
            ]),
            // UNSAT requiring subdivision.
            Formula::and(vec![
                Term::var(x).mul(Term::var(y)).ge(Term::int(60)),
                Term::var(x).add(Term::var(y)).le(Term::int(10)),
            ]),
            // Nonlinear SAT band.
            Formula::and(vec![
                Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
                Term::var(x).mul(Term::var(y)).le(Term::int(13)),
                Term::var(x).gt(Term::var(y)),
            ]),
        ];
        for seed in [1u64, 7, 0xC50_5EED] {
            for (qi, f) in queries.iter().enumerate() {
                let cfg1 = SolverConfig {
                    seed,
                    use_seeding: false,
                    threads: 1,
                    ..SolverConfig::default()
                };
                let cfg4 = SolverConfig { threads: 4, ..cfg1.clone() };
                let mut s1 = Solver::new(cfg1);
                let mut s4 = Solver::new(cfg4);
                let o1 = s1.solve(f, &d);
                let o4 = s4.solve(f, &d);
                assert_eq!(o1, o4, "seed {seed} query {qi}: outcomes diverged");
                assert_eq!(
                    format!("{o1:?}"),
                    format!("{o4:?}"),
                    "seed {seed} query {qi}: rendered outcomes diverged"
                );
                assert_eq!(
                    (s1.stats.boxes_processed, s1.stats.boxes_pruned, s1.stats.samples_tried),
                    (s4.stats.boxes_processed, s4.stats.boxes_pruned, s4.stats.samples_tried),
                    "seed {seed} query {qi}: deterministic counters diverged"
                );
            }
        }
    }

    /// The compiled-tape path must be bit-for-bit the tree-walking path:
    /// same outcome, same model, same deterministic counters — across SAT
    /// bands, UNSAT proofs needing subdivision, and δ-UNSAT residue, with
    /// seeding on and off and threads 1 and 4.
    #[test]
    fn tape_matches_tree_byte_for_byte() {
        let (_, d, x, y) = setup2();
        let queries: Vec<Formula> = vec![
            Formula::and(vec![
                Term::var(x).add(Term::var(y)).ge(Term::constant(Rat::from_frac(4999, 1000))),
                Term::var(x).add(Term::var(y)).le(Term::constant(Rat::from_frac(5001, 1000))),
            ]),
            Formula::and(vec![
                Term::var(x).mul(Term::var(y)).ge(Term::int(60)),
                Term::var(x).add(Term::var(y)).le(Term::int(10)),
            ]),
            Formula::and(vec![
                Term::var(x).mul(Term::var(y)).ge(Term::int(12)),
                Term::var(x).mul(Term::var(y)).le(Term::int(13)),
                Term::var(x).gt(Term::var(y)),
            ]),
            // Inexact constant (1/3) exercising the one-ulp enclosures.
            Formula::and(vec![
                Term::var(x).mul(Term::constant(Rat::from_frac(1, 3))).ge(Term::int(2)),
                Term::var(x).add(Term::var(y)).le(Term::int(7)),
            ]),
        ];
        for seeding in [false, true] {
            for threads in [1usize, 4] {
                for (qi, f) in queries.iter().enumerate() {
                    let base = SolverConfig {
                        seed: 7,
                        use_seeding: seeding,
                        threads,
                        ..SolverConfig::default()
                    };
                    let mut on = Solver::new(SolverConfig { tape: true, ..base.clone() });
                    let mut off = Solver::new(SolverConfig { tape: false, ..base });
                    let o_on = on.solve(f, &d);
                    let o_off = off.solve(f, &d);
                    let tag = format!("seeding {seeding} threads {threads} query {qi}");
                    assert_eq!(o_on, o_off, "{tag}: outcomes diverged");
                    assert_eq!(
                        (
                            on.stats.boxes_processed,
                            on.stats.boxes_pruned,
                            on.stats.residual_boxes,
                            on.stats.samples_tried,
                            on.stats.sat_from_seeding,
                        ),
                        (
                            off.stats.boxes_processed,
                            off.stats.boxes_pruned,
                            off.stats.residual_boxes,
                            off.stats.samples_tried,
                            off.stats.sat_from_seeding,
                        ),
                        "{tag}: deterministic counters diverged"
                    );
                }
            }
        }
    }

    #[test]
    fn stats_report_workers_and_phase_times() {
        let (_, d, x, y) = setup2();
        let f = Formula::and(vec![
            Term::var(x).mul(Term::var(y)).ge(Term::int(60)),
            Term::var(x).add(Term::var(y)).le(Term::int(10)),
        ]);
        let cfg = SolverConfig { threads: 3, use_seeding: false, ..SolverConfig::default() };
        let mut s = Solver::new(cfg);
        let out = s.solve(&f, &d);
        assert!(out.is_unsat_like());
        assert_eq!(s.stats.workers, 3);
        assert!(s.stats.bnp_time > Duration::ZERO, "branch-and-prune time must be recorded");
        assert_eq!(s.stats.seeding_time, Duration::ZERO, "seeding disabled, no seeding time");
    }

    #[test]
    fn ite_objective_query() {
        // A miniature of the real workload: compare a SWAN-style sketched
        // objective at two scenario points.
        let mut r = VarRegistry::new();
        let t1 = r.intern("t1");
        let l1 = r.intern("l1");
        let t2 = r.intern("t2");
        let l2 = r.intern("l2");
        let obj = |t: Term, l: Term| {
            let cond = Formula::and(vec![t.clone().ge(Term::int(1)), l.clone().le(Term::int(50))]);
            let sat = t.clone().sub(t.clone().mul(l.clone())).add(Term::int(1000));
            let unsat = t.clone().sub(Term::int(5).mul(t).mul(l));
            Term::ite(cond, sat, unsat)
        };
        // Find scenarios where objective(s1) > objective(s2) + 500.
        let f = obj(Term::var(t1), Term::var(l1))
            .gt(obj(Term::var(t2), Term::var(l2)).add(Term::int(500)));
        let mut d = BoxDomain::new(&r);
        for v in [t1, t2] {
            d.set(v, Interval::new(0.0, 10.0));
        }
        for v in [l1, l2] {
            d.set(v, Interval::new(0.0, 200.0));
        }
        let mut s = solver();
        let out = s.solve(&f, &d);
        let m = out.model().expect("sat");
        assert!(eval_formula(&f, m.values()).unwrap());
    }
}
