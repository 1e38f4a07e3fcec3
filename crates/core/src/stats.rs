//! Statistics collection and the summary measures the paper reports.
//!
//! Table 1 reports average, median and SIQR (semi-interquartile range) of
//! the iteration count, per-iteration synthesis time and total synthesis
//! time over nine runs; [`RunSummary`] computes exactly those.
//!
//! Solver and cache accounting has one path: the engine describes each
//! solve, memo hit and clause drain as a [`Tally`], whose
//! [`SolverTelemetry`] delta is both what the engine aggregates and what
//! [`Tally::record`] publishes as trace counters and metrics, through
//! the one name table [`ROUTES`].

use cso_logic::solver::{Outcome, SolverStats};
use cso_runtime::metrics::{self, Counter, Histogram};
use cso_runtime::trace::{self, Event, Kind, Value};
use std::time::Duration;

/// Aggregated δ-solver telemetry, summed over some window of solver
/// queries (one iteration, or a whole run).
///
/// Box and sample counts are deterministic given the seed; the two
/// `*_time` fields are wall-clock and must stay out of any output that
/// promises byte-identity across runs.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SolverTelemetry {
    /// Solver invocations absorbed.
    pub queries: usize,
    /// Boxes popped from the branch-and-prune frontier.
    pub boxes_explored: usize,
    /// Boxes pruned by interval refutation.
    pub boxes_pruned: usize,
    /// Sub-δ boxes left undecided.
    pub residual_boxes: usize,
    /// Exact sample evaluations (seeding + branch-and-prune).
    pub samples_tried: usize,
    /// Exact evaluations that surfaced a partiality error (division by
    /// zero, unbound variable) instead of a verdict. The tape's interval
    /// fast path may reject such samples before the exact evaluator runs,
    /// so this is the one counter allowed to differ with the tape on/off.
    pub eval_errors: usize,
    /// Wall-clock time spent in seeding phases.
    pub seeding_time: Duration,
    /// Wall-clock time spent in branch-and-prune.
    pub bnp_time: Duration,
    /// Largest worker-thread count any absorbed query ran with.
    pub max_workers: usize,
    /// Queries answered by exact memo replay instead of a solver run.
    /// Replayed queries are *not* counted in `queries` or the box/sample
    /// counters — those record physical solver work only.
    pub cache_hits: usize,
    /// Preference-edge clauses served from the query-layer cache instead
    /// of being recompiled.
    pub clauses_reused: usize,
}

impl SolverTelemetry {
    /// Fold one solver query's statistics into the aggregate.
    ///
    /// Only covers what [`SolverStats`] reports — physical solver work.
    /// The cache-layer fields (`cache_hits`, `clauses_reused`) come from
    /// the engine's cache paths and flow in through
    /// [`SolverTelemetry::merge`].
    pub fn absorb(&mut self, s: &SolverStats) {
        self.queries += 1;
        self.boxes_explored += s.boxes_processed;
        self.boxes_pruned += s.boxes_pruned;
        self.residual_boxes += s.residual_boxes;
        self.samples_tried += s.samples_tried;
        self.eval_errors += s.eval_errors;
        self.seeding_time += s.seeding_time;
        self.bnp_time += s.bnp_time;
        self.max_workers = self.max_workers.max(s.workers);
    }

    /// Fold another aggregate into this one: every additive field sums,
    /// `max_workers` takes the max. The exhaustive destructuring makes a
    /// new telemetry field a compile error here rather than a silently
    /// dropped count.
    pub fn merge(&mut self, other: &SolverTelemetry) {
        let SolverTelemetry {
            queries,
            boxes_explored,
            boxes_pruned,
            residual_boxes,
            samples_tried,
            eval_errors,
            seeding_time,
            bnp_time,
            max_workers,
            cache_hits,
            clauses_reused,
        } = *other;
        self.queries += queries;
        self.boxes_explored += boxes_explored;
        self.boxes_pruned += boxes_pruned;
        self.residual_boxes += residual_boxes;
        self.samples_tried += samples_tried;
        self.eval_errors += eval_errors;
        self.seeding_time += seeding_time;
        self.bnp_time += bnp_time;
        self.max_workers = self.max_workers.max(max_workers);
        self.cache_hits += cache_hits;
        self.clauses_reused += clauses_reused;
    }
}

/// One accounting event of the engine. [`Tally::record`] turns it into
/// the [`SolverTelemetry`] delta the engine aggregates, and folds that
/// same delta into the trace and metrics sinks.
#[derive(Debug, Clone, Copy)]
pub enum Tally<'a> {
    /// A physical solver run and its outcome.
    Solve(&'a SolverStats, &'a Outcome),
    /// A query replayed from the memo, with the engine call site.
    MemoHit(u64),
    /// Clause-cache counters drained from the query layer: reused, compiled.
    Clauses(usize, usize),
}

/// The metric a [`Route`] adds its count to.
pub enum Probe {
    /// A counter, incremented by the count.
    Counter(Counter),
    /// A histogram observing each event's count; its sum is the total.
    Histogram(Histogram),
}

/// Reads one additive count from a record.
pub type Count = fn(&SolverTelemetry) -> u64;

/// Where both folds publish one additive count of [`SolverTelemetry`].
pub struct Route {
    /// The trace counter event carrying the count.
    pub event: &'static str,
    /// The event's field holding the count; `None` counts the events.
    pub field: Option<&'static str>,
    /// The metric the count is added to.
    pub metric: Probe,
    /// Reads the count from a record.
    pub count: Count,
}

impl Route {
    /// The metric name.
    #[must_use]
    pub fn metric_name(&self) -> &'static str {
        match &self.metric {
            Probe::Counter(c) => c.name(),
            Probe::Histogram(h) => h.name(),
        }
    }

    /// The count's total over a trace stream.
    #[must_use]
    pub fn trace_total(&self, events: &[Event]) -> u64 {
        events
            .iter()
            .filter(|e| e.kind == Kind::Counter && e.name == self.event)
            .map(|e| self.field.map_or(1, |f| e.field_u64(f).unwrap_or(0)))
            .sum()
    }

    /// The count's total in a metrics snapshot (for a histogram, its sum).
    #[must_use]
    pub fn metric_total(&self, snap: &metrics::Snapshot) -> u64 {
        match &self.metric {
            Probe::Counter(c) => snap.counters.get(c.name()).copied().unwrap_or(0),
            Probe::Histogram(h) => snap.histograms.get(h.name()).map_or(0, |h| h.sum()),
        }
    }
}

const SOLVE: &str = "solver.query";
const MEMO_HIT: &str = "cache.memo_hit";
const CLAUSES: &str = "query.clauses";

const fn counter(
    event: &'static str,
    field: Option<&'static str>,
    name: &'static str,
    count: Count,
) -> Route {
    Route { event, field, metric: Probe::Counter(Counter::new(name)), count }
}

const fn histogram(field: &'static str, name: &'static str, count: Count) -> Route {
    Route {
        event: SOLVE,
        field: Some(field),
        metric: Probe::Histogram(Histogram::new(name)),
        count,
    }
}

fn nanos(d: Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// The shared name table: every additive count of the record, with the
/// trace field and the metric it is published as. Over any run, a
/// route's [`Route::trace_total`] and [`Route::metric_total`] both equal
/// its count of the run's totals.
pub static ROUTES: [Route; 10] = [
    counter(SOLVE, None, "cso_solver_queries_total", |t| t.queries as u64),
    counter(SOLVE, Some("boxes"), "cso_solver_boxes_total", |t| t.boxes_explored as u64),
    counter(SOLVE, Some("pruned"), "cso_solver_boxes_pruned_total", |t| t.boxes_pruned as u64),
    counter(SOLVE, Some("residual"), "cso_solver_residual_boxes_total", |t| {
        t.residual_boxes as u64
    }),
    counter(SOLVE, Some("samples"), "cso_solver_samples_total", |t| t.samples_tried as u64),
    counter(SOLVE, Some("eval_errors"), "cso_solver_eval_errors_total", |t| t.eval_errors as u64),
    histogram("seeding_ns", "cso_solver_seeding_ns", |t| nanos(t.seeding_time)),
    histogram("bnp_ns", "cso_solver_bnp_ns", |t| nanos(t.bnp_time)),
    counter(MEMO_HIT, None, "cso_engine_memo_hits_total", |t| t.cache_hits as u64),
    counter(CLAUSES, Some("reused"), "cso_engine_clauses_reused_total", |t| {
        t.clauses_reused as u64
    }),
];

impl Tally<'_> {
    /// Publish the event as one trace counter and its metrics, and return
    /// its record delta. The routed counts are read from the delta through
    /// [`ROUTES`]; what the record does not carry (outcome, worker count,
    /// seeding flag, call site, compiled clauses) is published beside
    /// them. A metric moves only on an event that routes to it. Disabled,
    /// each sink costs one relaxed load.
    pub fn record(&self) -> SolverTelemetry {
        static SAT: Counter = Counter::new("cso_solver_sat_total");
        static UNSAT: Counter = Counter::new("cso_solver_unsat_total");
        static DELTA_UNSAT: Counter = Counter::new("cso_solver_delta_unsat_total");
        static EXHAUSTED: Counter = Counter::new("cso_solver_exhausted_total");
        static COMPILED: Counter = Counter::new("cso_engine_clauses_compiled_total");
        let mut delta = SolverTelemetry::default();
        match *self {
            Tally::Solve(s, _) => delta.absorb(s),
            Tally::MemoHit(_) => delta.cache_hits = 1,
            Tally::Clauses(reused, _) => delta.clauses_reused = reused,
        }
        let event = match self {
            Tally::Solve(..) => SOLVE,
            Tally::MemoHit(_) => MEMO_HIT,
            Tally::Clauses(..) => CLAUSES,
        };
        let routes = || ROUTES.iter().filter(move |r| r.event == event);
        trace::counter(event, || {
            let mut fields: Vec<(&'static str, Value)> =
                routes().filter_map(|r| Some((r.field?, Value::U64((r.count)(&delta))))).collect();
            match *self {
                Tally::Solve(s, _) => fields.extend([
                    ("workers", Value::U64(s.workers as u64)),
                    ("from_seeding", Value::U64(u64::from(s.sat_from_seeding))),
                ]),
                Tally::MemoHit(site) => fields.push(("site", Value::U64(site))),
                Tally::Clauses(_, compiled) => {
                    fields.push(("compiled", Value::U64(compiled as u64)))
                }
            }
            fields
        });
        if metrics::enabled() {
            for r in routes() {
                match &r.metric {
                    Probe::Counter(c) => c.inc((r.count)(&delta)),
                    Probe::Histogram(h) => h.observe((r.count)(&delta)),
                }
            }
            match *self {
                Tally::Solve(_, out) => match out {
                    Outcome::Sat(_) => &SAT,
                    Outcome::Unsat => &UNSAT,
                    Outcome::DeltaUnsat => &DELTA_UNSAT,
                    Outcome::Exhausted => &EXHAUSTED,
                }
                .inc(1),
                Tally::MemoHit(_) => {}
                Tally::Clauses(_, compiled) => COMPILED.inc(compiled as u64),
            }
        }
        delta
    }
}

/// Per-iteration record emitted by the engine.
#[derive(Debug, Clone)]
pub struct IterationRecord {
    /// 1-based iteration number.
    pub index: usize,
    /// Time spent in synthesis (solver + bookkeeping) this iteration,
    /// excluding oracle time — the paper also excludes the oracle.
    pub synthesis_time: Duration,
    /// Scenarios sent to the oracle this iteration.
    pub scenarios_asked: usize,
    /// Whether the disambiguation query was answered from seeding.
    pub sat_from_seeding: bool,
    /// Solver work performed during this iteration.
    pub solver: SolverTelemetry,
}

/// Statistics for one synthesis run.
#[derive(Debug, Clone, Default)]
pub struct SynthStats {
    /// Per-iteration records, in order.
    pub records: Vec<IterationRecord>,
    /// Time spent ranking the initial random scenarios (solver-side only).
    pub init_time: Duration,
    /// Total wall-clock synthesis time, excluding oracle time — the
    /// paper excludes the oracle from synthesis time, so it is measured
    /// separately ([`SynthStats::oracle_time`]) and subtracted.
    pub total_time: Duration,
    /// Wall-clock time spent inside `Oracle::rank` calls: measured so it
    /// can be excluded from `total_time` instead of silently invisible.
    pub oracle_time: Duration,
    /// Preference edges recorded.
    pub edges_recorded: usize,
    /// Edges removed by noise repair.
    pub edges_repaired: usize,
    /// Solver work summed over the whole run (including the initial
    /// ranking and the final convergence proof, which belong to no
    /// iteration record).
    pub solver_totals: SolverTelemetry,
}

impl SynthStats {
    /// Number of interactive iterations (excluding the initial ranking).
    #[must_use]
    pub fn iterations(&self) -> usize {
        self.records.len()
    }

    /// Mean synthesis time per iteration in seconds.
    #[must_use]
    pub fn avg_iteration_secs(&self) -> f64 {
        if self.records.is_empty() {
            return 0.0;
        }
        let total: f64 = self.records.iter().map(|r| r.synthesis_time.as_secs_f64()).sum();
        total / self.records.len() as f64
    }

    /// Total synthesis time in seconds.
    #[must_use]
    pub fn total_secs(&self) -> f64 {
        self.total_time.as_secs_f64()
    }

    /// Total oracle time in seconds (excluded from [`total_secs`]).
    ///
    /// [`total_secs`]: SynthStats::total_secs
    #[must_use]
    pub fn oracle_secs(&self) -> f64 {
        self.oracle_time.as_secs_f64()
    }
}

/// Average / median / SIQR over a set of runs — the three columns of
/// Table 1.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RunSummary {
    /// Arithmetic mean.
    pub average: f64,
    /// Median; even-sized samples linearly interpolate between the two
    /// middle values (`quantile(v, 0.5)`), so the median of `[1, 2, 3, 4]`
    /// is `2.5`, not `2`.
    pub median: f64,
    /// Semi-interquartile range `(Q3 - Q1) / 2`.
    pub siqr: f64,
}

impl RunSummary {
    /// Summarize a sample. Returns zeros for an empty sample.
    #[must_use]
    pub fn of(samples: &[f64]) -> RunSummary {
        if samples.is_empty() {
            return RunSummary { average: 0.0, median: 0.0, siqr: 0.0 };
        }
        let mut v = samples.to_vec();
        v.sort_by(|a, b| a.partial_cmp(b).expect("no NaN in summaries"));
        let average = v.iter().sum::<f64>() / v.len() as f64;
        let median = quantile(&v, 0.5);
        let q1 = quantile(&v, 0.25);
        let q3 = quantile(&v, 0.75);
        RunSummary { average, median, siqr: (q3 - q1) / 2.0 }
    }
}

/// Linear-interpolation quantile of a sorted sample.
fn quantile(sorted: &[f64], q: f64) -> f64 {
    debug_assert!(!sorted.is_empty());
    if sorted.len() == 1 {
        return sorted[0];
    }
    let pos = q * (sorted.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    let frac = pos - lo as f64;
    sorted[lo] * (1.0 - frac) + sorted[hi] * frac
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    #[test]
    fn summary_of_constant_sample() {
        let s = RunSummary::of(&[3.0; 9]);
        assert_eq!(s.average, 3.0);
        assert_eq!(s.median, 3.0);
        assert_eq!(s.siqr, 0.0);
    }

    #[test]
    fn summary_of_known_sample() {
        // 1..=9: mean 5, median 5, Q1 3, Q3 7, SIQR 2.
        let v: Vec<f64> = (1..=9).map(f64::from).collect();
        let s = RunSummary::of(&v);
        assert_eq!(s.average, 5.0);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.siqr, 2.0);
    }

    #[test]
    fn summary_even_count_interpolates() {
        // Even-sized sample: the median sits halfway between the two
        // middle values, and the quartiles interpolate too.
        let s = RunSummary::of(&[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(s.median, 2.5);
        assert_eq!(s.average, 2.5);
        // Q1 = 1.75, Q3 = 3.25 under linear interpolation → SIQR 0.75.
        assert!((s.siqr - 0.75).abs() < 1e-12);
    }

    #[test]
    fn summary_unsorted_input() {
        let s = RunSummary::of(&[9.0, 1.0, 5.0]);
        assert_eq!(s.median, 5.0);
        assert_eq!(s.average, 5.0);
    }

    #[test]
    fn summary_empty() {
        let s = RunSummary::of(&[]);
        assert_eq!(s.average, 0.0);
        assert_eq!(s.median, 0.0);
    }

    /// One solver query's statistics, every field nonzero.
    fn sample_stats() -> SolverStats {
        SolverStats {
            boxes_processed: 10,
            boxes_pruned: 4,
            residual_boxes: 1,
            samples_tried: 25,
            eval_errors: 3,
            sat_from_seeding: true,
            seeding_time: Duration::from_nanos(3_000_001),
            bnp_time: Duration::from_nanos(7_000_002),
            workers: 4,
        }
    }

    #[test]
    fn telemetry_absorbs_solver_stats() {
        let mut t = SolverTelemetry::default();
        let mut s = sample_stats();
        t.absorb(&s);
        s.workers = 2;
        t.absorb(&s);
        assert_eq!(t.queries, 2);
        assert_eq!(t.boxes_explored, 20);
        assert_eq!(t.boxes_pruned, 8);
        assert_eq!(t.residual_boxes, 2);
        assert_eq!(t.samples_tried, 50);
        assert_eq!(t.eval_errors, 6);
        assert_eq!(t.seeding_time, Duration::from_nanos(6_000_002));
        assert_eq!(t.bnp_time, Duration::from_nanos(14_000_004));
        assert_eq!(t.max_workers, 4, "max, not last");
        // `absorb` records physical solver work only; the cache-layer
        // fields flow through `merge` and must stay untouched here.
        assert_eq!(t.cache_hits, 0);
        assert_eq!(t.clauses_reused, 0);
    }

    /// Every field — including the PR 3 cache fields — survives
    /// aggregation; a dropped field here would silently zero a
    /// `table1_telemetry.csv` column.
    #[test]
    fn telemetry_merge_covers_every_field() {
        let a = SolverTelemetry {
            queries: 1,
            boxes_explored: 2,
            boxes_pruned: 3,
            residual_boxes: 4,
            samples_tried: 5,
            eval_errors: 13,
            seeding_time: Duration::from_millis(6),
            bnp_time: Duration::from_millis(7),
            max_workers: 8,
            cache_hits: 9,
            clauses_reused: 10,
        };
        let mut t = a;
        t.merge(&SolverTelemetry { max_workers: 3, ..a });
        assert_eq!(
            t,
            SolverTelemetry {
                queries: 2,
                boxes_explored: 4,
                boxes_pruned: 6,
                residual_boxes: 8,
                samples_tried: 10,
                eval_errors: 26,
                seeding_time: Duration::from_millis(12),
                bnp_time: Duration::from_millis(14),
                max_workers: 8,
                cache_hits: 18,
                clauses_reused: 20,
            }
        );
    }

    /// The sink-level contract: a solve, a memo hit and a clause drain
    /// publish exactly their record deltas, as trace fields and as metric
    /// deltas, through the shared name table.
    #[test]
    fn tally_publishes_its_delta_to_trace_and_metrics() {
        const SESSION: u64 = u64::MAX - 14;
        let stats = sample_stats();
        let events =
            [Tally::Solve(&stats, &Outcome::Exhausted), Tally::MemoHit(3), Tally::Clauses(30, 5)];
        let mut expect =
            SolverTelemetry { cache_hits: 1, clauses_reused: 30, ..Default::default() };
        expect.absorb(&stats);
        let mut want: BTreeMap<String, u64> =
            ROUTES.iter().map(|r| (r.metric_name().to_owned(), (r.count)(&expect))).collect();
        for (k, v) in [("exhausted_total", 1), ("seeding_ns_count", 1), ("bnp_ns_count", 1)] {
            want.insert(format!("cso_solver_{k}"), v);
        }
        want.insert("cso_engine_clauses_compiled_total".to_owned(), 5);

        // The registry is process-wide and other tests in this binary run
        // syntheses concurrently, so a window may catch their counts too:
        // take the first clean window of a few (a wrong fold fails them
        // all). The trace is filtered to this test's session, so it is
        // exact in every window.
        let was_on = metrics::enabled();
        let sink = std::sync::Arc::new(trace::MemorySink::new());
        let measure = || {
            trace::install(sink.clone());
            metrics::enable();
            let before = metrics::snapshot();
            let scope = trace::session_scope(SESSION);
            let mut record = SolverTelemetry::default();
            events.iter().for_each(|e| record.merge(&e.record()));
            drop(scope);
            let delta = metrics::snapshot().delta(&before);
            let _ = trace::uninstall();
            if !was_on {
                metrics::disable();
            }
            let hists = delta.histograms.into_iter();
            let moved: BTreeMap<String, u64> = (delta.counters.into_iter())
                .chain(hists.flat_map(|(k, h)| [(format!("{k}_count"), h.count()), (k, h.sum())]))
                .filter(|(_, v)| *v > 0)
                .collect();
            let mine: Vec<Event> =
                sink.take().into_iter().filter(|e| e.session == Some(SESSION)).collect();
            (record, moved, mine)
        };
        let (record, moved, mine) =
            (0..20).map(|_| measure()).find(|w| w.1 == want).unwrap_or_else(measure);
        assert_eq!(record, expect, "the record is the sum of the deltas");
        assert_eq!(moved, want, "metric deltas differ from the record");
        for r in &ROUTES {
            assert_eq!(r.trace_total(&mine), (r.count)(&record), "trace of {}", r.metric_name());
        }
        let extras =
            [("workers", 0, 4), ("from_seeding", 0, 1), ("site", 1, 3), ("compiled", 2, 5)];
        for (field, i, v) in extras {
            assert_eq!(mine[i].field_u64(field), Some(v), "{field}");
        }
        assert_eq!(mine.iter().map(|e| e.fields.len()).collect::<Vec<_>>(), [9, 1, 2]);
    }

    #[test]
    fn stats_aggregation() {
        let mut st = SynthStats::default();
        for i in 1..=4 {
            st.records.push(IterationRecord {
                index: i,
                synthesis_time: Duration::from_millis(100 * i as u64),
                scenarios_asked: 2,
                sat_from_seeding: false,
                solver: SolverTelemetry::default(),
            });
        }
        st.total_time = Duration::from_secs(1);
        assert_eq!(st.iterations(), 4);
        assert!((st.avg_iteration_secs() - 0.25).abs() < 1e-9);
        assert_eq!(st.total_secs(), 1.0);
    }
}
