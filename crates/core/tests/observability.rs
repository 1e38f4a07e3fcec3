//! Observation never feeds back — the engine-level contract for both
//! sinks, tracing and metrics.
//!
//! A full SWAN synthesis traced, or with metrics on, is byte-identical to
//! one without (outcome, holes, iterations, oracle interactions, every
//! deterministic telemetry count) under solver thread counts {1, 4}; its
//! event stream is well-formed in memory and parsed back from JSONL; every
//! count of the accounting name table [`ROUTES`] sums to the run's
//! `stats.solver_totals` in the event stream and in the metric deltas
//! alike; and [`cso_runtime::metrics::FlameFold`] stacks reconcile exactly
//! with span durations. (`ci.sh` golden-diffs whole Table 1 campaigns.)
//!
//! The trace sink and the metrics registry are process-global, so every
//! test holds one mutex for its full body.

use cso_numeric::Rat;
use cso_runtime::metrics::{self, FlameFold};
use cso_runtime::trace;
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::stats::{Probe, SolverTelemetry, ROUTES};
use cso_synth::{
    FnOracle, GroundTruthOracle, MetricSpace, Oracle, Scenario, SynthConfig, SynthOutcome,
    Synthesizer,
};
use std::sync::{Arc, Mutex, PoisonError};
use std::time::Duration;

/// Serializes trace-sink and metrics-state flips across this binary.
static SINK_LOCK: Mutex<()> = Mutex::new(());

fn lock() -> std::sync::MutexGuard<'static, ()> {
    SINK_LOCK.lock().unwrap_or_else(PoisonError::into_inner)
}

/// One oracle interaction: scenario values asked, grouped ranking given.
type Interaction = (Vec<Vec<Rat>>, Vec<Vec<usize>>);

/// Everything the architect can observe about one synthesis run, plus
/// its telemetry with the wall-clock phase times zeroed.
#[derive(Debug, PartialEq)]
struct Observed {
    outcome: SynthOutcome,
    iterations: usize,
    holes: Vec<Rat>,
    rendered: String,
    trace: Vec<Interaction>,
    counts: SolverTelemetry,
}

fn run_swan(seed: u64, threads: usize) -> (Observed, SolverTelemetry) {
    let mut cfg = SynthConfig::fast_test();
    cfg.seed = seed;
    cfg.solver.threads = threads;
    let mut synth = Synthesizer::new(swan_sketch(), MetricSpace::swan(), cfg)
        .expect("SWAN sketch matches its metric space");
    let mut truth = GroundTruthOracle::new(swan_target());
    let mut asked: Vec<Interaction> = Vec::new();
    let mut oracle = FnOracle::new(|s: &[Scenario]| {
        let r = truth.rank(s);
        asked.push((s.iter().map(|s| s.values().to_vec()).collect(), r.groups.clone()));
        r
    });
    let result = synth.run(&mut oracle).expect("ground-truth oracle is consistent");
    let totals = result.stats.solver_totals;
    (
        Observed {
            outcome: result.outcome,
            iterations: result.stats.iterations(),
            holes: result.objective.hole_values().to_vec(),
            rendered: result.objective.to_string(),
            trace: asked,
            counts: SolverTelemetry {
                seeding_time: Duration::ZERO,
                bnp_time: Duration::ZERO,
                ..totals
            },
        },
        totals,
    )
}

/// Tracing on vs off: identical synthesis outcomes and deterministic
/// telemetry, and a well-formed stream with the run's phase structure —
/// under both solver thread counts.
#[test]
fn traced_run_is_byte_identical() {
    let _g = lock();
    for threads in [1usize, 4] {
        let _ = trace::uninstall();
        let (plain, _) = run_swan(11, threads);

        let mem = Arc::new(trace::MemorySink::new());
        trace::install(mem.clone());
        let (traced, _) = run_swan(11, threads);
        let _ = trace::uninstall();
        let events = mem.take();

        assert_eq!(plain, traced, "threads {threads}: tracing changed observable behaviour");
        trace::check_well_formed(&events)
            .unwrap_or_else(|e| panic!("threads {threads}: malformed stream: {e}"));

        // The run's phase structure is present.
        let span_names: Vec<&str> = events
            .iter()
            .filter(|e| e.kind == trace::Kind::SpanStart)
            .map(|e| e.name.as_str())
            .collect();
        for phase in ["engine.run", "engine.initial_ranking", "engine.iteration", "engine.oracle"] {
            assert!(span_names.contains(&phase), "threads {threads}: missing span {phase:?}");
        }
        // One iteration span per recorded iteration (plus possibly the
        // convergence iteration, which records no IterationRecord).
        let iter_spans = span_names.iter().filter(|n| **n == "engine.iteration").count();
        assert!(
            iter_spans >= traced.iterations,
            "threads {threads}: {iter_spans} iteration spans for {} iterations",
            traced.iterations
        );
    }
}

/// Metrics on vs off: identical synthesis outcomes and deterministic
/// telemetry, under both solver thread counts — while the on-run
/// demonstrably collected.
#[test]
fn metrics_on_run_is_byte_identical() {
    let _g = lock();
    for threads in [1usize, 4] {
        metrics::disable();
        let (plain, _) = run_swan(11, threads);

        metrics::enable();
        let before = metrics::snapshot();
        let (metered, _) = run_swan(11, threads);
        let delta = metrics::snapshot().delta(&before);
        metrics::disable();

        assert_eq!(plain, metered, "threads {threads}: metrics changed observable behaviour");
        assert!(
            delta.counters.get("cso_engine_oracle_calls_total").copied().unwrap_or(0) > 0,
            "threads {threads}: no oracle calls counted"
        );
    }
}

/// Both folds of the accounting record at engine scale: with a trace
/// sink installed and metrics on, every count of the name table sums to
/// the run's totals in the event stream and in the metric deltas (this
/// also re-checks that sharded registration under pool threads loses
/// nothing).
#[test]
fn trace_and_metrics_fold_to_solver_totals() {
    let _g = lock();
    for threads in [1usize, 4] {
        let _ = trace::uninstall();
        let mem = Arc::new(trace::MemorySink::new());
        trace::install(mem.clone());
        metrics::enable();
        let before = metrics::snapshot();
        let (_, totals) = run_swan(11, threads);
        let delta = metrics::snapshot().delta(&before);
        metrics::disable();
        let _ = trace::uninstall();
        let events = mem.take();

        assert!(totals.queries > 0, "threads {threads}: no queries run");
        for r in &ROUTES {
            let want = (r.count)(&totals);
            let what = format!("threads {threads}: {}", r.metric_name());
            assert_eq!(r.trace_total(&events), want, "{what}: trace fold");
            assert_eq!(r.metric_total(&delta), want, "{what}: metrics fold");
            if let Probe::Histogram(h) = &r.metric {
                let count = delta.histograms.get(h.name()).map_or(0, |h| h.count());
                assert_eq!(count, totals.queries as u64, "{what}: one observation per query");
            }
        }
        let workers = events
            .iter()
            .filter(|e| e.kind == trace::Kind::Counter && e.name == "solver.query")
            .filter_map(|e| e.field_u64("workers"))
            .max();
        assert_eq!(workers, Some(totals.max_workers as u64), "threads {threads}: max workers");
    }
}

/// A full SWAN run through the JSONL sink: every line parses back, the
/// parsed stream is well-formed, and outcomes still match the untraced
/// run. (The `CSO_TRACE=jsonl:` environment path over a whole campaign is
/// exercised by `ci.sh`, which golden-diffs `table1.csv` traced vs not;
/// the environment is read once per process, so this test installs the
/// file sink programmatically.)
#[test]
fn jsonl_sink_full_run_roundtrips() {
    let _g = lock();
    let _ = trace::uninstall();
    let (plain, _) = run_swan(42, 1);

    let path = std::env::temp_dir().join(format!("cso_trace_swan_{}.jsonl", std::process::id()));
    trace::install(Arc::new(trace::JsonlSink::create(&path).expect("create trace file")));
    let (traced, totals) = run_swan(42, 1);
    let sink = trace::uninstall().expect("sink installed above");
    sink.flush();

    assert_eq!(plain, traced, "JSONL tracing changed observable behaviour");

    let text = std::fs::read_to_string(&path).expect("read trace file");
    let _ = std::fs::remove_file(&path);
    assert!(!text.is_empty(), "traced run wrote no events");
    let events: Vec<trace::Event> = text
        .lines()
        .map(|l| trace::parse_line(l).unwrap_or_else(|e| panic!("unparseable line: {e}\n{l}")))
        .collect();
    trace::check_well_formed(&events).expect("file stream well-formed");
    for r in &ROUTES {
        assert_eq!(r.trace_total(&events), (r.count)(&totals), "JSONL: {}", r.metric_name());
    }
    // The per-phase digest has something to fold: solver spans carry
    // durations.
    assert!(events
        .iter()
        .any(|e| e.kind == trace::Kind::SpanEnd && e.name == "solver.bnp" && e.dur_ns.is_some()));
}

/// Flame reconciliation: fold a real run's event stream and check the
/// collapsed stacks against the raw span durations and the run's
/// telemetry.
#[test]
fn flame_stacks_reconcile_with_span_durations() {
    let _g = lock();
    let _ = trace::uninstall();
    let mem = Arc::new(trace::MemorySink::new());
    trace::install(mem.clone());
    let (_, totals) = run_swan(7, 1);
    let _ = trace::uninstall();
    let events = mem.take();
    trace::check_well_formed(&events).expect("stream well-formed");

    let mut fold = FlameFold::new();
    fold.feed_all(&events);
    let report = fold.finish();
    assert_eq!(report.dropped, 0, "well-formed stream folds without drops");
    assert_eq!(report.unclosed, 0, "well-formed stream leaves nothing open");
    assert!(!report.stacks.is_empty(), "a full run produces flame stacks");

    // Exact invariant: for every span name (none self-nest in this
    // engine), total self-time over stacks containing it equals the sum
    // of its span durations, integer-exactly; and the per-phase
    // histogram saw exactly those durations.
    let mut span_totals: std::collections::BTreeMap<&str, (u64, u64)> = Default::default();
    for e in &events {
        if e.kind == trace::Kind::SpanEnd {
            let slot = span_totals.entry(&e.name).or_insert((0, 0));
            slot.0 += e.dur_ns.unwrap_or(0);
            slot.1 += 1;
        }
    }
    for (name, (dur_sum, count)) in &span_totals {
        assert_eq!(
            report.inclusive_ns(name),
            *dur_sum,
            "phase {name}: flame self-times do not sum back to span durations"
        );
        let h = &report.phases[*name];
        assert_eq!(h.count(), *count, "phase {name}: histogram count");
        assert_eq!(h.sum(), *dur_sum, "phase {name}: histogram sum");
    }

    // Root-to-leaf ancestry made it into the paths: branch-and-prune
    // burns its time under an engine iteration.
    assert!(
        report.stacks.keys().any(|p| p.contains("engine.iteration") && p.ends_with("solver.bnp")),
        "no engine.iteration;…;solver.bnp stack in {:?}",
        report.stacks.keys().take(10).collect::<Vec<_>>()
    );

    // Reconcile with the telemetry: the solver.bnp span sits strictly
    // inside the stats.bnp_time window solve_compiled measures, so the
    // flame total is bounded above by the telemetry total and must
    // account for most of it.
    let flame_bnp = report.inclusive_ns("solver.bnp");
    let telemetry_bnp = u64::try_from(totals.bnp_time.as_nanos()).unwrap_or(u64::MAX);
    assert!(
        flame_bnp <= telemetry_bnp,
        "flame bnp {flame_bnp}ns exceeds telemetry window {telemetry_bnp}ns"
    );
    assert!(
        flame_bnp * 2 >= telemetry_bnp,
        "flame bnp {flame_bnp}ns accounts for under half the telemetry window {telemetry_bnp}ns"
    );
}
