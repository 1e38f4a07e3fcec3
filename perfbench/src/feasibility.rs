//! `feasibility`: the δ-solver used directly. Each query asks for hole
//! values consistent with a ground-truth ranking of 10 to 80 random SWAN
//! scenarios; it is compiled and solved on a fresh solver, with no engine
//! and no memo.
//!
//! Formula size, not sampling luck, sets the cost here: tapes grow with
//! the graph, and no cache hides them.

use crate::layer;
use crate::pass::{agreement, Pass};
use crate::spans::Tracer;
use crate::speed::Clock;
use cso_bench::experiments::ExperimentProfile;
use cso_logic::eval::eval_formula;
use cso_logic::solver::{Outcome, Solver, SolverConfig};
use cso_logic::{BoxDomain, CompiledQuery, Formula};
use cso_prefgraph::PrefGraph;
use cso_runtime::hash::Fnv64;
use cso_runtime::Rng;
use cso_sketch::swan::{swan_sketch, swan_target};
use cso_synth::query::QueryBuilder;
use cso_synth::{MetricSpace, Scenario};
use std::hash::Hasher;

/// Ranked scenarios per query, cycled through in order: every run sees
/// the same mix of sizes, so only the scenarios vary with the seed.
/// Graphs of up to 30 scenarios are mostly solved within budget and
/// graphs of 50 or more mostly exhaust it, which costs 100 times more.
/// The larger sizes come twice so that about two thirds of the queries
/// exhaust, which keeps the median inside that mode: at one half, the
/// median jumps between the modes from seed to seed.
const SIZES: [usize; 12] = [10, 20, 30, 40, 50, 60, 70, 80, 50, 60, 70, 80];

struct Query {
    formula: Formula,
    edges: usize,
    seed: u64,
}

struct Corpus {
    qb: QueryBuilder,
    domain: BoxDomain,
    solver: SolverConfig,
    queries: Vec<Query>,
}

fn query_seed(seed: u64, index: u64) -> u64 {
    let mut h = Fnv64::new();
    h.write_u64(seed);
    h.write_u64(index);
    h.finish()
}

/// A preference graph over `n` distinct random scenarios, with the
/// target's ranking recorded as the engine records one: strict edges
/// between neighbours in score order, ties as indifference.
fn ranked_graph(n: usize, rng: &mut Rng) -> PrefGraph<Scenario> {
    let space = MetricSpace::swan();
    let target = swan_target();
    let mut scenarios: Vec<Scenario> = Vec::with_capacity(n);
    while scenarios.len() < n {
        let s = space.sample(rng);
        if !scenarios.contains(&s) {
            scenarios.push(s);
        }
    }
    let mut scored: Vec<_> = scenarios
        .into_iter()
        .map(|s| (target.eval(s.values()).expect("target evaluates in bounds"), s))
        .collect();
    scored.sort_by(|a, b| b.0.cmp(&a.0));
    let mut graph = PrefGraph::new();
    let ids: Vec<_> = scored.iter().map(|(_, s)| graph.add_scenario(s.clone())).collect();
    for (w, v) in ids.windows(2).zip(scored.windows(2)) {
        let tied = v[0].0 == v[1].0;
        let ok = if tied {
            graph.mark_indifferent(w[0], w[1])
        } else {
            graph.prefer(w[0], w[1]).map(|_| ())
        };
        ok.expect("a ranking by one objective is acyclic");
    }
    graph
}

fn setup(seed: u64, count: usize, tr: &mut Tracer) -> Result<Corpus, String> {
    let cfg = ExperimentProfile::Quick.synth_config();
    let qb = QueryBuilder::new(swan_sketch(), MetricSpace::swan(), &cfg);
    let domain = qb.domain();
    let mut solver = cfg.solver.clone();
    solver.delta_per_dim = Some(qb.deltas(cfg.delta_rel));
    solver.threads = 1;
    let target_env = qb.seed_from_holes(swan_target().hole_values());
    let mut queries = Vec::with_capacity(count);
    for i in 0..count {
        let qseed = query_seed(seed, i as u64);
        let mut rng = Rng::seed_from_u64(qseed);
        let graph = tr.span("prefgraph.build", |_| ranked_graph(SIZES[i % SIZES.len()], &mut rng));
        let formula = tr.span("query.feasibility", |_| qb.feasibility(&graph));
        if eval_formula(&formula, target_env.values()) != Ok(true) {
            return Err(format!("query {i}: the target's holes do not satisfy it"));
        }
        queries.push(Query { formula, edges: graph.edge_count(), seed: qseed });
    }
    // Warm-up: one small query outside the timed set.
    let warm = qb.feasibility(&ranked_graph(SIZES[0], &mut Rng::seed_from_u64(u64::MAX)));
    let q = CompiledQuery::prepare(&warm, Some(&domain), solver.tape);
    std::hint::black_box(Solver::new(solver.clone()).solve_compiled(&q, &domain, &[]));
    Ok(Corpus { qb, domain, solver, queries })
}

#[derive(Default)]
struct Tally {
    sat: usize,
    delta_unsat: usize,
    unsat: usize,
    exhausted: usize,
    boxes: usize,
    pruned: usize,
    samples: usize,
    seeding_s: f64,
    bnp_s: f64,
    slots: usize,
    nodes: usize,
    shared: usize,
}

/// Solve `count` feasibility queries built from `seed`. One op is one
/// query: compile it, then solve it on a fresh solver.
pub fn run(seed: u64, count: usize, setups: usize, rescale: bool, tr: &mut Tracer) -> Pass {
    let mut pass = Pass::default();
    let mut corpus = None;
    for _ in 0..setups {
        drop(corpus.take());
        let mut clock = Clock::start(rescale);
        match setup(seed, count, tr) {
            Ok(c) => corpus = Some(c),
            Err(e) => {
                pass.fail(e);
                return pass;
            }
        }
        pass.setup_s.push(clock.lap());
    }
    let corpus = corpus.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut models = Vec::new();
    let mut clock = Clock::start(rescale);
    tr.span("bench.work", |tr| {
        for (i, query) in corpus.queries.iter().enumerate() {
            tr.set_op(i as u64 + 1);
            let mut cfg = corpus.solver.clone();
            cfg.seed = query.seed;
            pass.work_s += clock.lap();
            let (compiled, outcome, stats) = tr.span("bench.op", |tr| {
                let compiled = tr.span("tape.compile", |_| {
                    CompiledQuery::prepare(&query.formula, Some(&corpus.domain), cfg.tape)
                });
                tr.span("solver.solve", |_| {
                    let mut solver = Solver::new(cfg);
                    let outcome = solver.solve_compiled(&compiled, &corpus.domain, &[]);
                    (compiled, outcome, solver.stats)
                })
            });
            let op_s = clock.lap();
            pass.work_s += op_s;
            pass.op_ms.push(op_s * 1e3);
            tally.boxes += stats.boxes_processed;
            tally.pruned += stats.boxes_pruned;
            tally.samples += stats.samples_tried;
            tally.seeding_s += stats.seeding_time.as_secs_f64();
            tally.bnp_s += stats.bnp_time.as_secs_f64();
            if let Some(tape) = &compiled.tape {
                tally.slots += tape.stats().slots;
                tally.nodes += tape.stats().nodes;
                tally.shared += tape.stats().shared;
            }
            match outcome {
                Outcome::Sat(m) => {
                    tally.sat += 1;
                    models.push((i, m));
                }
                Outcome::DeltaUnsat => tally.delta_unsat += 1,
                Outcome::Exhausted => tally.exhausted += 1,
                Outcome::Unsat => {
                    tally.unsat += 1;
                    pass.fail(format!("query {i}: Unsat, but the target satisfies it"));
                }
            }
        }
    });
    pass.work_s += clock.lap();
    pass.probes = clock.probes().to_vec();

    let target = swan_target();
    let sketch = swan_sketch();
    for (i, model) in &models {
        let query = &corpus.queries[*i];
        if eval_formula(&query.formula, model.values()) != Ok(true) {
            pass.fail(format!("query {i}: the SAT model violates the query"));
            continue;
        }
        match sketch.complete(corpus.qb.model_holes(model)) {
            Ok(objective) => pass.agreement.push(agreement(&objective, &target, query.seed)),
            Err(e) => pass.fail(format!("query {i}: model holes out of range: {e}")),
        }
    }

    let n = corpus.queries.len();
    let edges: usize = corpus.queries.iter().map(|q| q.edges).sum();
    pass.fingerprint.extend([
        ("ops", pass.op_ms.len() as u64),
        ("edges", edges as u64),
        ("tape_slots", tally.slots as u64),
        ("boxes_explored", tally.boxes as u64),
        ("boxes_pruned", tally.pruned as u64),
        ("samples", tally.samples as u64),
        ("sat", tally.sat as u64),
        ("delta_unsat", tally.delta_unsat as u64),
        ("exhausted", tally.exhausted as u64),
    ]);
    if tr.enabled() {
        let solve = tr.durations_ms("solver.solve");
        pass.layers.extend([
            ("prefgraph.build_us", layer::mean(&tr.durations_ms("prefgraph.build")) * 1e3, "us"),
            ("prefgraph.edges_mean", layer::ratio(edges, n), "count"),
            ("query.feasibility_ms", layer::mean(&tr.durations_ms("query.feasibility")), "ms"),
            ("tape.compile_ms_p50", layer::pct(&tr.durations_ms("tape.compile"), 0.5), "ms"),
            ("tape.slots_mean", layer::ratio(tally.slots, n), "count"),
            ("tape.shared_ratio", layer::ratio(tally.shared, tally.nodes), "fraction"),
            ("solver.queries", n as f64, "count"),
            ("solver.boxes_explored", tally.boxes as f64, "count"),
            ("solver.boxes_pruned", tally.pruned as f64, "count"),
            ("solver.prune_ratio", layer::ratio(tally.pruned, tally.boxes), "fraction"),
            ("solver.bnp_s", tally.bnp_s, "s"),
            ("solver.seeding_s", tally.seeding_s, "s"),
            ("solver.us_per_box", layer::per(tally.bnp_s * 1e6, tally.boxes), "us"),
            ("solver.solve_ms_p50", layer::pct(&solve, 0.5), "ms"),
            ("solver.solve_ms_p90", layer::pct(&solve, 0.9), "ms"),
            ("solver.boxes_per_query", layer::ratio(tally.boxes, n), "count"),
            ("solver.samples_per_query", layer::ratio(tally.samples, n), "count"),
            ("solver.seeding_share", layer::share(tally.seeding_s, tally.bnp_s), "fraction"),
            ("solver.outcome.sat", tally.sat as f64, "count"),
            ("solver.outcome.delta_unsat", tally.delta_unsat as f64, "count"),
            ("solver.outcome.unsat", tally.unsat as f64, "count"),
            ("solver.outcome.exhausted", tally.exhausted as f64, "count"),
            ("solver.sat_share", layer::ratio(tally.sat, n), "fraction"),
        ]);
    }
    pass
}
