//! The repository's benchmark: three closed-loop workloads over the
//! comparative-synthesis stack, each on one thread in a process of its own.
//!
//! ```text
//! perfbench --workload <table1|fleet|feasibility> --seed <n> --seconds <s> --trace <0|1>
//! perfbench --steadiness [--workload <w>] [--runs <n>] [--seconds <s>] [--seed <first>]
//! ```
//!
//! With `--trace 0` the run prints every end-to-end metric; with
//! `--trace 1` it runs the workload twice with the same seed, untraced
//! and then traced, and prints every per-layer metric plus the tracing
//! overhead. The last line of standard output is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`. `--steadiness` runs
//! every workload `--runs` times with successive seeds, alternating their
//! order, and prints each metric's median, quartiles and spread.
//! See `perfbench/README.md`.

mod feasibility;
mod fleet;
mod layer;
mod measure;
mod pass;
mod spans;
mod speed;
mod steady;
mod synth_layers;
mod table1;

use pass::Pass;
use spans::Tracer;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// The workloads, in the order `--steadiness` runs them on even rounds.
pub const WORKLOADS: [&str; 3] = ["table1", "fleet", "feasibility"];

/// End-to-end metrics: name and unit. Every workload reports all of them.
pub const END_TO_END: [(&str, &str); 6] = [
    ("setup_s", "s"),
    ("work_s", "s"),
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("peak_rss_mb", "MB"),
    ("agreement_mean", "fraction"),
];

/// Per-layer metrics: name and unit. A layer the workload does not call
/// reads 0.
pub const PER_LAYER: [(&str, &str); 57] = [
    ("engine.step_ms_p50", "ms"),
    ("engine.step_ms_p90", "ms"),
    ("engine.answer_us_p50", "us"),
    ("engine.steps", "count"),
    ("engine.new_ms", "ms"),
    ("engine.iterations_mean", "count"),
    ("engine.stale_answers", "count"),
    ("sketch.parse_us", "us"),
    ("analysis.analyze_ms", "ms"),
    ("oracle.rank_us_p50", "us"),
    ("solver.queries", "count"),
    ("solver.boxes_explored", "count"),
    ("solver.boxes_pruned", "count"),
    ("solver.prune_ratio", "fraction"),
    ("solver.cache_hits", "count"),
    ("solver.memo_hit_ratio", "fraction"),
    ("solver.clauses_reused", "count"),
    ("solver.bnp_s", "s"),
    ("solver.seeding_s", "s"),
    ("solver.us_per_box", "us"),
    ("solver.solve_ms_p50", "ms"),
    ("solver.solve_ms_p90", "ms"),
    ("solver.boxes_per_query", "count"),
    ("solver.samples_per_query", "count"),
    ("solver.seeding_share", "fraction"),
    ("solver.outcome.sat", "count"),
    ("solver.outcome.delta_unsat", "count"),
    ("solver.outcome.unsat", "count"),
    ("solver.outcome.exhausted", "count"),
    ("solver.sat_share", "fraction"),
    ("serve.step_ms_p50", "ms"),
    ("serve.step_ms_p90", "ms"),
    ("serve.evict_ms_p50", "ms"),
    ("serve.answer_us_p50", "us"),
    ("serve.evictions", "count"),
    ("serve.restores", "count"),
    ("snapshot.encode_ms_p50", "ms"),
    ("snapshot.decode_ms_p50", "ms"),
    ("snapshot.bytes_mean", "bytes"),
    ("prefgraph.build_us", "us"),
    ("prefgraph.edges_mean", "count"),
    ("query.feasibility_ms", "ms"),
    ("tape.compile_ms_p50", "ms"),
    ("tape.slots_mean", "count"),
    ("tape.shared_ratio", "fraction"),
    ("self.bench_s", "s"),
    ("self.engine_s", "s"),
    ("self.oracle_s", "s"),
    ("self.serve_s", "s"),
    ("self.snapshot_s", "s"),
    ("self.tape_s", "s"),
    ("self.solver_s", "s"),
    ("trace.work_s", "s"),
    ("trace.untraced_work_s", "s"),
    ("trace.overhead_s", "s"),
    ("trace.coverage", "fraction"),
    ("trace.spans", "count"),
];

/// Set-ups per untraced run; `setup_s` is their median.
const SETUPS: usize = 15;

/// Smallest share of traced `table1` work time the engine, oracle and
/// answer spans must cover, so the per-layer split accounts for the time.
const MIN_COVERAGE: f64 = 0.95;

#[derive(Debug, Clone, PartialEq)]
struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
}

enum Mode {
    Run(Args),
    Steadiness { workloads: Vec<&'static str>, runs: usize, seconds: u64, seed: u64 },
}

fn parse_args(args: &[String]) -> Result<Mode, String> {
    let mut map: BTreeMap<&str, &str> = BTreeMap::new();
    let mut steadiness = false;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        match flag.as_str() {
            "--steadiness" => steadiness = true,
            "--workload" | "--seed" | "--seconds" | "--trace" | "--runs" => {
                let value = it.next().ok_or(format!("{flag} needs a value"))?;
                map.insert(flag.as_str(), value.as_str());
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    let num = |key: &str, default: Option<u64>| -> Result<u64, String> {
        match map.get(key) {
            Some(v) => v.parse().map_err(|_| format!("{key} wants a whole number, got `{v}`")),
            None => default.ok_or(format!("{key} is required")),
        }
    };
    let seconds = num("--seconds", steadiness.then_some(10))?;
    if !(1..=600).contains(&seconds) {
        return Err(format!("--seconds must be 1..=600, got {seconds}"));
    }
    let runs = usize::try_from(num("--runs", Some(10))?).map_err(|e| e.to_string())?;
    if steadiness && runs < 2 {
        return Err("--runs must be at least 2".to_owned());
    }
    let workload = |name: &str| {
        WORKLOADS
            .into_iter()
            .find(|w| *w == name)
            .ok_or(format!("unknown workload `{name}` (want one of {WORKLOADS:?})"))
    };
    if steadiness {
        let workloads = match map.get("--workload") {
            Some(name) => vec![workload(name)?],
            None => WORKLOADS.to_vec(),
        };
        return Ok(Mode::Steadiness { workloads, runs, seconds, seed: num("--seed", Some(0))? });
    }
    let workload = workload(map.get("--workload").ok_or("--workload is required")?)?.to_owned();
    let trace = match num("--trace", Some(0))? {
        0 => false,
        1 => true,
        t => return Err(format!("--trace must be 0 or 1, got {t}")),
    };
    Ok(Mode::Run(Args { workload, seed: num("--seed", None)?, seconds, trace }))
}

/// Units of work per run for `seconds` of measurement at the nominal
/// host speed (see [`speed`]): sessions for `table1` and `fleet`, queries
/// for `feasibility`. The count depends on `seconds` alone, never on the
/// clock, so a seed fixes the work exactly.
fn units(workload: &str, seconds: u64) -> usize {
    let (per_second, floor) = match workload {
        "table1" => (0.9, 8.0),
        "fleet" => (7.5, 40.0),
        _ => (5.5, 108.0),
    };
    (per_second * seconds as f64).round().max(floor) as usize
}

/// One pass; with `rescale`, times are at the nominal host speed.
fn run_pass(args: &Args, setups: usize, rescale: bool, tr: &mut Tracer) -> Pass {
    let n = units(&args.workload, args.seconds);
    match args.workload.as_str() {
        "table1" => table1::run(args.seed, n, setups, rescale, tr),
        "fleet" => fleet::run(args.seed, n, setups, rescale, &scratch_dir(args), tr),
        _ => feasibility::run(args.seed, n, setups, rescale, tr),
    }
}

/// Where runs keep snapshots and span dumps: under the build directory,
/// inside the checkout, one directory per process.
fn scratch_dir(args: &Args) -> PathBuf {
    PathBuf::from(".bench_build/perfbench").join(format!(
        "{}-seed{}-pid{}",
        args.workload,
        args.seed,
        std::process::id()
    ))
}

/// A metric value that is absent or not finite makes the run incorrect.
struct Report {
    metrics: Vec<(&'static str, f64, &'static str)>,
    problems: Vec<String>,
}

impl Report {
    fn put(&mut self, name: &'static str, unit: &'static str, value: Option<f64>) {
        match value {
            Some(v) if v.is_finite() => self.metrics.push((name, v, unit)),
            _ => {
                self.problems.push(format!("metric {name} could not be measured"));
                self.metrics.push((name, 0.0, unit));
            }
        }
    }
}

fn end_to_end(pass: &Pass) -> Report {
    let mut r = Report { metrics: Vec::new(), problems: Vec::new() };
    for (name, unit) in END_TO_END {
        let value = match name {
            "setup_s" => measure::median(&pass.setup_s),
            "work_s" => Some(pass.work_s),
            "op_ms_p50" => measure::percentile(&pass.op_ms, 0.5),
            "op_ms_p90" => measure::percentile(&pass.op_ms, 0.9),
            "peak_rss_mb" => measure::peak_rss_mb(),
            "agreement_mean" => measure::mean(&pass.agreement),
            _ => unreachable!("every end-to-end metric has a source"),
        };
        r.put(name, unit, value);
    }
    r
}

fn per_layer(plain: &Pass, traced: &Pass, tr: &Tracer, workload: &str) -> Report {
    let mut r = Report { metrics: Vec::new(), problems: Vec::new() };
    let mut values: BTreeMap<&str, f64> = traced.layers.iter().map(|&(n, v, _)| (n, v)).collect();
    let mut by_layer: BTreeMap<&str, f64> = BTreeMap::new();
    for (name, s) in tr.self_time_s("bench.work") {
        *by_layer.entry(name.split('.').next().unwrap_or(name)).or_insert(0.0) += s;
    }
    for (layer, s) in &by_layer {
        values.insert(
            match *layer {
                "bench" => "self.bench_s",
                "engine" => "self.engine_s",
                "oracle" => "self.oracle_s",
                "serve" => "self.serve_s",
                "snapshot" => "self.snapshot_s",
                "tape" => "self.tape_s",
                "solver" => "self.solver_s",
                other => {
                    r.problems.push(format!("span layer `{other}` has no self-time metric"));
                    continue;
                }
            },
            *s,
        );
    }
    let work = traced.work_s;
    let coverage = 1.0 - by_layer.get("bench").copied().unwrap_or(work) / work;
    values.extend([
        ("trace.work_s", work),
        ("trace.untraced_work_s", plain.work_s),
        ("trace.overhead_s", work - plain.work_s),
        ("trace.coverage", coverage),
        ("trace.spans", tr.spans().len() as f64),
    ]);
    if workload == "table1" && coverage < MIN_COVERAGE {
        r.problems.push(format!(
            "engine, oracle and answer spans cover {:.1} % of traced work, below {:.0} %",
            coverage * 100.0,
            MIN_COVERAGE * 100.0
        ));
    }
    for (name, _, _) in &traced.layers {
        if !PER_LAYER.iter().any(|(n, _)| n == name) {
            r.problems.push(format!("layer metric {name} is not in the per-layer list"));
        }
    }
    for (name, unit) in PER_LAYER {
        r.put(name, unit, Some(values.get(name).copied().unwrap_or(0.0)));
    }
    r
}

fn fingerprint_line(workload: &str, seed: u64, pass: &Pass) -> String {
    let counts: Vec<String> = pass.fingerprint.iter().map(|(k, v)| format!("{k}={v}")).collect();
    format!("fingerprint {workload} seed={seed} {}", counts.join(" "))
}

/// How much slower than nominal the host ran during the timed phase.
fn host_line(probes: &[f64]) -> String {
    let q = |v: Option<f64>| v.map_or("-".to_owned(), |s| format!("{:.3}", s / speed::NOMINAL_S));
    format!(
        "host slowdown over {} probes: median {} min {} max {}",
        probes.len(),
        q(measure::median(probes)),
        q(probes.iter().copied().reduce(f64::min)),
        q(probes.iter().copied().reduce(f64::max))
    )
}

fn json_line(
    correct: bool,
    attempted: usize,
    failed: usize,
    metrics: &[(&str, f64, &str)],
) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, value, unit)| {
            format!("\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}")
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        body.join(", ")
    )
}

fn run(args: &Args) -> String {
    let mut off = Tracer::new(false);
    if !args.trace {
        let pass = run_pass(args, SETUPS, true, &mut off);
        println!("{}", fingerprint_line(&args.workload, args.seed, &pass));
        println!("{}", host_line(&pass.probes));
        let report = end_to_end(&pass);
        for p in pass.problems.iter().chain(&report.problems) {
            eprintln!("FAIL {}: {p}", args.workload);
        }
        let failed = pass.failed + report.problems.len();
        let attempted = pass.op_ms.len().max(failed).max(1);
        return json_line(failed == 0, attempted, failed, &report.metrics);
    }
    // Both passes in wall time, the clock the spans keep.
    let plain = run_pass(args, 1, false, &mut off);
    let mut tr = Tracer::new(true);
    let traced = run_pass(args, 1, false, &mut tr);
    println!("{}", fingerprint_line(&args.workload, args.seed, &traced));
    let mut report = per_layer(&plain, &traced, &tr, &args.workload);
    if plain.fingerprint != traced.fingerprint {
        report.problems.push(format!(
            "work counts differ between two passes with one seed:\n  {}\n  {}",
            fingerprint_line(&args.workload, args.seed, &plain),
            fingerprint_line(&args.workload, args.seed, &traced)
        ));
    }
    let dump = scratch_dir(args).join("spans.jsonl");
    match tr.write_jsonl(&dump) {
        Ok(()) => eprintln!("spans: {}", dump.display()),
        Err(e) => report.problems.push(format!("writing {}: {e}", dump.display())),
    }
    for p in plain.problems.iter().chain(&traced.problems).chain(&report.problems) {
        eprintln!("FAIL {}: {p}", args.workload);
    }
    let failed = plain.failed + traced.failed + report.problems.len();
    let attempted = (plain.op_ms.len() + traced.op_ms.len()).max(failed).max(1);
    json_line(failed == 0, attempted, failed, &report.metrics)
}

fn main() {
    // The benchmark measures the default configuration: no trace sink,
    // no metrics registry, no cache or tape overrides. The library reads
    // these variables lazily, so clearing them before any call suffices.
    for (key, _) in std::env::vars_os() {
        if key.to_string_lossy().starts_with("CSO_") {
            eprintln!("perfbench: ignoring {}", key.to_string_lossy());
            std::env::remove_var(&key);
        }
    }
    let args: Vec<String> = std::env::args().skip(1).collect();
    match parse_args(&args) {
        Ok(Mode::Run(a)) => {
            let line = run(&a);
            // Keep a traced run's span dump; nothing else outlives the run.
            if !a.trace {
                let _ = std::fs::remove_dir_all(scratch_dir(&a));
            }
            println!("{line}");
        }
        Ok(Mode::Steadiness { workloads, runs, seconds, seed }) => {
            std::process::exit(steady::run(&workloads, runs, seconds, seed));
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            eprintln!("       perfbench --steadiness [--workload <w>] [--runs <n>] [--seconds <s>] [--seed <first>]");
            std::process::exit(2);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn strings(v: &[&str]) -> Vec<String> {
        v.iter().map(|s| (*s).to_owned()).collect()
    }

    #[test]
    fn parses_the_driver_command_line() {
        let a = parse_args(&strings(&[
            "--workload",
            "fleet",
            "--seed",
            "3",
            "--seconds",
            "10",
            "--trace",
            "1",
        ]));
        let Ok(Mode::Run(a)) = a else { panic!("a run") };
        assert_eq!(a, Args { workload: "fleet".into(), seed: 3, seconds: 10, trace: true });
    }

    #[test]
    fn refuses_bad_arguments() {
        for bad in [
            &["--workload", "nope", "--seed", "1", "--seconds", "5"][..],
            &["--workload", "fleet", "--seconds", "5"],
            &["--workload", "fleet", "--seed", "1", "--seconds", "0"],
            &["--workload", "fleet", "--seed", "x", "--seconds", "5"],
            &["--workload", "fleet", "--seed", "1", "--seconds", "5", "--trace", "2"],
            &["--bogus"],
        ] {
            assert!(parse_args(&strings(bad)).is_err(), "{bad:?}");
        }
    }

    #[test]
    fn units_depend_on_seconds_only_and_give_p90_ten_samples() {
        assert_eq!(units("table1", 1), 8);
        assert!(units("fleet", 10) > units("fleet", 1));
        // A feasibility op is one query: p90 needs 100 of them.
        assert!(units("feasibility", 1) >= 100);
    }

    #[test]
    fn metric_lists_match_benchmark_json() {
        let text =
            std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
                .expect("BENCHMARK.json sits at the repository root");
        let names_in = |section: &str| -> Vec<String> {
            let start = text.find(&format!("\"{section}\"")).expect("section present");
            let end = text[start..].find(']').expect("section closes") + start;
            text[start..end]
                .split("\"name\":")
                .skip(1)
                .map(|s| {
                    s.trim().trim_start_matches('"').split('"').next().unwrap_or("").to_owned()
                })
                .collect()
        };
        let want =
            |list: &[(&str, &str)]| list.iter().map(|(n, _)| (*n).to_owned()).collect::<Vec<_>>();
        assert_eq!(names_in("end_to_end"), want(&END_TO_END));
        assert_eq!(names_in("per_layer"), want(&PER_LAYER));
        assert_eq!(names_in("workloads"), WORKLOADS.map(str::to_owned).to_vec());
    }

    #[test]
    fn json_line_has_the_four_keys() {
        let line = json_line(true, 3, 0, &[("work_s", 1.25, "s")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \"metrics\": {\"work_s\": {\"value\": 1.25, \"unit\": \"s\"}}}"
        );
    }
}
