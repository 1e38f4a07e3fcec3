//! Steadiness self-check: run every workload in processes of their own,
//! alternating the order, and print each end-to-end metric's median,
//! quartiles and spread `(q3 - q1) / median` over the runs. Then run each
//! workload's first seed again traced and check that its work counts
//! equal the first run's.

use crate::measure;
use crate::END_TO_END;
use std::collections::BTreeMap;
use std::process::Command;

/// What one child run printed.
#[derive(Debug, PartialEq)]
struct Outcome {
    correct: bool,
    fingerprint: String,
    metrics: BTreeMap<String, f64>,
}

/// Pull the fingerprint line and the final JSON line out of a run's
/// standard output. The JSON is the benchmark's own, so a scan for
/// `"name": {"value": v` pairs is enough.
fn parse(stdout: &str) -> Option<Outcome> {
    let last = stdout.lines().last()?;
    let fingerprint = stdout.lines().find(|l| l.starts_with("fingerprint "))?;
    let correct = last.starts_with("{\"correct\": true,");
    let metrics_at = last.find("\"metrics\": {")? + "\"metrics\": {".len();
    let mut metrics = BTreeMap::new();
    for entry in last[metrics_at..].split("}, ") {
        let (name, rest) = entry.split_once(": {\"value\": ")?;
        let value = rest.split(',').next()?.parse().ok()?;
        metrics.insert(name.trim_matches('"').to_owned(), value);
    }
    // The seed differs between runs; the counts after it must not.
    let counts = fingerprint.split_once(' ')?.1.split_once(' ')?.1.split_once(' ')?.1;
    Some(Outcome { correct, fingerprint: counts.to_owned(), metrics })
}

fn child(workload: &str, seed: u64, seconds: u64, trace: bool) -> Result<Outcome, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string(), "--trace", if trace { "1" } else { "0" }])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    if !out.status.success() {
        return Err(format!("{workload} seed {seed} exited with {}", out.status));
    }
    parse(&stdout).ok_or_else(|| format!("{workload} seed {seed}: unreadable output"))
}

/// Run the self-check over `workloads`; returns the process exit code.
pub fn run(workloads: &[&'static str], runs: usize, seconds: u64, first_seed: u64) -> i32 {
    let mut values: BTreeMap<(&str, &str), Vec<f64>> = BTreeMap::new();
    let mut firsts: BTreeMap<&str, String> = BTreeMap::new();
    let mut bad = 0;
    for r in 0..runs {
        let mut order = workloads.to_vec();
        if r % 2 == 1 {
            order.reverse();
        }
        for w in order {
            let seed = first_seed + r as u64;
            match child(w, seed, seconds, false) {
                Ok(o) => {
                    if !o.correct {
                        bad += 1;
                        eprintln!("{w} seed {seed}: incorrect");
                    }
                    if r == 0 {
                        firsts.insert(w, o.fingerprint.clone());
                    }
                    let line: Vec<String> = END_TO_END
                        .iter()
                        .map(|(name, _)| {
                            format!("{name}={}", o.metrics.get(*name).copied().unwrap_or(f64::NAN))
                        })
                        .collect();
                    println!("run {w} seed={seed} {}", line.join(" "));
                    for (name, _) in END_TO_END {
                        values
                            .entry((w, name))
                            .or_default()
                            .push(o.metrics.get(name).copied().unwrap_or(f64::NAN));
                    }
                }
                Err(e) => {
                    bad += 1;
                    eprintln!("{e}");
                }
            }
        }
    }
    println!(
        "{:<12} {:<16} {:>12} {:>12} {:>12} {:>8}",
        "workload", "metric", "median", "q1", "q3", "spread"
    );
    for &w in workloads {
        for (name, unit) in END_TO_END {
            let v = values.get(&(w, name)).cloned().unwrap_or_default();
            let (Some(med), Some((q1, q3))) = (measure::median(&v), measure::quartiles(&v)) else {
                continue;
            };
            println!(
                "{w:<12} {:<16} {med:>12.6} {q1:>12.6} {q3:>12.6} {:>7.2}%",
                format!("{name} ({unit})"),
                (q3 - q1) / med * 100.0
            );
        }
    }
    for &w in workloads {
        match child(w, first_seed, seconds, true) {
            Ok(o) if o.correct && firsts.get(w) == Some(&o.fingerprint) => {
                println!("{w}: traced rerun of seed {first_seed} repeats the work counts exactly");
            }
            Ok(o) => {
                bad += 1;
                eprintln!(
                    "{w}: traced rerun of seed {first_seed} is incorrect or counts differ: {}",
                    o.fingerprint
                );
            }
            Err(e) => {
                bad += 1;
                eprintln!("{e}");
            }
        }
    }
    i32::from(bad > 0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_a_run() {
        let stdout = "fingerprint fleet seed=4 ops=10 boxes=7\n\
            {\"correct\": true, \"attempted\": 10, \"failed\": 0, \"metrics\": \
            {\"work_s\": {\"value\": 1.5, \"unit\": \"s\"}, \"op_ms_p50\": {\"value\": 2e-3, \"unit\": \"ms\"}}}\n";
        let o = parse(stdout).expect("parses");
        assert!(o.correct);
        assert_eq!(o.fingerprint, "ops=10 boxes=7");
        assert_eq!(o.metrics["work_s"], 1.5);
        assert_eq!(o.metrics["op_ms_p50"], 2e-3);
        assert_eq!(parse("no result\n"), None);
    }
}
