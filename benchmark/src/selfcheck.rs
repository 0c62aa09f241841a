//! `--selfcheck`: two sets of runs of the same code, compared by the rule
//! the benchmark is accepted by.
//!
//! Each set runs every workload `--runs` times in a child process of its
//! own, each run with another seed. Per end-to-end metric and workload it
//! prints both medians, how much worse the second is than the first, the
//! spread of each set (interquartile distance over the median, when a set
//! has at least two runs) and PASS or FAIL against the metric's bound in
//! `BENCHMARK.json`. The spread of `setup_s` is printed but not judged.

use crate::json::Json;
use crate::stats::{iqr_share, median};
use crate::workload::NAMES;
use std::collections::BTreeMap;
use std::process::{Command, ExitCode};

pub struct Options {
    pub runs: usize,
    pub seed: u64,
    /// `run_seconds` of `BENCHMARK.json` unless given.
    pub seconds: Option<f64>,
}

/// `(workload, metric)` → one value per run.
type Samples = BTreeMap<(String, String), Vec<f64>>;

fn benchmark_json() -> Result<Json, String> {
    let path = crate::layers::BENCHMARK_JSON;
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

/// Runs one workload once in a child process and returns its metrics.
fn one_run(workload: &str, seed: u64, seconds: f64) -> Result<Vec<(String, f64)>, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let out = Command::new(exe)
        .args(["--workload", workload, "--trace", "0"])
        .args([
            "--seed",
            &seed.to_string(),
            "--seconds",
            &seconds.to_string(),
        ])
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout
        .lines()
        .last()
        .ok_or_else(|| format!("{workload}: no output ({})", out.status))?;
    let result = Json::parse(last).map_err(|e| format!("{workload}: {e}"))?;
    if result.get("correct") != Some(&Json::Bool(true)) || !out.status.success() {
        return Err(format!("{workload} seed {seed}: {last}"));
    }
    let Some(Json::Obj(metrics)) = result.get("metrics") else {
        return Err(format!("{workload}: no metrics in {last}"));
    };
    metrics
        .iter()
        .map(|(name, m)| {
            let v = m
                .get("value")
                .and_then(Json::as_f64)
                .ok_or_else(|| format!("{name}: no value"))?;
            Ok((name.clone(), v))
        })
        .collect()
}

fn one_set(options: &Options, seconds: f64, set: usize) -> Result<Samples, String> {
    let mut samples = Samples::new();
    for workload in NAMES {
        for r in 0..options.runs {
            let seed = options.seed + r as u64;
            let metrics = one_run(workload, seed, seconds)?;
            let shown: Vec<String> = metrics.iter().map(|(m, v)| format!("{m} {v:.4}")).collect();
            eprintln!(
                "selfcheck: set {set}, {workload}, seed {seed}: {}",
                shown.join(", ")
            );
            for (metric, value) in metrics {
                samples
                    .entry((workload.to_string(), metric))
                    .or_default()
                    .push(value);
            }
        }
    }
    Ok(samples)
}

pub fn run(options: &Options) -> ExitCode {
    match check(options) {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::FAILURE,
        Err(e) => {
            eprintln!("selfcheck: {e}");
            ExitCode::from(2)
        }
    }
}

fn check(options: &Options) -> Result<bool, String> {
    let declared = benchmark_json()?;
    let seconds = options
        .seconds
        .or_else(|| declared.get("run_seconds").and_then(Json::as_f64))
        .ok_or("no run_seconds in BENCHMARK.json")?;
    let bounds: Vec<(String, f64)> = declared
        .get("end_to_end")
        .and_then(Json::as_array)
        .ok_or("no end_to_end in BENCHMARK.json")?
        .iter()
        .filter_map(|m| {
            Some((
                m.get("name")?.as_str()?.to_string(),
                m.get("bound")?.as_f64()?,
            ))
        })
        .collect();
    let first = one_set(options, seconds, 1)?;
    let second = one_set(options, seconds, 2)?;

    println!(
        "| workload | metric | median 1 | median 2 | worse by | spread 1 | spread 2 | bound | |"
    );
    println!("|---|---|---|---|---|---|---|---|---|");
    let mut all_pass = true;
    for workload in NAMES {
        for (metric, bound) in &bounds {
            let key = (workload.to_string(), metric.clone());
            let (a, b) = (
                first.get(&key).ok_or("metric missing")?,
                second.get(&key).ok_or("metric missing")?,
            );
            let (m1, m2) = (median(a), median(b));
            // Every end-to-end metric is better when lower.
            let worse = (m2 - m1) / m1;
            // A set of one run has no quartiles.
            let spreads: Vec<f64> = [a, b]
                .iter()
                .filter(|set| set.len() >= 2)
                .map(|set| iqr_share(set))
                .collect();
            let steady = metric == "setup_s" || spreads.iter().all(|s| s <= bound);
            let pass = worse <= *bound && steady;
            all_pass &= pass;
            let shown = |i: usize| {
                spreads
                    .get(i)
                    .map_or("-".into(), |s| format!("{:.2} %", s * 100.0))
            };
            println!(
                "| {workload} | {metric} | {m1:.4} | {m2:.4} | {:+.2} % | {} | {} | {:.0} % | {} |",
                worse * 100.0,
                shown(0),
                shown(1),
                bound * 100.0,
                if pass { "PASS" } else { "FAIL" }
            );
        }
    }
    Ok(all_pass)
}
