//! The metric lists of `BENCHMARK.json` and the layer metrics read from
//! finished runs.
//!
//! A layer is a module of the system. `[run]` metrics are read from what a
//! traced run hands back (`RunOutput.profile`, `JobStatus`, the daemon's
//! exports); `[probe]` metrics are timed by `probes.rs`. Counts derived
//! from shapes and not from a counter are labelled *computed*.

use crate::json::Json;
use crate::stats::{median, percentile};
use crate::workload::RunFacts;

/// The declaration this harness is run by, beside the package's directory.
pub const BENCHMARK_JSON: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");

/// `(name, unit, better)` of every end-to-end metric.
pub const END_TO_END: &[(&str, &str, &str)] = &[
    ("wall_s", "s", "lower"),
    ("setup_s", "s", "lower"),
    ("peak_rss_mb", "MiB", "lower"),
    ("job_p50_s", "s", "lower"),
];

/// `(name, unit, better)` of every per-layer metric.
pub const PER_LAYER: &[(&str, &str, &str)] = &[
    ("frontend.compile_us", "us", "lower"),
    ("frontend.recompile_us", "us", "lower"),
    ("bytecode.encode_us", "us", "lower"),
    ("bytecode.decode_us", "us", "lower"),
    ("bytecode.wire_bytes", "bytes", "lower"),
    ("verify.check_us", "us", "lower"),
    ("verify.findings", "count", "lower"),
    ("plan.dryrun_ms", "ms", "lower"),
    ("plan.plan_ms", "ms", "lower"),
    ("plan.predicted_bytes", "bytes", "lower"),
    ("plan.actual_bytes", "bytes", "lower"),
    ("plan.est_worker_bytes", "bytes", "lower"),
    ("blocks.contract_us", "us", "lower"),
    ("blocks.contract_gflops", "gflop/s", "higher"),
    ("blocks.permute_us", "us", "lower"),
    ("blocks.contractions", "count", "lower"),
    ("blocks.flops_computed", "flop", "lower"),
    ("blocks.permutes_performed", "count", "lower"),
    ("blocks.scratch_pool_misses", "count", "lower"),
    ("fabric.rtt_us", "us", "lower"),
    ("fabric.handle_send_us", "us", "lower"),
    ("fabric.messages", "count", "lower"),
    ("fabric.bytes", "bytes", "lower"),
    ("fabric.coalesced", "count", "higher"),
    ("cache.hits", "count", "higher"),
    ("cache.misses", "count", "lower"),
    ("cache.hit_ratio", "ratio", "higher"),
    ("cache.evictions", "count", "lower"),
    ("cache.refetches", "count", "lower"),
    ("cache.high_water_bytes", "bytes", "lower"),
    ("cache.deep_copies", "count", "lower"),
    ("master.iterations", "count", "lower"),
    ("master.chunk_wait_s", "s", "lower"),
    ("master.imbalance", "ratio", "lower"),
    ("worker.busy_s", "s", "lower"),
    ("worker.wait_s.block_arrival", "s", "lower"),
    ("worker.wait_s.sip_barrier", "s", "lower"),
    ("worker.wait_s.server_barrier", "s", "lower"),
    ("worker.wait_s.ack_drain", "s", "lower"),
    ("worker.wait_s.collective", "s", "lower"),
    ("worker.exposed_fetch_us", "us", "lower"),
    ("worker.overlap", "ratio", "higher"),
    ("ioserver.prepares", "count", "lower"),
    ("ioserver.disk_writes", "count", "lower"),
    ("ioserver.disk_reads", "count", "lower"),
    ("ioserver.cache_hits", "count", "higher"),
    ("ioserver.hit_ratio", "ratio", "higher"),
    ("ioserver.warm_hits", "count", "higher"),
    ("serve.admit_us", "us", "lower"),
    ("serve.floor_ms", "ms", "lower"),
    ("serve.queued_ms_p50", "ms", "lower"),
    ("serve.run_ms_p50", "ms", "lower"),
    ("serve.dist_job_p50_s", "s", "lower"),
    ("serve.served_job_p50_s", "s", "lower"),
    ("serve.job_p90_s", "s", "lower"),
    ("serve.jain", "ratio", "higher"),
    ("events.trace_overhead_frac", "ratio", "lower"),
    ("events.recorded", "count", "lower"),
    ("events.dropped", "count", "lower"),
];

/// Named values on their way into the result line.
pub type Values = Vec<(&'static str, f64)>;

fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}

/// The `[run]` metrics of one traced repeat: sums over its runs (one run,
/// or the jobs of a `serve_mix` round); a high-water mark is the largest.
/// `flops_per_contraction` is computed from the workload's block shape.
/// Profile keys this build of the system does not export read as 0 and are
/// named in the second value.
pub fn from_runs(runs: &[RunFacts], flops_per_contraction: f64) -> (Values, Vec<String>) {
    let mut missing = Vec::new();
    let mut each = |path: &str| -> Vec<f64> {
        runs.iter()
            .map(|r| {
                r.profile
                    .path(path)
                    .and_then(Json::as_f64)
                    .unwrap_or_else(|| {
                        if !missing.iter().any(|m| m == path) {
                            missing.push(path.to_string());
                        }
                        0.0
                    })
            })
            .collect()
    };
    let mut sum = |path: &str| each(path).iter().sum::<f64>();
    let ns = 1e-9;

    let contractions = sum("metrics.contract.contractions");
    let (hits, misses) = (sum("metrics.cache.hits"), sum("metrics.cache.misses"));
    let (srv_hits, srv_reads, srv_warm, srv_zero) = (
        sum("metrics.server.cache_hits"),
        sum("metrics.server.disk_reads"),
        sum("metrics.server.warm_hits"),
        sum("metrics.server.zero_serves"),
    );
    let (flight, hidden) = (sum("metrics.comm.flight_ns"), sum("metrics.comm.hidden_ns"));
    let mut values: Values = vec![
        (
            "plan.predicted_bytes",
            sum("metrics.comm_plan.predicted_bytes"),
        ),
        ("plan.actual_bytes", sum("metrics.comm_plan.actual_bytes")),
        ("plan.est_worker_bytes", sum("dry_run_estimate_bytes")),
        ("blocks.contractions", contractions),
        (
            "blocks.flops_computed",
            contractions * flops_per_contraction,
        ),
        (
            "blocks.permutes_performed",
            sum("metrics.contract.permutes_performed"),
        ),
        (
            "blocks.scratch_pool_misses",
            sum("metrics.contract.scratch_pool_misses"),
        ),
        ("fabric.messages", runs.iter().map(|r| r.messages).sum()),
        ("fabric.bytes", runs.iter().map(|r| r.bytes).sum()),
        (
            "fabric.coalesced",
            sum("metrics.comm_plan.coalesced_messages"),
        ),
        ("cache.hits", hits),
        ("cache.misses", misses),
        ("cache.hit_ratio", ratio(hits, hits + misses)),
        ("cache.evictions", sum("metrics.cache.evictions")),
        ("cache.refetches", sum("metrics.cache.refetches")),
        ("cache.deep_copies", sum("metrics.memory.deep_copies")),
        ("master.iterations", sum("iterations")),
        ("master.chunk_wait_s", sum("metrics.wait.chunk_assign") * ns),
        ("worker.busy_s", sum("total_busy_ns") * ns),
        (
            "worker.wait_s.block_arrival",
            sum("metrics.wait.block_arrival") * ns,
        ),
        (
            "worker.wait_s.sip_barrier",
            sum("metrics.wait.sip_barrier") * ns,
        ),
        (
            "worker.wait_s.server_barrier",
            sum("metrics.wait.server_barrier") * ns,
        ),
        (
            "worker.wait_s.ack_drain",
            sum("metrics.wait.ack_drain") * ns,
        ),
        (
            "worker.wait_s.collective",
            sum("metrics.wait.collective") * ns,
        ),
        (
            "worker.exposed_fetch_us",
            ratio(
                sum("metrics.comm.exposed_ns") * 1e-3,
                sum("metrics.comm.fetches"),
            ),
        ),
        ("worker.overlap", ratio(hidden, flight)),
        ("ioserver.prepares", sum("metrics.server.prepares")),
        ("ioserver.disk_writes", sum("metrics.server.disk_writes")),
        ("ioserver.disk_reads", srv_reads),
        ("ioserver.cache_hits", srv_hits),
        (
            "ioserver.hit_ratio",
            ratio(srv_hits, srv_hits + srv_reads + srv_warm + srv_zero),
        ),
        ("ioserver.warm_hits", srv_warm),
        ("events.recorded", runs.iter().map(|r| r.events).sum()),
        (
            "events.dropped",
            runs.iter().map(|r| r.events_dropped).sum(),
        ),
    ];
    let high_water = each("metrics.memory.high_water_bytes");
    values.push((
        "cache.high_water_bytes",
        high_water.iter().copied().fold(0.0, f64::max),
    ));

    // Slowest worker over the mean worker, worst run of the repeat.
    let imbalance = runs
        .iter()
        .filter_map(|r| {
            let totals: Vec<f64> = r
                .profile
                .get("workers")?
                .as_array()?
                .iter()
                .filter_map(|w| w.get("total_ns")?.as_f64())
                .collect();
            let mean = totals.iter().sum::<f64>() / totals.len().max(1) as f64;
            Some(ratio(totals.iter().copied().fold(0.0, f64::max), mean))
        })
        .fold(0.0, f64::max);
    values.push(("master.imbalance", imbalance));

    // What `JobStatus` says about the jobs of a `serve_mix` round.
    let jobs: Vec<_> = runs.iter().filter_map(|r| r.job.as_ref()).collect();
    let p50 = |xs: Vec<f64>| if xs.is_empty() { 0.0 } else { median(&xs) };
    values.push((
        "serve.queued_ms_p50",
        p50(jobs.iter().map(|j| j.queued_ms).collect()),
    ));
    values.push((
        "serve.run_ms_p50",
        p50(jobs.iter().map(|j| j.run_ms).collect()),
    ));
    let rates: Vec<f64> = jobs.iter().map(|j| j.rate).collect();
    let jain = if rates.is_empty() {
        0.0
    } else {
        sia_runtime::jain_index(&rates)
    };
    values.push(("serve.jain", jain));
    (values, missing)
}

/// The job-latency layer metrics, over `(kind, seconds)` of every job of
/// the untraced repeats.
pub fn from_jobs(jobs: &[(&str, f64)]) -> Values {
    let of = |want: &[&str]| -> f64 {
        let xs: Vec<f64> = jobs
            .iter()
            .filter(|(k, _)| want.contains(k))
            .map(|&(_, s)| s)
            .collect();
        if xs.is_empty() {
            0.0
        } else {
            median(&xs)
        }
    };
    let all: Vec<f64> = jobs.iter().map(|&(_, s)| s).collect();
    vec![
        ("serve.dist_job_p50_s", of(&["dense", "sparse"])),
        ("serve.served_job_p50_s", of(&["served"])),
        ("serve.job_p90_s", percentile(&all, 0.9)),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workload::{JobFacts, NAMES};

    fn facts(profile: &str, job: Option<JobFacts>) -> RunFacts {
        RunFacts {
            profile: Json::parse(profile).unwrap(),
            messages: 10.0,
            bytes: 100.0,
            events: 3.0,
            events_dropped: 0.0,
            job,
        }
    }

    fn value(values: &Values, name: &str) -> f64 {
        values.iter().find(|(n, _)| *n == name).unwrap().1
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        for (name, unit, better) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(name.len() <= 64 && name.starts_with(|c: char| c.is_ascii_alphanumeric()));
            assert!(
                name.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c)),
                "{name}"
            );
            assert!(unit.len() <= 16 && !unit.is_empty(), "{unit}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c)),
                "{unit}"
            );
            assert!(["lower", "higher"].contains(better));
            assert!(seen.insert(name), "{name} is listed twice");
        }
    }

    #[test]
    fn lists_match_benchmark_json() {
        let doc = Json::parse(&std::fs::read_to_string(BENCHMARK_JSON).unwrap()).unwrap();
        let listed = |key: &str| -> Vec<(String, String, String)> {
            doc.get(key)
                .and_then(Json::as_array)
                .unwrap()
                .iter()
                .map(|m| {
                    let s = |k: &str| m.get(k).and_then(Json::as_str).unwrap().to_string();
                    (s("name"), s("unit"), s("better"))
                })
                .collect()
        };
        let own = |list: &[(&str, &str, &str)]| -> Vec<(String, String, String)> {
            list.iter()
                .map(|(n, u, b)| (n.to_string(), u.to_string(), b.to_string()))
                .collect()
        };
        assert_eq!(listed("end_to_end"), own(END_TO_END));
        assert_eq!(listed("per_layer"), own(PER_LAYER));
        let workloads: Vec<String> = doc
            .get("workloads")
            .and_then(Json::as_array)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Json::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, NAMES);
        assert!(END_TO_END
            .iter()
            .any(|&(n, u, b)| (n, u, b) == ("setup_s", "s", "lower")));
    }

    #[test]
    fn run_metrics_sum_over_runs_and_name_missing_keys() {
        let profile = r#"{"iterations": 8, "total_busy_ns": 2000000000, "dry_run_estimate_bytes": 64,
            "workers": [{"total_ns": 30}, {"total_ns": 10}],
            "metrics": {"cache": {"hits": 3, "misses": 1, "evictions": 0, "refetches": 0},
                        "memory": {"high_water_bytes": 500, "deep_copies": 0},
                        "contract": {"contractions": 4, "permutes_performed": 0, "scratch_pool_misses": 1},
                        "comm": {"fetches": 2, "flight_ns": 4000, "exposed_ns": 1000, "hidden_ns": 3000},
                        "wait": {"chunk_assign": 1000000000, "block_arrival": 0, "sip_barrier": 0,
                                 "server_barrier": 0, "ack_drain": 0, "collective": 0},
                        "server": {"cache_hits": 1, "disk_reads": 1, "disk_writes": 2, "zero_serves": 0,
                                   "prepares": 2, "warm_hits": 2},
                        "comm_plan": {"coalesced_messages": 0, "predicted_bytes": 7}}}"#;
        let job = |rate| JobFacts {
            queued_ms: 1.0,
            run_ms: 9.0,
            rate,
        };
        let runs = [
            facts(profile, Some(job(1.0))),
            facts(profile, Some(job(1.0))),
        ];
        let (values, missing) = from_runs(&runs, 32.0);
        assert_eq!(missing, ["metrics.comm_plan.actual_bytes"]);
        assert_eq!(value(&values, "master.iterations"), 16.0);
        assert_eq!(value(&values, "blocks.flops_computed"), 8.0 * 32.0);
        assert_eq!(value(&values, "cache.hit_ratio"), 0.75);
        assert_eq!(value(&values, "cache.high_water_bytes"), 500.0);
        assert_eq!(value(&values, "master.chunk_wait_s"), 2.0);
        assert_eq!(value(&values, "master.imbalance"), 1.5);
        assert_eq!(value(&values, "worker.busy_s"), 4.0);
        assert_eq!(value(&values, "worker.exposed_fetch_us"), 0.5);
        assert_eq!(value(&values, "worker.overlap"), 0.75);
        assert_eq!(value(&values, "ioserver.hit_ratio"), 0.25);
        assert_eq!(value(&values, "fabric.messages"), 20.0);
        assert_eq!(value(&values, "serve.run_ms_p50"), 9.0);
        assert_eq!(value(&values, "serve.jain"), 1.0);
    }

    #[test]
    fn every_per_layer_metric_has_a_source() {
        let (run, _) = from_runs(&[], 0.0);
        let jobs = from_jobs(&[]);
        let probed = crate::probes::NAMES;
        for (name, _, _) in PER_LAYER {
            let sources = run.iter().chain(&jobs).filter(|(n, _)| n == name).count()
                + probed.iter().filter(|n| *n == name).count()
                + usize::from(*name == "events.trace_overhead_frac");
            assert_eq!(sources, 1, "{name}");
        }
    }

    #[test]
    fn job_metrics_split_by_kind() {
        let values = from_jobs(&[
            ("dense", 1.0),
            ("served", 3.0),
            ("sparse", 5.0),
            ("served", 7.0),
        ]);
        assert_eq!(value(&values, "serve.dist_job_p50_s"), 3.0);
        assert_eq!(value(&values, "serve.served_job_p50_s"), 5.0);
        assert_eq!(value(&values, "serve.job_p90_s"), 7.0);
    }
}
