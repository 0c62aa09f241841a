//! `sial_loadgen` — serving load generator and benchmark for `siald`.
//!
//! Submits a mixed batch of SIAL jobs (dense contraction, screened-sparse
//! reduction, served-array pipeline — all sized to comparable iteration
//! spaces, so even shares of the machine show as even run times) to a
//! running daemon, waits for completion, and reports throughput (jobs/s),
//! latency percentiles (p50/p99 of submit→done), and the batch's Jain
//! fairness index over per-job normalized service rates (the daemon's
//! lifetime figure is recorded alongside as `jain_daemon`).
//!
//! ```text
//! siald --socket /tmp/siald.sock --data-dir /tmp/siald-data &
//! sial_loadgen --socket /tmp/siald.sock --jobs 3 --out BENCH_serving.json --assert
//! ```
//!
//! `--assert` exits nonzero when any job fails or the fairness index falls
//! under 0.8 — the CI serving smoke gate.

use sia_runtime::jain_index;
use sia_runtime::json::Json;
use std::collections::HashMap;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// Dense: distributed put/get contraction over an n×n block space.
const DENSE_SRC: &str = r#"
sial loadgen_dense
aoindex i = 1, n
aoindex j = 1, n
distributed A(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 0.5 * i + j
  put A(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get A(i,j)
  total += A(i,j) * A(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
"#;

/// Sparse: the same block space, but the payload decays with |i-j| and the
/// array is screened — most off-diagonal blocks drop at the put.
const SPARSE_SRC: &str = r#"
sial loadgen_sparse
aoindex i = 1, n
aoindex j = 1, n
sparse distributed S(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 1.0 / (1.0 + 1000.0 * (i - j) * (i - j))
  put S(i,j) = t(i,j)
endpardo i, j
sip_barrier
pardo i, j
  get S(i,j)
  total += S(i,j) * S(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
"#;

/// Served: the same block space through the I/O-server tier (prepare, a
/// server barrier, then request) — exercises the shared served store.
const SERVED_SRC: &str = r#"
sial loadgen_served
aoindex i = 1, n
aoindex j = 1, n
served B(i,j)
temp t(i,j)
scalar total
pardo i, j
  t(i,j) = 2.0 * i - j
  prepare B(i,j) = t(i,j)
endpardo i, j
server_barrier
pardo i, j
  request B(i,j)
  total += B(i,j) * B(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce total
endsial
"#;

fn request(socket: &str, line: &str) -> Result<Vec<String>, String> {
    let mut stream = UnixStream::connect(socket).map_err(|e| format!("connect {socket}: {e}"))?;
    writeln!(stream, "{line}").map_err(|e| format!("send: {e}"))?;
    let mut lines = Vec::new();
    for l in BufReader::new(stream).lines() {
        lines.push(l.map_err(|e| format!("recv: {e}"))?);
    }
    if lines.is_empty() {
        return Err("daemon closed the connection without replying".into());
    }
    Ok(lines)
}

/// Parses `k=v` fields of a `job ...` status line.
fn fields(line: &str) -> HashMap<String, String> {
    line.split_whitespace()
        .filter_map(|t| t.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect()
}

fn percentile(sorted: &[f64], p: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    let idx = ((sorted.len() - 1) as f64 * p).round() as usize;
    sorted[idx.min(sorted.len() - 1)]
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: sial_loadgen --socket <path> [--jobs <n>] [--n <blocks>]\n\
         \x20                  [--out <file>] [--assert]\n\
         submits a mixed dense/sparse/served batch to a running siald and\n\
         writes a BENCH_serving.json report"
    );
    ExitCode::from(2)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket = String::new();
    let mut jobs = 3usize;
    let mut n = 40u64;
    let mut out = PathBuf::from("BENCH_serving.json");
    let mut assert_gates = false;
    let mut it = args.iter();
    while let Some(a) = it.next() {
        match a.as_str() {
            "--socket" => socket = it.next().cloned().unwrap_or_default(),
            "--jobs" => jobs = it.next().and_then(|v| v.parse().ok()).unwrap_or(3),
            "--n" => n = it.next().and_then(|v| v.parse().ok()).unwrap_or(8),
            "--out" => out = PathBuf::from(it.next().cloned().unwrap_or_default()),
            "--assert" => assert_gates = true,
            _ => return usage(),
        }
    }
    if socket.is_empty() {
        return usage();
    }

    // Materialize the workload sources next to the report so the daemon can
    // read them by path.
    let dir = std::env::temp_dir().join(format!("sial-loadgen-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&dir) {
        eprintln!("loadgen: create {}: {e}", dir.display());
        return ExitCode::FAILURE;
    }
    let mix: [(&str, &str, &str); 3] = [
        ("dense", DENSE_SRC, "threshold=0"),
        ("sparse", SPARSE_SRC, "threshold=0.01"),
        ("served", SERVED_SRC, "threshold=0"),
    ];
    let mut specs = Vec::new();
    for i in 0..jobs {
        let (kind, src, extra) = mix[i % mix.len()];
        let path = dir.join(format!("{kind}.sial"));
        if let Err(e) = std::fs::write(&path, src) {
            eprintln!("loadgen: write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
        specs.push((
            format!("tenant-{kind}"),
            path,
            // seg 4 over n=40 gives a 10x10 block space per pardo.
            format!("tenant=tenant-{kind} bind:n={n} workers=2 io=1 seg=4 {extra}"),
        ));
    }

    // Submit everything at once from parallel connections — the fairness
    // figure is about jobs that overlap, so the batch must not be
    // serialized by submit round-trips. Per-job latency is submit→done.
    let t0 = Instant::now();
    let handles: Vec<_> = specs
        .iter()
        .map(|(tenant, path, opts)| {
            let socket = socket.clone();
            let tenant = tenant.clone();
            let line = format!("submit {} {}", path.display(), opts);
            std::thread::spawn(move || {
                let submitted = Instant::now();
                match request(&socket, &line) {
                    Ok(lines) if lines[0].starts_with("ok ") => {
                        let id: u64 = lines[0][3..].trim().parse().unwrap_or(0);
                        Ok((tenant, id, submitted))
                    }
                    Ok(lines) => Err(format!("submit {tenant}: {}", lines[0])),
                    Err(e) => Err(format!("submit {tenant}: {e}")),
                }
            })
        })
        .collect();
    let mut ids: Vec<(String, u64, Instant)> = Vec::new();
    for h in handles {
        match h.join().expect("submit thread") {
            Ok(entry) => ids.push(entry),
            Err(e) => {
                eprintln!("loadgen: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    let mut done = Vec::new();
    let mut failed = 0usize;
    for (tenant, id, submitted) in &ids {
        match request(&socket, &format!("wait {id}")) {
            Ok(lines) => {
                let f = fields(&lines[0]);
                let state = f.get("state").cloned().unwrap_or_default();
                if state != "done" {
                    eprintln!("loadgen: job {id} ({tenant}): state={state}");
                    failed += 1;
                }
                done.push((tenant.clone(), *id, submitted.elapsed().as_secs_f64(), f));
            }
            Err(e) => {
                eprintln!("loadgen: wait {id}: {e}");
                failed += 1;
            }
        }
    }
    let elapsed = t0.elapsed().as_secs_f64();
    // Fairness of THIS batch: Jain over each job's normalized service rate
    // (fraction of its own iteration space per second of runtime), from the
    // final status fields. The daemon's `fairness` figure spans every job
    // it ever ran, so a shared daemon would mix batches into the gate.
    let rates: Vec<f64> = done
        .iter()
        .filter_map(|(_, _, _, f)| {
            let granted: f64 = f.get("granted")?.parse().ok()?;
            let total: f64 = f.get("total")?.parse().ok()?;
            let run_ms: f64 = f.get("run_ms")?.parse().ok()?;
            (total > 0.0).then(|| (granted / total) / (run_ms / 1000.0).max(1e-6))
        })
        .collect();
    let jain = jain_index(&rates);
    let daemon_jain: f64 = request(&socket, "fairness")
        .ok()
        .and_then(|l| l[0].strip_prefix("ok jain=").and_then(|v| v.parse().ok()))
        .unwrap_or(0.0);

    let mut latencies: Vec<f64> = done.iter().map(|(_, _, l, _)| *l).collect();
    latencies.sort_by(|a, b| a.partial_cmp(b).unwrap());
    let p50 = percentile(&latencies, 0.5);
    let p99 = percentile(&latencies, 0.99);
    let jobs_per_s = done.len() as f64 / elapsed.max(1e-9);
    let cpus = std::thread::available_parallelism().map_or(1, |p| p.get());

    let count = |f: &HashMap<String, String>, k: &str| {
        Json::from(f.get(k).and_then(|v| v.parse::<u64>().ok()).unwrap_or(0))
    };
    let per_job = done.iter().map(|(tenant, id, lat, f)| {
        Json::obj([
            ("id", (*id).into()),
            ("tenant", tenant.as_str().into()),
            ("latency_s", (*lat).into()),
            ("state", f.get("state").map_or("?", String::as_str).into()),
            ("granted", count(f, "granted")),
            ("total", count(f, "total")),
        ])
    });
    let report = Json::obj([
        ("bench", "sia.serving.v1".into()),
        ("jobs", done.len().into()),
        ("failed", failed.into()),
        ("elapsed_s", elapsed.into()),
        ("jobs_per_s", jobs_per_s.into()),
        ("latency_p50_s", p50.into()),
        ("latency_p99_s", p99.into()),
        ("jain_fairness", jain.into()),
        ("jain_daemon", daemon_jain.into()),
        ("host_cpus", cpus.into()),
        ("per_job", per_job.collect()),
    ]);
    if let Err(e) = std::fs::write(&out, report.to_string()) {
        eprintln!("loadgen: write {}: {e}", out.display());
        return ExitCode::FAILURE;
    }
    println!(
        "loadgen: {} jobs in {elapsed:.2}s ({jobs_per_s:.2} jobs/s), p50 {p50:.2}s, \
         p99 {p99:.2}s, jain {jain:.3} -> {}",
        done.len(),
        out.display()
    );
    let _ = std::fs::remove_dir_all(&dir);

    if assert_gates {
        if failed > 0 {
            eprintln!("loadgen: ASSERT FAILED — {failed} job(s) did not complete");
            return ExitCode::FAILURE;
        }
        if jain < 0.8 {
            eprintln!("loadgen: ASSERT FAILED — jain {jain:.3} < 0.8");
            return ExitCode::FAILURE;
        }
        println!("loadgen: asserts passed (all jobs done, jain {jain:.3} >= 0.8)");
    }
    ExitCode::SUCCESS
}
