//! `siald` — the long-lived SIAL serving daemon.
//!
//! One SIP process admitting many concurrent SIAL programs over a Unix
//! socket: dry-run admission control against a shared memory budget, run
//! slots handed to queued jobs in priority order, per-tenant metric/trace
//! exports, per-job rank-failure isolation (every job runs on its own
//! fabric world, scheduled exactly as a one-shot `sial run`), and one
//! served store shared by jobs referencing the same served arrays.
//!
//! ```text
//! siald --socket /tmp/siald.sock --budget 2147483648 --max-jobs 4 \
//!       --data-dir /tmp/siald-data
//! sial submit prog.sial /tmp/siald.sock tenant=alice bind:n=6
//! sial status /tmp/siald.sock
//! ```
//!
//! ## Wire protocol (one request line per connection, at most 64 KiB)
//!
//! ```text
//! ping                         -> ok pong
//! submit <file> [k=v ...]      -> ok <id>
//!                              |  rejected needed=<b> available=<b> budget=<b>
//!                              |  error <msg>
//! status                       -> job <id> ... (one line per job), then: end
//! status <id>                  -> job <id> ...
//! wait <id> [timeout_ms]       -> job <id> ...  |  error timeout
//! fairness                     -> ok jain=<x>
//! shutdown                     -> ok bye (after all jobs finish)
//! ```
//!
//! Submit options: `tenant=<name>` `priority=<n>` `workers=<n>` `io=<n>`
//! `seg=<n>` `nsub=<n>` `cache=<n>` `bind:<const>=<int>` `threshold=<x>`
//! `density:<array>=<frac>` `chem=1` `export=0` `placement=planned`
//! `fault=<spec>@<seed>` (spec as in `sial run --fault-plan`).

use sia::runtime::serve::{AdmitError, Daemon, DaemonConfig, JobSpec, JobStatus};
use sia::subsystems::chem::register_integrals;
use sia::{ConstBindings, SegmentConfig, SipConfig, SuperRegistry};
use std::io::{BufRead, BufReader, Read, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::{Path, PathBuf};
use std::process::ExitCode;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

fn usage() -> ExitCode {
    eprintln!(
        "usage: siald [--socket <path>] [--budget <bytes>] [--max-jobs <n>]\n\
         \x20            [--data-dir <dir>]\n\
         defaults: socket ./siald.sock, budget 4 GiB, max-jobs 4,\n\
         data-dir <tmp>/siald-<pid> (its served/ holds the store every job shares)"
    );
    ExitCode::from(2)
}

fn job_line(s: &JobStatus) -> String {
    let mut line = format!(
        "job {} tenant={} state={} queued_ms={} run_ms={} granted={} total={} \
         admitted_bytes={}",
        s.id, s.tenant, s.state, s.queued_ms, s.run_ms, s.granted, s.total, s.admitted_bytes
    );
    if let Some(p) = &s.trace_path {
        line.push_str(&format!(" trace={}", p.display()));
    }
    if let Some(p) = &s.profile_json {
        line.push_str(&format!(" profile={}", p.display()));
    }
    if let sia::runtime::serve::JobState::Failed(e) = &s.state {
        line.push_str(&format!(" error={}", e.replace([' ', '\n'], "_")));
    }
    for (name, value) in &s.scalars {
        line.push_str(&format!(" scalar:{name}={value}"));
    }
    line
}

/// Parses a `submit` request's option tokens into a job spec.
fn parse_submit(file: &str, opts: &[&str]) -> Result<JobSpec, String> {
    let data = std::fs::read(file).map_err(|e| format!("{file}: {e}"))?;
    let program = if data.starts_with(b"SIAB") {
        sia::bytecode::decode_program(&data).map_err(|e| format!("{file}: {e}"))?
    } else {
        let text = String::from_utf8(data).map_err(|_| format!("{file}: not UTF-8"))?;
        sia::compile(&text).map_err(|e| format!("{file}: {e}"))?
    };

    let mut tenant = "default".to_string();
    let mut priority = 1u32;
    let mut chem = false;
    let mut export = true;
    let mut seg = 8usize;
    let mut nsub = 2usize;
    let mut bindings = ConstBindings::new();
    let mut builder = SipConfig::builder();
    for tok in opts {
        let (k, v) = tok
            .split_once('=')
            .ok_or_else(|| format!("bad option `{tok}`"))?;
        match k {
            "tenant" => tenant = v.to_string(),
            "priority" => priority = v.parse().map_err(|e| format!("priority: {e}"))?,
            "workers" => builder = builder.workers(v.parse().map_err(|e| format!("workers: {e}"))?),
            "io" => builder = builder.io_servers(v.parse().map_err(|e| format!("io: {e}"))?),
            "seg" => seg = v.parse().map_err(|e| format!("seg: {e}"))?,
            "nsub" => nsub = v.parse().map_err(|e| format!("nsub: {e}"))?,
            "cache" => {
                builder = builder.cache_blocks(v.parse().map_err(|e| format!("cache: {e}"))?)
            }
            "threshold" => {
                builder =
                    builder.sparsity_threshold(v.parse().map_err(|e| format!("threshold: {e}"))?)
            }
            "placement" => match v {
                "hash" => builder = builder.placement(sia::Placement::Hash),
                "planned" => builder = builder.placement(sia::Placement::Planned),
                other => return Err(format!("unknown placement `{other}`")),
            },
            "chem" => chem = v != "0",
            "export" => export = v != "0",
            "fault" => {
                let (spec, seed) = v
                    .rsplit_once('@')
                    .ok_or_else(|| format!("fault expects spec@seed, got `{v}`"))?;
                let seed: u64 = seed.parse().map_err(|e| format!("fault seed: {e}"))?;
                let fault = parse_fault_spec(spec, seed)?;
                builder = builder.fault(fault);
            }
            _ if k.starts_with("bind:") => {
                let name = &k["bind:".len()..];
                bindings.insert(
                    name.to_string(),
                    v.parse().map_err(|e| format!("{k}: {e}"))?,
                );
            }
            _ if k.starts_with("density:") => {
                let name = &k["density:".len()..];
                builder =
                    builder.sparsity_density(name, v.parse().map_err(|e| format!("{k}: {e}"))?);
            }
            other => return Err(format!("unknown option `{other}`")),
        }
    }
    builder = builder.segments(SegmentConfig {
        default: seg,
        nsub,
        ..Default::default()
    });
    let config = builder.build().map_err(|e| e.to_string())?;
    let mut registry = SuperRegistry::new();
    if chem {
        let n_occ = bindings
            .get("nocc")
            .map(|&o| o as usize * seg)
            .unwrap_or(seg);
        register_integrals(&mut registry, seg, n_occ);
    }
    Ok(JobSpec {
        tenant,
        priority,
        program,
        bindings,
        config,
        registry,
        export,
    })
}

/// The `--fault-plan` spec grammar of `sial run`, shared over the wire:
/// `drop=0.05,dup=0.01,delay=0.02,crash=1@8`.
fn parse_fault_spec(spec: &str, seed: u64) -> Result<sia::FaultConfig, String> {
    let mut plan = sia::FaultPlan::seeded(seed);
    let mut crash = None;
    for part in spec.split(',').filter(|p| !p.is_empty()) {
        let (k, v) = part
            .split_once('=')
            .ok_or_else(|| format!("fault spec expects k=v parts, got `{part}`"))?;
        match k {
            "drop" => plan.drop = v.parse().map_err(|e| format!("fault drop: {e}"))?,
            "dup" | "duplicate" => {
                plan.duplicate = v.parse().map_err(|e| format!("fault dup: {e}"))?
            }
            "delay" => plan.delay = v.parse().map_err(|e| format!("fault delay: {e}"))?,
            "crash" => {
                let (w, i) = v
                    .split_once('@')
                    .ok_or_else(|| format!("crash expects W@I, got `{v}`"))?;
                crash = Some(sia::CrashSchedule {
                    worker: w.parse().map_err(|e| format!("crash worker: {e}"))?,
                    after_iterations: i.parse().map_err(|e| format!("crash iterations: {e}"))?,
                });
            }
            other => return Err(format!("unknown fault key `{other}`")),
        }
    }
    let mut fault = sia::FaultConfig::new(plan);
    fault.crash = crash;
    Ok(fault)
}

/// The longest request line the daemon reads: a client that never sends a
/// newline costs the daemon this much memory, not all of it.
const MAX_REQUEST_BYTES: usize = 64 << 10;

/// The one-line reply (several lines for a bare `status`) to one request
/// line. Whatever the line holds, the answer is a reply, never a panic.
fn respond(line: &str, daemon: &Daemon, stop: &AtomicBool) -> String {
    if line.len() > MAX_REQUEST_BYTES {
        return "error request too long".to_string();
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match tokens.as_slice() {
        ["ping"] => "ok pong".to_string(),
        ["submit", file, opts @ ..] => match parse_submit(file, opts) {
            Ok(spec) => match daemon.submit(spec) {
                Ok(id) => format!("ok {id}"),
                Err(AdmitError::OverBudget {
                    needed_bytes,
                    available_bytes,
                    budget_bytes,
                }) => format!(
                    "rejected needed={needed_bytes} available={available_bytes} \
                     budget={budget_bytes}"
                ),
                Err(AdmitError::Invalid(m)) => format!("error {m}"),
            },
            Err(e) => format!("error {e}"),
        },
        ["status"] => {
            let mut buf = String::new();
            for s in daemon.list() {
                buf.push_str(&job_line(&s));
                buf.push('\n');
            }
            buf.push_str("end");
            buf
        }
        ["status", id] => match id.parse().ok().and_then(|id| daemon.status(id)) {
            Some(s) => job_line(&s),
            None => "error unknown job".to_string(),
        },
        ["wait", id, rest @ ..] => {
            let timeout = rest
                .first()
                .and_then(|t| t.parse().ok())
                .unwrap_or(600_000u64);
            match id
                .parse()
                .ok()
                .and_then(|id| daemon.wait(id, Duration::from_millis(timeout)))
            {
                Some(s) => job_line(&s),
                None => "error timeout".to_string(),
            }
        }
        ["fairness"] => format!("ok jain={:.4}", daemon.fairness()),
        ["shutdown"] => {
            stop.store(true, Ordering::SeqCst);
            "ok bye".to_string()
        }
        _ => "error unknown command".to_string(),
    }
}

/// Serves one connection: reads its request line, writes the reply. A
/// request that stopped the daemon then connects to the daemon's own
/// `socket`, which is what the acceptor wakes on to see the stop.
fn handle(stream: UnixStream, daemon: &Daemon, stop: &AtomicBool, socket: &Path) {
    let mut line = String::new();
    // One byte over the limit is enough for `respond` to see it exceeded.
    let mut request = BufReader::new(&stream).take(MAX_REQUEST_BYTES as u64 + 1);
    let reply = match request.read_line(&mut line) {
        Ok(_) => respond(&line, daemon, stop),
        Err(e) => format!("error unreadable request: {e}"),
    };
    let _ = writeln!(&stream, "{reply}");
    if stop.load(Ordering::SeqCst) {
        let _ = UnixStream::connect(socket);
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut socket = PathBuf::from("siald.sock");
    let mut cfg = DaemonConfig::default();
    let mut it = args.iter();
    while let Some(a) = it.next() {
        let mut need = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        let r: Result<(), String> = (|| {
            match a.as_str() {
                "--socket" => socket = PathBuf::from(need("--socket")?),
                "--budget" => {
                    cfg.budget_bytes = need("--budget")?
                        .parse()
                        .map_err(|e| format!("--budget: {e}"))?
                }
                "--max-jobs" => {
                    cfg.max_concurrent = need("--max-jobs")?
                        .parse()
                        .map_err(|e| format!("--max-jobs: {e}"))?
                }
                "--data-dir" => cfg.data_dir = PathBuf::from(need("--data-dir")?),
                other => return Err(format!("unknown option `{other}`")),
            }
            Ok(())
        })();
        if let Err(e) = r {
            eprintln!("error: {e}");
            return usage();
        }
    }

    let _ = std::fs::remove_file(&socket);
    let listener = match UnixListener::bind(&socket) {
        Ok(l) => l,
        Err(e) => {
            eprintln!("siald: bind {}: {e}", socket.display());
            return ExitCode::FAILURE;
        }
    };
    if let Err(e) = std::fs::create_dir_all(&cfg.data_dir) {
        eprintln!("siald: create {}: {e}", cfg.data_dir.display());
        return ExitCode::FAILURE;
    }
    println!(
        "siald: listening on {} (budget {} bytes, max {} concurrent, data {})",
        socket.display(),
        cfg.budget_bytes,
        cfg.max_concurrent,
        cfg.data_dir.display()
    );
    let daemon = Arc::new(Daemon::new(cfg));
    let stop = Arc::new(AtomicBool::new(false));
    let socket: Arc<Path> = socket.into();
    // Each connection carries one request and gets a thread of its own, so
    // a `wait` holds up nobody. The acceptor sleeps in `accept()`; the
    // connection that follows a `shutdown` (see `handle`) wakes it.
    for stream in listener.incoming() {
        if stop.load(Ordering::SeqCst) {
            break;
        }
        match stream {
            Ok(stream) => {
                let (daemon, stop, socket) =
                    (Arc::clone(&daemon), Arc::clone(&stop), Arc::clone(&socket));
                std::thread::spawn(move || handle(stream, &daemon, &stop, &socket));
            }
            Err(e) => {
                eprintln!("siald: accept: {e}");
                break;
            }
        }
    }
    daemon.shutdown();
    let _ = std::fs::remove_file(&*socket);
    println!("siald: bye");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A scratch directory, a program file in it, and a daemon over it.
    fn fixture(tag: &str) -> (PathBuf, String, Daemon) {
        let dir = std::env::temp_dir().join(format!("siald-{tag}-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let prog = dir.join("f.sial");
        std::fs::write(&prog, "sial f\nscalar s\ns = 1.0\nendsial\n").unwrap();
        let daemon = Daemon::new(DaemonConfig {
            data_dir: dir.join("data"),
            ..DaemonConfig::default()
        });
        (dir, prog.display().to_string(), daemon)
    }

    /// Whatever a client writes, the handler answers with one `error …`
    /// line: it does not panic, and no request reaches the daemon's state.
    #[test]
    fn malformed_requests_get_one_error_line() {
        let (dir, prog, daemon) = fixture("respond");
        let stop = AtomicBool::new(false);
        let requests = [
            String::new(),
            "\n".to_string(),
            "frobnicate\n".to_string(),
            "status x\n".to_string(),
            "status 7\n".to_string(),
            "wait\n".to_string(),
            "wait x\n".to_string(),
            "wait 1 18446744073709551615\n".to_string(),
            "submit\n".to_string(),
            "submit /nonexistent\n".to_string(),
            format!("submit {prog} bad-option\n"),
            format!("submit {prog} workers=many\n"),
            format!("submit {prog} tenant=../x\n"),
            format!("submit {prog} tenant=\n"),
            "x".repeat(1 << 20),
        ];
        for request in &requests {
            let reply = respond(request, &daemon, &stop);
            let shown = &request[..request.len().min(40)];
            assert!(reply.starts_with("error "), "{shown:?} -> {reply:?}");
            assert_eq!(reply.lines().count(), 1, "{shown:?} -> {reply:?}");
        }
        assert!(daemon.list().is_empty());
        assert!(!stop.load(Ordering::SeqCst));
        assert_eq!(respond("ping\n", &daemon, &stop), "ok pong");
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A `wait` whose timeout is past the end of time waits for the job, as
    /// one without a timeout would.
    #[test]
    fn wait_with_an_unrepresentable_timeout_waits_for_the_job() {
        let (dir, prog, daemon) = fixture("wait");
        let stop = AtomicBool::new(false);
        let submit = format!("submit {prog} workers=1 export=0\n");
        assert_eq!(respond(&submit, &daemon, &stop), "ok 1");
        let reply = respond("wait 1 18446744073709551615\n", &daemon, &stop);
        assert!(
            reply.starts_with("job 1 ") && reply.contains("state=done"),
            "{reply}"
        );
        drop(daemon);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
