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
//! sial submit prog.sial /tmp/siald.sock --tenant alice --bind n=6 --wait
//! sial status /tmp/siald.sock
//! ```
//!
//! ## Wire protocol (one request line per connection, at most 64 KiB)
//!
//! ```text
//! ping                         -> ok pong
//! submit <file> [flags ...]    -> ok <id>
//!                              |  rejected needed=<b> available=<b> budget=<b>
//!                              |  error <msg>
//! status                       -> job <id> ... (one line per job), then: end
//! status <id>                  -> job <id> ...  |  error unknown job
//! wait <id> [timeout_ms]       -> job <id> ...  |  error unknown job
//!                              |  error timeout
//! shutdown                     -> ok bye (after all jobs finish)
//! ```
//!
//! A `submit`'s flags are `sial run`'s (`sia::opts`): `--workers 2 --seg 4
//! --bind n=6 --fault-seed 7 --fault-plan drop=0.05 --chem`, plus the
//! daemon's own `--tenant <name>`, `--priority <n>` and `--export 0|1`
//! (default: tenant `default`, priority 1, export on). The daemon owns a
//! job's run directory and exports and has no terminal, so it refuses
//! `--run-dir`, `--trace`, `--profile-json`, `-o`, `--profile`, `--check`,
//! `--json`, `--watch` and `--machine` with an `error` naming the flag. Each
//! `submit` drops the records of all but the last
//! `sia::runtime::serve::FINISHED_JOBS_KEPT` finished jobs; a dropped id is
//! an unknown job.

use sia::opts::{load_program, parse_opts, Surface};
use sia::runtime::serve::{AdmitError, Daemon, DaemonConfig, JobSpec, JobState, JobStatus};
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
    if let JobState::Failed(e) = &s.state {
        line.push_str(&format!(" error={}", e.replace([' ', '\n'], "_")));
    }
    for (name, value) in &s.scalars {
        line.push_str(&format!(" scalar:{name}={value}"));
    }
    line
}

/// Reads a `submit` request's program and option tokens into a job spec.
fn job_spec(file: &str, opts: &[&str]) -> Result<JobSpec, String> {
    let opts = parse_opts(opts, Surface::Daemon)?;
    Ok(JobSpec {
        tenant: opts.tenant,
        priority: opts.priority,
        // A reply is one line; a program's diagnostics are one each.
        program: load_program(file).map_err(|e| e.replace('\n', "; "))?,
        bindings: opts.bindings,
        config: opts.config,
        registry: opts.registry,
        export: opts.export,
    })
}

/// The longest request line the daemon reads: a client that never sends a
/// newline costs the daemon this much memory, not all of it.
const MAX_REQUEST_BYTES: usize = 64 << 10;

/// The reply to `status`/`wait` on an id the daemon never handed out, or
/// whose finished record it has since pruned.
const UNKNOWN_JOB: &str = "error unknown job";

/// The one-line reply (several lines for a bare `status`) to one request
/// line. Whatever the line holds, the answer is a reply, never a panic.
fn respond(line: &str, daemon: &Daemon, stop: &AtomicBool) -> String {
    if line.len() > MAX_REQUEST_BYTES {
        return "error request too long".to_string();
    }
    let tokens: Vec<&str> = line.split_whitespace().collect();
    match tokens.as_slice() {
        ["ping"] => "ok pong".to_string(),
        ["submit", file, opts @ ..] => match job_spec(file, opts) {
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
            None => UNKNOWN_JOB.to_string(),
        },
        ["wait", id, rest @ ..] => {
            let Some(id) = id.parse().ok().filter(|&id| daemon.status(id).is_some()) else {
                return UNKNOWN_JOB.to_string();
            };
            let timeout = rest
                .first()
                .and_then(|t| t.parse().ok())
                .unwrap_or(600_000u64);
            match daemon.wait(id, Duration::from_millis(timeout)) {
                Some(s) => job_line(&s),
                None => "error timeout".to_string(),
            }
        }
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
        let broken = dir.join("broken.sial").display().to_string();
        let src = "sial broken\naoindex i = 1, n\ntemp t(i)\npardo i\n  t(i) =\n  \
                   this is not a statement\nendpardo i\nendsial\n";
        std::fs::write(&broken, src).unwrap();
        let broken_at = format!("{broken}:5:");
        // Each request, and what its reply must name ("" for nothing).
        let requests = [
            (String::new(), ""),
            ("\n".to_string(), ""),
            ("frobnicate\n".to_string(), ""),
            ("status x\n".to_string(), ""),
            ("status 7\n".to_string(), "unknown job"),
            ("wait\n".to_string(), ""),
            ("wait x\n".to_string(), "unknown job"),
            ("wait 1 18446744073709551615\n".to_string(), "unknown job"),
            ("submit\n".to_string(), ""),
            ("submit /nonexistent\n".to_string(), "/nonexistent"),
            (format!("submit {prog} bad-option\n"), "bad-option"),
            // Both of its errors, each located in the file.
            (format!("submit {broken}\n"), &broken_at),
            (format!("submit {prog} --workers many\n"), "--workers"),
            (format!("submit {prog} --tenant ../x\n"), "../x"),
            (format!("submit {prog} --tenant\n"), "--tenant"),
            // The retired `k=v` dialect, and options a daemon job does not
            // take, are refused by name rather than dropped.
            (format!("submit {prog} workers=2\n"), "workers=2"),
            (format!("submit {prog} bind:n=6\n"), "bind:n=6"),
            (format!("submit {prog} -o x.siab\n"), "-o"),
            (format!("submit {prog} --profile\n"), "--profile"),
            (format!("submit {prog} --check\n"), "--check"),
            (format!("submit {prog} --json\n"), "--json"),
            (format!("submit {prog} --watch\n"), "--watch"),
            (format!("submit {prog} --machine xt5\n"), "--machine"),
            (format!("submit {prog} --run-dir /tmp/x\n"), "--run-dir"),
            (format!("submit {prog} --trace t.json\n"), "--trace"),
            (
                format!("submit {prog} --profile-json p.json\n"),
                "--profile-json",
            ),
            ("x".repeat(1 << 20), "too long"),
        ];
        for (request, named) in &requests {
            let reply = respond(request, &daemon, &stop);
            let shown = &request[..request.len().min(40)];
            assert!(reply.starts_with("error "), "{shown:?} -> {reply:?}");
            assert_eq!(reply.lines().count(), 1, "{shown:?} -> {reply:?}");
            assert!(reply.contains(named), "{shown:?} -> {reply:?}");
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
        let submit = format!("submit {prog} --workers 1 --export 0\n");
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
