//! `sial` — the SIA command-line driver.
//!
//! ```text
//! sial check   prog.sial [--json] [--watch]   # compile + static verify:
//!                                             #   structure and pardo races,
//!                                             #   file:line:col diagnostics
//! sial compile prog.sial -o prog.siab        # emit SIA bytecode
//! sial disasm  prog.sial|prog.siab           # show the bytecode listing
//! sial dryrun  prog.sial --workers 64 --seg 16 --bind norb=20 --bind nocc=4
//! sial run     prog.sial --workers 4 --seg 8 --bind n=6 [--chem]
//! sial run     prog.sial --trace out.json --profile-json prof.json
//! sial simulate prog.sial --workers 4096 --machine xt5 --seg 24 --bind norb=20
//! sial trace-lint out.json                   # validate a trace, profile or diag export
//! sial submit  prog.sial siald.sock --tenant alice --bind n=6 [--wait]
//! sial status  siald.sock                    # job table of a running siald
//! ```
//!
//! `--chem` registers the synthetic chemistry kernels (`compute_integrals`,
//! `scale_by_denominator`, …) so the programs in `crates/chem` run as-is.
//! The flags are one grammar, `sia::opts`: `sial submit` forwards them to
//! `siald` unchanged, where the same parser reads them.

use sia::chem::integral_cost_model;
use sia::opts::{check_source, load_program, parse_opts, JobOpts, Surface};
use sia::sim::{simulate, SimConfig};
use sia::{Program, Sip};
use std::path::Path;
use std::process::ExitCode;

fn usage() -> ExitCode {
    eprintln!(
        "usage: sial <check|compile|disasm|dryrun|run|simulate|trace-lint> <file> [options]\n\
         \x20      sial submit <file> <socket> [options] [--tenant <name>] [--priority <n>]\n\
         \x20                  [--export 0|1] [--wait]\n\
         \x20      sial status <socket> [id] | sial shutdown <socket>\n\
         options:\n\
           -o <file>          output path (compile)\n\
           --workers <n>      worker count (default 2)\n\
           --io <n>           I/O server count (default 1)\n\
           --seg <n>          segment size (default 8)\n\
           --nsub <n>         subsegments per segment (default 2)\n\
           --prefetch <n>     prefetch look-ahead depth (default 2)\n\
           --cache <n>        block-cache capacity (default 64)\n\
           --memory-budget <bytes>  per-worker memory ceiling: gates the dry-run\n\
                              estimate up front and is enforced at runtime\n\
                              (eviction pressure, then an OverBudget error);\n\
                              --budget is accepted as an alias\n\
           --run-dir <dir>    served-array / checkpoint directory (enables restart)\n\
           --bind k=v         bind a symbolic constant (repeatable)\n\
           --sparsity-threshold <x>  drop blocks of sparse arrays whose\n\
                              Frobenius norm is below x (0 disables screening)\n\
           --density name=frac  dry-run hint: fraction of a sparse array's\n\
                              blocks expected to be resident (repeatable)\n\
           --fault-seed <n>   enable fault injection with this RNG seed\n\
           --fault-plan <s>   fault spec: drop=0.05,dup=0.01,delay=0.02,crash=1@8\n\
                              (crash=W@I kills worker W after I pardo iterations)\n\
           --machine <name>   simulate: sun|xt4|xt5|altix|bgp (default xt5)\n\
           --chem             register the synthetic chemistry kernels\n\
           --profile          print the per-instruction profile after a run\n\
           --profile-json <file>  write the machine-readable profile (schema\n\
                              sia.profile.v1: overlap, wait causes, metrics)\n\
           --trace <file>     record per-rank events and write the merged\n\
                              Chrome-trace JSON there (load in Perfetto)\n\
           --trace-buffer <n> per-rank trace ring capacity in events\n\
           --check            run: verify the bytecode (as `sial check` does)\n\
                              and refuse to launch the SIP on any finding\n\
           --json             check: emit diagnostics as sia.diag.v1 JSON\n\
           --watch            check: re-check on every file change, reusing\n\
                              the incremental compiler database\n\
         submit forwards its options to siald unchanged; a daemon job refuses\n\
         -o, --run-dir, --trace, --profile-json, --profile, --check, --json,\n\
         --watch and --machine (tenant `default`, priority 1, export 1 by default)"
    );
    ExitCode::from(2)
}

/// The program in `file`, or every finding that kept it from loading, one
/// per line.
fn program(file: &str) -> Result<Program, String> {
    match load_program(file)? {
        (Some(p), _) => Ok(p),
        (None, diags) => {
            let lines: Vec<String> = diags.iter().map(ToString::to_string).collect();
            Err(lines.join("\n"))
        }
    }
}

/// The program `sial run` runs. Under `--check`, only once `sial check`
/// finds nothing in it; otherwise every finding is printed as `sial check`
/// prints it.
fn load_for_run(file: &str, check: bool) -> Result<Program, String> {
    if !check {
        return program(file);
    }
    let (program, diags) = load_program(file)?;
    if diags.is_empty() {
        return Ok(program.expect("no diagnostics means the program loaded"));
    }
    for d in &diags {
        eprintln!("{d}");
    }
    Err(format!(
        "{file}: refusing to run (--check): {} finding(s)",
        diags.len()
    ))
}

/// `sial check [--json] [--watch]`: compile + static verify with located
/// multi-error diagnostics (`file:line:col: error[code]: message`).
fn cmd_check(file: &str, opts: &JobOpts) -> ExitCode {
    if opts.watch {
        return cmd_check_watch(file, opts);
    }
    let (program, diags) = match load_program(file) {
        Ok(r) => r,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::FAILURE;
        }
    };
    if opts.json {
        println!("{}", sia::runtime::diagnostics_to_json(file, &diags));
        return if diags.is_empty() {
            ExitCode::SUCCESS
        } else {
            ExitCode::FAILURE
        };
    }
    if !diags.is_empty() {
        for d in &diags {
            eprintln!("{d}");
        }
        eprintln!("{file}: check failed — {} finding(s)", diags.len());
        return ExitCode::FAILURE;
    }
    let p = program.expect("no diagnostics means the program loaded");
    if opts.config.sparsity_threshold > 0.0 && !p.arrays.iter().any(|a| a.sparse) {
        eprintln!(
            "{file}: --sparsity-threshold {} has no effect — no array is \
             declared sparse; add `sparse` to a distributed/served \
             declaration or drop the flag",
            opts.config.sparsity_threshold
        );
        return ExitCode::FAILURE;
    }
    println!(
        "{}: ok — {} instructions, {} arrays, {} indices, {} constants",
        file,
        p.code.len(),
        p.arrays.len(),
        p.indices.len(),
        p.consts.len()
    );
    ExitCode::SUCCESS
}

/// `sial check --watch`: re-checks the file whenever its mtime changes,
/// reusing one incremental [`CompilerDb`](sia::frontend::CompilerDb)
/// so an unchanged declaration section re-runs only the queries the edit
/// actually invalidated. Prints the memo-table summary after each pass.
fn cmd_check_watch(file: &str, opts: &JobOpts) -> ExitCode {
    use sia::frontend::CompilerDb;
    let mut db: Option<CompilerDb> = None;
    let mut last: Option<std::time::SystemTime> = None;
    loop {
        let mtime = std::fs::metadata(file).and_then(|m| m.modified()).ok();
        if mtime.is_some() && mtime != last {
            last = mtime;
            let text = match std::fs::read_to_string(file) {
                Ok(t) => t,
                Err(e) => {
                    eprintln!("{file}: {e}");
                    return ExitCode::FAILURE;
                }
            };
            let db = match &mut db {
                Some(db) => {
                    db.set_source(text);
                    db
                }
                None => db.insert(CompilerDb::new(file, text)),
            };
            let (_, diags) = check_source(db);
            if opts.json {
                println!("{}", sia::runtime::diagnostics_to_json(file, &diags));
            } else if diags.is_empty() {
                println!("{file}: ok (revision {})", db.revision());
            } else {
                for d in &diags {
                    eprintln!("{d}");
                }
                eprintln!(
                    "{file}: {} finding(s) (revision {})",
                    diags.len(),
                    db.revision()
                );
            }
            if !opts.json {
                println!("  queries: {}", db.stats().summary());
            }
        }
        std::thread::sleep(std::time::Duration::from_millis(200));
    }
}

/// One request/reply exchange with a running `siald` (its line protocol;
/// see `src/bin/siald.rs`). Returns every reply line.
fn siald_request(socket: &str, request: &str) -> Result<Vec<String>, String> {
    use std::io::{BufRead, BufReader, Write};
    let mut stream = std::os::unix::net::UnixStream::connect(socket)
        .map_err(|e| format!("connect {socket}: {e}"))?;
    writeln!(stream, "{request}").map_err(|e| format!("send: {e}"))?;
    let reader = BufReader::new(stream);
    let mut lines = Vec::new();
    for line in reader.lines() {
        lines.push(line.map_err(|e| format!("recv: {e}"))?);
    }
    if lines.is_empty() {
        return Err("daemon closed the connection without replying".into());
    }
    Ok(lines)
}

/// `sial submit <file> <socket> [options] [--wait]`: submits a program to a
/// running `siald`, forwarding the options unchanged, and prints the
/// assigned job id (or the rejection).
fn cmd_submit(file: &str, rest: &[String]) -> ExitCode {
    let Some(socket) = rest.first() else {
        eprintln!("usage: sial submit <file> <socket> [options] [--wait]");
        return ExitCode::from(2);
    };
    let wait = rest.iter().any(|a| a == "--wait");
    let opts: Vec<&str> = rest[1..]
        .iter()
        .map(String::as_str)
        .filter(|a| *a != "--wait")
        .collect();
    let request = format!("submit {file} {}", opts.join(" "));
    match siald_request(socket, request.trim_end()) {
        Ok(lines) => {
            let reply = &lines[0];
            println!("{reply}");
            let Some(id) = reply.strip_prefix("ok ") else {
                return ExitCode::FAILURE;
            };
            if wait {
                match siald_request(socket, &format!("wait {id}")) {
                    Ok(lines) => {
                        for l in &lines {
                            println!("{l}");
                        }
                        if lines.iter().any(|l| l.contains("state=done")) {
                            ExitCode::SUCCESS
                        } else {
                            ExitCode::FAILURE
                        }
                    }
                    Err(e) => {
                        eprintln!("error: {e}");
                        ExitCode::FAILURE
                    }
                }
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sial status <socket> [id]`: prints a running `siald`'s job table.
fn cmd_status(socket: &str, rest: &[String]) -> ExitCode {
    let request = match rest.first() {
        Some(id) => format!("status {id}"),
        None => "status".to_string(),
    };
    match siald_request(socket, &request) {
        Ok(lines) => {
            for l in lines.iter().filter(|l| *l != "end") {
                println!("{l}");
            }
            if lines.iter().any(|l| l.starts_with("error")) {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `sial trace-lint <file>`: lints an export by what the parsed document
/// is — a Chrome trace (`traceEvents`), a `sia.profile.v1` profile or a
/// `sia.diag.v1` report — and prints its summary.
fn trace_lint(file: &str) -> Result<(), String> {
    use sia::runtime::json::{parse_json, Json};
    let text = std::fs::read_to_string(file).map_err(|e| e.to_string())?;
    let doc = parse_json(&text).map_err(|e| format!("not valid JSON: {e}"))?;
    let schema = doc.get("schema").and_then(Json::as_str);
    if doc.get("traceEvents").is_some() {
        let lint = sia::runtime::lint_chrome_trace(&doc)?;
        println!("{file}: ok — {} trace events", lint.events);
        for (pid, r) in &lint.ranks {
            let cats: Vec<&str> = r.cats.iter().map(String::as_str).collect();
            println!(
                "  rank {pid} ({}): {} spans, {} flights, {} dropped [{}]",
                if r.label.is_empty() { "?" } else { &r.label },
                r.spans,
                r.flights,
                r.dropped,
                cats.join(", ")
            );
        }
    } else if schema == Some("sia.profile.v1") {
        sia::runtime::lint_profile_json(&doc)?;
        println!("{file}: ok — sia.profile.v1");
    } else if schema == Some("sia.diag.v1") {
        let n = sia::runtime::lint_diag_json(&doc)?;
        println!("{file}: ok — sia.diag.v1, {n} diagnostics");
    } else {
        let found = match (schema, doc.as_object()) {
            (Some(s), _) => format!("schema {s:?}"),
            (None, Some(members)) => {
                let keys: Vec<&str> = members.iter().map(|(k, _)| k.as_ref()).collect();
                format!("an object with keys [{}]", keys.join(", "))
            }
            (None, None) => "a document that is not an object".into(),
        };
        return Err(format!(
            "not a trace, profile or diagnostics export: found {found}"
        ));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let (cmd, file, rest) = match args.as_slice() {
        [cmd, file, rest @ ..] => (cmd.as_str(), file.as_str(), rest),
        _ => return usage(),
    };
    // The daemon-client commands speak the siald line protocol and take no
    // SipConfig options; handle them before the option parser.
    match cmd {
        "submit" => return cmd_submit(file, rest),
        "status" => return cmd_status(file, rest),
        "shutdown" => {
            return match siald_request(file, "shutdown") {
                Ok(lines) => {
                    println!("{}", lines[0]);
                    ExitCode::SUCCESS
                }
                Err(e) => {
                    eprintln!("error: {e}");
                    ExitCode::FAILURE
                }
            };
        }
        _ => {}
    }
    let opts = match parse_opts(rest, Surface::Cli) {
        Ok(o) => o,
        Err(e) => {
            eprintln!("error: {e}");
            return usage();
        }
    };

    match cmd {
        "trace-lint" => match trace_lint(file) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("{file}: {e}");
                ExitCode::FAILURE
            }
        },
        "check" => cmd_check(file, &opts),
        "compile" => match program(file) {
            Ok(p) => {
                let out = opts.output.unwrap_or_else(|| {
                    Path::new(file)
                        .with_extension("siab")
                        .to_string_lossy()
                        .into_owned()
                });
                let bytes = sia::bytecode::encode_program(&p);
                match std::fs::write(&out, &bytes) {
                    Ok(()) => {
                        println!("wrote {out} ({} bytes)", bytes.len());
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{out}: {e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "disasm" => match program(file) {
            Ok(p) => {
                print!("{}", sia::disassemble(&p));
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "dryrun" => match program(file) {
            Ok(p) => {
                let sip = Sip::new(opts.config.clone());
                match sip.plan(p, &opts.bindings) {
                    Ok((est, fabric)) => {
                        println!(
                            "per-worker estimate: {:.1} MiB ({} bytes, {} workers)",
                            est.per_worker_bytes as f64 / (1 << 20) as f64,
                            est.per_worker_bytes,
                            opts.config.workers
                        );
                        if est.dense_per_worker_bytes != est.per_worker_bytes {
                            let pct = est.per_worker_bytes as f64 * 100.0
                                / est.dense_per_worker_bytes.max(1) as f64;
                            println!(
                                "  realized (sparse): {} bytes = {pct:.1}% of dense \
                                 ({} bytes)",
                                est.per_worker_bytes, est.dense_per_worker_bytes
                            );
                        }
                        println!(
                            "per-server estimate: {:.1} MiB; largest block {} KiB; cache {:.1} MiB",
                            est.per_server_bytes as f64 / (1 << 20) as f64,
                            est.largest_block_bytes / 1024,
                            est.cache_bytes as f64 / (1 << 20) as f64
                        );
                        for (name, bytes) in &est.breakdown {
                            println!("  {name:<20} {:.2} MiB", *bytes as f64 / (1 << 20) as f64);
                        }
                        println!("predicted fabric bytes: {fabric}");
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "run" => match load_for_run(file, opts.check) {
            Ok(p) => {
                let sip = Sip::new(opts.config).with_registry(opts.registry);
                match sip.run(p, &opts.bindings) {
                    Ok(out) => {
                        for (name, value) in &out.scalars {
                            println!("{name} = {value:.12}");
                        }
                        for w in &out.warnings {
                            eprintln!("warning: {w}");
                        }
                        println!(
                            "iterations: {}, wait: {:.1}%, traffic: {} msgs / {} KiB",
                            out.profile.iterations,
                            out.profile.wait_fraction() * 100.0,
                            out.traffic.messages,
                            out.traffic.bytes / 1024
                        );
                        if opts.profile {
                            println!("\n{}", out.profile);
                        }
                        ExitCode::SUCCESS
                    }
                    Err(e) => {
                        eprintln!("{e}");
                        ExitCode::FAILURE
                    }
                }
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        "simulate" => match program(file) {
            Ok(p) => {
                let layout = sia::runtime::Layout::new(
                    std::sync::Arc::new(p),
                    &opts.bindings,
                    opts.config.segments,
                    sia::runtime::Topology::new(opts.config.workers.max(1), 1),
                );
                let layout = match layout {
                    Ok(l) => l,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                let trace = match sia::runtime::trace::generate(&layout, &integral_cost_model()) {
                    Ok(t) => t,
                    Err(e) => {
                        eprintln!("{e}");
                        return ExitCode::FAILURE;
                    }
                };
                let m = opts.machine;
                let mut cfg = SimConfig::sip(m, opts.config.workers.max(1) as u64);
                cfg.prefetch_depth = opts.config.prefetch_depth as u32;
                cfg.cache_blocks = opts.config.cache_blocks as u64;
                let r = simulate(&trace, &cfg);
                println!("machine: {}", m.name);
                println!(
                    "simulated time: {:.3} s over {} workers (wait {:.1}%)",
                    r.total_time,
                    opts.config.workers,
                    r.wait_fraction * 100.0
                );
                println!(
                    "work: {:.3} Tflop, {:.2} GiB moved",
                    r.total_flops as f64 / 1e12,
                    r.total_bytes as f64 / (1u64 << 30) as f64
                );
                for ph in &r.phases {
                    if ph.time > 1e-3 * r.total_time {
                        println!("  {:<16} {:>10.3} s", ph.label, ph.time);
                    }
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
        _ => usage(),
    }
}
