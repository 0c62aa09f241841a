//! Integration tests of the `sial` command-line driver, run against the
//! built binary (`CARGO_BIN_EXE_sial`).

use std::path::PathBuf;
use std::process::Command;

fn sial() -> Command {
    Command::new(env!("CARGO_BIN_EXE_sial"))
}

fn write_demo(tag: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sia-cli-{tag}-{}.sial", std::process::id()));
    std::fs::write(
        &path,
        r#"
sial cli_demo
aoindex i = 1, n
distributed X(i)
temp t(i)
scalar s
pardo i
  t(i) = 1.5
  put X(i) = t(i)
endpardo i
sip_barrier
pardo i
  get X(i)
  s += X(i) * X(i)
endpardo i
sip_barrier
execute sip_allreduce s
endsial
"#,
    )
    .unwrap();
    path
}

#[test]
fn check_reports_table_sizes() {
    let path = write_demo("check");
    let out = sial()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("ok —"), "{stdout}");
    assert!(stdout.contains("instructions"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_rejects_bad_source() {
    let path = std::env::temp_dir().join(format!("sia-cli-bad-{}.sial", std::process::id()));
    std::fs::write(&path, "sial broken\npardo\nendsial\n").unwrap();
    let out = sial()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("error"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn compile_disasm_run_pipeline() {
    let src = write_demo("pipeline");
    let bin = src.with_extension("siab");
    // compile
    let out = sial()
        .args([
            "compile",
            src.to_str().unwrap(),
            "-o",
            bin.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(bin.exists());
    // disasm the binary form
    let out = sial()
        .args(["disasm", bin.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(out.status.success());
    let listing = String::from_utf8_lossy(&out.stdout);
    assert!(listing.contains("pardo i"), "{listing}");
    assert!(listing.contains("put X(i) = t(i)"), "{listing}");
    // run the binary form: s = n segments × seg elements × 1.5².
    let out = sial()
        .args([
            "run",
            bin.to_str().unwrap(),
            "--workers",
            "2",
            "--seg",
            "4",
            "--bind",
            "n=5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("s = 45.0"), "{stdout}");
    let _ = std::fs::remove_file(src);
    let _ = std::fs::remove_file(bin);
}

#[test]
fn dryrun_prints_estimate() {
    let path = write_demo("dryrun");
    let out = sial()
        .args([
            "dryrun",
            path.to_str().unwrap(),
            "--workers",
            "4",
            "--seg",
            "8",
            "--bind",
            "n=16",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("per-worker estimate"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn simulate_prints_scaling_result() {
    let path = write_demo("sim");
    let out = sial()
        .args([
            "simulate",
            path.to_str().unwrap(),
            "--workers",
            "512",
            "--machine",
            "xt4",
            "--seg",
            "8",
            "--bind",
            "n=64",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("Cray XT4"), "{stdout}");
    assert!(stdout.contains("simulated time"), "{stdout}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn usage_on_missing_args() {
    let out = sial().output().unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage"));
}

#[test]
fn unknown_machine_rejected() {
    let path = write_demo("badmachine");
    let out = sial()
        .args(["simulate", path.to_str().unwrap(), "--machine", "cray-3"])
        .output()
        .unwrap();
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("unknown machine"));
    let _ = std::fs::remove_file(path);
}

#[test]
fn shipped_programs_run() {
    // Every program under programs/ must at least pass `check`; the
    // chemistry ones run with --chem.
    let root = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("programs");
    let mut found = 0;
    for entry in std::fs::read_dir(&root).unwrap().flatten() {
        let path = entry.path();
        if path.extension().and_then(|e| e.to_str()) != Some("sial") {
            continue;
        }
        found += 1;
        let out = sial()
            .args(["check", path.to_str().unwrap()])
            .output()
            .unwrap();
        assert!(
            out.status.success(),
            "{}: {}",
            path.display(),
            String::from_utf8_lossy(&out.stderr)
        );
    }
    assert!(found >= 4, "expected the shipped programs, found {found}");

    // Run the triangular demo end to end (no chemistry kernels needed).
    let tri = root.join("triangular.sial");
    let out = sial()
        .args([
            "run",
            tri.to_str().unwrap(),
            "--workers",
            "2",
            "--seg",
            "4",
            "--nsub",
            "2",
            "--bind",
            "n=4",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    // Upper triangle of a 4×4 block grid = 10 blocks.
    assert!(stdout.contains("total = 10.0"), "{stdout}");

    // And the MP2 demo with the chemistry kernels.
    let mp2 = root.join("mp2.sial");
    let out = sial()
        .args([
            "run",
            mp2.to_str().unwrap(),
            "--workers",
            "2",
            "--seg",
            "4",
            "--bind",
            "nocc=2",
            "--bind",
            "nvrt=4",
            "--chem",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("emp2 ="));
}

fn write_racy(tag: &str, body: &str) -> PathBuf {
    let path = std::env::temp_dir().join(format!("sia-cli-racy-{tag}-{}.sial", std::process::id()));
    std::fs::write(&path, body).unwrap();
    path
}

#[test]
fn check_flags_write_write_race() {
    // Two pardo iterations differing only in j overwrite X(i): the race
    // detector must name the uncovered index and fail the check.
    let path = write_racy(
        "ww",
        "sial racy_ww
aoindex i = 1, n
aoindex j = 1, n
distributed X(i)
temp t(i)
pardo i, j
  t(i) = 1.0
  put X(i) = t(i)
endpardo i, j
sip_barrier
endsial
",
    );
    let out = sial()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("write-write-race"), "{stderr}");
    assert!(stderr.contains("put X(i) = t(i)"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn check_flags_unbarriered_get_after_put() {
    let path = write_racy(
        "gap",
        "sial racy_gap
aoindex i = 1, n
distributed X(i)
temp t(i)
temp u(i)
pardo i
  t(i) = 1.0
  put X(i) = t(i)
endpardo i
pardo i
  get X(i)
  u(i) = X(i)
endpardo i
endsial
",
    );
    let out = sial()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("get-after-put"), "{stderr}");
    assert!(stderr.contains("sip_barrier"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

#[test]
fn trace_and_profile_exports_lint_clean() {
    let src = write_demo("trace");
    let dir = std::env::temp_dir();
    let trace = dir.join(format!("sia-cli-trace-{}.json", std::process::id()));
    let profile = dir.join(format!("sia-cli-prof-{}.json", std::process::id()));
    let out = sial()
        .args([
            "run",
            src.to_str().unwrap(),
            "--workers",
            "2",
            "--seg",
            "4",
            "--bind",
            "n=5",
            "--profile",
            "--trace",
            trace.to_str().unwrap(),
            "--profile-json",
            profile.to_str().unwrap(),
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("overlap:"), "{stdout}");
    assert!(stdout.contains("block arrival"), "{stdout}");

    // Both exports must pass the linter, and the trace must cover the
    // master, both workers, and the I/O server.
    let out = sial()
        .args(["trace-lint", trace.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let lint = String::from_utf8_lossy(&out.stdout);
    assert!(lint.contains("trace events"), "{lint}");
    for rank in ["rank 0 (master)", "rank 1 (worker 1)", "rank 3 (io 3)"] {
        assert!(lint.contains(rank), "missing {rank}: {lint}");
    }
    let out = sial()
        .args(["trace-lint", profile.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("sia.profile.v1"));

    // The linter rejects files that are not valid exports.
    let junk = dir.join(format!("sia-cli-junk-{}.json", std::process::id()));
    std::fs::write(&junk, "{\"traceEvents\": [{\"ph\": \"X\"}]}").unwrap();
    let out = sial()
        .args(["trace-lint", junk.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());

    for p in [src, trace, profile, junk] {
        let _ = std::fs::remove_file(p);
    }
}

#[test]
fn check_flag_gates_a_run() {
    // `run --check` must refuse to launch the SIP on a racy program…
    let racy = write_racy(
        "gate",
        "sial racy_gate
aoindex i = 1, n
aoindex j = 1, n
distributed X(i)
temp t(i)
pardo i, j
  t(i) = 1.0
  put X(i) = t(i)
endpardo i, j
sip_barrier
endsial
",
    );
    let out = sial()
        .args(["run", racy.to_str().unwrap(), "--check", "--bind", "n=2"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(stderr.contains("refusing to run"), "{stderr}");
    // Its findings read as `sial check` prints them: located in the file.
    let located = format!("{}:8:1: error[verify/write-write-race]", racy.display());
    assert!(stderr.contains(&located), "{stderr}");
    // …and nothing ran: no iteration summary on stdout.
    assert!(!String::from_utf8_lossy(&out.stdout).contains("iterations:"));
    let _ = std::fs::remove_file(racy);

    // A clean program passes the gate and still runs to completion.
    let clean = write_demo("gateok");
    let out = sial()
        .args([
            "run",
            clean.to_str().unwrap(),
            "--check",
            "--workers",
            "2",
            "--seg",
            "4",
            "--bind",
            "n=5",
        ])
        .output()
        .unwrap();
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(String::from_utf8_lossy(&out.stdout).contains("s = 45.0"));
    let _ = std::fs::remove_file(clean);
}

#[test]
fn check_json_is_schema_valid_for_clean_and_racy_programs() {
    // Clean program: a sia.diag.v1 document with zero diagnostics.
    let clean = write_demo("jsonclean");
    let out = sial()
        .args(["check", clean.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    sia::runtime::lint_diag_json(&doc).expect("schema-valid diagnostics JSON");
    assert!(doc.contains("\"count\":0"), "{doc}");
    let _ = std::fs::remove_file(clean);

    // Racy program: failing exit code, but still a schema-valid document
    // whose finding carries the verifier code and a source line.
    let racy = write_racy(
        "json",
        "sial racy_json
aoindex i = 1, n
aoindex j = 1, n
distributed X(i)
temp t(i)
pardo i, j
  t(i) = 1.0
  put X(i) = t(i)
endpardo i, j
sip_barrier
endsial
",
    );
    let out = sial()
        .args(["check", racy.to_str().unwrap(), "--json"])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let doc = String::from_utf8_lossy(&out.stdout);
    sia::runtime::lint_diag_json(&doc).expect("schema-valid diagnostics JSON");
    assert!(doc.contains("verify/write-write-race"), "{doc}");
    assert!(doc.contains("\"line\":8"), "the put is on line 8: {doc}");
    let _ = std::fs::remove_file(racy);
}

#[test]
fn check_reports_every_error_with_file_line_col() {
    // Statement-level recovery: one pass reports both broken statements,
    // each located as file:line:col.
    let path = write_racy(
        "multi",
        "sial multi
aoindex i = 1, n
temp t(i)
pardo i
  t(i) =
  this is not a statement
endpardo i
endsial
",
    );
    let out = sial()
        .args(["check", path.to_str().unwrap()])
        .output()
        .unwrap();
    assert!(!out.status.success());
    let stderr = String::from_utf8_lossy(&out.stderr);
    let name = path.to_str().unwrap();
    assert!(stderr.contains(&format!("{name}:5:")), "{stderr}");
    assert!(stderr.contains(&format!("{name}:6:")), "{stderr}");
    assert!(stderr.contains("2 finding(s)"), "{stderr}");
    let _ = std::fs::remove_file(path);
}

/// Kills the daemon a test started if the test fails before shutting it
/// down.
struct Daemon(std::process::Child);

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.0.kill();
        let _ = self.0.wait();
    }
}

#[test]
fn submit_forwards_run_flags_to_siald() {
    let dir = std::env::temp_dir().join(format!("sia-cli-siald-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).unwrap();
    let socket = dir.join("siald.sock");
    let mut daemon = Daemon(
        Command::new(env!("CARGO_BIN_EXE_siald"))
            .arg("--socket")
            .arg(&socket)
            .arg("--data-dir")
            .arg(dir.join("data"))
            .stdout(std::process::Stdio::null())
            .spawn()
            .unwrap(),
    );
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(30);
    while !socket.exists() {
        assert!(std::time::Instant::now() < deadline, "siald never bound");
        std::thread::sleep(std::time::Duration::from_millis(10));
    }
    let prog = write_demo("siald");
    let (prog, sock) = (prog.to_str().unwrap(), socket.to_str().unwrap());

    let out = sial()
        .args(["submit", prog, sock, "--bind", "n=5", "--seg", "4"])
        .args(["--tenant", "t", "--wait"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(out.status.success(), "{stdout}");
    assert!(stdout.contains("tenant=t state=done"), "{stdout}");
    assert!(stdout.contains("scalar:s=45"), "{stdout}");

    // The retired `k=v` dialect is refused, by name.
    let out = sial()
        .args(["submit", prog, sock, "bind:n=5"])
        .output()
        .unwrap();
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(!out.status.success(), "{stdout}");
    assert!(
        stdout.starts_with("error ") && stdout.contains("bind:n=5"),
        "{stdout}"
    );

    let out = sial().args(["shutdown", sock]).output().unwrap();
    assert!(out.status.success());
    assert!(daemon.0.wait().unwrap().success());
    let _ = std::fs::remove_file(prog);
    let _ = std::fs::remove_dir_all(&dir);
}
