//! Served-array checkpoint/restart: a fault-tolerant run commits each
//! `server_barrier` as an epoch (I/O servers flush and acknowledge, the
//! master records `epochs.manifest`), and a later run over the same
//! `run_dir` resumes from the last consistent epoch via the
//! `sip_resume_epoch` intrinsic.

use sia_bytecode::ConstBindings;
use sia_runtime::{FaultConfig, FaultPlan, Sip, SipConfig};
use std::path::{Path, PathBuf};

const PRODUCE: &str = "sial produce
aoindex i = 1, n
aoindex j = 1, n
served Big(i,j)
temp t(i,j)
pardo i, j
  t(i,j) = 10.0 * i + j
  prepare Big(i,j) = t(i,j)
endpardo i, j
server_barrier
endsial
";

const RESUME: &str = "sial resume
aoindex i = 1, n
aoindex j = 1, n
served Big(i,j)
distributed Out(i,j)
temp u(i,j)
scalar r
execute sip_resume_epoch r
pardo i, j
  request Big(i,j)
  u(i,j) = Big(i,j)
  put Out(i,j) = u(i,j)
endpardo i, j
sip_barrier
endsial
";

fn tmpdir(tag: &str) -> PathBuf {
    let d = std::env::temp_dir().join(format!("sia-restart-{tag}-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&d);
    d
}

fn config(run_dir: &Path) -> SipConfig {
    config_with_segments(run_dir, 3)
}

fn config_with_segments(run_dir: &Path, segment_size: usize) -> SipConfig {
    // An inert fault plan: no injected faults, but the full fault-tolerance
    // machinery (epoch commits, manifests, retries) is armed.
    SipConfig::builder()
        .workers(2)
        .io_servers(1)
        .segment_size(segment_size)
        .collect_distributed(true)
        .run_dir(run_dir)
        .fault(FaultConfig::new(FaultPlan::seeded(9)))
        .build()
        .unwrap()
}

#[test]
fn restart_resumes_from_epoch_manifest() {
    let dir = tmpdir("manifest");
    let bindings: ConstBindings = [("n".to_string(), 4i64)].into_iter().collect();

    // First run: produce the served array and commit one epoch. (A run
    // killed after this barrier restarts from exactly this state — the
    // manifest only advances at a server_barrier.)
    let produce = sial_frontend::compile(PRODUCE).unwrap();
    Sip::new(config(&dir)).run(produce, &bindings).unwrap();
    assert!(
        dir.join("epochs.manifest").is_file(),
        "master must record the committed epoch"
    );

    // Restarted run over the same directory: sees the committed epoch and
    // serves the persisted blocks.
    let resume = sial_frontend::compile(RESUME).unwrap();
    let out = Sip::new(config(&dir)).run(resume, &bindings).unwrap();
    assert_eq!(
        out.scalars["r"], 1.0,
        "sip_resume_epoch must report the committed epoch count"
    );
    for i in 1..=4i64 {
        for j in 1..=4i64 {
            let block = &out.collected["Out"][&vec![i, j]];
            let want = 10.0 * i as f64 + j as f64;
            assert!(
                block.data().iter().all(|&x| x == want),
                "block ({i},{j}): got {:?}, want {want}",
                &block.data()[..2]
            );
        }
    }

    // A fresh directory reports zero resumed epochs.
    let fresh = tmpdir("fresh");
    let resume2 = sial_frontend::compile(RESUME).unwrap();
    let out2 = Sip::new(config(&fresh)).run(resume2, &bindings).unwrap();
    assert_eq!(out2.scalars["r"], 0.0);

    let _ = std::fs::remove_dir_all(&dir);
    let _ = std::fs::remove_dir_all(&fresh);
}

/// A rerun over the same run directory counts its epochs on from the
/// manifest: two runs of a program with two `server_barrier`s commit four
/// epochs, not epochs 1 and 2 twice.
#[test]
fn rerun_counts_epochs_on_from_the_manifest() {
    const TWICE: &str = "sial twice
aoindex i = 1, n
aoindex j = 1, n
served Big(i,j)
temp t(i,j)
pardo i, j
  t(i,j) = 10.0 * i + j
  prepare Big(i,j) = t(i,j)
endpardo i, j
server_barrier
pardo i, j
  t(i,j) = 20.0 * i + j
  prepare Big(i,j) = t(i,j)
endpardo i, j
server_barrier
endsial
";
    let dir = tmpdir("rerun");
    let bindings: ConstBindings = [("n".to_string(), 4i64)].into_iter().collect();
    let manifest = || std::fs::read_to_string(dir.join("epochs.manifest")).unwrap();
    for want in ["2", "4"] {
        let program = sial_frontend::compile(TWICE).unwrap();
        Sip::new(config(&dir)).run(program, &bindings).unwrap();
        assert_eq!(manifest().trim(), want, "epochs committed so far");
    }
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart over a run directory whose manifest is corrupt fails with a
/// checkpoint error instead of silently resuming at epoch 0, and it fails
/// before any rank runs: nothing is written to the directory.
#[test]
fn corrupt_manifest_fails_the_restart() {
    let dir = tmpdir("corrupt");
    std::fs::create_dir_all(&dir).unwrap();
    std::fs::write(dir.join("epochs.manifest"), "1x\n").unwrap();
    let bindings: ConstBindings = [("n".to_string(), 4i64)].into_iter().collect();
    let resume = sial_frontend::compile(RESUME).unwrap();
    let err = Sip::new(config(&dir)).run(resume, &bindings).unwrap_err();
    assert!(
        matches!(err, sia_runtime::RuntimeError::Checkpoint(_)),
        "{err}"
    );
    let entries = std::fs::read_dir(&dir).unwrap().count();
    assert_eq!(entries, 1, "the failed run left files behind");
    let _ = std::fs::remove_dir_all(&dir);
}

/// A restart that declares the served array with another block size finds a
/// store file whose slots are not its own: the I/O server refuses it and the
/// run ends with that error — it neither reads blocks at the wrong offsets
/// nor leaves the workers waiting on a server that is gone. A run that only
/// prepares, into a cache that holds the whole array and with no epochs to
/// commit, first touches the store in its last flush, after every worker is
/// done: that is no less a failed run, its blocks are not on disk.
#[test]
fn restart_with_another_geometry_is_a_typed_error() {
    let dir = tmpdir("geometry");
    let bindings: ConstBindings = [("n".to_string(), 4i64)].into_iter().collect();
    let produce = sial_frontend::compile(PRODUCE).unwrap();
    Sip::new(config(&dir)).run(produce, &bindings).unwrap();

    let armed = config_with_segments(&dir, 6);
    let plain = SipConfig {
        fault: None,
        ..armed.clone()
    };
    for (program, config, why) in [
        (RESUME, armed, "6x6 blocks read from 3x3 slots"),
        (PRODUCE, plain, "6x6 blocks flushed into 3x3 slots"),
    ] {
        let err = Sip::new(config)
            .run(sial_frontend::compile(program).unwrap(), &bindings)
            .expect_err(why);
        let message = err.to_string();
        assert!(
            message.contains("served-array I/O failure")
                && message.contains("written for geometry"),
            "{message}"
        );
    }
    let _ = std::fs::remove_dir_all(&dir);
}
