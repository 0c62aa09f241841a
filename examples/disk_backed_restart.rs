//! Served (disk-backed) arrays and the checkpoint facility.
//!
//! The paper's domain regularly exceeds aggregate RAM: "the rest are used
//! less frequently … and are usually kept on disk". This example exercises
//! both disk paths of the SIP:
//!
//! 1. `prepare`/`request` against a **served** array — blocks stream through
//!    the I/O servers' write-behind caches onto disk files;
//! 2. `blocks_to_list`/`list_to_blocks` — the "rudimentary checkpointing
//!    facility that allows programs to be restarted".
//!
//! ```text
//! cargo run --release --example disk_backed_restart
//! ```

use sia::{ConstBindings, Sip, SipConfig};

const PROGRAM: &str = r#"
sial disk_backed_restart
aoindex i = 1, n
aoindex j = 1, n
served Big(i,j)
distributed Work(i,j)
temp t(i,j)
temp u(i,j)
temp z(i,j)
scalar check

# Produce blocks and push them to disk through the I/O servers.
pardo i, j
  t(i,j) = 10.0 * i + j
  prepare Big(i,j) = t(i,j)
endpardo i, j
server_barrier

# Read them back, transform, store in a distributed array.
pardo i, j
  request Big(i,j)
  u(i,j) = 2.0 * Big(i,j)
  put Work(i,j) = u(i,j)
endpardo i, j
sip_barrier

# Checkpoint the distributed state …
blocks_to_list Work "converged_amplitudes"

# … clobber it (simulating a failed continuation) …
pardo i, j
  z(i,j) = 0.0
  put Work(i,j) = z(i,j)
endpardo i, j
sip_barrier

# … and restore from the checkpoint.
list_to_blocks Work "converged_amplitudes"
sip_barrier

pardo i, j
  get Work(i,j)
  check += Work(i,j) * Work(i,j)
endpardo i, j
sip_barrier
execute sip_allreduce check
endsial
"#;

fn main() {
    let n = 4i64;
    let seg = 4usize;
    // Keep the run directory so the block files are inspectable.
    let run_dir = std::env::temp_dir().join("sia-disk-backed-example");
    let _ = std::fs::remove_dir_all(&run_dir);

    let config = SipConfig::builder()
        .workers(2)
        .io_servers(2)
        .server_cache_blocks(3) // force spills to disk
        .collect_distributed(true)
        .run_dir(run_dir.clone())
        .segment_size(seg)
        .build()
        .expect("valid config");

    let bindings: ConstBindings = [("n".to_string(), n)].into_iter().collect();
    let program = sia::compile(PROGRAM).expect("SIAL compiles");
    let out = Sip::new(config)
        .run(program, &bindings)
        .expect("run succeeds");

    // Expected: Σ over all blocks/elements of (2·(10i+j))².
    let mut want = 0.0;
    for i in 1..=n {
        for j in 1..=n {
            let v = 2.0 * (10.0 * i as f64 + j as f64);
            want += (seg * seg) as f64 * v * v;
        }
    }
    let got = out.scalars["check"];
    println!("restored checksum = {got:.3} (expected {want:.3})");
    assert!((got - want).abs() < 1e-6);

    // Show what landed on disk.
    let served = run_dir.join("served");
    let mut block_files: Vec<_> = std::fs::read_dir(&served)
        .map(|rd| {
            rd.flatten()
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    block_files.sort();
    println!(
        "{} served block files on disk under {} (e.g. {:?})",
        block_files.len(),
        served.display(),
        &block_files[..block_files.len().min(3)]
    );
    let ckpt: Vec<_> = std::fs::read_dir(&run_dir)
        .map(|rd| {
            rd.flatten()
                .filter(|e| e.file_name().to_string_lossy().ends_with(".sialck"))
                .map(|e| e.file_name().to_string_lossy().into_owned())
                .collect()
        })
        .unwrap_or_default();
    println!("checkpoint files: {ckpt:?}");
    assert!(!block_files.is_empty());
    assert!(!ckpt.is_empty());
    println!("disk-backed arrays and checkpoint restart verified ✓");
}
