//! Quickstart: compile and run the paper's §IV-D contraction on the SIP.
//!
//! The SIAL program computes `R(M,N,I,J) = Σ_{L,S} V(M,N,L,S)·T(L,S,I,J)`
//! where `V` blocks are computed on demand by a registered super instruction
//! and `T` is a distributed array — the exact example the paper walks
//! through, at laptop scale.
//!
//! ```text
//! cargo run --release --example quickstart
//! ```

use sia::{ConstBindings, Sip, SipConfig};

const PROGRAM: &str = r#"
sial quickstart
aoindex M = 1, norb
aoindex N = 1, norb
aoindex L = 1, norb
aoindex S = 1, norb
moindex I = 1, nocc
moindex J = 1, nocc
distributed T(L,S,I,J)
distributed R(M,N,I,J)
temp V(M,N,L,S)
temp tmp(M,N,I,J)
temp tmpsum(M,N,I,J)
temp seed(L,S,I,J)
scalar rnorm

# Phase 1: fill the distributed T array.
pardo L, S, I, J
  execute fill_t seed(L,S,I,J)
  put T(L,S,I,J) = seed(L,S,I,J)
endpardo L, S, I, J
sip_barrier

# Phase 2: the paper's contraction (its Section IV-D listing).
pardo M, N, I, J
  tmpsum(M,N,I,J) = 0.0
  do L
    do S
      get T(L,S,I,J)
      execute compute_integrals V(M,N,L,S)
      tmp(M,N,I,J) = V(M,N,L,S) * T(L,S,I,J)
      tmpsum(M,N,I,J) += tmp(M,N,I,J)
    enddo S
  enddo L
  put R(M,N,I,J) = tmpsum(M,N,I,J)
endpardo M, N, I, J
sip_barrier

# Phase 3: a global diagnostic, ‖R‖².
pardo M, N, I, J
  get R(M,N,I,J)
  rnorm += R(M,N,I,J) * R(M,N,I,J)
endpardo M, N, I, J
sip_barrier
execute sip_allreduce rnorm
print "||R||^2 =", rnorm
endsial
"#;

fn main() {
    // Show the compiled bytecode first — the "assembly" of the SIA.
    let program = sia::compile(PROGRAM).expect("SIAL compiles");
    println!("--- SIA bytecode ---");
    print!("{}", sia::disassemble(&program));
    println!("--------------------\n");

    let config = SipConfig::builder()
        .workers(3)
        .io_servers(1)
        .segment_size(4)
        .collect_distributed(true)
        .build()
        .expect("valid config");
    let bindings: ConstBindings = [("norb".to_string(), 3), ("nocc".to_string(), 2)]
        .into_iter()
        .collect();
    let mut sip = Sip::new(config);
    sip.registry_mut().register("fill_t", |args, _env| {
        let segs: Vec<i64> = args[0].segs()?.to_vec();
        let salt: f64 = segs.iter().map(|&s| s as f64).sum();
        args[0].block_mut()?.fill(0.25 * salt);
        Ok(())
    });
    sip.registry_mut()
        .register("compute_integrals", |args, _env| {
            let segs: Vec<i64> = args[0].segs()?.to_vec();
            let salt: f64 = segs
                .iter()
                .enumerate()
                .map(|(d, &s)| (d as f64 + 1.0) * s as f64)
                .sum();
            args[0].block_mut()?.fill(1.0 / (1.0 + salt));
            Ok(())
        });
    let out = sip.run(program, &bindings).expect("run succeeds");

    println!("scalars: {:?}", out.scalars);
    println!(
        "dry-run estimate: {} KiB per worker",
        out.dry_run.per_worker_bytes / 1024
    );
    println!(
        "traffic: {} messages, {} KiB",
        out.traffic.messages,
        out.traffic.bytes / 1024
    );
    println!("\n--- profile (top lines) ---");
    println!("{}", out.profile);
    assert!(out.scalars["rnorm"] > 0.0);
}
