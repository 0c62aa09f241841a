//! A scaled-down RHF CCSD run: the workload behind the paper's Figures 2–4,
//! executed for real on the SIP with synthetic integrals.
//!
//! Runs three CCSD sweeps (particle-particle-ladder contraction, amplitude
//! update with orbital-energy denominators, energy reduction), storing the
//! amplitude history on disk through the I/O servers (`served` arrays), and
//! verifies determinism by re-running with a different worker count: the
//! result of a SIAL program must not depend on scheduling.
//!
//! ```text
//! cargo run --release --example ccsd_energy
//! ```

use sia::chem::{ccsd_converged, ccsd_iteration, Molecule};
use sia::SipConfig;

fn main() {
    // A scaled-down closed-shell molecule (the real luciferin needs a
    // cluster; the program and runtime paths are identical).
    let molecule = Molecule {
        name: "mini-luciferin",
        formula: "C11H8O3S2N2 / 24",
        electrons: 8,
        n_occ: 4,
        n_ao: 16,
        open_shell: false,
    };
    let seg = 4;
    let iterations = 3;
    let workload = ccsd_iteration(&molecule, seg, iterations);
    println!("workload: {}", workload.name);

    let mut energies = Vec::new();
    for workers in [1usize, 2, 4] {
        let config = SipConfig::builder()
            .workers(workers)
            .io_servers(1)
            .cache_blocks(128)
            .prefetch_depth(2)
            .build()
            .expect("valid config");
        let out = workload.run_real(config).expect("CCSD run succeeds");
        let e = out.scalars["ecorr"];
        println!(
            "workers={workers}: pseudo-correlation energy = {e:.12}, \
             iterations executed = {}, wait = {:.1}%",
            out.profile.iterations,
            out.profile.wait_fraction() * 100.0
        );
        energies.push(e);
    }
    // Scheduling must not change the numbers (accumulation order inside one
    // block is fixed; across blocks the sums are associative-safe here).
    for w in energies.windows(2) {
        assert!(
            (w[0] - w[1]).abs() < 1e-9,
            "energy must be independent of worker count: {energies:?}"
        );
    }
    println!("energy independent of worker count ✓");

    // The production pattern: iterate until the correlation energy stops
    // moving, leaving the sweep loop with SIAL's `exit` — the loop behind
    // Figure 2's "16 iterations to converge".
    let converged = ccsd_converged(&molecule, seg, 25, 1.0e-8);
    let out = converged
        .run_real(
            SipConfig::builder()
                .workers(2)
                .io_servers(0)
                .build()
                .expect("valid config"),
        )
        .expect("converged CCSD runs");
    println!(
        "convergence loop: ecorr = {:.12} after {} sweeps (cap was 25)",
        out.scalars["ecorr"], out.scalars["iters_run"]
    );
    assert!(
        out.scalars["iters_run"] < 25.0,
        "must converge before the cap"
    );
}
