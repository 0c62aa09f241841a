//! A Global-Arrays-style baseline runtime model (the Figure 7 comparator).
//!
//! The paper attributes NWChem/GA's disadvantage to two mechanisms:
//!
//! 1. "The Global Array Toolkit … requires a very rigorous organization of
//!    the data blocks and communication patterns" — a *rigid memory layout*:
//!    if the arrays do not fit the per-core memory the layout demands, "the
//!    calculation will simply not run" (NWChem failed outright at 1 GB/core
//!    and at 16 processors with 2–4 GB/core).
//! 2. Overlap "must be incorporated manually" with explicit nonblocking
//!    gets/waits — absent that, communication is exposed.
//!
//! [`simulate_ga`] models both: a hard memory-feasibility gate computed from
//! the workload's array footprint under a rigidity factor, and the same
//! trace replayed with no prefetch pipeline plus higher per-transfer
//! software overhead (one-sided handshake + explicit synchronization).

use crate::machine::MachineModel;
use crate::sip_model::{simulate, SimConfig, SimReport};
use sia_runtime::trace::Trace;

/// GA-baseline configuration.
#[derive(Debug, Clone, Copy)]
pub struct GaConfig {
    /// Worker count.
    pub workers: u64,
    /// Machine (its `mem_per_core` is the Figure 7 sweep variable).
    pub machine: MachineModel,
    /// Multiplier on the distributed footprint for the rigid layout
    /// (mirrors GA's requirement to materialize full arrays plus
    /// communication buffers; > 1).
    pub rigidity: f64,
    /// Replicated bytes every process must hold regardless of scale.
    pub replicated_bytes: u64,
    /// Software overhead per one-sided transfer (seconds).
    pub per_transfer_overhead: f64,
    /// Fraction of the machine's DGEMM rate the baseline sustains. GA-era
    /// NWChem tiles fine-grained one-sided accesses through the compute
    /// loop, so its sustained rate sits well below a block-structured code's
    /// — visible in Figure 7 as a constant offset between parallel curves.
    pub compute_efficiency: f64,
}

impl GaConfig {
    /// Defaults matching the Figure 7 setup.
    pub fn new(machine: MachineModel, workers: u64) -> Self {
        GaConfig {
            workers,
            machine,
            rigidity: 3.25,
            replicated_bytes: 900 << 20,
            per_transfer_overhead: 6.0e-6,
            compute_efficiency: 0.4,
        }
    }
}

/// Outcome of a GA-baseline run.
#[derive(Debug, Clone, PartialEq)]
pub enum GaOutcome {
    /// The layout fit; timed results follow.
    Completed(SimReport),
    /// The rigid layout did not fit per-core memory — the run never starts
    /// ("NWChem did not successfully complete the calculation").
    OutOfMemory {
        /// Bytes per core the layout demanded.
        needed_per_core: u64,
        /// Bytes per core the machine offers.
        available_per_core: u64,
    },
}

impl GaOutcome {
    /// The report, if the run completed.
    pub fn report(&self) -> Option<&SimReport> {
        match self {
            GaOutcome::Completed(r) => Some(r),
            GaOutcome::OutOfMemory { .. } => None,
        }
    }
}

/// Simulates the GA baseline on a trace whose distributed arrays total
/// `dist_bytes_total` bytes.
pub fn simulate_ga(trace: &Trace, cfg: &GaConfig, dist_bytes_total: u64) -> GaOutcome {
    // Rigid layout feasibility gate.
    let needed =
        (dist_bytes_total as f64 * cfg.rigidity / cfg.workers as f64) as u64 + cfg.replicated_bytes;
    if needed > cfg.machine.mem_per_core {
        return GaOutcome::OutOfMemory {
            needed_per_core: needed,
            available_per_core: cfg.machine.mem_per_core,
        };
    }
    // Same machine at the baseline's sustained rate, no overlap pipeline,
    // heavier per-transfer software cost.
    let mut machine = cfg.machine;
    machine.flops_per_core *= cfg.compute_efficiency.clamp(0.01, 1.0);
    let sim_cfg = SimConfig {
        io_servers: 1,
        prefetch_depth: 0,
        cache_blocks: 1,
        per_transfer_overhead: cfg.per_transfer_overhead,
        ..SimConfig::sip(machine, cfg.workers)
    };
    GaOutcome::Completed(simulate(trace, &sim_cfg))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::machine::SGI_ALTIX;
    use crate::sip_model::SimConfig;
    use sia_runtime::trace::{IterProfile, TracePhase};

    fn trace() -> Trace {
        Trace {
            phases: vec![TracePhase::Pardo {
                pc: 0,
                iterations: 4000,
                per_iter: IterProfile {
                    gets: 4,
                    get_bytes: 4 * 512 * 1024,
                    puts: 1,
                    put_bytes: 512 * 1024,
                    flops: 400_000_000,
                    ..Default::default()
                },
            }],
        }
    }

    #[test]
    fn oom_when_rigid_layout_does_not_fit() {
        // 64 GB of distributed data, 2× rigidity, 16 workers → 8 GB/core
        // needed against 1 GB available.
        let machine = SGI_ALTIX.with_mem_per_core(1 << 30);
        let cfg = GaConfig::new(machine, 16);
        let out = simulate_ga(&trace(), &cfg, 64 << 30);
        assert!(matches!(out, GaOutcome::OutOfMemory { .. }));
        assert!(out.report().is_none());
    }

    #[test]
    fn completes_with_enough_memory() {
        let machine = SGI_ALTIX.with_mem_per_core(4 << 30);
        let cfg = GaConfig::new(machine, 64);
        // 32 GB × 3.25 rigidity / 64 workers + 0.9 GB replicated ≈ 2.5 GB.
        let out = simulate_ga(&trace(), &cfg, 32 << 30);
        assert!(out.report().is_some());
    }

    #[test]
    fn slower_than_sip_on_same_machine() {
        let machine = SGI_ALTIX.with_mem_per_core(16 << 30);
        let t = trace();
        let ga = simulate_ga(&t, &GaConfig::new(machine, 64), 1 << 30)
            .report()
            .unwrap()
            .total_time;
        let sip = simulate(&t, &SimConfig::sip(machine, 64)).total_time;
        assert!(
            ga > sip,
            "GA (no overlap, heavier transfers) must be slower: {ga} vs {sip}"
        );
    }

    #[test]
    fn more_memory_does_not_change_speed_once_feasible() {
        // Figure 7: NWChem@2GB and @4GB track each other — memory buys
        // feasibility, not speed.
        let t = trace();
        let g2 = simulate_ga(
            &t,
            &GaConfig::new(SGI_ALTIX.with_mem_per_core(2 << 30), 64),
            8 << 30,
        );
        let g4 = simulate_ga(
            &t,
            &GaConfig::new(SGI_ALTIX.with_mem_per_core(4 << 30), 64),
            8 << 30,
        );
        let (Some(r2), Some(r4)) = (g2.report(), g4.report()) else {
            panic!("both must complete");
        };
        assert!((r2.total_time - r4.total_time).abs() < 1e-12);
    }
}
