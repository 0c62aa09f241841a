//! Machine models of the systems in the paper's evaluation (§VI).
//!
//! Parameters are calibrated to published 2008–2010 specifications and to the
//! sustained (not peak) rates dense tensor kernels achieved on them. They do
//! not need to be exact: the experiments compare *shapes* across processor
//! counts and machines, which depend on the ratios (flops : latency :
//! bandwidth), not on absolute values.

/// A parallel machine for the simulator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct MachineModel {
    /// Human-readable name.
    pub name: &'static str,
    /// Sustained double-precision flop/s per core on DGEMM-shaped kernels.
    pub flops_per_core: f64,
    /// One-way network latency per message (seconds), including software
    /// overhead.
    pub net_latency: f64,
    /// Injection bandwidth available to one core (bytes/s) when the network
    /// is uncontended.
    pub link_bw_per_core: f64,
    /// Exponent of aggregate-bandwidth scaling: per-core effective bandwidth
    /// under full load is `link_bw_per_core · P^(net_scale_exp − 1)`.
    /// 1.0 = full-bisection fat tree; ~0.9 for large 3-D torus partitions.
    pub net_scale_exp: f64,
    /// Master service time per scheduler request (seconds of master CPU).
    pub master_service: f64,
    /// Master time per *iteration* handed out: the master enumerates the
    /// filtered iteration space and marshals each chunk's iteration list
    /// (exactly what the real SIP master does), so huge fine-grained pardos
    /// serialize on the master at extreme scale — the Figure 6 mechanism.
    pub master_per_iter: f64,
    /// Sustained disk bandwidth per I/O server (bytes/s).
    pub disk_bw: f64,
    /// Memory per core (bytes) — the resource Figure 7 varies.
    pub mem_per_core: u64,
    /// Cores per node (for reporting; contention is folded into
    /// `net_scale_exp`).
    pub cores_per_node: usize,
}

impl MachineModel {
    /// Effective per-core bandwidth with `p` cores communicating at once.
    pub fn effective_bw(&self, p: u64) -> f64 {
        let p = p.max(1) as f64;
        self.link_bw_per_core * p.powf(self.net_scale_exp - 1.0)
    }

    /// Time to move `bytes` in `messages` messages from one core, under load
    /// from `p` concurrently communicating cores.
    pub fn transfer_time(&self, messages: u64, bytes: u64, p: u64) -> f64 {
        messages as f64 * self.net_latency + bytes as f64 / self.effective_bw(p)
    }

    /// Log-tree barrier cost across `p` cores.
    pub fn barrier_time(&self, p: u64) -> f64 {
        let stages = (p.max(2) as f64).log2().ceil();
        2.0 * stages * self.net_latency
    }

    /// Returns a copy with a different per-core memory (Figure 7 sweeps
    /// 1/2/4 GB per core).
    pub const fn with_mem_per_core(mut self, bytes: u64) -> Self {
        self.mem_per_core = bytes;
        self
    }
}

/// Sun Opteron cluster with InfiniBand — "midnight" at ARSC (Figure 2).
/// 2.6 GHz dual-core Opterons, SDR/DDR InfiniBand.
pub const SUN_OPTERON_IB: MachineModel = MachineModel {
    name: "Sun Opteron cluster (midnight, ARSC)",
    flops_per_core: 4.2e9,
    net_latency: 4.0e-6,
    link_bw_per_core: 700.0e6,
    net_scale_exp: 0.97,
    master_service: 3.0e-6,
    master_per_iter: 2.5e-6,
    disk_bw: 200.0e6,
    mem_per_core: 4 << 30,
    cores_per_node: 4,
};

/// Cray XT4 — "kraken" at NICS (Figure 3). Dual-core Opteron + SeaStar2.
pub const CRAY_XT4: MachineModel = MachineModel {
    name: "Cray XT4 (kraken, NICS)",
    flops_per_core: 4.4e9,
    net_latency: 6.5e-6,
    link_bw_per_core: 1.1e9,
    net_scale_exp: 0.93,
    master_service: 2.5e-6,
    master_per_iter: 2.5e-6,
    disk_bw: 400.0e6,
    mem_per_core: 2 << 30,
    cores_per_node: 4,
};

/// Cray XT5 — "jaguar" at ORNL / "pingo" at ARSC (Figures 3–6). Quad-core
/// Opteron + SeaStar2+.
pub const CRAY_XT5: MachineModel = MachineModel {
    name: "Cray XT5 (jaguar, ORNL)",
    flops_per_core: 8.8e9,
    net_latency: 5.0e-6,
    link_bw_per_core: 1.4e9,
    net_scale_exp: 0.93,
    master_service: 2.0e-6,
    master_per_iter: 2.5e-6,
    disk_bw: 600.0e6,
    mem_per_core: 2 << 30,
    cores_per_node: 8,
};

/// SGI Altix 4700 — "pople" at PSC (Figure 7). Itanium2 + NUMAlink.
pub const SGI_ALTIX: MachineModel = MachineModel {
    name: "SGI Altix 4700 (pople, PSC)",
    flops_per_core: 5.8e9,
    net_latency: 1.5e-6,
    link_bw_per_core: 1.8e9,
    net_scale_exp: 0.99,
    master_service: 2.0e-6,
    master_per_iter: 2.5e-6,
    disk_bw: 500.0e6,
    mem_per_core: 2 << 30,
    cores_per_node: 2,
};

/// BlueGene/P at Argonne (§VI-A port anecdote). 850 MHz PPC450: very slow
/// cores against a comparatively capable torus — "significantly different
/// processor/network performance ratios" — and little memory per core.
pub const BLUEGENE_P: MachineModel = MachineModel {
    name: "BlueGene/P (intrepid, ALCF)",
    // 850 MHz PPC450 with the double-hummer FPU: 3.4 GF peak, ~65%
    // sustained on DGEMM — about a quarter of an XT5 core, matching the
    // paper's "within a factor of four commensurate with the ratio of the
    // processor speeds".
    flops_per_core: 2.2e9,
    net_latency: 3.5e-6,
    link_bw_per_core: 0.9e9,
    net_scale_exp: 0.92,
    master_service: 6.0e-6,
    master_per_iter: 5.0e-6,
    disk_bw: 300.0e6,
    mem_per_core: 512 << 20,
    cores_per_node: 4,
};

/// All presets, for sweep harnesses.
pub const ALL_MACHINES: &[MachineModel] =
    &[SUN_OPTERON_IB, CRAY_XT4, CRAY_XT5, SGI_ALTIX, BLUEGENE_P];

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn effective_bw_decreases_with_scale() {
        let m = CRAY_XT5;
        assert!(m.effective_bw(1) >= m.effective_bw(1000));
        assert!(m.effective_bw(1000) >= m.effective_bw(100_000));
        // Full-bisection machine does not lose bandwidth.
        let fat = MachineModel {
            net_scale_exp: 1.0,
            ..CRAY_XT5
        };
        assert_eq!(fat.effective_bw(1), fat.effective_bw(100_000));
    }

    #[test]
    fn transfer_time_composition() {
        let m = SUN_OPTERON_IB;
        let t = m.transfer_time(2, 1_000_000, 1);
        assert!((t - (2.0 * m.net_latency + 1.0e6 / m.link_bw_per_core)).abs() < 1e-12);
    }

    #[test]
    fn barrier_grows_logarithmically() {
        let m = CRAY_XT5;
        let b1k = m.barrier_time(1024);
        let b1m = m.barrier_time(1 << 20);
        assert!(b1m > b1k);
        assert!((b1m / b1k - 2.0).abs() < 0.01, "log2 scaling: {b1k} {b1m}");
    }

    #[test]
    fn bgp_ratio_differs_from_xt5() {
        // The §VI-A anecdote hinges on BG/P having a much lower
        // compute-to-network ratio than the XT5 (slow cores, capable torus).
        let xt5 = CRAY_XT5.flops_per_core / CRAY_XT5.link_bw_per_core;
        let bgp = BLUEGENE_P.flops_per_core / BLUEGENE_P.link_bw_per_core;
        assert!(xt5 > 2.0 * bgp, "xt5 ratio {xt5}, bgp ratio {bgp}");
        // And on BG/P cores being ~4× slower (the paper's "factor of four").
        let speed_ratio = CRAY_XT5.flops_per_core / BLUEGENE_P.flops_per_core;
        assert!((3.0..6.0).contains(&speed_ratio));
    }

    #[test]
    fn mem_override() {
        let m = SGI_ALTIX.with_mem_per_core(1 << 30);
        assert_eq!(m.mem_per_core, 1 << 30);
        assert_eq!(m.name, SGI_ALTIX.name);
    }
}
